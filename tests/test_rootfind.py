import math

import pytest

from begphase import canonical
from begphase.core import CanonicalParams
from begphase.rootfind import (bisect_newton, golden_min, monotone_roots,
                               piecewise_minima)


def _recorded(f, points):
    def g(x):
        points.append(x)
        return f(x)
    return g


def test_bisect_newton_stops_at_an_exact_zero():
    # Newton lands exactly on the root; the iterates must stay there rather
    # than treat f(x) = 0 as one side of the bracket and crawl to hi
    x = bisect_newton(lambda x: x - 0.3, lambda x: 1.0, 0.0, 1.0)
    assert abs(x - 0.3) <= math.ulp(0.3)


@pytest.mark.parametrize("kw", [{"start": 0.9}, {"ends": (-0.3, 0.7)},
                                {"start": 0.1, "ends": (-0.3, 0.7)}],
                         ids=["start", "ends", "start-and-ends"])
def test_bisect_newton_stops_at_an_exact_zero_from_its_start(kw):
    x = bisect_newton(lambda x: x - 0.3, lambda x: 1.0, 0.0, 1.0, **kw)
    assert abs(x - 0.3) <= math.ulp(0.3)


def test_bisect_newton_takes_the_end_values_it_is_given():
    points = []
    x = bisect_newton(_recorded(lambda x: x * x - 2.0, points), lambda x: 2.0 * x,
                      1.0, 2.0, ends=(-1.0, 2.0))
    assert abs(x - math.sqrt(2.0)) <= math.ulp(1.5)
    assert points and 1.0 not in points and 2.0 not in points


@pytest.mark.parametrize("start, first", [(None, 1.5), (1.2, 1.2), (0.5, 1.5),
                                          (1.0, 1.5), (2.0, 1.5), (math.nan, 1.5)])
def test_bisect_newton_starts_inside_the_bracket(start, first):
    # a start outside the open bracket falls back to the midpoint
    points = []
    bisect_newton(_recorded(lambda x: x * x - 2.0, points), lambda x: 2.0 * x,
                  1.0, 2.0, start=start, ends=(-1.0, 2.0))
    assert points[0] == first


def test_bisect_newton_compares_signs_of_tiny_values():
    # f(lo) f(x) underflows to -0.0 here, which put x on the wrong side of
    # the root and sent the search to hi
    x = bisect_newton(lambda x: (x - 0.3) * 1e-200, lambda x: 1e-200, 0.0, 1.0,
                      start=0.5)
    assert abs(x - 0.3) <= math.ulp(0.3)


def test_monotone_roots_takes_a_zero_between_opposite_signs():
    # f = 0 exactly at the inner nodes: the first of them is the sign change,
    # where no piece has end values of opposite signs
    vals = {0.0: -1.0, 1.0: 0.0, 2.0: 0.0, 3.0: 1.0}
    assert monotone_roots(vals.get, None, [0.0, 1.0, 2.0, 3.0]) == [1.0]
    vals[3.0] = -1.0
    assert monotone_roots(vals.get, None, [0.0, 1.0, 2.0, 3.0]) == []


def test_monotone_roots_starts_at_the_chord():
    # a root next to the end of its piece, as the one at 1.1e-311 of a
    # shell-rate quartic, is 1030 halvings away from the midpoint
    x, = monotone_roots(lambda x: 2.0 * x - 2.2e-311 - 16.0 * x * x,
                        lambda x: 2.0 - 32.0 * x, [0.0, 0.0625])
    assert abs(x - 1.1e-311) <= 1e-323


def test_piecewise_minima_evaluates_the_slope_once_per_point(monkeypatch):
    # the end values of f' (and of f'' at a split) it holds are handed to
    # the root finder, which evaluated them again
    points = []
    search = canonical.piecewise_minima

    def recorded(fp, *args):
        return search(_recorded(fp, points), *args)

    monkeypatch.setattr(canonical, "piecewise_minima", recorded)
    sol = canonical.solve_canonical(CanonicalParams(1.2, 1.2))
    assert sol.phase_label == "pair"
    assert points and len(points) == len(set(points))


def test_golden_min_returns_the_best_point_evaluated():
    # the minimum sits next to a jump to +inf, where the final midpoint lands
    def f(x):
        return (x - 0.31) ** 2 if x <= 0.31 else math.inf

    x, fx = golden_min(f, 0.0, 1.0)
    assert abs(x - 0.31) <= 1e-9
    assert fx == f(x)


def _quartic(c):
    # f = x^4/4 - c x^2/2, given by its first three derivatives
    return (lambda x: x ** 3 - c * x, lambda x: 3.0 * x * x - c,
            lambda x: 6.0 * x)


@pytest.mark.parametrize("fp, fpp, fppp, cuts, lo, hi, want", [
    # x^4/4 - x^2/2: the origin is a maximum, the well sits at 1
    (*_quartic(1.0), (), 0.0, 2.0, [1.0]),
    # redundant cuts, one of them exactly on the minimum
    (*_quartic(1.0), (0.5, 1.0, 1.7, 5.0), 0.0, 2.0, [1.0]),
    # both wells of the double well, f''' = 6x cut at 0
    (*_quartic(1.0), (0.0,), -2.0, 2.0, [-1.0, 1.0]),
    # x^4/4 + x^2/2: the origin of an even function with f'' > 0
    (*_quartic(-1.0), (), 0.0, 2.0, [0.0]),
    # x^4/4 - x^3 + x^2, f' = x (x-1) (x-2): the origin and the well at 2,
    # with the maximum at 1 rejected; f''' = 6x - 6 is cut at 1
    (lambda x: x * (x - 1.0) * (x - 2.0), lambda x: 3.0 * x * x - 6.0 * x + 2.0,
     lambda x: 6.0 * x - 6.0, (1.0,), 0.0, 3.0, [0.0, 2.0]),
    # ends: f' points into the interval at lo, out of it at hi
    (lambda x: 2.0 * (x - 3.0), lambda x: 2.0, lambda x: 0.0, (), 0.0, 2.0,
     [2.0]),
    (lambda x: 1.0, lambda x: 0.0, lambda x: 0.0, (), 0.0, 1.0, [0.0]),
    # a degenerate interval is its own minimum
    (lambda x: 1.0, lambda x: 0.0, lambda x: 0.0, (), 0.5, 0.5, [0.5]),
], ids=["half-double-well", "redundant-cuts", "double-well", "even-convex",
        "origin-and-well", "end-hi", "end-lo", "degenerate"])
def test_piecewise_minima_on_polynomials(fp, fpp, fppp, cuts, lo, hi, want):
    got = piecewise_minima(fp, fpp, fppp, cuts, lo, hi)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 2.0 * math.ulp(max(abs(w), 1.0))


def test_piecewise_minima_shallow_well_next_to_the_origin():
    # f' = x (x^2 - e): the well at sqrt(e) is below any grid of practical
    # resolution, and the origin is a maximum
    e = 1e-14
    got = piecewise_minima(lambda x: x * (x * x - e), lambda x: 3.0 * x * x - e,
                           lambda x: 6.0 * x, (), 0.0, 1.0)
    assert len(got) == 1
    assert abs(got[0] - math.sqrt(e)) <= 1e-15 * math.sqrt(e)

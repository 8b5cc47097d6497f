import math
from fractions import Fraction
from functools import partial

import pytest
from conftest import reference_piecewise_minima
from hypothesis import example, given, settings, strategies as st

from begphase import canonical, micro, rootfind
from begphase.canonical import (first_order_coupling, second_order_coupling,
                                solve_canonical)
from begphase.core import BETA_C, CanonicalParams, MicroParams
from begphase.diagram import (beta_c1_of_K, tricritical_canonical,
                              tricritical_micro, u_c2_of_K)
from begphase.micro import (first_order_coupling_u, second_order_coupling_u,
                            solve_micro)
from begphase.rootfind import (bisect_newton, golden_min, monotone_roots,
                               piecewise_minima, polynomial_roots,
                               quadratic_roots)


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
    # only the signs of the ends are read: the iterates are those of a
    # search that evaluates its ends, bit for bit
    want = []
    root = bisect_newton(_recorded(lambda x: x * x - 2.0, want), lambda x: 2.0 * x,
                         1.0, 2.0)
    for ends in [(-1.0, 2.0), (-1e-300, 1e300), (-math.inf, math.inf),
                 (-5e-324, 0.5)]:
        points = []
        x = bisect_newton(_recorded(lambda x: x * x - 2.0, points),
                          lambda x: 2.0 * x, 1.0, 2.0, ends=ends)
        assert abs(x - math.sqrt(2.0)) <= math.ulp(1.5)
        assert points and 1.0 not in points and 2.0 not in points
        assert x == root and points == want[2:]


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

    def recorded(fp, *args, **kwargs):
        return search(_recorded(fp, points), *args, **kwargs)

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


@pytest.mark.parametrize("coeffs, want", [
    ((1.0, -3.0, 2.0), (1.0, 2.0)),
    ((-2.0, 6.0, -4.0), (1.0, 2.0)),
    ((0.0, 2.0, -4.0), (2.0,)),
    ((1.0, 2.0, 1.0), ()),        # a double root is no sign change
    ((1.0, 0.0, 1.0), ()),
    ((1e300, 1e300, 1e300), ()),  # the discriminant is inf - inf = NaN
], ids=["two", "negative-a", "linear", "double", "complex", "overflow"])
def test_quadratic_roots(coeffs, want):
    assert quadratic_roots(*coeffs) == want


def test_quadratic_roots_keeps_the_small_root():
    # t^2 - 1e8 t + 1 = 0: the small root 1e-8 cancels in (-b - sqrt(disc))/2
    small, big = quadratic_roots(1.0, -1e8, 1.0)
    assert abs(small - 1e-8) <= math.ulp(1e-8) and abs(big - 1e8) <= math.ulp(1e8)


def _from_roots(lead, roots):
    # the coefficients of lead * prod (t - r), highest degree first: exact
    # in floats for these dyadic roots, so the roots are exactly known
    c = [Fraction(lead)]
    for r in roots:
        c = [a - Fraction(r) * b for a, b in zip(c + [0], [0] + c)]
    assert all(Fraction(float(x)) == x for x in c)
    return [float(x) for x in c]


@pytest.mark.parametrize("lead, roots", [
    (3.0, [-0.5, 0.75]),
    (1.0, [2.0 ** -27, 2.0 ** -26, 0.5]),
    (-2.0, [-1.5, -0.25, 0.5, 2.0]),
    (1.0, [-0.5, 2.0 ** -27, 2.0 ** -26, 0.25, 0.5]),
    (5.0, [-3.0, -1.25, -0.5, 0.25, 1.0, 2.5]),
], ids=["degree-2", "degree-3", "degree-4", "degree-5", "degree-6"])
def test_polynomial_roots_of_real_factors(lead, roots):
    # degrees 3 and 5 hold two roots 7.5e-9 apart
    got = polynomial_roots(_from_roots(lead, roots), -4.0, 4.0)
    assert len(got) == len(roots)
    for t, r in zip(got, sorted(roots)):
        assert abs(t - r) <= 2.0 * math.ulp(r)


def test_polynomial_roots_at_and_next_to_the_ends():
    # a root at an end is no sign change on (lo, hi); one 9e-13 inside
    # lo is found from the chord
    assert polynomial_roots(_from_roots(1.0, [0.0, 0.5, 1.0]), 0.0, 1.0) == [0.5]
    tiny, half = polynomial_roots(_from_roots(-1.0, [2.0 ** -40, 0.5, 1.0]), 0.0, 1.0)
    assert abs(tiny - 2.0 ** -40) <= math.ulp(2.0 ** -40) and half == 0.5


@pytest.mark.parametrize("coeffs, lo, hi, want", [
    ([1.0, 0.0, 1.0], -2.0, 2.0, []),
    ([1.0, 0.0, 5.0, 0.0, 4.0], -3.0, 3.0, []),            # (t^2+1)(t^2+4)
    ([1.0, -0.5, 1.0, -0.5], -3.0, 3.0, [0.5]),            # (t^2+1)(t-1/2)
    ([2.0, 3.0], -2.0, 2.0, [-1.5]),
    ([2.0], -2.0, 2.0, []),
    (_from_roots(1.0, [-1.0, 0.5]), 0.0, 1.0, [0.5]),      # -1 lies outside
], ids=["quadratic", "quartic", "cubic", "linear", "constant", "outside"])
def test_polynomial_roots_without_real_roots_inside(coeffs, lo, hi, want):
    assert polynomial_roots(coeffs, lo, hi) == want


def test_polynomial_roots_may_leave_out_a_touching_double_root():
    # (t - 1/2)^2 (t + 1) changes sign at -1 only; the double root is no
    # sign change, and within its rounding may come out as one
    got = polynomial_roots(_from_roots(-1.0, [0.5, 0.5, -1.0]), -2.0, 2.0)
    assert got[0] == -1.0
    assert all(abs(t - 0.5) <= 1e-7 for t in got[1:])


def _landau_slopes(d, b, c):
    # f'(x) = x (d + b x^2 + c x^4) and its derivatives, an even f whose
    # Landau polynomial is exact
    return (lambda x: x * (d + x * x * (b + c * x * x)),
            lambda x: d + x * x * (3.0 * b + 5.0 * c * x * x),
            lambda x: x * (6.0 * b + 20.0 * c * x * x))


def _cuts(landau):
    # f''' = 0 at x^2 = -3b/(10c)
    d, b, c = landau
    return (math.sqrt(-0.3 * b / c),) if b * c < 0.0 else ()


@pytest.mark.parametrize("landau", [
    (-1e-10, 1.0, 1.0),            # a well born at the origin
    (1e-6, -0.05, 1.0),            # the first-order double well
    # c < 0: the larger root of d + b t + c t^2, near 10, is a maximum of
    # the truncated potential, the smaller one, near 2e-7, the well
    (-1e-8, 0.05, -0.005),
], ids=["second-order", "first-order", "second-order-negative-c"])
def test_piecewise_minima_starts_at_the_landau_roots(landau):
    fp, fpp, fppp = _landau_slopes(*landau)
    counts = {}
    for key, kw in (("blind", {}), ("landau", {"landau": landau})):
        points = []
        got = piecewise_minima(_recorded(fp, points), _recorded(fpp, points),
                               fppp, _cuts(landau), 0.0, 1.0, **kw)
        counts[key] = len(points)
        d, b, c = landau
        well = math.sqrt(quadratic_roots(c, b, d)[1 if c > 0.0 else 0])
        assert got[:-1] == ([0.0] if d > 0.0 else [])
        assert abs(got[-1] - well) <= 4.0 * math.ulp(well)
    assert counts["landau"] < counts["blind"] / 2


@pytest.mark.parametrize("landau", [
    (math.nan, 1.0, 1.0), (-1.0, math.inf, 1.0), (-1.0, 1.0, -math.inf),
    (1.0, 1.0, 1.0),   # no positive root: nothing to start from
], ids=["nan", "inf-b", "inf-c", "no-root"])
def test_piecewise_minima_passes_over_starts_that_are_no_numbers(landau):
    fp, fpp, fppp = _quartic(1.0)
    got = piecewise_minima(fp, fpp, fppp, (), 0.0, 2.0, landau=landau)
    assert got == [1.0]


def test_piecewise_minima_starts_the_spinodal_search_at_the_landau_root():
    # f' = x (d + b x^2 + c x^4) > 0 at both ends of [sqrt(0.03), 1], where
    # f'' rises through 0: only f' at the spinodal, the root t = 0.05098 of
    # d + 3b t + 5c t^2, tells that f' dips below 0 there (between t =
    # 0.0359 and 0.0641).  Without the polynomial the search starts at the
    # root of the chord of f''.  The first point off the nodes where f'' is
    # evaluated is the start; f'' is exactly 0 at the Landau one.
    landau = (0.0023, -0.1, 1.0)
    fp, fpp, fppp = _landau_slopes(*landau)
    cut, = _cuts(landau)
    well = math.sqrt(max(quadratic_roots(1.0, -0.1, 0.0023)))
    for kw, start in (
            ({"landau": landau},   # 3b rounded as _landau_starts rounds it
             math.sqrt(max(quadratic_roots(5.0, 3.0 * -0.1, 0.0023)))),
            ({}, cut - fpp(cut) * ((1.0 - cut) / (fpp(1.0) - fpp(cut))))):
        points = []
        got = piecewise_minima(fp, _recorded(fpp, points), fppp, (cut,), 0.0,
                               1.0, **kw)
        assert [x for x in points if x not in (0.0, cut, 1.0)][0] == start
        assert got[0] == 0.0 and abs(got[1] - well) <= 2.0 * math.ulp(well)
        assert got == reference_piecewise_minima(fp, fpp, fppp, (cut,), 0.0,
                                                 1.0, **kw)


def _product_slopes(lead, roots):
    # f' = lead (x - r1)(x - r2)(x - r3)(x - r4) as a product, which rounds
    # to a few ulps next to its roots, f'' by the product rule, and
    # f''' = lead (12 x^2 - 6 s1 x + 2 s2), s1 and s2 the first two
    # elementary symmetric sums of the roots; its roots are the cuts
    def fp(x):
        return lead * math.prod(x - r for r in roots)

    def fpp(x):
        return lead * sum(math.prod(x - r for r in roots[:i] + roots[i + 1:])
                          for i in range(4))

    s1 = sum(roots)
    s2 = sum(r * q for i, r in enumerate(roots) for q in roots[i + 1:])
    return (fp, fpp, lambda x: lead * ((12.0 * x - 6.0 * s1) * x + 2.0 * s2),
            quadratic_roots(12.0, -6.0 * s1, 2.0 * s2))


@st.composite
def quartic_slopes(draw):
    # four roots at least 0.05 apart
    roots = [draw(st.floats(-3.0, 1.5))]
    for _ in range(3):
        roots.append(roots[-1] + draw(st.floats(0.05, 1.5)))
    lo = draw(st.floats(-2.5, 2.0))
    return (draw(st.sampled_from([1.0, -1.0])), tuple(roots), lo,
            lo + draw(st.floats(0.1, 4.0)))


# f' = +-(x^2 - 1)(x^2 - 9/4) on [-2, 2], cut at +-sqrt(13/24): f' has one
# sign at both ends of each outer piece and two roots inside it
_TWO_ON_ONE_PIECE = ((-1.5, -1.0, 1.0, 1.5), -2.0, 2.0)


@settings(max_examples=400, deadline=None)
@given(quartic_slopes())
@example((1.0, *_TWO_ON_ONE_PIECE))
@example((-1.0, *_TWO_ON_ONE_PIECE))
def test_piecewise_minima_finds_the_reference_minimizers(case):
    # the reference finds every root of f'' first; piecewise_minima searches
    # one only where f' has one sign at both ends of a piece and its
    # extremum turned towards 0, and polishes a well over the whole piece
    lead, roots, lo, hi = case
    fp, fpp, fppp, cuts = _product_slopes(lead, roots)
    got = piecewise_minima(fp, fpp, fppp, cuts, lo, hi)
    want = reference_piecewise_minima(fp, fpp, fppp, cuts, lo, hi)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 4.0 * math.ulp(max(abs(w), 1.0))


@pytest.mark.parametrize("lead, want", [(1.0, [-2.0, -1.0, 1.5]),
                                        (-1.0, [-1.5, 1.0, 2.0])])
def test_piecewise_minima_splits_a_piece_with_two_roots(lead, want):
    fp, fpp, fppp, cuts = _product_slopes(lead, _TWO_ON_ONE_PIECE[0])
    points = []
    got = piecewise_minima(fp, fpp, _recorded(fppp, points), cuts,
                           *_TWO_ON_ONE_PIECE[1:])
    assert got == want and points


def _third_recorded(monkeypatch, module, points):
    search = module.piecewise_minima

    def recorded(fp, fpp, fppp, *args, **kwargs):
        return search(fp, fpp, _recorded(fppp, points), *args, **kwargs)

    monkeypatch.setattr(module, "piecewise_minima", recorded)


def test_the_solvers_search_no_spinodal_where_the_end_signs_decide(monkeypatch):
    # P' < 0 at the inflection w_c of c' (2, 1.2), F' < 0 next to the origin,
    # where F'' < 0 (0.4, 1.2), and both > 0 at the upper ends: each piece
    # holds one well, found without f''', which only a spinodal search needs
    points = []
    _third_recorded(monkeypatch, canonical, points)
    _third_recorded(monkeypatch, micro, points)
    assert solve_canonical(CanonicalParams(2.0, 1.2)).phase_label == "pair"
    assert solve_micro(MicroParams(0.4, 1.2)).phase_label == "pair"
    assert points == []


def test_the_metastable_well_needs_the_spinodal(monkeypatch):
    # at beta = 2, K = 1.03 lies between the tangency and the first-order
    # couplings: P' > 0 at both ends of [w_c, 2 beta K + 1], and only P' at
    # the spinodal shows the positive well behind the global minimum at 0
    params = CanonicalParams(2.0, 1.03)
    d = canonical._landau(2.0, 1.03)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canonical, "piecewise_minima", reference_piecewise_minima)
        want = canonical._local_wells(params, d)
    points = []
    _third_recorded(monkeypatch, canonical, points)
    wells = canonical._local_wells(params, d)
    assert wells[0] == 0.0 and len(wells) == 2 and points
    assert abs(wells[1] - want[1]) <= 4.0 * math.ulp(want[1])
    assert solve_canonical(params).z_points == (0.0,)


# ---------------------------------------------------------------------------
# the solvers' Landau starts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ensemble", ["canonical", "micro"])
def test_landau_starts_cut_the_newton_evaluations(monkeypatch, ensemble):
    # next to the transitions at K = 1.0817, where equivalence_report places
    # its grids, the wells are near-double roots of the slope: from a
    # midpoint or a chord, Newton took 15 to 25 evaluations per search
    K = 1.0817
    if ensemble == "canonical":
        solve = partial(solve_canonical, CanonicalParams(beta_c1_of_K(K) + 1e-6, K))
    else:
        solve = partial(solve_micro, MicroParams(u_c2_of_K(K) - 1e-7, K))
    counts = []
    search = rootfind.bisect_newton

    def counted(f, *args, **kwargs):
        counts.append(0)
        return search(_counted(f, counts), *args, **kwargs)

    monkeypatch.setattr(rootfind, "bisect_newton", counted)
    assert len(solve().z_points) == 2
    assert counts and max(counts) <= 8


def _counted(f, counts):
    def g(x):
        counts[-1] += 1
        return f(x)
    return g


def _rounding_reach(slope, curvature, x):
    """How far from x the rounding of the computed slope leaves its root
    undetermined: twice its largest departure from its tangent at x over
    the 8 floats on each side, over |f''(x)|."""
    s0, c = slope(x), curvature(x)
    lo = hi = x
    dev = 0.0
    for _ in range(8):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        dev = max(dev, abs(slope(lo) - s0 - c * (lo - x)),
                  abs(slope(hi) - s0 - c * (hi - x)))
    return 2.0 * dev / abs(c)


def _assert_same_minimizers(landau, blind, slope, curvature, scale):
    # both searches stop where Newton's step rounds away, which the rounding
    # of the slope blurs: next to the tricritical points, where the quartic
    # Landau coefficient vanishes, by up to 1e-8 relative.  They agree to
    # 4 ulp beyond that blur (in w = scale z for the canonical slope).
    assert len(landau) == len(blind)
    for zl, zb in zip(landau, blind):
        if zl != zb:
            reach = sum(_rounding_reach(slope, curvature, abs(z) * scale)
                        for z in (zl, zb)) / scale
            assert abs(zl - zb) <= 4.0 * math.ulp(zl) + reach


def _relative_offset(draw, lo=-15.0, hi=-1.0):
    return draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(lo, hi))


@st.composite
def near_canonical_criticals(draw):
    kind = draw(st.sampled_from(["Kc2", "Kc1", "tricritical"]))
    if kind == "Kc2":
        beta = draw(st.floats(0.1, 3.0))
        return beta, second_order_coupling(beta) * (1.0 + _relative_offset(draw))
    if kind == "Kc1":
        beta = draw(st.floats(BETA_C + 1e-6, 3.0))
        return beta, first_order_coupling(beta) * (1.0 + _relative_offset(draw))
    return (BETA_C + _relative_offset(draw, -15.0, -2.0),
            tricritical_canonical() * (1.0 + _relative_offset(draw, -15.0, -2.0)))


@st.composite
def near_micro_criticals(draw):
    kind = draw(st.sampled_from(["Kc2", "Kc1", "tricritical"]))
    u_star, k_star = tricritical_micro()
    if kind == "Kc2":
        u = draw(st.floats(0.01, 0.65))
        return u, second_order_coupling_u(u) * (1.0 + _relative_offset(draw))
    if kind == "Kc1":
        u = draw(st.floats(0.01, u_star))
        return u, first_order_coupling_u(u) * (1.0 + _relative_offset(draw))
    return (u_star + _relative_offset(draw, -15.0, -2.0),
            k_star * (1.0 + _relative_offset(draw, -15.0, -2.0)))


@settings(max_examples=300, deadline=None)
@given(near_canonical_criticals())
def test_canonical_landau_starts_find_the_blind_starts_minimizers(point):
    beta, K = point
    params = CanonicalParams(beta, K)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canonical, "_landau_poly", lambda *args: None)
        blind = solve_canonical(params).z_points
    slope, curvature, _ = canonical._tilt_kernels(beta, K, canonical._landau(beta, K))
    _assert_same_minimizers(solve_canonical(params).z_points, blind, slope,
                            curvature, 2.0 * beta * K)


@settings(max_examples=300, deadline=None)
@given(near_micro_criticals())
def test_micro_landau_starts_find_the_blind_starts_minimizers(point):
    u, K = point
    params = MicroParams(u, K)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(micro, "_landau_poly", lambda *args: None)
        blind = solve_micro(params).z_points
    g = micro._origin_curvature(u, K)
    _assert_same_minimizers(solve_micro(params).z_points, blind,
                            lambda z: micro._rate_slope(u, K, g, z),
                            lambda z: micro._rate_curvature(u, K, g, z), 1.0)

"""One-dimensional root finding and minimization used by the solvers.

Every solver in this package locates roots the same way: Newton runs from a
start inside a sign-change bracket, the Landau root or another closed form
where the caller has one, and a safeguard keeps the iterates inside the
bracket, which every iterate narrows.  piecewise_minima finds every local
minimum of a function whose third derivative changes sign only at known
points, without a grid, starting its searches at the roots of the Landau
polynomial where the caller has one; even_global_minima keeps those of an
even function that tie for the least value; golden section serves the
searches that have no derivatives at hand.
"""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618

#: Newton steps after which bisect_newton returns its last iterate.
_MAX_NEWTON = 80

#: Local minima within this of the least value all count as global minima.
TIE_TOL = 1e-12


class BracketError(RuntimeError):
    """The supplied interval does not bracket a sign change."""


def bisect_newton(f, fprime, lo, hi, *, start=None, ends=None):
    """Root of f on [lo, hi] with f(lo), f(hi) of opposite signs.

    Newton runs from `start` (the midpoint when it is missing or not inside
    (lo, hi)) until f(x) == 0 or a step no longer moves x, for at most 80
    steps.  Each iterate replaces the end of the bracket whose f has its
    sign, and a Newton step that leaves the bracket is replaced by a
    bisection step, so convergence never depends on the start; a good one
    only makes it fast.  `ends` = (f(lo), f(hi)) where the caller holds them.
    """
    flo, fhi = (f(lo), f(hi)) if ends is None else ends
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")

    x = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
    fx = f(x)
    for _ in range(_MAX_NEWTON):
        if fx == 0.0:
            return x
        # keep the bracket current so a wild step can be rejected; signs
        # are compared, as the product of two tiny values underflows to 0
        if (fx < 0.0) != (flo < 0.0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        d = fprime(x)
        x_new = x - fx / d if d != 0.0 and math.isfinite(d) else math.nan
        # a step that rounds to x itself has converged, even where x has
        # just become an end of the bracket
        if x_new != x and not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            return x
        x = x_new
        fx = f(x)
    return x


def last_point(f):
    """f keeping its value at the last point: bisect_newton takes the slope
    where it has just taken the value, so a slope that needs the same work
    as the value reads it from here, and so can the caller at the root."""
    last = {}

    def at(x):
        if x not in last:
            last.clear()
            last[x] = f(x)
        return last[x]

    return at


def golden_min(f, lo, hi, *, tol=1e-12):
    """Golden-section minimum of f on [lo, hi] down to interval width `tol`.

    Returns (x, f(x)) at the final midpoint unless an endpoint or a probe was
    strictly lower, then the lowest of those: a minimum at a boundary or next
    to a jump of f to +inf is not missed.
    """
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = f(x1)
    f2 = f(x2)
    best = min((f1, x1), (f2, x2))
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        best = min(best, (f1, x1), (f2, x2))
    x = 0.5 * (a + b)
    fx = f(x)
    for fcand, cand in ((f(lo), lo), (f(hi), hi), best):
        if fcand < fx:
            x, fx = cand, fcand
    return x, fx


def bisect_monotone(f, lo, hi, target, *, tol=1e-9):
    """Solve f(x) = target for monotone f on [lo, hi] by bisection to width tol.

    Works for increasing or decreasing f; raises BracketError when the target
    is not enclosed by the endpoint values.
    """
    flo = f(lo) - target
    fhi = f(hi) - target
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"target {target} outside the range [{min(flo, fhi) + target}, "
            f"{max(flo, fhi) + target}] attained on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid) - target
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def quadratic_roots(a, b, c):
    """The real roots of a t^2 + b t + c, increasing: two where the
    discriminant is positive, from the sum that does not cancel (one, -c/b,
    where a = 0), none where it is not.  Infinite coefficients give
    infinite or NaN roots, never an exception."""
    disc = b * b - 4.0 * a * c
    if not disc > 0.0:
        return ()
    r = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if a == 0.0:
        return (c / r,)
    x, y = r / a, c / r
    return (x, y) if x <= y else (y, x)


def monotone_roots(f, fprime, nodes, *, starts=()):
    """The points where f changes sign on [nodes[0], nodes[-1]], increasing,
    for f monotone between consecutive nodes: one Newton search on each
    piece whose end values differ in sign, and the first node of each run
    where f = 0 between values of opposite signs.  A search starts at the
    first of `starts` inside its piece, else at the root of its chord (the
    midpoint where an end value is infinite), which lies next to a root
    that crowds an end of its piece."""
    vals = [f(x) for x in nodes]
    roots, last = [], None   # last: the index of the last value != 0
    for i, fb in enumerate(vals):
        if fb == 0.0:
            continue
        if last is not None and (fb < 0.0) != (vals[last] < 0.0):
            a, b, fa = nodes[last], nodes[i], vals[last]
            start = a - fa * ((b - a) / (fb - fa))
            for s in starts:
                if a < s < b:
                    start = s
                    break
            roots.append(nodes[last + 1] if last < i - 1 else bisect_newton(
                f, fprime, a, b, start=start, ends=(fa, fb)))
        last = i
    return roots


def _landau_starts(landau):
    """(well start, spinodal starts) of an even f whose Landau polynomial is
    landau = (d, b, c), i.e. f'(x)/x = d + b x^2 + c x^4 + O(x^6): the
    square root of the positive root t of d + b t + c t^2 where
    f'' = d + 3b t + 5c t^2 (to that order) is positive, the one minimum
    x > 0 of the truncated Landau potential (its other stationary point is
    a maximum), and those of the positive roots of d + 3b t + 5c t^2.  Next
    to a critical curve, where the wells are near-double roots of f', they
    lie next to the roots.  (None, ()) without a polynomial."""
    if landau is None:
        return None, ()
    d, b, c = landau
    well = None
    for t in quadratic_roots(c, b, d):
        if t > 0.0 and d + t * (3.0 * b + 5.0 * c * t) > 0.0:
            well = math.sqrt(t)
    return well, [math.sqrt(t) for t in quadratic_roots(5.0 * c, 3.0 * b, d)
                  if t > 0.0]


def piecewise_minima(fp, fpp, fppp, cuts, lo, hi, *, ends=None,
                     landau=None):
    """Every local minimizer of f on [lo, hi], in increasing order.

    `cuts` must hold every point of (lo, hi) where f''' may change sign
    (extra ones are harmless).  Between cuts f'' is monotone, and its roots
    (monotone_roots: Newton on f'' with f''') split [lo, hi] into pieces
    where f' is monotone.  A minimum is a sign change of f' from - to + on a
    piece (Newton until the step stalls), a split point where f' = 0
    between the two, or an end where f' points into [lo, hi], as at the
    origin of an even f with f' > 0 on the first piece.  fp and fpp may be
    +-inf at an end, never NaN.  `ends` = (f'(lo), f'(hi)) where the caller
    knows them: where f' is infinite at an end, its rounding next to the
    end may give it either sign.  `landau` = (d, b, c) where f is even with
    f'(x)/x = d + b x^2 + c x^4 + O(x^6): a search then starts at its
    _landau_starts root where that lies inside its piece.  Elsewhere, and
    without `landau`, the search of f'' starts at the root of the chord of
    its piece and that of f' at the midpoint of its piece.
    """
    if hi <= lo:
        return [lo]
    nodes = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
    well, spinodals = _landau_starts(landau)
    xs = sorted(nodes + monotone_roots(fpp, fppp, nodes, starts=spinodals))
    # f' < 0 left of lo and > 0 right of hi: an end is then a minimum exactly
    # when f' points into [lo, hi] there
    flo, fhi = (fp(lo), fp(hi)) if ends is None else ends
    d = [-1.0, flo] + [fp(x) for x in xs[1:-1]] + [fhi, 1.0]
    xs = [lo] + xs + [hi]
    mins = []
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        if d[i] < 0.0 < d[i + 1]:
            mins.append(a if a == b else bisect_newton(
                fp, fpp, a, b, start=well, ends=(d[i], d[i + 1])))
        elif d[i + 1] == 0.0 and d[i] < 0.0 < d[i + 2]:
            mins.append(b)
    return mins


def even_global_minima(f, cands):
    """(global minimizers, least value) of an even f from its local minimizers
    z >= 0: those within TIE_TOL of the least value, mirrored to -z, sorted."""
    vals = [f(z) for z in cands]
    best = min(vals)
    kept = sorted(z for z, v in zip(cands, vals) if v <= best + TIE_TOL)
    return [-z for z in reversed(kept) if z > 0.0] + kept, best

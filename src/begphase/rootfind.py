"""One-dimensional root finding and minimization used by the solvers.

Every solver in this package locates roots the same way: Newton runs from a
start inside a sign-change bracket, the Landau root or another closed form
where the caller has one, and a safeguard keeps the iterates inside the
bracket, which every iterate narrows.  piecewise_minima finds every local
minimum of a function whose third derivative changes sign only at known
points, without a grid: the signs of the slope at the ends of each piece
between them decide most pieces, and a root of the second derivative is
searched only on a piece where they leave the count of minima open.  Its
searches start at the roots of the Landau polynomial where the caller has
one; even_global_minima keeps the minima of an even function that tie for
the least value; polynomial_roots solves every polynomial of the package.
golden_min, a golden-section search, has no caller in the package: the
benchmark's tracer still counts it.
"""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618

#: Newton steps after which bisect_newton returns its last iterate.
_MAX_NEWTON = 80

#: Newton squares its step: once a step is under this, a next step that
#: does not shrink is the rounding of the residuals (the tie solves' stop).
_SQRT_EPS = math.sqrt(2.0 ** -52)

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
    Only their signs decide anything (the zero tests and the bracket signs;
    the BracketError text prints them), so a caller that knows only the
    sign at an end may pass any value of that sign.
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


def _horner(coeffs, t):
    """The polynomial with coefficients `coeffs` (highest degree first) at
    t, by Horner's rule: the operations of np.polyval, so its bits."""
    v = 0.0
    for c in coeffs:
        v = v * t + c
    return v


def _chord_root(a, b, fa, fb):
    """The root of the chord of f on [a, b] through f(a) = fa and f(b) = fb
    of opposite signs, which lies next to a root that crowds an end of the
    bracket; NaN where one is infinite (bisect_newton then starts at the
    midpoint)."""
    return a - fa * ((b - a) / (fb - fa))


def monotone_roots(f, fprime, nodes):
    """The points where f changes sign on [nodes[0], nodes[-1]], increasing,
    for f monotone between consecutive nodes: one Newton search on each
    piece whose end values differ in sign, started at the _chord_root, and
    the first node of each run where f = 0 between values of opposite
    signs."""
    vals = [f(x) for x in nodes]
    roots, last = [], None   # last: the index of the last value != 0
    for i, fb in enumerate(vals):
        if fb == 0.0:
            continue
        if last is not None and (fb < 0.0) != (vals[last] < 0.0):
            a, b, fa = nodes[last], nodes[i], vals[last]
            roots.append(nodes[last + 1] if last < i - 1 else bisect_newton(
                f, fprime, a, b, start=_chord_root(a, b, fa, fb),
                ends=(fa, fb)))
        last = i
    return roots


def polynomial_roots(coeffs, lo, hi):
    """The points where the polynomial with coefficients `coeffs` (highest
    degree first) changes sign on (lo, hi), increasing, by a derivative
    cascade: the sign changes of the derivative split [lo, hi] into pieces
    where monotone_roots finds them, down to quadratic_roots.  A root where
    it touches 0 may be left out, or come out within its rounding; one
    within rounding of an end may come out as that end."""
    n = len(coeffs) - 1
    if n <= 2:
        return [t for t in quadratic_roots(*(0.0,) * (2 - n), *coeffs)
                if lo < t < hi]
    deriv = [(n - i) * c for i, c in enumerate(coeffs[:-1])]
    return monotone_roots(lambda t: _horner(coeffs, t),
                          lambda t: _horner(deriv, t),
                          [lo, *polynomial_roots(deriv, lo, hi), hi])


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
    (extra ones are harmless).  Between consecutive nodes (lo, the cuts and
    hi) f'' is monotone, so f' has at most one extremum inside a piece, at
    the root of f'' (a spinodal).  The signs of f' just inside the ends of
    a piece therefore decide it: from - to + it holds one minimum, found by
    Newton on f' over the whole piece until the step stalls; from + to -,
    or of one sign with the extremum of f' turned away from 0, none.  Only
    where f' > 0 at both ends and f'' rises through 0, or f' < 0 at both
    ends and f'' falls through 0, may the extremum cross 0: only there is
    the spinodal searched (Newton on f'' with f''', from the f'' values at
    the nodes), and f' at it splits the piece.  Where f' = 0 at a node, the
    sign just inside a piece is that of f'' there times the direction into
    the piece (of f'' at the other end where f'' is 0 too: f'' keeps its
    sign on the piece).  f' < 0 left of lo and > 0 right of hi: a node is
    a minimum where f' < 0 just left of it and > 0 just right, so an end
    is one exactly when f' points into [lo, hi], as at the origin of an
    even f with f'' > 0 there.  fp and fpp may be +-inf at an end, never
    NaN.  `ends` = (f'(lo), f'(hi)) where the caller knows them: where f'
    is infinite at an end, its rounding next to the end may give it either
    sign.  `landau` = (d, b, c) where f is even with f'(x)/x = d + b x^2 +
    c x^4 + O(x^6): a search then starts at its _landau_starts root where
    that lies inside its bracket.  Elsewhere, and without `landau`, the
    spinodal search starts at the _chord_root and the well search at the
    midpoint of its bracket.
    """
    if hi <= lo:
        return [lo]
    xs = [lo] + sorted({c for c in cuts if lo < c < hi}) + [hi]
    well, spinodals = _landau_starts(landau)
    flo, fhi = (fp(lo), fp(hi)) if ends is None else ends
    d1 = [flo] + [fp(x) for x in xs[1:-1]] + [fhi]
    d2 = [None] * len(xs)

    def curv(i):   # f'' at node i, evaluated only where a sign needs it
        if d2[i] is None:
            d2[i] = fpp(xs[i])
        return d2[i]

    def side(i, j):   # the sign of f' just inside piece (i, j) at node i
        return d1[i] if d1[i] != 0.0 else (j - i) * (curv(i) or curv(j))

    mins, left = [], -1.0   # left: the sign of f' just left of node i
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        sa, sb = side(i, i + 1), side(i + 1, i)
        if left < 0.0 < sa:
            mins.append(a)
        pts = [(a, sa), (b, sb)]
        # f' of one sign at both ends, turned towards 0 at a and away from
        # it at b: its extremum may cross 0
        t = math.copysign(1.0, sa)
        if ((sa < 0.0 and sb < 0.0 or sa > 0.0 and sb > 0.0)
                and t * curv(i) < 0.0 < t * curv(i + 1)):
            ca, cb = d2[i], d2[i + 1]
            start = next((x for x in spinodals if a < x < b),
                         _chord_root(a, b, ca, cb))
            s = bisect_newton(fpp, fppp, a, b, start=start, ends=(ca, cb))
            pts.insert(1, (s, fp(s)))
        for (x, fx), (y, fy) in zip(pts, pts[1:]):
            if fx < 0.0 < fy:
                mins.append(bisect_newton(fp, fpp, x, y, start=well,
                                          ends=(fx, fy)))
        left = sb
    if left < 0.0:
        mins.append(hi)
    return mins


def even_global_minima(f, cands):
    """(global minimizers, least value) of an even f from its local minimizers
    z >= 0: those within TIE_TOL of the least value, mirrored to -z, sorted."""
    vals = [f(z) for z in cands]
    best = min(vals)
    kept = sorted(z for z, v in zip(cands, vals) if v <= best + TIE_TOL)
    return [-z for z in reversed(kept) if z > 0.0] + kept, best

"""Dimension formulas: measure dimension, the attractor-dimension root, and
the graph-directed finite-depth approximation, with their one root finder.

The attractor dimension is the root s0 of sum_i prod_j (1 - lam_{i,j}^s) = N - 1.
The depth-n graph-directed approximant s_n solves rho(C_n^(s)) = 1 for the
N x N matrix whose (i,k) off-diagonal entry sums lam_j^s over nondecreasing
group-k multisets of length <= n; s_n increases to s0, and at infinite
depth the equation is the attractor equation.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple, Optional

from .ifs import BudgetExceeded, CFSystem, ProbVector, ValidationError, \
    _json_value, _total, check_tol

ROOT_TOL = 1e-12
POWER_ITER_CAP = 100_000
# One evaluation of s_d fills d cells of the homogeneous-sum recurrence per
# map, about 0.1 us each.  The one cells rule sums d M over the depths a
# call asks for, M maps: d M for gd_dimension, D(D+1)/2 M for gd_sequence.
# At the cap one evaluation of each of s_1..s_D takes about 1.1 s, and the
# whole sequence, at 3 evaluations per root in the median with s0 bounding
# each root, 3.0-3.2 s (D = 2581 on three maps: attractor-dim, Python 3.11,
# a 2-core Xeon VM)
GD_CELL_CAP = 10**7


class DimensionReport(NamedTuple):
    dimension: float             # capped to [0, 1]
    raw: float                   # uncapped root / ratio
    method: str
    tolerance: float
    diagnostics: dict
    to_json_dict = _json_value   # a report's JSON, by ifs._json_value


def _root(fn, lo: float, hi: float, tol: float) -> tuple:
    """(root, (a, b), evaluations): a root of fn, the final bracket [a, b]
    on which fn changes sign (a == b when fn is exactly 0 there) and the
    number of calls of fn.  hi doubles, and lo moves up to the last hi,
    until fn(lo) and fn(hi) differ in sign; fn(lo) == 0 returns lo.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4): inverse quadratic interpolation or a secant step from the best
    end b, a bisection step when that would not shrink the bracket fast
    enough, and a step of at least tol/4 towards the other end c, so the
    point past a root within tol/4 of b closes the bracket.  It stops at
    width tol/2, or when the midpoint rounds to an end, so it ends for every
    tol and the root is within tol/2 of a sign change.  Each new point lies
    strictly inside the bracket, which every earlier point bounded, so no
    point is evaluated twice.  Signs are compared, never multiplied.
    """
    check_tol(tol)
    start = lo
    fa = fn(lo)
    if fa == 0.0:
        return lo, (lo, lo), 1
    fb, evals = fn(hi), 2
    while fb != 0.0 and (fa > 0.0) == (fb > 0.0):
        if math.isinf(hi):
            raise ValidationError(f"no sign change on [{start}, inf)")
        lo, fa = hi, fb
        hi *= 2.0
        fb, evals = fn(hi), evals + 1
    a, b, c, fc = lo, hi, lo, fa
    d = e = b - a
    tol1 = 0.25 * tol
    while fb != 0.0:
        if abs(fc) < abs(fb):        # b is the end nearer the root
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        xm = 0.5 * (c - b)
        mid = b + xm
        if abs(xm) <= tol1 or mid == b or mid == c:
            break
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:               # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:                    # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = xm
        else:
            e = d = xm
        a, fa = b, fb
        x = b + (d if abs(d) > tol1 else math.copysign(tol1, xm))
        if not min(b, c) < x < max(b, c):
            x = mid                  # the step rounded onto an end
        b, fb, evals = x, fn(x), evals + 1
        if fb != 0.0 and (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa            # the sign change lies on [a, b]
            e = d = b - a
    return b, ((b, b) if fb == 0.0 else (min(b, c), max(b, c))), evals


def similarity_dimension(ratios, tol: float = ROOT_TOL) -> float:
    """Unique s with sum r_i^s = 1 (r_i in (0,1))."""
    rs = [float(r) for r in ratios]
    if not rs or any(not (0 < r < 1) for r in rs):
        raise ValidationError("ratios must be a nonempty subset of (0,1)")

    def f(s):
        return _total(r**s for r in rs) - 1.0

    return _root(f, 0.0, 1.0, tol)[0]


def measure_dimension(sys: CFSystem, p: ProbVector,
                      tol: float = 1e-10) -> DimensionReport:
    """dim = min{1, (h_p + Phi(p)) / chi(p)} for the self-similar measure.
    entropy is imported here, so the attractor roots load without it."""
    from .entropy import lyapunov, phi_series, shannon_entropy
    phi = phi_series(sys, p, tol)
    h = shannon_entropy(p)
    chi = lyapunov(sys, p)
    raw = (h + phi.value) / chi
    return DimensionReport(
        dimension=min(1.0, max(0.0, raw)), raw=raw,
        method="measure-formula", tolerance=tol,
        diagnostics={"entropy": h, "lyapunov": chi, "phi": phi.value,
                     "phi_tail_bound": phi.tail_bound})


def attractor_dimension(sys: CFSystem, tol: float = 1e-12) -> DimensionReport:
    """Root of F(s) = sum_i prod_j (1 - lam_{i,j}^s) = N - 1.

    F is strictly increasing with F(0) = 0 and F(inf) = N, so the root exists
    and is unique; _root finds it and diagnostics report its final
    sign-change bracket and the evaluations of F it took.

    The excess F(s) - (N - 1) is P_g - sum_{i != g} Q_i, for the group
    products P_i, Q_i = 1 - P_i and g the first group of least P_i.  Member
    by member P' = P (1 - x) and Q' = Q + P x, x = lam^s, so no Q_i cancels;
    the plain sum of the P_i is exactly N - 1 once P_g and the other
    groups' 1 - P_i fall below the unit roundoff, maybe far below the root.

    The rounded excess lies within e = (5M + N^2) u of the exact one, for M
    maps and unit roundoff u: the powers move each group's P and Q by
    2 m u over its m maps, the product and the telescoping sum add 2 m u
    and (3 m + 1) u, and the sum over the groups and the subtraction
    (N - 1) N u, with N u more for higher orders.  A sign change of the
    rounded excess can miss the root by that much, so each end of _root's
    bracket moves out by 1, 2, 4, ... ulps until the excess there passes e
    with the end's sign (at 0 it is 1 - N exactly, so 0 needs no check):
    the bracket then holds the root of the exact F.
    """
    rows = [[float(lam) for lam in row] for row in sys.ratios]

    def excess(s):
        P, Q = [], []
        for row in rows:
            prod, rest = 1.0, 0.0
            for lam in row:
                x = lam**s
                rest += prod * x
                prod *= 1.0 - x
            P.append(prod)
            Q.append(rest)
        g = P.index(min(P))
        return P[g] - _total(Q[:g] + Q[g + 1:])

    raw, bracket, evaluations = _root(excess, 0.0, 1.0, tol)
    error = (5 * sys.n_maps + sys.n_groups**2) * 2.0**-53
    ends = []
    for end, sign in zip(bracket, (-1.0, 1.0)):
        x, step = end, math.ulp(end)
        while x > 0.0:
            evaluations += 1
            if sign * excess(x) > error:
                break
            x, step = max(0.0, end + sign * step), 2.0 * step
        ends.append(x)
    return DimensionReport(
        dimension=min(1.0, raw), raw=raw, method="attractor-formula",
        tolerance=tol,
        diagnostics={"bracket": ends, "evaluations": evaluations})


def _complete_homogeneous_sums(xs, depth: int) -> float:
    """sum_{m=1..depth} h_m(xs) where h_m is the complete homogeneous
    symmetric polynomial, via the incremental-variable recurrence."""
    # H[m] = h_m over the variables included so far
    H = [1.0] + [0.0] * depth
    for x in xs:
        for m in range(1, depth + 1):
            H[m] = H[m] + x * H[m - 1]
    return _total(H[1:])


def _gd_radius(c) -> float:
    """rho(C) for the graph-directed quotient C = 1 c^T - diag(c) of
    column sums c >= 0, by power iteration on its symmetric form.

    C is similar to S = D C D^-1 under D = diag(sqrt(c)): S has
    r_i r_k off the diagonal, r = sqrt(c), and 0 on it, so rho(S) = rho(C)
    (where c_k = 0, expanding along column k leaves both the eigenvalue 0
    and the spectra of C and S without group k).  The square roots are
    taken before the product, so a product of two tiny c never underflows.
    The iteration runs on S over its largest row sum sigma plus Id: the
    shift removes periodicity, and sigma / sqrt(N - 1) <= rho <= sigma, so
    sigma = 0 gives 0, and a c or sigma that overflowed (inf, or NaN from
    0 * inf in the sums) gives inf, as only the sign of rho - 1 is read.

    Each step takes one O(N) product, y = (S/sigma + I) x, both the step's
    residual product and the next iterate; y >= 0, so its sum is its 1-norm.
    (Sx)_i = r_i sum_{k != i} r_k x_k adds the sums before and after i:
    subtracting r_i x_i from the total cancels where one term dominates."""
    if not all(map(math.isfinite, c)):
        return math.inf
    r = [math.sqrt(x) for x in c]

    def others(v):
        before = accumulate(v[:-1], initial=0.0)
        after = list(accumulate(reversed(v[1:]), initial=0.0))[::-1]
        return [a + b for a, b in zip(before, after)]

    sigma = max(ri * t for ri, t in zip(r, others(r)))
    if sigma == 0.0 or sigma == math.inf:
        return sigma

    def step(x):
        return [xi + ri * t / sigma for xi, ri, t in
                zip(x, r, others([ri * xi for ri, xi in zip(r, x)]))]

    y = step([1.0 / len(c)] * len(c))
    for _ in range(POWER_ITER_CAP):
        lam = _total(y)         # >= 1, as y >= x >= 0 and x sums to 1
        x = [yi / lam for yi in y]
        y = step(x)
        # residual stop: ||(S/sigma + I)x - lam x||_1 relative to lam
        if _total(abs(yi - lam * xi) for yi, xi in zip(y, x)) <= 1e-14 * lam:
            return (lam - 1.0) * sigma
    raise BudgetExceeded(f"power iteration did not settle in {POWER_ITER_CAP} steps")


def _gd_roots(sys: CFSystem, first: int, last: int, tol: float) -> list:
    """[s_first, ..., s_last], s_n the root of rho(C_n^(s)) = 1: rho is
    strictly decreasing in s and at least N - 1 >= 1 at s = 0.  The depths,
    then the one cells rule (n M cells summed over the depths, M maps)
    against GD_CELL_CAP, are checked before anything is evaluated.  As s_n
    increases to s0, each root is bracketed on [0, hi], hi the upper end of
    s0's final bracket, found once: about 6 evaluations of rho per root
    (_root doubles hi should rounding leave g(hi) positive)."""
    check_tol(tol)
    if first < 1 or last < first:
        raise ValidationError(f"depth must be >= 1 or None, got {last}")
    cells = (first + last) * (last - first + 1) // 2 * sys.n_maps
    if cells > GD_CELL_CAP:
        raise BudgetExceeded(
            f"graph-directed roots to depth {last} need {cells} "
            f"homogeneous-sum cells per evaluation, cap {GD_CELL_CAP}")
    hi = attractor_dimension(sys, tol).diagnostics["bracket"][1]

    def root(depth):
        def g(s):
            c = [_complete_homogeneous_sums([float(lam)**s for lam in row],
                                            depth) for row in sys.ratios]
            return _gd_radius(c) - 1.0
        return _root(g, 0.0, hi, tol)[0]

    return [root(depth) for depth in range(first, last + 1)]


def gd_dimension(sys: CFSystem, depth: Optional[int],
                 tol: float = 1e-10) -> float:
    """s_depth, from the graph-directed evaluator _gd_roots.  Depth None, the
    limit, solves the attractor equation: attractor_dimension(sys, tol).raw."""
    if depth is None:
        return attractor_dimension(sys, tol).raw
    return _gd_roots(sys, depth, depth, tol)[0]


def gd_sequence(sys: CFSystem, depth: int, tol: float = 1e-10) -> list:
    """[s_1, ..., s_depth], each equal to gd_dimension(sys, n, tol), from
    one call of _gd_roots: one cells check and one attractor root."""
    return _gd_roots(sys, 1, depth, tol)

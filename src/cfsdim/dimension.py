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
from dataclasses import dataclass, field
from typing import Optional

from .entropy import lyapunov, phi_series, shannon_entropy
from .ifs import BudgetExceeded, CFSystem, ProbVector, Report, \
    ValidationError, check_tol

BISECT_TOL = 1e-12
POWER_ITER_CAP = 100_000


class NonConvergence(BudgetExceeded):
    pass


@dataclass(frozen=True)
class DimensionReport(Report):
    dimension: float             # capped to [0, 1]
    raw: float                   # uncapped root / ratio
    method: str
    tolerance: float
    diagnostics: dict = field(default_factory=dict)


def _bisect(fn, lo: float, hi: float, tol: float) -> tuple:
    """(root, hi): a root of fn bracketed by [lo, hi], hi doubling until
    fn(lo) and fn(hi) differ in sign; hi is the bracket end used.  Halving
    stops at width tol or when the midpoint rounds to an endpoint, so it
    ends for every tol."""
    check_tol(tol)
    flo = fn(lo)
    if flo == 0.0:
        return lo, hi
    fhi = fn(hi)
    while flo * fhi > 0:
        if math.isinf(hi):
            raise ValidationError(f"no sign change on [{lo}, inf)")
        hi *= 2.0
        fhi = fn(hi)
    if fhi == 0.0:
        return hi, hi
    end = hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid, end
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi), end


def similarity_dimension(ratios, tol: float = BISECT_TOL) -> float:
    """Unique s with sum r_i^s = 1 (r_i in (0,1))."""
    rs = [float(r) for r in ratios]
    if not rs or any(not (0 < r < 1) for r in rs):
        raise ValidationError("ratios must be a nonempty subset of (0,1)")

    def f(s):
        return sum(r**s for r in rs) - 1.0

    return _bisect(f, 0.0, 1.0, tol)[0]


def measure_dimension(sys: CFSystem, p: ProbVector,
                      tol: float = 1e-10) -> DimensionReport:
    """dim = min{1, (h_p + Phi(p)) / chi(p)} for the self-similar measure."""
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
    and is unique; plain bisection.
    """
    N = sys.n_groups

    def F(s):
        return sum(math.prod(1.0 - float(lam)**s for lam in row)
                   for row in sys.ratios)

    raw, hi = _bisect(lambda s: F(s) - (N - 1), 0.0, 1.0, tol)
    return DimensionReport(
        dimension=min(1.0, raw), raw=raw, method="attractor-formula",
        tolerance=tol, diagnostics={"bracket_hi": hi})


def _complete_homogeneous_sums(xs, depth: int) -> float:
    """sum_{m=1..depth} h_m(xs) where h_m is the complete homogeneous
    symmetric polynomial, via the incremental-variable recurrence."""
    # H[m] = h_m over the variables included so far
    H = [1.0] + [0.0] * depth
    for x in xs:
        for m in range(1, depth + 1):
            H[m] = H[m] + x * H[m - 1]
    return sum(H[1:])


def gd_matrix(sys: CFSystem, s: float, depth: int):
    """The N x N quotient matrix C_n^(s) at depth n >= 1 and s >= 0, as a
    numpy array."""
    if s < 0:
        raise ValidationError(f"s must be >= 0, got {s}")
    import numpy as np
    N = sys.n_groups
    col = np.zeros(N)
    for k, row in enumerate(sys.ratios):
        col[k] = _complete_homogeneous_sums([float(lam)**s for lam in row],
                                            depth)
    M = np.tile(col, (N, 1))
    np.fill_diagonal(M, 0.0)
    return M


def _balance(A, sweeps: int = 50):
    """Osborne-style diagonal similarity balancing: equalize off-diagonal
    row and column sums.  The spectral radius is invariant."""
    A = A.copy()
    n = A.shape[0]
    for _ in range(sweeps):
        changed = False
        for i in range(n):
            r = A[i, :].sum() - A[i, i]
            c = A[:, i].sum() - A[i, i]
            if r > 0 and c > 0:
                f = math.sqrt(c / r)
                if abs(f - 1.0) > 1e-6:
                    A[i, :] *= f
                    A[:, i] /= f
                    changed = True
        if not changed:
            break
    return A


def spectral_radius(M, tol: float = 1e-12) -> float:
    """Perron root of a nonnegative irreducible matrix via power iteration
    on the balanced, rescaled matrix plus Id (the shift removes periodicity,
    balancing keeps the shift comparable to the root)."""
    import numpy as np
    A = np.asarray(M, dtype=float)
    n = A.shape[0]
    A = _balance(A)
    sigma = float(A.sum(axis=1).max())
    if sigma == 0.0:
        return 0.0
    shifted = A / sigma + np.eye(n)
    x = np.full(n, 1.0 / n)
    for _ in range(POWER_ITER_CAP):
        y = shifted @ x
        lam = float(np.linalg.norm(y, 1))
        if lam == 0.0:
            return 0.0
        x = y / lam
        # residual stop: ||(A/sigma + I)x - lam x||_1 relative to lam
        res = float(np.linalg.norm(shifted @ x - lam * x, 1))
        if res <= max(tol, 1e-15) * lam:
            return (lam - 1.0) * sigma
    raise NonConvergence(f"power iteration did not settle in {POWER_ITER_CAP} steps")


def gd_dimension(sys: CFSystem, depth: Optional[int],
                 tol: float = 1e-10) -> float:
    """s_n solving rho(C_n^(s)) = 1; rho is strictly decreasing in s and at
    least N - 1 >= 1 at s = 0, so the root lies in [0, inf).  Depth None is
    the infinite-depth limit, whose equation is the attractor equation, so
    it returns attractor_dimension(sys, tol).raw."""
    check_tol(tol)
    if depth is None:
        return attractor_dimension(sys, tol).raw
    if depth < 1:
        raise ValidationError(f"depth must be >= 1 or None, got {depth}")

    def g(s):
        return spectral_radius(gd_matrix(sys, s, depth), tol=1e-14) - 1.0

    return _bisect(g, 0.0, 1.0, tol)[0]

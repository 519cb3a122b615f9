"""Dimension formulas: measure dimension, the attractor-dimension root, and
the graph-directed finite-depth approximation with its spectral identities.

The attractor dimension is the root s0 of sum_i prod_j (1 - lam_{i,j}^s) = N - 1.
The depth-n graph-directed approximant s_n solves rho(C_n^(s)) = 1 for the
N x N matrix whose (i,k) off-diagonal entry sums lam_j^s over nondecreasing
group-k multisets of length <= n; s_n increases to s0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .entropy import lyapunov, phi_series, shannon_entropy
from .ifs import BudgetExceeded, CFSystem, ProbVector, \
    ValidationError, check_valid, prune_zeros

BISECT_TOL = 1e-12
POWER_ITER_CAP = 100_000


class NonConvergence(BudgetExceeded):
    pass


@dataclass(frozen=True)
class DimensionReport:
    dimension: float             # capped to [0, 1]
    raw: float                   # uncapped root / ratio
    method: str
    tolerance: float
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"dimension": self.dimension, "raw": self.raw,
                "method": self.method, "tolerance": self.tolerance,
                "diagnostics": self.diagnostics}


def _bisect(fn, lo: float, hi: float, tol: float,
            flo: Optional[float] = None) -> tuple:
    """(root, hi): a root of fn bracketed by [lo, hi], hi doubling until
    fn(lo) and fn(hi) differ in sign; hi is the bracket end used.  A caller
    that already holds fn(lo) passes it as flo."""
    if flo is None:
        flo = fn(lo)
    if flo == 0.0:
        return lo, hi
    fhi = fn(hi)
    while flo * fhi > 0:
        if math.isinf(hi):
            raise ValueError(f"no sign change on [{lo}, inf)")
        hi *= 2.0
        fhi = fn(hi)
    if fhi == 0.0:
        return hi, hi
    end = hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
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
        raise ValueError("ratios must be a nonempty subset of (0,1)")

    def f(s):
        return sum(r**s for r in rs) - 1.0

    return _bisect(f, 0.0, 1.0, tol)[0]


def measure_dimension(sys: CFSystem, p: ProbVector,
                      tol: float = 1e-10) -> DimensionReport:
    """dim = min{1, (h_p + Phi(p)) / chi(p)} for the self-similar measure."""
    check_valid(sys)
    sys2, p2, degenerate = prune_zeros(sys, p)
    if degenerate:
        return DimensionReport(dimension=0.0, raw=0.0,
                               method="measure-formula", tolerance=tol,
                               diagnostics={"degenerate": True})
    h = shannon_entropy(p2)
    chi = lyapunov(sys2, p2)
    phi = phi_series(sys2, p2, tol)
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
    check_valid(sys)
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


def gd_matrix(sys: CFSystem, s: float, depth: Optional[int]) -> np.ndarray:
    """The N x N quotient matrix C_n^(s); depth=None gives the closed-form
    infinite-depth limit with entries prod_j (1 - lam_{k,j}^s)^{-1} - 1."""
    if s <= 0:
        raise ValueError("s must be positive")
    N = sys.n_groups
    col = np.zeros(N)
    for k, row in enumerate(sys.ratios):
        xs = [float(lam)**s for lam in row]
        if depth is None:
            col[k] = math.prod(1.0 / (1.0 - x) for x in xs) - 1.0
        else:
            col[k] = _complete_homogeneous_sums(xs, depth)
    M = np.tile(col, (N, 1))
    np.fill_diagonal(M, 0.0)
    return M


def _balance(A: np.ndarray, sweeps: int = 50) -> np.ndarray:
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
    """s_n solving rho(C_n^(s)) = 1; rho is strictly decreasing in s."""
    check_valid(sys)
    if depth is not None and depth < 1:
        raise ValidationError(f"depth must be >= 1 or None, got {depth}")

    def g(s):
        return spectral_radius(gd_matrix(sys, s, depth), tol=1e-14) - 1.0

    lo = 1e-9
    glo = g(lo)
    if glo <= 0:
        # extremely small entries already: the root is essentially 0
        return lo
    return _bisect(g, lo, 1.0, tol, flo=glo)[0]


def special_det(x) -> float:
    """Closed-form determinant of the matrix with -1 diagonal and x_j - 1
    in column j off the diagonal:
    (n-1)(-1)^{n+1} prod x_k + (-1)^n sum_k prod_{l != k} x_l.
    """
    xs = [float(v) for v in x]
    n = len(xs)
    if n < 2:
        raise ValueError("need at least 2 entries")
    prod_all = math.prod(xs)
    sum_omit = 0.0
    for k in range(n):
        sum_omit += math.prod(xs[:k] + xs[k + 1:])
    return (n - 1) * (-1.0)**(n + 1) * prod_all + (-1.0)**n * sum_omit


def bn_matrix(sys: CFSystem, s: float, depth: int,
              budget: int = 200_000):
    """The full B_n^(s) indexed by nondecreasing same-group multiset words of
    length <= depth; entry (i, j) = lam_j^s when the fixed points differ."""
    vertices = []   # (group index, lam^s of the multiset word)
    for k, row in enumerate(sys.ratios):
        xs = [float(lam) for lam in row]
        for m in range(1, depth + 1):
            for combo in itertools.combinations_with_replacement(
                    range(len(xs)), m):
                lam_pow = math.prod(xs[j] for j in combo)
                vertices.append((k, lam_pow**s))
                if len(vertices) > budget:
                    raise BudgetExceeded(
                        f"B_n vertex set exceeds budget {budget}")
    V = len(vertices)
    B = np.zeros((V, V))
    for a, (ga, _) in enumerate(vertices):
        for b, (gb, w) in enumerate(vertices):
            if ga != gb:
                B[a, b] = w
    return B


def bn_matrix_check(sys: CFSystem, s: float, depth: int,
                    tol: float = 1e-12) -> tuple:
    """Spectral radii of the full matrix B_n^(s) and its quotient C_n^(s);
    they agree because the Perron eigenvector is constant on groups."""
    rho_b = spectral_radius(bn_matrix(sys, s, depth), tol=tol)
    rho_c = spectral_radius(gd_matrix(sys, s, depth), tol=tol)
    return rho_b, rho_c

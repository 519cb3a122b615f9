"""Check-only identities of the graph-directed construction.

The library solves rho(C_n^(s)) = 1 on the N x N quotient matrix and, at
infinite depth, the attractor equation.  The identities behind both live
here, as test oracles on ``numpy.linalg.eigvals``: the full matrix B_n^(s)
has the quotient's spectral radius, the infinite-depth limit of C_n^(s) has
a closed form, and the determinant of the matrix with -1 diagonal and
x_j - 1 off it has a closed form.

The library finds every root by Brent's method; the plain halving it
replaced stays here as its oracle.

The library's signature DP takes its block sums from binomial marginals and
its suffix sums from the multinomial theorem; the direct log-space sweep and
the O(N n^2) DP it replaced stay here as its oracle.
"""

import itertools
import math

import numpy as np

from cfsdim import CFSystem, ValidationError, gd_matrix, spectral_radius
from cfsdim.ifs import prune_zeros


def bisect_root(fn, lo: float, hi: float, tol: float) -> float:
    """A root of fn by halving: hi doubles until fn(lo) and fn(hi) differ in
    sign, then the bracket halves until its width is tol or its midpoint
    rounds to an end; the midpoint is returned."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    fhi = fn(hi)
    while flo * fhi > 0:
        if math.isinf(hi):
            raise ValidationError(f"no sign change on [{lo}, inf)")
        hi *= 2.0
        fhi = fn(hi)
    if fhi == 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def perron_root(M) -> float:
    """Spectral radius by a dense eigensolver."""
    return float(max(abs(np.linalg.eigvals(np.asarray(M, dtype=float)))))


def special_det(x) -> float:
    """Closed-form determinant of the matrix with -1 diagonal and x_j - 1
    in column j off the diagonal:
    (n-1)(-1)^{n+1} prod x_k + (-1)^n sum_k prod_{l != k} x_l.
    """
    xs = [float(v) for v in x]
    n = len(xs)
    if n < 2:
        raise ValidationError("need at least 2 entries")
    prod_all = math.prod(xs)
    sum_omit = 0.0
    for k in range(n):
        sum_omit += math.prod(xs[:k] + xs[k + 1:])
    return (n - 1) * (-1.0)**(n + 1) * prod_all + (-1.0)**n * sum_omit


def bn_matrix(sys: CFSystem, s: float, depth: int) -> np.ndarray:
    """The full B_n^(s) indexed by nondecreasing same-group multiset words of
    length <= depth; entry (i, j) = lam_j^s when the fixed points differ."""
    vertices = []   # (group index, lam^s of the multiset word)
    for k, row in enumerate(sys.ratios):
        xs = [float(lam) for lam in row]
        for m in range(1, depth + 1):
            for combo in itertools.combinations_with_replacement(
                    range(len(xs)), m):
                vertices.append((k, math.prod(xs[j] for j in combo)**s))
    B = np.zeros((len(vertices), len(vertices)))
    for a, (ga, _) in enumerate(vertices):
        for b, (gb, w) in enumerate(vertices):
            if ga != gb:
                B[a, b] = w
    return B


def bn_matrix_check(sys: CFSystem, s: float, depth: int,
                    tol: float = 1e-12) -> tuple:
    """(rho of the full B_n^(s) by eigvals, rho of the library's quotient
    C_n^(s) by its power iteration); they agree because the Perron
    eigenvector of B_n is constant on groups."""
    return (perron_root(bn_matrix(sys, s, depth)),
            spectral_radius(gd_matrix(sys, s, depth), tol=tol))


def gd_limit_matrix(sys: CFSystem, s: float) -> np.ndarray:
    """The infinite-depth limit of C_n^(s): off-diagonal column k holds
    prod_j (1 - lam_{k,j}^s)^{-1} - 1, the sum of all multiset words."""
    col = [math.prod(1.0 / (1.0 - float(lam)**s) for lam in row) - 1.0
           for row in sys.ratios]
    M = np.tile(col, (sys.n_groups, 1))
    np.fill_diagonal(M, 0.0)
    return M


def block_sums(row_p, n: int) -> tuple:
    """Lists S, SL over block lengths 0..n: S[l] = sum w and SL[l] = sum
    w log w over the weights w = multinomial(counts) * prod p^count of all
    count vectors of one block of length l.

    One sweep over the members: giving c symbols to a member of weight p
    after u symbols went to earlier members multiplies w by C(u+c, c) p^c.
    Each update is formed in log space, so no factorial is ever evaluated.
    """
    logs = [0.0] + [math.log(k) for k in range(1, n + 1)]
    S = [1.0] + [0.0] * n
    SL = [0.0] * (n + 1)
    for pw in row_p:
        log_p = math.log(float(pw))
        S2 = [0.0] * (n + 1)
        SL2 = [0.0] * (n + 1)
        for u in range(n + 1):
            if S[u] == 0.0:
                continue
            log_s = math.log(S[u])
            mean_log = SL[u] / S[u]
            log_f = 0.0          # log(C(u+c, c) p^c)
            for c in range(n - u + 1):
                if c:
                    log_f += logs[u + c] - logs[c] + log_p
                t = math.exp(log_s + log_f)
                S2[u + c] += t
                SL2[u + c] += t * (mean_log + log_f)
        S, SL = S2, SL2
    return S, SL


def signature_entropies(sys: CFSystem, p, n: int) -> tuple:
    """H_1..H_n of the block-signature classes by the O(N n^2) DP over
    (suffix length, first group, first block length): B[r][h] sums W log W
    over the suffixes of length r opening with a block of group h, and the
    suffixes of length >= 1 that do not open with group h weigh 1 - rho_h."""
    p = prune_zeros(sys, p)
    N = len(p.weights)
    bs = [block_sums(row, n) for row in p.weights]
    others = [1.0 - float(sum(row)) for row in p.weights]
    B = [[0.0] * N for _ in range(n + 1)]
    tot = [0.0] * (n + 1)
    for r in range(1, n + 1):
        for h, (S, SL) in enumerate(bs):
            acc = SL[r]          # one block; the empty rest weighs 1
            for ell in range(1, r):
                rest = r - ell
                acc += SL[ell] * others[h] + S[ell] * (tot[rest] - B[rest][h])
            B[r][h] = acc
        tot[r] = sum(B[r])
    return tuple(-t for t in tot[1:])

"""Check-only identities of the graph-directed construction.

The library solves rho(C_n^(s)) = 1, evaluating rho on the symmetric form
of the N x N quotient matrix from its column sums, and, at infinite depth,
the attractor equation.  The identities behind both live here, as test
oracles on ``numpy.linalg.eigvals``: the quotient itself, built from
column sums summed by enumeration, has the symmetric form's spectral
radius, the full matrix B_n^(s) has the quotient's, the infinite-depth limit of C_n^(s) has a closed form, and the
determinant of the matrix with -1 diagonal and x_j - 1 off it has a closed
form.

The library finds every root by Brent's method; the plain halving it
replaced stays here as its oracle, with the attractor equation's excess,
evaluated as the library does, and a bound on its rounding.

The library's signature DP takes its block sums from binomial marginals and
its suffix sums from the multinomial theorem; the direct log-space sweep and
the O(N n^2) DP it replaced stay here as its oracle.  It reports H_n / n and
the increments; ``dp_entropies`` rebuilds H_1..H_n from them.
"""

import itertools
import math

import numpy as np

from cfsdim import CFSystem, ValidationError, rw_entropy_bruteforce
from cfsdim.dimension import _gd_radius
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


def attractor_excess(sys: CFSystem) -> tuple:
    """F(s) - (N - 1) as the library evaluates it, its derivative, and a
    bound on its rounding.

    The excess is P_g - sum_{i != g} Q_i: each group's product P of
    1 - x_j, x_j = lam_j^s, and Q = 1 - P follow member by member from
    P' = P (1 - x), Q' = Q + P x, and g is the first group of least P.
    With u the unit roundoff, to first order:
    - the powers, each within 2u x_j, move P and Q = 1 - P by at most
      2u sum_j x_j <= 2 m u, for a group of m maps;
    - on those powers P is a product of m rounded factors 1 - x_j, within
      2 m u P, and Q a sum of nonnegative terms P_{j-1} x_j whose error
      telescopes to (3 m + 1) u Q;
    - sum of the N - 1 values Q_i <= 1 adds (N - 2)(N - 1) u, and the last
      subtraction (N - 1) u.
    Over M maps that is (5M + N(N - 1)) u; N u more covers the higher-order
    terms."""
    rows = [[float(lam) for lam in row] for row in sys.ratios]

    def F(s):
        products = []
        for row in rows:
            P, Q = 1.0, 0.0
            for lam in row:
                x = lam**s
                Q += P * x
                P *= 1.0 - x
            products.append((P, Q))
        g = min(range(len(products)), key=lambda i: products[i][0])
        rest = 0
        for i, (_, Q) in enumerate(products):
            if i != g:
                rest += Q
        return products[g][0] - rest

    def dF(s):
        return sum(-float(lam)**s * math.log(float(lam))
                   * math.prod(1.0 - float(mu)**s
                               for k, mu in enumerate(row) if k != j)
                   for row in sys.ratios for j, lam in enumerate(row))

    error = (5 * sys.n_maps + sys.n_groups**2) * 2.0**-53
    return F, dF, error


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


def bn_matrix_check(sys: CFSystem, s: float, depth: int) -> tuple:
    """(rho of the full B_n^(s) by eigvals, rho of the quotient C_n^(s) by
    the library's evaluator on the enumerated column sums); they agree
    because the Perron eigenvector of B_n is constant on groups."""
    return (perron_root(bn_matrix(sys, s, depth)),
            _gd_radius(gd_column_sums(sys, s, depth)))


def gd_column_sums(sys: CFSystem, s: float, depth: int) -> list:
    """c_k, the sum of lam^s over every nondecreasing group-k multiset word
    of length <= n, by enumeration, the product of its members' lam^s
    taken one factor at a time."""
    c = []
    for row in sys.ratios:
        xs = [float(lam)**s for lam in row]
        c.append(math.fsum(
            math.prod(xs[j] for j in combo) for m in range(1, depth + 1)
            for combo in itertools.combinations_with_replacement(
                range(len(xs)), m)))
    return c


def gd_quotient_matrix(sys: CFSystem, s: float, depth: int) -> np.ndarray:
    """The quotient C_n^(s) = 1 c^T - diag(c) itself, c from
    gd_column_sums."""
    return quotient_of(gd_column_sums(sys, s, depth))


def quotient_of(c) -> np.ndarray:
    """The matrix 1 c^T - diag(c): c_k in column k off the diagonal."""
    return np.tile(c, (len(c), 1)) - np.diag(c)


def symmetric_form(c) -> np.ndarray:
    """S = D C D^-1 of the quotient C = 1 c^T - diag(c) under
    D = diag(sqrt(c)): sqrt(c_i) sqrt(c_k) off the diagonal, 0 on it, the
    matrix whose products the library's power iteration takes in O(N)."""
    root_c = np.sqrt(c)
    S = np.outer(root_c, root_c)
    np.fill_diagonal(S, 0.0)
    return S


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


def dp_entropies(sys: CFSystem, p, n: int) -> list:
    """H_1..H_n from the library's signature DP: its depth-1 value H_1,
    then the depth-n increments H_r - H_{r-1} added in order."""
    increments = rw_entropy_bruteforce(sys, p, n).increments
    return list(itertools.accumulate(
        [rw_entropy_bruteforce(sys, p, 1).value, *increments]))

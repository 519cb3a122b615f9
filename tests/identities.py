"""Check-only identities of the graph-directed construction.

The library solves rho(C_n^(s)) = 1 on the N x N quotient matrix and, at
infinite depth, the attractor equation.  The identities behind both live
here, as test oracles on ``numpy.linalg.eigvals``: the full matrix B_n^(s)
has the quotient's spectral radius, the infinite-depth limit of C_n^(s) has
a closed form, and the determinant of the matrix with -1 diagonal and
x_j - 1 off it has a closed form.
"""

import itertools
import math

import numpy as np

from cfsdim import CFSystem, ValidationError, gd_matrix, spectral_radius


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

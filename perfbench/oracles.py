"""Reference answers computed by methods independent of the code under test.

Nothing here imports ``cfsdim``.  Each oracle takes plain Python numbers
(floats or ``Fraction``s) and uses a different algorithm from the library's:

- Phi: the double series summed in log space (binomial weights from
  ``lgamma``), truncated far below any tolerance the benchmark checks.
- Attractor and similarity roots: bisection on a ``log1p`` form of the
  defining equation, to 1e-14.
- Graph-directed approximants: the quotient matrix built from power-series
  coefficients (``numpy.convolve``), Perron root from ``numpy.linalg.eigvals``.
- Random-walk entropy H_n: a forward DP whose per-block sums use the
  multinomial theorem and log-space weights, so depth 200 stays finite.
- Separation probe: brute force over all words with exact ``Fraction``
  composition of the maps.
- 4-corner: the case formula, natural weights, sufficiency expression and
  cylinder rectangles written out from their definitions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

ROOT_TOL = 1e-14


def _bisect(fn, lo, hi, tol=ROOT_TOL):
    flo = fn(lo)
    if flo * fn(hi) > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- Phi and the measure formula -------------------------------------------

def _log_factorials(n):
    """log(i!) for i = 0..n."""
    return np.array([math.lgamma(i + 1) for i in range(n + 1)])


def phi_member(a, rho, eps=1e-17):
    """a(1-rho) sum_k rho^k E[log((Q+1)/(k+1))], Q ~ Bin(k, a/rho), in log space."""
    if a <= 0.0 or a >= rho:
        return 0.0          # absent member, or the only one: every log vanishes
    pi = a / rho
    lp, lq = math.log(pi), math.log1p(-pi)
    # truncate where the geometric-log tail drops below eps
    K = 1
    while rho ** (K + 1) * math.log(K + 2) / (1.0 - rho) >= eps:
        K += 1
    lf = _log_factorials(K)
    total = 0.0
    for k in range(1, K + 1):
        q = np.arange(k + 1)
        logw = lf[k] - lf[q] - lf[k - q] + q * lp + (k - q) * lq
        e_k = float(np.dot(np.exp(logw), np.log((q + 1.0) / (k + 1.0))))
        total += rho ** k * e_k
    return a * (1.0 - rho) * total


def phi(weights):
    """Phi(p) for ragged group weights (zeros allowed)."""
    out = 0.0
    for row in weights:
        row = [float(w) for w in row if w > 0]
        rho = math.fsum(row)
        if len(row) > 1:
            out += math.fsum(phi_member(a, rho) for a in row)
    return out


def entropy(weights):
    return -math.fsum(float(w) * math.log(float(w))
                      for row in weights for w in row if w > 0)


def lyapunov(ratios, weights):
    return -math.fsum(float(w) * math.log(float(lam))
                      for rl, rw in zip(ratios, weights)
                      for lam, w in zip(rl, rw) if w > 0)


def degenerate(weights):
    return sum(1 for row in weights if any(w > 0 for w in row)) <= 1


def measure_dimension(ratios, weights):
    """(dimension, phi) of the self-similar measure: min{1, (h + Phi)/chi}."""
    if degenerate(weights):
        return 0.0, 0.0
    ph = phi(weights)
    raw = (entropy(weights) + ph) / lyapunov(ratios, weights)
    return min(1.0, max(0.0, raw)), ph


def rw_entropy_closed(weights):
    if degenerate(weights):
        return 0.0
    return entropy(weights) + phi(weights)


def phi_lower_bound(weights):
    """Jensen: sum p log(p + mass outside the group)."""
    terms = []
    for row in weights:
        outside = 1.0 - math.fsum(float(w) for w in row)
        terms += [float(w) * math.log(float(w) + outside) for w in row if w > 0]
    return math.fsum(terms)


# --- attractor roots ---------------------------------------------------------

def attractor_root(ratios):
    """Root of sum_i prod_j (1 - lam^s) = N - 1."""
    n = len(ratios)

    def f(s):
        return math.fsum(math.exp(math.fsum(math.log1p(-float(l) ** s) for l in row))
                         for row in ratios) - (n - 1)

    hi = 1.0
    while f(hi) < 0:
        hi *= 2.0
    return _bisect(f, 1e-12, hi)


def similarity_root(ratios):
    def f(s):
        return math.fsum(float(r) ** s for r in ratios) - 1.0

    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
    return _bisect(f, 0.0, hi)


def gd_matrix(ratios, s, depth):
    """C_n^(s): column k off the diagonal holds sum_{m=1..n} h_m(lam_k^s),
    the coefficients of prod_j 1/(1 - x_j t) up to t^n; depth None is the
    closed-form limit prod_j 1/(1 - x_j) - 1."""
    n = len(ratios)
    col = np.empty(n)
    for k, row in enumerate(ratios):
        xs = [float(l) ** s for l in row]
        if depth is None:
            col[k] = math.exp(-math.fsum(math.log1p(-x) for x in xs)) - 1.0
        else:
            series = np.array([1.0])
            for x in xs:
                geo = x ** np.arange(depth + 1)
                series = np.convolve(series, geo)[:depth + 1]
            col[k] = float(series[1:].sum())
    m = np.tile(col, (n, 1))
    np.fill_diagonal(m, 0.0)
    return m


def perron_root(m):
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def gd_root(ratios, depth):
    """s_n with rho(C_n^(s)) = 1; rho decreases in s."""
    def g(s):
        return perron_root(gd_matrix(ratios, s, depth)) - 1.0

    lo, hi = 1e-9, 1.0
    if g(lo) <= 0:
        return lo           # the root lies below 1e-9; the library reports 1e-9
    while g(hi) > 0:
        hi *= 2.0
    return _bisect(g, lo, hi, 1e-13)


# --- 4-corner ----------------------------------------------------------------

def _pairs(gamma, lam):
    """(gamma_i, lambda_i) per map, with the y pairing of the system."""
    return ((gamma[0][0], lam[0][0]), (gamma[0][1], lam[1][0]),
            (gamma[1][0], lam[0][1]), (gamma[1][1], lam[1][1]))


def cylinders(gamma, lam, depth):
    """The depth-d images of the unit square, as (x, y, width, height) rows."""
    g, l = gamma, lam
    maps = (((g[0][0], 0.0), (l[0][0], 0.0)), ((g[0][1], 0.0), (l[1][0], 1.0 - l[1][0])),
            ((g[1][0], 1.0 - g[1][0]), (l[0][1], 0.0)),
            ((g[1][1], 1.0 - g[1][1]), (l[1][1], 1.0 - l[1][1])))
    rects = [(0.0, 0.0, 1.0, 1.0)]
    for _ in range(depth):
        rects = [(rx * x + cx, ry * y + cy, rx * w, ry * h)
                 for (rx, cx), (ry, cy) in maps for x, y, w, h in rects]
    return np.array(rects)


def natural_s(gamma, lam):
    pairs = _pairs(gamma, lam)

    def f(s):
        return math.fsum(g * l ** (s - 1) for g, l in pairs) - 1.0

    lo, hi = (1.0, 2.0) if f(1.0) * f(2.0) <= 0 else (0.5, 3.0)
    return _bisect(f, lo, hi)


def natural_p(gamma, lam):
    s = natural_s(gamma, lam)
    w = [g * l ** (s - 1) for g, l in _pairs(gamma, lam)]
    tot = math.fsum(w)
    return [v / tot for v in w], s


def set_dimension_4c(gamma, lam):
    """(dimension, certified): s is certified when domination holds and the
    sufficiency expression at the natural weights is positive."""
    g, l = gamma, lam
    s = natural_s(gamma, lam)
    dominated = (l[0][0] <= g[0][0] and l[1][1] <= g[1][1]
                 and l[0][1] <= g[1][0] and l[1][0] <= g[0][1])
    if not dominated:
        return min(2.0, s), False
    pairs = _pairs(gamma, lam)
    p = [gi * li ** (s - 1) for gi, li in pairs]
    other = (1, 0, 3, 2)          # the member sharing the x fixed point
    suff = math.fsum(p[i] * math.log((1.0 - p[other[i]]) / pairs[i][1] ** (s - 1))
                     for i in range(4))
    return min(2.0, s), suff > 0.0


def measure_dimension_4c(gamma, lam, p):
    """(dimension, case, phi_x, phi_y) from the four-case formula."""
    p1, p2, p3, p4 = p
    h = entropy([p])
    chi_x = -math.fsum(w * math.log(gi) for w, (gi, _) in zip(p, _pairs(gamma, lam)))
    chi_y = -math.fsum(w * math.log(li) for w, (_, li) in zip(p, _pairs(gamma, lam)))
    phi_x = phi([[p1, p2], [p3, p4]])
    phi_y = phi([[p1, p3], [p2, p4]])
    eps = 1e-12
    if chi_y >= chi_x - eps and chi_x >= h + phi_x - eps:
        case, raw = "x-saturating", (h + phi_x) / chi_x - phi_x / chi_y
    elif chi_y >= chi_x - eps and h + phi_x >= chi_x - eps:
        case, raw = "x-overflow", 1.0 + (h - chi_x) / chi_y
    elif chi_x >= chi_y - eps and chi_y >= h + phi_y - eps:
        case, raw = "y-saturating", (h + phi_y) / chi_y - phi_y / chi_x
    else:
        case, raw = "y-overflow", 1.0 + (h - chi_y) / chi_x
    return min(2.0, max(0.0, raw)), case, phi_x, phi_y


def case_margin_4c(gamma, lam, p):
    """Smallest distance of the case inequalities from their thresholds; the
    pool keeps 4-corner queries well away from a case boundary."""
    h = entropy([p])
    pairs = _pairs(gamma, lam)
    chi_x = -math.fsum(w * math.log(gi) for w, (gi, _) in zip(p, pairs))
    chi_y = -math.fsum(w * math.log(li) for w, (_, li) in zip(p, pairs))
    phi_x = phi([[p[0], p[1]], [p[2], p[3]]])
    phi_y = phi([[p[0], p[2]], [p[1], p[3]]])
    if abs(chi_x - chi_y) < 1e-6:
        return 0.0
    return min(abs(chi_x - chi_y), abs(chi_x - h - phi_x), abs(chi_y - h - phi_y))


# --- random-walk entropy -------------------------------------------------------

def _block_sums(row, n):
    """S(l) = sum_w w = rho^l and T(l) = sum_w w log w over the count
    vectors of one block of length l, for l = 0..n."""
    row = [float(w) for w in row if w > 0]
    logs = [math.log(w) for w in row]
    lf = _log_factorials(n)
    S = [math.fsum(row) ** l for l in range(n + 1)]
    T = [0.0] * (n + 1)
    for l in range(1, n + 1):
        if len(row) == 1:
            T[l] = S[l] * l * logs[0]
            continue
        # all compositions of l into len(row) parts, vectorised over the last
        acc = []
        for head in itertools.product(range(l + 1), repeat=len(row) - 2):
            rest = l - sum(head)
            if rest < 0:
                continue
            c_mid = np.arange(rest + 1)
            c_last = rest - c_mid
            lw = (lf[l] - sum(lf[c] - c * lg for c, lg in zip(head, logs))
                  - lf[c_mid] + c_mid * logs[-2] - lf[c_last] + c_last * logs[-1])
            w = np.exp(lw)
            acc.append(float(np.dot(w, lw)))
        T[l] = math.fsum(acc)
    return S, T


def rw_entropies(weights, n):
    """H_1..H_n over block-signature classes (forward DP, log-space blocks)."""
    groups = [row for row in weights if any(w > 0 for w in row)]
    if len(groups) <= 1 and sum(1 for row in groups for w in row if w > 0) <= 1:
        return [0.0] * n
    N = len(groups)
    sums = [_block_sums(row, n) for row in groups]
    # F[r][g]: total weight of signatures of length r whose last block has
    # group g (g = N: the empty prefix); G[r][g]: their sum of W log W
    F = [[0.0] * (N + 1) for _ in range(n + 1)]
    G = [[0.0] * (N + 1) for _ in range(n + 1)]
    F[0][N] = 1.0
    for r in range(1, n + 1):
        for g in range(N):
            S, T = sums[g]
            f_acc, g_acc = [], []
            for l in range(1, r + 1):
                for h in range(N + 1):
                    if h == g or F[r - l][h] == 0.0:
                        continue
                    f_acc.append(S[l] * F[r - l][h])
                    g_acc.append(T[l] * F[r - l][h] + S[l] * G[r - l][h])
            F[r][g] = math.fsum(f_acc)
            G[r][g] = math.fsum(g_acc)
    return [-math.fsum(G[r][:N]) for r in range(1, n + 1)]


# --- separation probe ----------------------------------------------------------

def signature(word):
    """Maximal same-group runs with sorted member counts."""
    sig = []
    for group, run in itertools.groupby(word, key=lambda s: s[0]):
        counts = {}
        for _, m in run:
            counts[m] = counts.get(m, 0) + 1
        sig.append((group, tuple(sorted(counts.items()))))
    return tuple(sig)


def word_map(fixed_points, ratios, word):
    """(ratio, intercept) of f_{w1} o ... o f_{wn} composed map by map."""
    r, c = 1, 0
    for g, m in word:
        lam = ratios[g - 1][m - 1]
        t = fixed_points[g - 1]
        # (r, c) o (lam, t(1 - lam))
        c = r * t * (1 - lam) + c
        r = r * lam
    return r, c


def probe_rows(fixed_points, ratios, n_max, exact):
    """Per depth n = 2..n_max: class count, min gap, exact zero and a witness
    pair of words at the min gap.  ``exact``
    buckets by the exact contraction product; otherwise by count vector."""
    fps = [Fraction(t) for t in fixed_points]
    rs = [[Fraction(l) for l in row] for row in ratios]
    symbols = [(g + 1, m + 1) for g, row in enumerate(rs) for m in range(len(row))]
    rows = []
    for n in range(2, n_max + 1):
        classes = {}
        for word in itertools.product(symbols, repeat=n):
            sig = signature(word)
            if sig not in classes:
                classes[sig] = word
        buckets = {}
        for sig, word in classes.items():
            r, c = word_map(fps, rs, word)
            key = r if exact else tuple(sorted(
                (s, word.count(s)) for s in set(word)))
            buckets.setdefault(key, []).append((c, word))
        best, witness = None, None
        for vals in buckets.values():
            vals.sort()
            for (a, wa), (b, wb) in zip(vals, vals[1:]):
                if best is None or b - a < best:
                    best, witness = b - a, [[list(s) for s in wa], [list(s) for s in wb]]
        rows.append({"depth": n, "class_count": len(classes),
                     "min_gap": None if best is None else float(best),
                     "exact_zero": best == 0, "witness_words": witness})
    return rows

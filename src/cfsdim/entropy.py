"""Shannon entropy, Lyapunov exponent, the overlap correction Phi, and the
random-walk entropy of the composed-map distribution.

Phi is the entropy lost to commutation inside fixed-point blocks:
h_RW = h_p + Phi(p).  Three evaluators are provided (truncated series with a
certified tail bound, a seeded Monte-Carlo estimate of the probabilistic
representation, and the Jensen lower bound), plus an exact finite-depth
brute force for H_n over block-signature classes.
"""

from __future__ import annotations

import math
from itertools import accumulate, count
from operator import add, mul
from typing import List, NamedTuple, Optional

from .ifs import (MC_RUN_CAP, SAMPLE_CHUNK, BudgetExceeded, CFSystem,
                  ProbVector, ValidationError, _gamma, _json_value, _total,
                  check_samples, check_shape, check_tol, prune_zeros)

DEFAULT_TOL = 1e-10
PHI_TERM_CAP = 10**8
RW_DP_CAP = 10**7
TRIM = 2.0 ** -70     # the DP's floor, and the least of the series' floors


class PhiResult(NamedTuple):
    value: float
    tail_bound: float
    terms_used: int
    method: str                      # "series" | "point-mass" | "monte-carlo"
    stderr: Optional[float] = None
    to_json_dict = _json_value       # a report's JSON, by ifs._json_value


class RWEntropyResult(NamedTuple):
    value: float
    method: str                      # "closed-form" | "brute-force"
    depth: Optional[int] = None      # depth, increments: brute force only
    increments: Optional[tuple] = None   # H_2 - H_1, ..., H_n - H_{n-1}
    tail_bound: Optional[float] = None   # closed form only: its error bound
    to_json_dict = _json_value


def shannon_entropy(p: ProbVector) -> float:
    """-sum p log p in nats, with 0 log 0 = 0."""
    h = 0.0
    for w in p.flat():
        w = float(w)
        if w > 0:
            h -= w * math.log(w)
    return h


def lyapunov(sys: CFSystem, p: ProbVector) -> float:
    """Average contraction rate -sum p log lambda (nats, positive)."""
    check_shape(sys, p)
    chi = 0.0
    for row_p, row_l in zip(p.weights, sys.ratios):
        for w, lam in zip(row_p, row_l):
            w = float(w)
            if w > 0:
                chi -= w * math.log(float(lam))
    return chi


def _group_masses(p: ProbVector) -> List[float]:
    """Each group's mass rho: the fsum of its weights as doubles, correctly
    rounded, as phi_series' rounding analysis assumes."""
    return [math.fsum(map(float, row)) for row in p.weights]


def _point_mass_bound(p: ProbVector) -> float:
    """B(delta) >= h_RW for pruned weights p; delta is the weight outside
    the heaviest group g (m members).  A word's map is fixed by the group
    sequence (H2(delta) + delta log(N' - 1) per step), the members drawn
    outside g (delta log M, M the most members of another group) and each
    g-run's count vector ((m-1) delta log(1 + 1/delta) by Jensen)."""
    masses = _group_masses(p)
    g = masses.index(max(masses))
    others = [row for i, row in enumerate(p.weights) if i != g]
    delta = math.fsum(float(w) for row in others for w in row)
    if delta == 0.0:
        return 0.0
    h2 = -delta * math.log(delta) - (1.0 - delta) * math.log1p(-delta)
    return (h2 + delta * math.log(len(others) * max(map(len, others)))
            + (len(p.weights[g]) - 1) * delta * math.log1p(1.0 / delta))


def _point_mass(p: ProbVector, bound: float, **extra) -> PhiResult:
    """Phi = -h for pruned weights p whose h_RW lies in [0, bound].  The
    tail bound adds the rounding of h (Higham, 3.1 and 4.2): each of the n
    nonnegative terms -w log w is within gamma_3 (the log, the product), and
    their sum within gamma_{n-1} more."""
    h = shannon_entropy(p)
    # 0.0 - h, not -h: a one-symbol point mass reads +0.0, not -0.0
    return PhiResult(value=0.0 - h,
                     tail_bound=bound + _gamma(len(p.flat()) + 2) * h,
                     terms_used=0, method="point-mass", **extra)


def _row_cells(row, n: int) -> int:
    """Cells _log_moments fills up to depth n with no row trimmed: k+1 in
    rows k = 1..n-1, one row per distinct weight (as a double) of three or
    more members, one for a pair, none for one member.  Trimming only drops
    cells, so this bounds the cells filled from above, and the caps check
    it before any work."""
    rows = len(set(map(float, row))) if len(row) > 2 else len(row) - 1
    return rows * (n - 1) * (n + 2) // 2


def _log_moments(row, rho: float, n: int, logs: List[float],
                 floors: List[float]) -> tuple:
    """(D, lost, cells): D_k = sum_j q_j E log(Y_jk + 1) - log(k + 1),
    Y_jk ~ Bin(k, q_j), for k < n over the members p_j = rho q_j of a group;
    logs[c] = log(c + 1).  As E log Y_{k+1}! - E log Y_k! = q E log(Y_k + 1),
    D_k is the step k -> k+1 of sum_j E log Y_jk! - log k!, in
    [-log(k + 1), 0] and 0 for one member.  Row k comes from row k-1 by
    Pascal's rule; a pair shares one, read forwards for Y and backwards for
    k - Y.  Members of equal weight (as doubles) share one row, and each
    member's term is added in member order, so sharing changes no bit.
    ``cells`` counts the cells filled.

    After step k the row is trimmed at both ends while its end entry is
    below floors[k]; lo and hi count the cells cut below and above, so the
    row reads logs from lo forwards and from hi backwards.  Pascal's rule
    is linear, keeps mass and has nonnegative coefficients, so the full row
    minus the trimmed one is nonnegative and sums to the mass cut so far:
    each dot with logs reads at most that mass times log(k + 1) too little.
    lost_k is that mass, weighted as D_k weighs the dots: q_j per member, 1
    for a pair.  Each step adds one cell and a row keeps one, so at most k
    cells are cut by row k, each below its row's floor: at floors of TRIM,
    lost_k <= k TRIM, 2.6e-18 (below u) at k = 3066.  Floors at most
    1/(2 (k + 1)^2), which falls with k, cut less than sum_k
    1/(2 (k + 1)^2) < 1/3 of the mass, so row k keeps at least 2/3 over
    its k + 1 cells, more than the floor in one of them, and no row
    empties.  A row with nothing cut reads logs in place, in the same
    order, and its D_k are the untrimmed kernel's bits."""
    ps = [float(w) for w in row]
    pair = len(ps) == 2
    members = ps[:len(ps) if len(ps) > 2 else len(ps) - 1]
    terms = {}                  # weight -> its row's D and lost terms by k
    cells = 0                   # each row's cells, counted as it is formed
    for w in dict.fromkeys(members):
        # 1 - b is exact (Sterbenz), so q + b == 1 and no row drifts
        b = 1.0 - w / rho
        q = 1.0 - b
        t, c = [0.0] * n, [0.0] * n
        v, lo, hi = [1.0], 0, 0         # v is row k less lo and hi end cells
        for k in range(1, n):
            # Pascal's rule, b x + q y along the last row padded by 0.0 on
            # each side; leading cells below the floor are cut as they form
            floor, last, y, cut = floors[k], iter(v), 0.0, 0.0
            cells += len(v) + 1
            v = []
            for x in last:
                z = b * x + q * y
                y = x
                if z >= floor:
                    v.append(z)
                    break
                cut += z
                lo += 1
            for x in last:
                v.append(b * x + q * y)
                y = x
            v.append(b * 0.0 + q * y)
            while v[-1] < floor:
                cut += v.pop()
                hi += 1
            c[k] = cut if pair else q * cut
            t[k] = q * sum(map(mul, v, logs[lo:lo + len(v)] if lo else logs))
            if pair:
                t[k] += b * sum(map(mul, reversed(v),
                                    logs[hi:hi + len(v)] if hi else logs))
        terms[w] = t, c
    d, dropped = [0.0] * n, [0.0] * n
    for w in members:
        t, c = terms[w]
        d, dropped = list(map(add, d, t)), list(map(add, dropped, c))
    if members:
        d = [x - lg for x, lg in zip(d, logs)]
    return d, list(accumulate(dropped)), cells


def phi_series(sys: CFSystem, p: ProbVector, tol: float = DEFAULT_TOL) -> PhiResult:
    """Truncated Phi series with its tail centred, and a bound on its error.

    Phi sums a (1 - rho) rho^k E log((Y + 1)/(k + 1)), Y ~ Bin(k, a / rho),
    over k >= 1 and the members a of each group of mass rho: by k, rho
    (1 - rho) sum_k rho^k D_k (_log_moments) per group.  As h + Phi = h_RW
    lies in [0, B] for B the _point_mass_bound, B < tol answers Phi = -h
    with tail bound B plus the rounding of h (_point_mass).  Raises
    BudgetExceeded past PHI_TERM_CAP binomial-row cells, or when a group
    mass rounds to 1 and that rule does not answer.

    Jensen's inequality bounds every D_k from both sides.  For Y ~ Bin(k, q)
    E 1/(Y + 1) = (1 - (1 - q)^(k+1)) / ((k + 1) q) <= 1 / ((k + 1) q), so
    E log(Y + 1) >= log((k + 1) q) as -log is convex, and E log(Y + 1) <=
    log(k q + 1) as log is concave.  Over the m members of a group, with
    q_j = p_j / rho summing to 1 and H = -sum_j q_j log q_j (a pair: q and
    b), log(q + (1 - q)/(k + 1)) <= log q + (1 - q)/((k + 1) q) gives
    -H <= D_k <= -H + (m - 1)/(k + 1).  So the group's tail past depth K is
    -H rho^(K+2) + R with 0 <= R <= w = (m - 1) rho^(K+2) / (K + 2): the
    value adds the centre -H rho^(K+2) + w/2 and the bound w/2.  K is the
    smallest depth with w/2 <= tol/(2G), G the groups of two or more
    members (one member has D_k = 0), found by bisection below the depth
    where (m - 1) rho^K reaches tol / G.

    The tail bound adds rounding, against the series at the weights as
    doubles (Higham, Accuracy and Stability of Numerical Algorithms, 3.1,
    4.2: theta_n is the relative error of n roundings, |theta_n| <= gamma_n;
    L = log(k + 1)).  Each q_j is within gamma_2 q_j + u/2 (rho, division,
    q = 1 - (1 - q)) and d/dq E log(Y + 1) lies in [0, 1/q], so D_k moves by
    at most gamma_{m+2} (L + 1) over the m members.  The rows are trimmed
    (_log_moments): against the exact rule that cuts the same cells, every
    operand is nonnegative until L is subtracted, and a cut only removes
    operands: k steps of a product and a sum, at most k sums in the dot
    with logs (an ulp each), the weight q_j and m - 1 sums leave the member
    sum, in [0, (1 + gamma_{m+2}) L], exact to theta_{3k+m+3}.  So D_k is
    within gamma_{3k+3m+10} (L + 1) of the trimmed series, and term k,
    after rho**k (rho within u, pow an ulp), within
    gamma_{4k+3m+13} rho^k (L + 1).  The trimmed series reads D_k at most
    lost_k L low; the computed lost_k sums at most k cut cells and m
    members, so it is exact to theta_{3k+m+1}, and 2 rho^k lost_k L covers
    that, rho**k and the sums, as the cap keeps 4k u far below 1.  It is 0
    when nothing was cut, and it is the mass actually cut, so it holds
    whatever the floors.  Those are chosen a priori to keep the term within
    a share of tol: row k is trimmed at max(2^-70, theta / rho^k), theta =
    tol (1 - rho) / (16 G (K + 2) (L_K + 1)), L_K = log(K + 1), lowered
    where needed so that no floor passes 1/(2 (k + 1)^2) and no row
    empties.  A cell cut at row j lies below that floor, so rho^j times it
    is below theta + 2^-70 rho^j, and at most j cells are cut by row j
    (_log_moments); as sum_{k>=j} rho^k L <= L_K rho^j / (1 - rho),
    2 rho (1 - rho) sum_k rho^k lost_k L is at most 2 rho L_K (K theta +
    2^-70 rho / (1 - rho)): under tol rho (1 - rho) / (8G) past the part
    floors of 2^-70 alone may cost, 1.6e-17 for a pair of mass 0.999 at
    the default tol.  The fsums, rho and
    the last two products give theta_5 and 1 - rho a relative
    gamma_1 / (1 - rho), x <= gamma_6 / (1 - rho) in all, so at most
    2 x |series| as the cap keeps 1 - rho above 1e-6; the two sums that
    add the centre move it by gamma_2 |series| more.  The centre's H comes
    from q_j = p_j / rho as doubles: against the exact q_j, which sum to
    1, each is within gamma_2, and -q log q moves by at most
    |dq| (|log q| + 1), so with the log, its product and m - 1 sums H is
    within gamma_{m+5} (H + 1).  rho**(K+2) is within gamma_{K+4}, w/2
    within gamma_{K+6}, and the centre's product and its share of the two
    sums add gamma_2: gamma_{K+m+16} (H + m) rho^(K+2) covers them all.
    The bound itself is exact to a relative O((K + 1 / (1 - rho)) u).
    ``terms_used`` counts the cells filled; the cap counts untrimmed ones
    (_row_cells) up front.
    """
    check_tol(tol)
    p = prune_zeros(sys, p)
    bound = _point_mass_bound(p)
    if bound < tol:
        return _point_mass(p, bound)
    # single-member groups drop out: D_k = 0
    groups = [(rho, row) for rho, row in zip(_group_masses(p), p.weights)
              if len(row) > 1]
    if any(rho >= 1.0 for rho, _ in groups):
        raise BudgetExceeded(f"a group mass rounds to 1 and the point-mass "
                             f"bound {bound!r} is not below tol {tol!r}")
    depths = []
    for rho, row in groups:
        m1, share = len(row) - 1, tol / (2 * len(groups))
        # (m - 1) rho^hi <= tol / G, so w/2 at hi is within the share; the
        # logs keep tol / G from underflowing
        lo = 0
        hi = max(0, math.ceil((math.log(tol) - math.log(m1 * len(groups)))
                              / math.log(rho)))
        while lo < hi:
            mid = (lo + hi) // 2
            if m1 * rho ** (mid + 2) / (2 * (mid + 2)) <= share:
                hi = mid
            else:
                lo = mid + 1
        depths.append(hi)
    cells = sum(_row_cells(row, K + 1) for (_, row), K in zip(groups, depths))
    if cells > PHI_TERM_CAP:
        raise BudgetExceeded(
            f"Phi series needs {cells} binomial-row cells, cap {PHI_TERM_CAP}")
    logs = [math.log(c + 1.0) for c in range(max(depths, default=0) + 1)]
    u = math.ulp(0.5)
    values, bounds, filled = [], [], 0
    for (rho, row), K in zip(groups, depths):
        out, m = 1.0 - rho, len(row)
        powers = [rho ** k for k in range(K + 1)]
        # row k is trimmed at max(TRIM, theta / rho^k), each floor at most
        # 1/(2 (k + 1)^2): the trimmed-mass term's budget (docstring)
        theta = min(tol * out / (16 * len(groups) * (K + 2) * (logs[K] + 1)),
                    0.5 * powers[K] / (K + 1) ** 2)
        floors = [theta / x if theta > TRIM * x else TRIM for x in powers]
        d, lost, used = _log_moments(row, rho, K + 1, logs, floors)
        series = rho * out * math.fsum(map(mul, powers, d))
        # rho^k (L + 1) gamma_n, n = 4k + 3m + 13, for k = 1..K: _gamma's
        # doubles, with no call a row
        rounding = math.fsum([x * (lg + 1.0) * (n * u / (1.0 - n * u))
                              for x, lg, n in zip(powers[1:], logs[1:],
                                                  count(3 * m + 17, 4))])
        if lost[-1]:        # the trimmed rows read each D_k lost_k L low
            rounding += 2.0 * math.fsum(map(mul, map(mul, powers, logs), lost))
        h = -math.fsum(q * math.log(q) for q in (float(w) / rho for w in row))
        tail = rho ** (K + 2)
        half = (m - 1) * tail / (2 * (K + 2))
        values.append(series - h * tail + half)
        bounds.append(rho * out * rounding
                      + abs(series) * (2.0 * _gamma(6) / out + _gamma(2))
                      + half
                      + _gamma(K + m + 16) * (h + m) * tail)
        filled += used
    return PhiResult(value=math.fsum(values), tail_bound=math.fsum(bounds),
                     terms_used=filled, method="series")


def _mc_chunk(rng, rho: float, w: float, size: int, start: int) -> tuple:
    """(size, mean, sum of squared deviations) of ``size`` samples of
    log(Y / (k - 1)) for the symbol of weight w in a group of mass rho whose
    runs are known to be at least ``start``: a geometric draw of the runs,
    then a binomial draw of the counts."""
    import numpy as np
    # extra in-group steps after X1: failures before the first out-of-group
    # draw, past the ``start`` already taken
    run = rng.geometric(1.0 - rho, size=size)
    run += start - 1
    if np.any(run >= MC_RUN_CAP):
        raise BudgetExceeded(f"a run exceeded {MC_RUN_CAP} in-group steps")
    y = rng.binomial(run, w / rho)
    y += 1
    run += 1
    vals = np.true_divide(y, run)     # Y and k - 1 are exact doubles
    np.log(vals, out=vals)
    mean = float(vals.mean())
    vals -= mean
    return size, mean, float(np.dot(vals, vals))


def _mc_symbol(rng, rho: float, w: float, drawn: int):
    """The (size, mean, sum of squared deviations) parts of the ``drawn``
    samples of the symbol of weight w in a group of mass rho: first a
    histogram of (run, count), row by row, then the samples left, a chunk
    at a time.

    A run is geometric, so memoryless: of the samples whose run is at least
    g, Bin(remaining, 1 - rho) end at g, and their counts Y - 1 ~ Bin(g, q),
    q = w / rho, fall into the row's g + 1 cells by one multinomial draw on
    the Bin(g, q) pmf, built from the last row by Pascal's rule.  Rows go on
    while one expects more samples than it has cells; the rest have runs of
    g plus a geometric draw and go to _mc_chunk, which checks MC_RUN_CAP.
    The rows end far below it: row g expects at most SAMPLE_CAP rho^g
    (1 - rho) <= SAMPLE_CAP / (e g) samples, under g + 1 from g = 1918 on."""
    import numpy as np
    # 1 - b is exact (Sterbenz), so q + b == 1 and no row's total drifts
    b = 1.0 - w / rho
    q = 1.0 - b
    remaining, g, pmf = drawn, 0, np.ones(1)
    while remaining and remaining * (1.0 - rho) > g + 1:
        size = int(rng.binomial(remaining, 1.0 - rho))
        if size:
            counts = rng.multinomial(size, pmf)
            vals = np.log(np.arange(1.0, g + 2.0) / (g + 1))
            mean = float(counts @ vals) / size
            vals -= mean
            yield size, mean, float(counts @ (vals * vals))
            remaining -= size
        g += 1
        last, pmf = pmf, np.append(pmf * b, 0.0)
        pmf[1:] += last * q
    for start in range(0, remaining, SAMPLE_CHUNK):
        yield _mc_chunk(rng, rho, w, min(SAMPLE_CHUNK, remaining - start), g)


def phi_monte_carlo(sys: CFSystem, p: ProbVector, samples: int,
                    seed: int) -> PhiResult:
    """Monte-Carlo estimate of Phi from its probabilistic representation.

    Draw X1 ~ p; run i.i.d. until the first symbol outside group(X1) at step
    k; Y counts X1 among steps 1..k-1; average log(Y/(k-1)).  Equivalently,
    k-1 = 1 + G with G geometric in the group mass and Y = 1 + Binom(G, a/rho),
    which is what is sampled here.  Raises BudgetExceeded before drawing
    when a group's mean run 1/(1 - rho) reaches MC_RUN_CAP, and while
    drawing when one sampled run does.

    The symbols' histogram is drawn first, in one multinomial draw.  Then
    each symbol in turn draws its (run, count) histogram row by row and the
    samples past the last row SAMPLE_CHUNK at a time (_mc_symbol); a symbol
    alone in its group has Y = k - 1, so its samples are exact zeros and
    draw nothing.  The parts' means and sums of squared deviations merge
    pairwise (Chan, Golub and LeVeque), so memory does not grow with
    ``samples``.
    """
    check_samples(samples, seed)
    p = prune_zeros(sys, p)
    if len(p.weights) == 1:          # the walk never leaves it: h_RW = 0
        return _point_mass(p, 0.0, stderr=0.0)
    masses = _group_masses(p)
    # a run stays in a group of mass rho for 1/(1 - rho) steps on average
    if (1.0 - max(masses)) * MC_RUN_CAP <= 1.0:
        raise BudgetExceeded(f"a group mass rounds to 1 within 1/{MC_RUN_CAP}"
                             ": its mean run 1/(1 - rho) reaches the step cap")
    import numpy as np
    rng = np.random.default_rng(seed)
    flat = np.array([float(w) for w in p.flat()])
    # the weights total 1 within PROB_SUM_TOL; the multinomial would hand
    # that rounding to the last symbol, so it is divided out first
    histogram = rng.multinomial(samples, flat / flat.sum()).tolist()
    symbols = [(len(row), rho, float(w))
               for row, rho in zip(p.weights, masses) for w in row]
    # the count, mean and sum of squared deviations of the samples so far
    n, mean, m2 = 0, 0.0, 0.0
    for (members, rho, w), drawn in zip(symbols, histogram):
        # a symbol alone in its group has Y = k - 1: exact zeros, none drawn
        chunks = ([(drawn, 0.0, 0.0)] if members == 1
                  else _mc_symbol(rng, rho, w, drawn))
        for size, chunk_mean, chunk_m2 in chunks:
            if size:
                total = n + size
                delta = chunk_mean - mean
                mean += delta * size / total
                m2 += chunk_m2 + delta * delta * n * size / total
                n = total
    stderr = (math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)
              if samples > 1 else 0.0)
    return PhiResult(value=mean, tail_bound=0.0, terms_used=samples,
                     method="monte-carlo", stderr=stderr)


def phi_lower_bound(sys: CFSystem, p: ProbVector) -> float:
    """Jensen bound: Phi >= sum p_{l,m} log(p_{l,m} + mass outside group l)."""
    p = prune_zeros(sys, p)
    masses = _group_masses(p)
    bound = 0.0
    for gi, row in enumerate(p.weights):
        outside = 1.0 - masses[gi]
        for w in row:
            w = float(w)
            if w > 0:
                bound += w * math.log(w + outside)
    return bound


def rw_entropy_closed(sys: CFSystem, p: ProbVector,
                      tol: float = DEFAULT_TOL) -> RWEntropyResult:
    """h_RW = h_p + Phi(p) (assumes exponential separation for the system).
    The tail bound is the Phi series' plus the rounding of h_p and of the
    sum: gamma_{n+2} h_p over its n terms (_point_mass), and u h_p more, as
    0 <= h_p + Phi <= h_p."""
    h, phi = shannon_entropy(p), phi_series(sys, p, tol)
    return RWEntropyResult(
        value=h + phi.value, method="closed-form",
        tail_bound=phi.tail_bound + _gamma(len(p.flat()) + 3) * h)


def rw_entropy_bruteforce(sys: CFSystem, p: ProbVector,
                          n: int) -> RWEntropyResult:
    """Exact entropy H_n / n of the block-signature classes at depth n, with
    the increments H_r - H_{r-1}, in O(N n) steps after the block entropies.

    This is the entropy of the composed maps f_w only while no two distinct
    signatures of the same length compose to the same map; an exact
    coincidence between classes (which ``esc_probe`` reports in rational
    mode) merges them, and the composed-map entropy is then smaller.

    A group's blocks of length l weigh rho^l times the multinomial law of
    their counts (marginals Bin(l, q_j)), so their sum of w log w is SL(l) =
    rho^l (l sum_j q_j log p_j - X_l), X_l = sum_{k<l} D_k (_log_moments,
    whose trimmed rows read each D_k at most k 2^-70 log(k + 1) low).
    -H_r = sum_h B_h(r), B_h(r) the sum of W log W over the signature
    suffixes of length r opening with group h; the suffixes not opening with
    h weigh 1 - rho_h, so splitting off the first block
    B_h(r) = SL_h(r) + (1 - rho_h) sum_{l<r} SL_h(l)
             + sum_{l<r} rho_h^l (sum_g B_g(r-l) - B_h(r-l)),
    which telescopes, as the masses sum to 1, to the increment
    H_r - H_{r-1} = -sum_h [SL_h(r) + (1 - 2 rho_h) SL_h(r-1)
                            + (1 - rho_h)^2 sum_{0<l<r-1} SL_h(l)].
    """
    if n < 1:
        raise ValidationError(f"depth n must be >= 1, got {n}")
    p = prune_zeros(sys, p)
    cells = sum(_row_cells(row, n) for row in p.weights) + len(p.weights) * n
    if cells > RW_DP_CAP:
        raise BudgetExceeded(
            f"signature DP needs {cells} cells, cap {RW_DP_CAP}")
    logs = [math.log(c + 1.0) for c in range(n)]
    deltas = [0.0] * n           # H_r - H_{r-1} for r = 1..n
    for row, rho in zip(p.weights, _group_masses(p)):
        slope = math.fsum(float(w) / rho * math.log(float(w)) for w in row)
        excess = accumulate(_log_moments(row, rho, n, logs, [TRIM] * n)[0],
                            initial=0.0)
        sl = [rho ** ell * (ell * slope - x) for ell, x in enumerate(excess)]
        a, c = 1.0 - 2.0 * rho, (1.0 - rho) ** 2
        prefix = 0.0             # sum_{0<l<r-1} SL(l)
        for r in range(1, n + 1):
            # subtracting from +0.0 keeps a point mass at +0.0
            deltas[r - 1] -= sl[r] + a * sl[r - 1] + c * prefix
            prefix += sl[r - 1]
    return RWEntropyResult(value=_total(deltas) / n, method="brute-force",
                           depth=n, increments=tuple(deltas[1:]))

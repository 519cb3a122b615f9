"""Shannon entropy, Lyapunov exponent, the overlap correction Phi, and the
random-walk entropy of the composed-map distribution.

Phi is the entropy lost to commutation inside fixed-point blocks:
h_RW = h_p + Phi(p).  Three evaluators are provided (truncated series with a
certified tail bound, a seeded Monte-Carlo estimate of the probabilistic
representation, and the Jensen lower bound), plus an exact finite-depth
brute force for H_n over block-signature classes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul
from typing import List, Optional

from .ifs import (BudgetExceeded, CFSystem, ProbVector, Report,
                  ValidationError, check_samples, check_shape, check_tol,
                  prune_zeros)

DEFAULT_TOL = 1e-10
MC_RUN_CAP = 10**6
_MC_CHUNK = 1 << 16
PHI_TERM_CAP = 10**8
RW_DP_CAP = 10**7


class RunTooLong(BudgetExceeded):
    """A Monte-Carlo run stayed inside one group past the step cap."""


@dataclass(frozen=True)
class PhiResult(Report):
    value: float
    tail_bound: float
    terms_used: int
    method: str                      # "series" | "point-mass" | "monte-carlo"
    stderr: Optional[float] = None


@dataclass(frozen=True)
class RWEntropyResult(Report):
    value: float
    method: str                      # "closed-form" | "brute-force"
    depth: Optional[int] = None      # depth, increments: brute force only
    increments: Optional[tuple] = None   # H_2 - H_1, ..., H_n - H_{n-1}
    entropies: tuple = field(default=(),   # H_1, ..., H_n, never printed
                             metadata={"json": False})


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
    return [float(sum(row)) for row in p.weights]


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


def _truncation_depth(rho: float, tol: float) -> int:
    """Smallest K with the geometric-log tail bound below tol for group mass
    rho > 0, or the ceiling 10**7 when no K below it qualifies."""
    # the bound decreases in K, so the qualifying K form a suffix: bisect
    return bisect.bisect_left(range(10**7), True,
                              key=lambda k: _tail_bound(rho, k) < tol)


def _tail_bound(rho: float, k: int) -> float:
    return (rho ** (k + 1)) / (1.0 - rho) * (
        math.log(k + 2) + 1.0 / ((1.0 - rho) * (k + 2)))


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = ulp(0.5) the unit roundoff."""
    return n * math.ulp(0.5) / (1.0 - n * math.ulp(0.5))


def _row_cells(row, n: int) -> int:
    """Cells _log_moments fills up to depth n: k+1 in rows k = 1..n-1, one
    row per member of three or more, one for a pair, none for one member."""
    return (len(row) if len(row) > 2 else len(row) - 1) * (n - 1) * (n + 2) // 2


def _log_moments(row, rho: float, n: int, logs: List[float]) -> List[float]:
    """D_k = sum_j q_j E log(Y_jk + 1) - log(k + 1), Y_jk ~ Bin(k, q_j), for
    k < n over the members p_j = rho q_j of a group; logs[c] = log(c + 1).
    As E log Y_{k+1}! - E log Y_k! = q E log(Y_k + 1), D_k is the step k ->
    k+1 of sum_j E log Y_jk! - log k!, in [-log(k + 1), 0] and 0 for one
    member.  Row k comes from row k-1 by Pascal's rule; a pair shares one,
    read forwards for Y and backwards for k - Y."""
    ps = [float(w) for w in row]
    members = ps[:len(ps) if len(ps) > 2 else len(ps) - 1]
    d = [0.0] * n
    for w in members:
        # 1 - b is exact (Sterbenz), so q + b == 1 and no row drifts
        b = 1.0 - w / rho
        q = 1.0 - b
        v = [1.0]
        for k in range(1, n):
            v = [b * x + q * y for x, y in zip(v + [0.0], [0.0] + v)]
            d[k] += q * sum(map(mul, v, logs))
            if len(ps) == 2:
                d[k] += b * sum(map(mul, reversed(v), logs))
    return [x - lg for x, lg in zip(d, logs)] if members else d


def phi_series(sys: CFSystem, p: ProbVector, tol: float = DEFAULT_TOL) -> PhiResult:
    """Truncated Phi series, with a bound on its error.

    Phi sums a (1 - rho) rho^k E log((Y + 1)/(k + 1)), Y ~ Bin(k, a / rho),
    over k >= 1 and the members a of each group of mass rho: by k, rho
    (1 - rho) sum_k rho^k D_k (_log_moments) per group, stopped at the first
    K whose geometric-log tail (|D_k| <= log(k + 1)) is below tol over the
    number of groups.  As h + Phi = h_RW lies in [0, B] for B the
    _point_mass_bound, B < tol answers Phi = -h with tail bound B plus the
    rounding of h (_point_mass).  Raises BudgetExceeded past PHI_TERM_CAP
    binomial-row cells, or when a group mass rounds to 1 and that rule does
    not answer.

    The tail bound adds rounding, against the series at the weights as
    doubles (Higham, Accuracy and Stability of Numerical Algorithms, 3.1,
    4.2: theta_n is the relative error of n roundings, |theta_n| <= gamma_n;
    L = log(k + 1)).  Each q_j is within gamma_2 q_j + u/2 (rho, division,
    q = 1 - (1 - q)) and d/dq E log(Y + 1) lies in [0, 1/q], so D_k moves by
    at most gamma_{m+2} (L + 1) over the m members.  Until L is subtracted
    every operand is nonnegative: k steps of a product and a sum, k sums in
    the dot with logs (an ulp each), the weight q_j and m - 1 sums leave the
    member sum, in [0, (1 + gamma_{m+2}) L], exact to theta_{3k+m+3}.  So
    D_k is within gamma_{3k+3m+10} (L + 1) and term k, after rho**k (rho
    within u, pow an ulp), within gamma_{4k+3m+13} rho^k (L + 1).  The
    fsums, rho and the last two products give theta_5 and 1 - rho a
    relative gamma_1 / (1 - rho), x <= gamma_6 / (1 - rho) in all, so at
    most 2 x |value| as the cap keeps 1 - rho above 1e-6.  The bound itself
    is exact to a relative O((K + 1 / (1 - rho)) u).
    """
    check_tol(tol)
    p = prune_zeros(sys, p)
    bound = _point_mass_bound(p)
    if bound < tol:
        return _point_mass(p, bound)
    # single-member groups drop out: D_k = 0
    groups = [(math.fsum(map(float, row)), row)
              for row in p.weights if len(row) > 1]
    if any(rho >= 1.0 for rho, _ in groups):
        raise BudgetExceeded(f"a group mass rounds to 1 and the point-mass "
                             f"bound {bound!r} is not below tol {tol!r}")
    depths = [_truncation_depth(rho, tol / len(p.weights)) for rho, _ in groups]
    cells = sum(_row_cells(row, K + 1) for (_, row), K in zip(groups, depths))
    if cells > PHI_TERM_CAP:
        raise BudgetExceeded(
            f"Phi series needs {cells} binomial-row cells, cap {PHI_TERM_CAP}")
    logs = [math.log(c + 1.0) for c in range(max(depths, default=0) + 1)]
    values, bounds = [], []
    for (rho, row), K in zip(groups, depths):
        out = 1.0 - rho
        powers = [rho ** k for k in range(K + 1)]
        value = rho * out * math.fsum(
            map(mul, powers, _log_moments(row, rho, K + 1, logs)))
        rounding = math.fsum(
            powers[k] * (logs[k] + 1.0) * _gamma(4 * k + 3 * len(row) + 13)
            for k in range(1, K + 1))
        values.append(value)
        bounds.append(rho * out * (_tail_bound(rho, K) + rounding)
                      + 2.0 * abs(value) * _gamma(6) / out)
    return PhiResult(value=math.fsum(values), tail_bound=math.fsum(bounds),
                     terms_used=cells, method="series")


def phi_monte_carlo(sys: CFSystem, p: ProbVector, samples: int,
                    seed: int) -> PhiResult:
    """Monte-Carlo estimate of Phi from its probabilistic representation.

    Draw X1 ~ p; run i.i.d. until the first symbol outside group(X1) at step
    k; Y counts X1 among steps 1..k-1; average log(Y/(k-1)).  Equivalently,
    k-1 = 1 + G with G geometric in the group mass and Y = 1 + Binom(G, a/rho),
    which is what is sampled here.  Raises RunTooLong before drawing when a
    group's mean run 1/(1 - rho) reaches MC_RUN_CAP, and while drawing when
    one sampled run does.

    Each stage (choice, geometric, binomial) draws all its samples before
    the next starts, in chunks of _MC_CHUNK: the generator's stream runs
    element by element, so a seed's numbers are those of whole-array draws.
    Three sample-sized arrays stay alive, about 13 B per sample: the symbol
    index, the run length G as int32 and the float64 log ratio.
    """
    check_samples(samples, seed)
    p = prune_zeros(sys, p)
    if len(p.weights) == 1:          # the walk never leaves it: h_RW = 0
        return _point_mass(p, 0.0, stderr=0.0)
    masses = _group_masses(p)
    # a run stays in a group of mass rho for 1/(1 - rho) steps on average
    if (1.0 - max(masses)) * MC_RUN_CAP <= 1.0:
        raise RunTooLong(f"a group mass rounds to 1 within 1/{MC_RUN_CAP}: "
                         "its mean run 1/(1 - rho) reaches the step cap")
    import numpy as np
    rng = np.random.default_rng(seed)
    flat = np.array([float(w) for w in p.flat()])
    # out-of-group probability and in-group conditional weight per symbol
    leave = np.array([1.0 - masses[gi]
                      for gi, row in enumerate(p.weights) for _ in row])
    cond = np.array([float(w) / masses[gi]
                     for gi, row in enumerate(p.weights) for w in row])
    chunks = [slice(i, min(i + _MC_CHUNK, samples))
              for i in range(0, samples, _MC_CHUNK)]

    idx = np.empty(samples, dtype=np.min_scalar_type(len(flat) - 1))
    for c in chunks:
        idx[c] = rng.choice(len(flat), size=c.stop - c.start, p=flat)
    # extra in-group steps after X1: failures before first out-of-group draw
    g = np.empty(samples, dtype=np.int32)
    for c in chunks:
        run = rng.geometric(leave[idx[c]])
        run -= 1
        if np.any(run >= MC_RUN_CAP):
            raise RunTooLong(f"a run exceeded {MC_RUN_CAP} in-group steps")
        g[c] = run
    vals = np.empty(samples)
    for c in chunks:
        y = rng.binomial(g[c], cond[idx[c]])
        y += 1
        # Y / (k - 1), both exact in float64
        np.log(np.true_divide(y, g[c] + 1), out=vals[c])
    mean = float(vals.mean())
    stderr = 0.0
    if samples > 1:
        # std(ddof=1) by numpy's own steps, the deviations squared in place
        # of a sample-sized copy
        np.subtract(vals, mean, out=vals)
        np.square(vals, out=vals)
        stderr = (math.sqrt(float(vals.sum()) / (samples - 1))
                  / math.sqrt(samples))
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
    """h_RW = h_p + Phi(p) (assumes exponential separation for the system)."""
    h_rw = shannon_entropy(p) + phi_series(sys, p, tol).value
    return RWEntropyResult(value=h_rw, method="closed-form")


def rw_entropy_bruteforce(sys: CFSystem, p: ProbVector,
                          n: int) -> RWEntropyResult:
    """Exact entropies H_1..H_n of the block-signature classes, in O(N n)
    steps after the block entropies.

    This is the entropy of the composed maps f_w only while no two distinct
    signatures of the same length compose to the same map; an exact
    coincidence between classes (which ``esc_probe`` reports in rational
    mode) merges them, and the composed-map entropy is then smaller.

    A group's blocks of length l weigh rho^l times the multinomial law of
    their counts (marginals Bin(l, q_j)), so their sum of w log w is SL(l) =
    rho^l (l sum_j q_j log p_j - X_l), X_l = sum_{k<l} D_k (_log_moments).
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
        excess = accumulate(_log_moments(row, rho, n, logs), initial=0.0)
        sl = [rho ** ell * (ell * slope - x) for ell, x in enumerate(excess)]
        a, c = 1.0 - 2.0 * rho, (1.0 - rho) ** 2
        prefix = 0.0             # sum_{0<l<r-1} SL(l)
        for r in range(1, n + 1):
            # subtracting from +0.0 keeps a point mass at +0.0
            deltas[r - 1] -= sl[r] + a * sl[r - 1] + c * prefix
            prefix += sl[r - 1]
    entropies = tuple(accumulate(deltas))
    return RWEntropyResult(value=entropies[-1] / n, method="brute-force",
                           depth=n, increments=tuple(deltas[1:]),
                           entropies=entropies)

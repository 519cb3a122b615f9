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
from dataclasses import dataclass
from operator import mul
from typing import List, Optional

import numpy as np

from .ifs import (BudgetExceeded, CFSystem, DegenerateMeasure, ProbVector,
                  ValidationError, prune_zeros)

DEFAULT_TOL = 1e-10
MC_RUN_CAP = 10**6
PHI_TERM_CAP = 10**8


class RunTooLong(BudgetExceeded):
    """A Monte-Carlo run stayed inside one group past the step cap."""


@dataclass(frozen=True)
class PhiResult:
    value: float
    tail_bound: float
    terms_used: int
    method: str                      # "series" | "monte-carlo" | "lower-bound"
    stderr: Optional[float] = None

    def to_json_dict(self) -> dict:
        d = {"value": self.value, "method": self.method,
             "terms_used": self.terms_used, "tail_bound": self.tail_bound}
        if self.stderr is not None:
            d["stderr"] = self.stderr
        return d


@dataclass(frozen=True)
class RWEntropyResult:
    value: float
    method: str                      # "closed-form" | "brute-force"
    depth: Optional[int] = None
    increments: tuple = ()           # H_2 - H_1, ..., H_n - H_{n-1}
    entropies: tuple = ()            # H_1, ..., H_n (brute force only)

    def to_json_dict(self) -> dict:
        d = {"value": self.value, "method": self.method}
        if self.depth is not None:
            d["depth"] = self.depth
            d["increments"] = list(self.increments)
        return d


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
    chi = 0.0
    for row_p, row_l in zip(p.weights, sys.ratios):
        for w, lam in zip(row_p, row_l):
            w = float(w)
            if w > 0:
                chi -= w * math.log(float(lam))
    return chi


def _group_masses(p: ProbVector) -> List[float]:
    return [float(sum(row)) for row in p.weights]


def _prune_nondegenerate(sys: CFSystem, p: ProbVector) -> tuple:
    """prune_zeros, raising DegenerateMeasure when one group holds all the
    mass up to rounding (the Phi evaluators need every group mass below 1)."""
    sys, p, degenerate = prune_zeros(sys, p)
    if degenerate or max(_group_masses(p)) >= 1.0 - 1e-15:
        raise DegenerateMeasure(
            "all probability mass sits in one fixed-point group")
    return sys, p


def _truncation_depth(rho: float, tol: float) -> int:
    """Smallest K with the geometric-log tail bound below tol for group mass
    rho, or the ceiling 10**7 when no K below it qualifies."""
    if rho <= 0.0:
        return 0
    # the bound decreases in K, so the qualifying K form a suffix: bisect
    return bisect.bisect_left(range(10**7), True,
                              key=lambda k: _tail_bound(rho, k) < tol)


def _tail_bound(rho: float, k: int) -> float:
    if rho <= 0.0:
        return 0.0
    return (rho ** (k + 1)) / (1.0 - rho) * (
        math.log(k + 2) + 1.0 / ((1.0 - rho) * (k + 2)))


def phi_series(sys: CFSystem, p: ProbVector, tol: float = DEFAULT_TOL) -> PhiResult:
    """Truncated evaluation of the Phi double series.

    Per symbol (l, m) with a = p_{l,m}, b = (group mass) - a:
    sum_k sum_q C(k,q) a^{q+1} b^{k-q} (1 - rho_l) log((q+1)/(k+1)).
    Row k of C(k,q) a^q b^{k-q} is built from row k-1 by Pascal's rule, so
    no term is lost to an underflowing restart; the outer sum stops once the
    per-group geometric tail drops below tol.  Raises BudgetExceeded when
    the terms would exceed PHI_TERM_CAP.
    """
    sys, p = _prune_nondegenerate(sys, p)
    # single-member groups drop out: q = k always, log((k+1)/(k+1)) = 0
    groups = [(float(sum(row)), row) for row in p.weights if len(row) > 1]
    depths = [_truncation_depth(rho, tol / len(p.weights)) for rho, _ in groups]
    terms = sum(len(row) * K * (K + 3) // 2
                for (_, row), K in zip(groups, depths))
    if terms > PHI_TERM_CAP:
        raise BudgetExceeded(
            f"Phi series needs {terms} terms, cap {PHI_TERM_CAP}")
    value = 0.0
    tail = 0.0
    for (rho, row), K in zip(groups, depths):
        out = 1.0 - rho
        logs = [math.log(q + 1.0) for q in range(K + 1)]
        for a in row:
            a = float(a)
            b = rho - a
            v = [1.0]
            acc = 0.0
            for k in range(1, K + 1):
                v = [b * x + a * y for x, y in zip(v + [0.0], [0.0] + v)]
                acc += sum(map(mul, v, logs)) - logs[k] * sum(v)
            value += a * out * acc
            # |inner_k| <= log(k+1) rho^k, so the k > K remainder is bounded
            # by the geometric-log tail
            tail += a * out * _tail_bound(rho, K)
    return PhiResult(value=value, tail_bound=tail, terms_used=terms,
                     method="series")


def phi_monte_carlo(sys: CFSystem, p: ProbVector, samples: int,
                    seed: int) -> PhiResult:
    """Monte-Carlo estimate of Phi from its probabilistic representation.

    Draw X1 ~ p; run i.i.d. until the first symbol outside group(X1) at step
    k; Y counts X1 among steps 1..k-1; average log(Y/(k-1)).  Equivalently,
    k-1 = 1 + G with G geometric in the group mass and Y = 1 + Binom(G, a/rho),
    which is what is sampled here.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    sys, p = _prune_nondegenerate(sys, p)
    rng = np.random.default_rng(seed)
    flat = np.array([float(w) for w in p.flat()])
    # group index and in-group conditional weight per flat symbol
    groups = []
    cond = []
    masses = _group_masses(p)
    for gi, row in enumerate(p.weights):
        for w in row:
            groups.append(gi)
            cond.append(float(w) / masses[gi])
    groups = np.array(groups)
    cond = np.array(cond)
    rho = np.array(masses)

    idx = rng.choice(len(flat), size=samples, p=flat)
    rho_i = rho[groups[idx]]
    # extra in-group steps after X1: failures before first out-of-group draw
    g = rng.geometric(1.0 - rho_i) - 1
    if np.any(g >= MC_RUN_CAP):
        raise RunTooLong(f"a run exceeded {MC_RUN_CAP} in-group steps")
    y = 1 + rng.binomial(g, cond[idx])
    vals = np.log(y / (1.0 + g))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return PhiResult(value=mean, tail_bound=0.0, terms_used=samples,
                     method="monte-carlo", stderr=stderr)


def phi_lower_bound(sys: CFSystem, p: ProbVector) -> float:
    """Jensen bound: Phi >= sum p_{l,m} log(p_{l,m} + mass outside group l)."""
    sys, p, _ = prune_zeros(sys, p)
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
    sys2, p2, degenerate = prune_zeros(sys, p)
    if degenerate:
        # Dirac measure at a fixed point: the composed-map entropy growth is 0
        return RWEntropyResult(value=0.0, method="closed-form")
    h = shannon_entropy(p2)
    phi = phi_series(sys2, p2, tol)
    return RWEntropyResult(value=h + phi.value, method="closed-form")


def _block_sums(row_p, n: int) -> tuple:
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


def rw_entropy_bruteforce(sys: CFSystem, p: ProbVector, n: int,
                          budget: int = 10**7) -> RWEntropyResult:
    """Exact entropies H_1..H_n of the block-signature classes by dynamic
    programming.

    This is the entropy of the composed maps f_w only while no two distinct
    signatures of the same length compose to the same map; an exact
    coincidence between classes (which ``esc_probe`` reports in rational
    mode) merges them, and the composed-map entropy is then smaller.

    H_n = -sum over signatures of W log W with W the class weight; the DP runs
    over (suffix length, first group) carrying sum W log W, so no signature
    is ever materialized.  Sum W needs no table: by the law of total
    probability the suffixes of length >= 1 that do not open with group h
    weigh 1 - rho_h.
    """
    if n < 1:
        raise ValidationError(f"depth n must be >= 1, got {n}")
    sys, p, degenerate = prune_zeros(sys, p)
    N = sys.n_groups
    if degenerate and len(p.flat()) == 1:
        return RWEntropyResult(value=0.0, method="brute-force", depth=n,
                               increments=(0.0,) * max(0, n - 1),
                               entropies=(0.0,) * n)
    if N * n * max(sys.group_sizes) ** 2 * n > budget:
        raise BudgetExceeded("signature DP budget exceeded")
    # per group, (sum w, sum w log w) for every block length
    bs = [_block_sums(row, n) for row in p.weights]
    others = [1.0 - float(sum(row)) for row in p.weights]
    # B[r][h]: sum W log W over the suffixes of length r opening with a block
    # of group h; tot[r] - B[r][h] covers those that may follow such a block
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
    entropies = tuple(-t for t in tot[1:])
    increments = tuple(entropies[i + 1] - entropies[i]
                       for i in range(len(entropies) - 1))
    return RWEntropyResult(value=entropies[-1] / n, method="brute-force",
                           depth=n, increments=increments, entropies=entropies)

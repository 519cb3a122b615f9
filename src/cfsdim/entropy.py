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
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .ifs import (BudgetExceeded, CFSystem, DegenerateMeasure, ProbVector,
                  ValidationError, prune_zeros)

DEFAULT_TOL = 1e-10
MC_RUN_CAP = 10**6


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
    """Smallest K with the geometric-log tail bound below tol for group mass rho."""
    if rho <= 0.0:
        return 0
    k = 1
    while _tail_bound(rho, k) >= tol and k < 10**7:
        # the bound decays like rho^k; jump in log-sized steps first
        k = max(k + 1, int(k * 1.2))
    return k


def _tail_bound(rho: float, k: int) -> float:
    if rho <= 0.0:
        return 0.0
    return (rho ** (k + 1)) / (1.0 - rho) * (
        math.log(k + 2) + 1.0 / ((1.0 - rho) * (k + 2)))


def phi_series(sys: CFSystem, p: ProbVector, tol: float = DEFAULT_TOL) -> PhiResult:
    """Truncated evaluation of the Phi double series.

    Per symbol (l, m) with a = p_{l,m}, b = (group mass) - a:
    sum_k sum_q C(k,q) a^{q+1} b^{k-q} (1 - rho_l) log((q+1)/(k+1)).
    The inner q-sum uses a multiplicative binomial recurrence; the outer sum
    stops once the per-group geometric tail drops below tol.
    """
    sys, p = _prune_nondegenerate(sys, p)
    value = 0.0
    tail = 0.0
    terms = 0
    for gi, row in enumerate(p.weights):
        rho = float(sum(row))
        if len(row) == 1:
            # single-member group: q = k always, log((k+1)/(k+1)) = 0
            continue
        K = _truncation_depth(rho, tol / max(1, len(p.weights)))
        out = 1.0 - rho
        for m, a in enumerate(row):
            a = float(a)
            b = rho - a
            acc = 0.0
            for k in range(1, K + 1):
                # w_q = C(k,q) a^q b^{k-q}, built by recurrence from q=0
                if b > 0.0:
                    w = b ** k
                    ratio = a / b
                    inner = 0.0
                    for q in range(0, k + 1):
                        if q > 0:
                            w *= ratio * (k - q + 1) / q
                        inner += w * math.log((q + 1.0) / (k + 1.0))
                        terms += 1
                else:
                    inner = 0.0  # only q=k survives and its log vanishes
                acc += inner
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
    """Exact H_1..H_n over block-signature classes by dynamic programming.

    H_n = -sum over signatures of W log W with W the class weight; the DP runs
    over (remaining length, last group) propagating (sum W, sum W log W), so no
    signature is ever materialized.
    """
    sys, p, degenerate = prune_zeros(sys, p)
    N = sys.n_groups
    if degenerate and len(p.flat()) == 1:
        return RWEntropyResult(value=0.0, method="brute-force", depth=n,
                               increments=(0.0,) * max(0, n - 1),
                               entropies=(0.0,) * n)
    if N * n * max(sys.group_sizes) ** 2 * n > budget:
        raise BudgetExceeded("signature DP budget exceeded")
    # per group, (sum w, sum w log w) for every block length
    bs = [_block_sums(p.weights[g], n) for g in range(N)]

    # A[r][g], B[r][g]: signatures of total length r whose FIRST block has
    # group g; combine blocks left to right via suffix DP instead: S(r, g) =
    # aggregate over suffixes of length r starting with a block of group != g.
    # Iterate bottom-up on r.
    A = [[0.0] * (N + 1) for _ in range(n + 1)]
    B = [[0.0] * (N + 1) for _ in range(n + 1)]
    for g in range(N + 1):
        A[0][g] = 1.0
        B[0][g] = 0.0
    for r in range(1, n + 1):
        for g in range(N + 1):  # g = forbidden previous group (0 = none)
            a_tot = 0.0
            b_tot = 0.0
            for h in range(1, N + 1):
                if h == g:
                    continue
                S, SL = bs[h - 1]
                for ell in range(1, r + 1):
                    w, wl = S[ell], SL[ell]
                    if w == 0.0:
                        continue
                    a_rest = A[r - ell][h]
                    b_rest = B[r - ell][h]
                    a_tot += w * a_rest
                    b_tot += wl * a_rest + w * b_rest
            A[r][g] = a_tot
            B[r][g] = b_tot
    entropies = tuple(-B[r][0] for r in range(1, n + 1))
    increments = tuple(entropies[i + 1] - entropies[i]
                       for i in range(len(entropies) - 1))
    return RWEntropyResult(value=entropies[-1] / n, method="brute-force",
                           depth=n, increments=increments, entropies=entropies)

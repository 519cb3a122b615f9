"""Finite-depth empirical probe of exponential separation.

For each depth n, words with equal contraction product are bucketed, exact
overlaps (equal block signature) are quotiented out, and the minimum gap
|Pi(w1) - Pi(w2)| over remaining same-bucket pairs is reported together with
the implied separation exponent -log2(gap)/n.  The probe never certifies the
asymptotic condition; its verdicts are consistent-up-to-n, violated-with-
witness, or indeterminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .ifs import BudgetExceeded, CFSystem, Report, ValidationError
from .words import signature_classes

FLOAT_MERGE_RTOL = 1e-12
# The one cap on the signature walk, checked before it starts.  A bucketed
# class record holds about 1 KB resident (142 MB at the 121 393 classes of
# rational_three_symbol at depth 12), so the cap is about 10 GB.
DEFAULT_CLASS_BUDGET = 10**7


@dataclass(frozen=True)
class SeparationReport(Report):
    depth: int
    class_count: int
    min_gap: Optional[float]          # None when no comparable pair exists
    exact_zero: bool
    witness: Optional[tuple]          # (signature, signature) for the min gap
    witness_words: Optional[tuple]    # a representative word of each
    implied_b: Optional[float]
    mode: str


def count_classes(sys: CFSystem, n: int) -> int:
    """The number of block signatures of length n, counted from the group
    sizes alone; BudgetExceeded once a length up to n has more than
    DEFAULT_CLASS_BUDGET of them.

    A block of length l in a group of m members has C(l+m-1, m-1) count
    vectors, and the signatures of length r that start in group g take
    such a block followed by a signature of length r - l that starts in
    another group.  The count never falls with the length, so the first
    length past the cap stops the count.
    """
    # first[r][g]: the signatures of length r whose first block is in group
    # g; total[r] their sum, with the empty signature as total[0] = 1
    first, total = [[0] * sys.n_groups], [1]
    for r in range(1, n + 1):
        first.append([sum(math.comb(l + m - 1, m - 1)
                          * (total[r - l] - first[r - l][g])
                          for l in range(1, r + 1))
                      for g, m in enumerate(sys.group_sizes)])
        total.append(sum(first[r]))
        if total[r] > DEFAULT_CLASS_BUDGET:
            raise BudgetExceeded(
                f"signature class budget {DEFAULT_CLASS_BUDGET} exceeded: "
                f"{total[r]} classes at depth {r}")
    return total[n]


def collision_buckets(sys: CFSystem, n: int) -> List[list]:
    """Buckets of signature records with equal contraction product.

    Rational mode buckets by the exact product.  Float mode buckets by count
    vector (the generic case) and then merges buckets whose products agree to
    relative 1e-12, catching multiplicative relations between the ratios.
    """
    if n < 1:
        raise ValidationError(f"depth n must be >= 1, got {n}")
    count_classes(sys, n)
    rational = sys.mode == "rational"
    key = 2 if rational else 1          # the product or the count vector
    buckets: dict = {}
    for rec in signature_classes(sys, n):
        buckets.setdefault(rec[key], []).append(rec)
    if rational:
        return list(buckets.values())
    # merge count-vector buckets with numerically equal products
    keyed = sorted(buckets.values(), key=lambda bucket: bucket[0][2])
    merged: List[list] = []
    last_prod = None
    for bucket in keyed:
        prod = bucket[0][2]
        if last_prod is not None and abs(prod - last_prod) <= FLOAT_MERGE_RTOL * abs(prod):
            merged[-1].extend(bucket)
        else:
            merged.append(list(bucket))
        last_prod = prod
    return merged


def min_gap(sys: CFSystem, n: int) -> SeparationReport:
    """Minimum projection gap over same-bucket pairs of distinct signatures."""
    buckets = collision_buckets(sys, n)
    class_count = sum(len(b) for b in buckets)
    best = None
    witness = None
    exact_zero = False
    for bucket in buckets:
        if len(bucket) < 2:
            continue
        bucket = sorted(bucket, key=lambda rec: rec[3])
        for (sig_a, _, _, pa), (sig_b, _, _, pb) in zip(bucket, bucket[1:]):
            gap = pb - pa
            if gap == 0:
                exact_zero = True
                best = 0
                witness = (sig_a, sig_b)
                break
            if best is None or gap < best:
                best = gap
                witness = (sig_a, sig_b)
        if exact_zero:
            break
    gap = None if best is None else float(best)
    return SeparationReport(
        depth=n, class_count=class_count, min_gap=gap, exact_zero=exact_zero,
        witness=witness, witness_words=None if witness is None else
        tuple(sig.representative() for sig in witness),
        implied_b=-math.log2(gap) / n if gap else None, mode=sys.mode)


@dataclass(frozen=True)
class ProbeResult(Report):
    rows: tuple                       # SeparationReport per depth
    verdict: str                      # consistent-up-to-n | violated-with-witness | indeterminate
    b_hat: Optional[float]


def esc_probe(sys: CFSystem, n_max: int) -> ProbeResult:
    """Run min_gap for n = 2..n_max.  Finite depth cannot certify the
    asymptotic separation condition; the verdict is explicitly heuristic.
    The class count at n_max is checked against the cap before any depth
    runs."""
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    count_classes(sys, n_max)
    rows = []
    violated = False
    b_hat = None
    for n in range(2, n_max + 1):
        rep = min_gap(sys, n)
        rows.append(rep)
        if rep.exact_zero and sys.mode == "rational":
            violated = True
        if rep.implied_b is not None:
            b_hat = rep.implied_b if b_hat is None else max(b_hat, rep.implied_b)
    if violated:
        verdict = "violated-with-witness"
    elif any(r.exact_zero for r in rows):
        verdict = "indeterminate"   # float-mode zero gap: cannot certify
    else:
        verdict = f"consistent-up-to-{n_max}"
    return ProbeResult(rows=tuple(rows), verdict=verdict, b_hat=b_hat)

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

from .ifs import CFSystem, ValidationError, check_valid
from .words import signature_classes

FLOAT_MERGE_RTOL = 1e-12
DEFAULT_CLASS_BUDGET = 10**7


@dataclass(frozen=True)
class SeparationReport:
    depth: int
    class_count: int
    min_gap: Optional[float]          # None when no comparable pair exists
    exact_zero: bool
    witness: Optional[tuple]          # (signature, signature) for the min gap
    implied_b: Optional[float]
    mode: str

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "class_count": self.class_count,
            "min_gap": None if self.min_gap is None else float(self.min_gap),
            "exact_zero": self.exact_zero,
            "implied_b": self.implied_b,
            "mode": self.mode,
            "witness": None if self.witness is None else
                [sig.to_json() for sig in self.witness],
            "witness_words": None if self.witness is None else
                [sig.representative().to_json() for sig in self.witness],
        }


def collision_buckets(sys: CFSystem, n: int,
                      budget: int = DEFAULT_CLASS_BUDGET) -> List[list]:
    """Buckets of signature records with equal contraction product.

    Rational mode buckets by the exact product.  Float mode buckets by count
    vector (the generic case) and then merges buckets whose products agree to
    relative 1e-12, catching multiplicative relations between the ratios.
    """
    check_valid(sys)
    if n < 1:
        raise ValidationError(f"depth n must be >= 1, got {n}")
    data = signature_classes(sys, n, budget)
    if sys.mode == "rational":
        buckets: dict = {}
        for rec in data:
            buckets.setdefault(rec[2], []).append(rec)
        return list(buckets.values())
    by_cv: dict = {}
    for rec in data:
        by_cv.setdefault(rec[1], []).append(rec)
    # merge count-vector buckets with numerically equal products
    keyed = sorted(by_cv.items(), key=lambda kv: kv[1][0][2])
    merged: List[list] = []
    last_prod = None
    for _, bucket in keyed:
        prod = bucket[0][2]
        if last_prod is not None and abs(prod - last_prod) <= FLOAT_MERGE_RTOL * abs(prod):
            merged[-1].extend(bucket)
        else:
            merged.append(list(bucket))
        last_prod = prod
    return merged


def min_gap(sys: CFSystem, n: int,
            budget: int = DEFAULT_CLASS_BUDGET) -> SeparationReport:
    """Minimum projection gap over same-bucket pairs of distinct signatures."""
    buckets = collision_buckets(sys, n, budget=budget)
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
    if best is None:
        return SeparationReport(depth=n, class_count=class_count, min_gap=None,
                                exact_zero=False, witness=None,
                                implied_b=None, mode=sys.mode)
    gap_f = float(best)
    implied_b = None if gap_f == 0.0 else -math.log2(gap_f) / n
    return SeparationReport(depth=n, class_count=class_count, min_gap=gap_f,
                            exact_zero=exact_zero, witness=witness,
                            implied_b=implied_b, mode=sys.mode)


@dataclass(frozen=True)
class ProbeResult:
    rows: tuple                       # SeparationReport per depth
    verdict: str                      # consistent-up-to-n | violated-with-witness | indeterminate
    b_hat: Optional[float]

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "b_hat": self.b_hat,
                "rows": [r.to_json_dict() for r in self.rows]}


def esc_probe(sys: CFSystem, n_max: int,
              budget: int = DEFAULT_CLASS_BUDGET) -> ProbeResult:
    """Run min_gap for n = 2..n_max.  Finite depth cannot certify the
    asymptotic separation condition; the verdict is explicitly heuristic."""
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    rows = []
    violated = False
    b_hat = None
    for n in range(2, n_max + 1):
        rep = min_gap(sys, n, budget=budget)
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

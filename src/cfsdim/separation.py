"""Finite-depth empirical probe of exponential separation.

For each depth n, one pass over the signature walk buckets every block
signature by its contraction product: exact overlaps (equal signature) are
already quotiented out, as the walk yields each signature once.  The minimum
gap |Pi(w1) - Pi(w2)| over same-bucket pairs, the adjacent pairs once each
bucket is sorted by Pi, is reported together with the implied separation
exponent -log2(gap)/n, unless a float gap lies within the rounding of Pi.
Rational mode buckets, sorts and subtracts integers over one common
denominator per depth, so its gaps are exact.
The probe never certifies the asymptotic condition; its verdicts are
consistent-up-to-n, violated-with-witness, or indeterminate.
"""

from __future__ import annotations

import math
from sys import float_info
from typing import NamedTuple, Optional

from .ifs import (BudgetExceeded, CFSystem, ValidationError, _gamma,
                  _json_value, _total)
from .words import signature_classes

FLOAT_MERGE_RTOL = 1e-12
# The one cap on the signature walk, checked before it starts.  A bucketed
# rational class, its Pi value as an integer and its signature, holds about
# 220 B resident (a 40.5 MB peak, 25.5 MB over the interpreter, at the
# 121 393 classes of rational_three_symbol at depth 12), so the cap is
# about 2.2 GB.
DEFAULT_CLASS_BUDGET = 10**7


class SeparationReport(NamedTuple):
    depth: int
    class_count: int
    min_gap: Optional[float]          # None when no comparable pair exists
    exact_zero: bool
    witness: Optional[tuple]          # (signature, signature) for the min gap
    witness_words: Optional[tuple]    # a word of each, as (group, member) pairs
    implied_b: Optional[float]
    mode: str
    to_json_dict = _json_value        # a report's JSON, by ifs._json_value


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


def _word(sig: tuple) -> tuple:
    """One word of the class ``sig`` as (group, member) pairs: each block's
    members in sorted order."""
    return tuple((group, member) for group, counts in sig
                 for member, count in counts for _ in range(count))


def min_gap(sys: CFSystem, n: int) -> SeparationReport:
    """Minimum projection gap over pairs of distinct signatures with equal
    contraction product.

    Rational mode takes every value as an integer over the common
    denominator L = T R^n (``denom``), where R and T are the lcm of the ratio and of the
    fixed-point denominators: a product of n ratios times R^n, and Pi times
    L (Pi is a sum of products of at most n ratios with fixed points), are
    integers.  It buckets by the exact product's integer and sorts and
    subtracts the integers Pi L, so a gap is the exact rational best / L; its
    double is rounded once, and a gap below the normal doubles takes
    ``implied_b`` = (log2 L - log2 best)/n from the integers.  Float mode
    sorts the products and merges those that agree to relative
    FLOAT_MERGE_RTOL: the roundings of one count vector's product, and any
    multiplicative relation between the ratios.  In both modes the witness
    is the first minimal adjacent pair in bucket order.

    A float gap at most twice the rounding bound E of one Pi value may be
    an exact coincidence, so it implies no exponent (``implied_b`` None).
    E follows the walk's evaluation order (Higham, Accuracy and Stability
    of Numerical Algorithms, section 3): a block's ratio product takes a
    ``pow`` (within an ulp, 2u) and a product per member, and the running
    product Lambda_k one product per block after the first, so at most
    3n - 1 roundings; each term Lambda_k (t_{k+1} - t_k) adds two and the
    running sum, from the exact t_1, at most n.  So (Lemma 3.3)
    |fl(Pi) - Pi| <= gamma_{4n+1} (|t_1| + sum_k Lambda_k |t_{k+1} - t_k|
    + Lambda_m |t_m|) <= gamma_{4n+1} 2 max|t| sum_{k<n} lam^k = E, as
    Lambda_k <= lam^k for the largest ratio lam.
    """
    if n < 1:
        raise ValidationError(f"depth n must be >= 1, got {n}")
    class_count = count_classes(sys, n)
    buckets: dict = {}
    if sys.mode == "rational":
        r_n = math.lcm(*(lam.denominator for row in sys.ratios
                         for lam in row)) ** n
        denom = math.lcm(*(t.denominator for t in sys.fixed_points)) * r_n
        for sig, prod, pi in signature_classes(sys, n):
            key = prod.numerator * (r_n // prod.denominator)
            buckets.setdefault(key, []).append(
                (pi.numerator * (denom // pi.denominator), sig))
        merged = buckets.values()
    else:
        denom = 1
        for sig, prod, pi in signature_classes(sys, n):
            buckets.setdefault(prod, []).append((pi, sig))
        merged, last = [], None
        for prod in sorted(buckets):
            if last is not None and abs(prod - last) <= FLOAT_MERGE_RTOL * abs(prod):
                merged[-1].extend(buckets[prod])
            else:
                merged.append(buckets[prod])
            last = prod
    best = witness = None
    for bucket in merged:
        bucket.sort(key=lambda rec: rec[0])
        for (pa, sig_a), (pb, sig_b) in zip(bucket, bucket[1:]):
            if best is None or pb - pa < best:
                best, witness = pb - pa, (sig_a, sig_b)
                if best == 0:
                    break
        if best == 0:
            break
    # int / int is correctly rounded, so this is float(Fraction(best, denom))
    gap = None if best is None else best / denom
    lam = max(max(row) for row in sys.ratios)
    resolved = best and (sys.mode == "rational" or gap > 2 * (   # 2E
        _gamma(4 * n + 1) * 2 * max(map(abs, sys.fixed_points))
        * _total(lam**i for i in range(n))))
    if not resolved:
        implied_b = None
    elif gap >= float_info.min:
        implied_b = -math.log2(gap) / n
    else:   # a gap below the normal doubles: -log2(best/denom) from the ints
        implied_b = (math.log2(denom) - math.log2(best)) / n
    return SeparationReport(
        depth=n, class_count=class_count, min_gap=gap, exact_zero=best == 0,
        witness=witness, witness_words=None if witness is None else
        tuple(map(_word, witness)), implied_b=implied_b, mode=sys.mode)


class ProbeResult(NamedTuple):
    rows: tuple                       # SeparationReport per depth
    verdict: str                      # consistent-up-to-n | violated-with-witness | indeterminate
    b_hat: Optional[float]
    to_json_dict = _json_value


def esc_probe(sys: CFSystem, n_max: int) -> ProbeResult:
    """Run min_gap for n = 2..n_max.  Finite depth cannot certify the
    asymptotic separation condition; the verdict is explicitly heuristic.
    The class count at n_max is checked against the cap before any depth
    runs."""
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    count_classes(sys, n_max)
    rows = tuple(min_gap(sys, n) for n in range(2, n_max + 1))
    if sys.mode == "rational" and any(r.exact_zero for r in rows):
        verdict = "violated-with-witness"
    elif any(r.min_gap is not None and r.implied_b is None for r in rows):
        # a float gap of zero or within rounding: cannot certify
        verdict = "indeterminate"
    else:
        verdict = f"consistent-up-to-{n_max}"
    return ProbeResult(rows=rows, verdict=verdict, b_hat=max(
        (r.implied_b for r in rows if r.implied_b is not None), default=None))

"""Finite words over the symbol set and their block decomposition.

Maps sharing a fixed point commute, so a word acts through its block
structure only: the sequence of maximal same-group runs with per-member
occurrence counts.  Two words compose to the identical similarity whenever
their block signatures agree, which is exactly the exact-overlap relation
of these systems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from .ifs import (AffineMap1D, BudgetExceeded, CFSystem, ProbVector, Symbol,
                  ValidationError, map_of)

DEFAULT_ENUM_BUDGET = 10**8


class EmptyWord(ValidationError):
    pass


@dataclass(frozen=True)
class Word:
    symbols: Tuple[Symbol, ...]

    def __init__(self, symbols: Sequence[Symbol]):
        object.__setattr__(self, "symbols", tuple(symbols))

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    @classmethod
    def of(cls, *pairs) -> "Word":
        """Word.of((1,1),(2,1)) convenience constructor."""
        return cls([Symbol(i, j) for i, j in pairs])

    def to_json(self) -> list:
        return [[s.group, s.member] for s in self.symbols]


@dataclass(frozen=True)
class Block:
    """A maximal run of one group: per-member occurrence counts.

    ``counts`` is sorted by member index; member order inside the run is
    irrelevant because the maps commute.
    """

    group: int
    counts: Tuple[Tuple[int, int], ...]  # ((member, count), ...), member-sorted

    @property
    def length(self) -> int:
        return sum(c for _, c in self.counts)


@dataclass(frozen=True)
class BlockSignature:
    blocks: Tuple[Block, ...]

    def __len__(self):
        return len(self.blocks)

    @property
    def word_length(self) -> int:
        return sum(b.length for b in self.blocks)

    def to_json(self) -> list:
        return [{"group": b.group, "counts": dict(b.counts)} for b in self.blocks]

    def representative(self) -> Word:
        """One word in the class: members emitted in sorted order per block."""
        syms = []
        for b in self.blocks:
            for member, count in b.counts:
                syms.extend([Symbol(b.group, member)] * count)
        return Word(syms)


def decompose(w: Word) -> BlockSignature:
    """Unique block representation: maximal same-group runs with counts."""
    blocks = []
    for group, run in itertools.groupby(w.symbols, key=lambda s: s.group):
        counts: dict = {}
        for s in run:
            counts[s.member] = counts.get(s.member, 0) + 1
        blocks.append(Block(group, tuple(sorted(counts.items()))))
    return BlockSignature(tuple(blocks))


def compose(sys: CFSystem, w: Word) -> AffineMap1D:
    """Left-to-right composition f_{w_1} o f_{w_2} o ... o f_{w_n}."""
    if len(w) == 0:
        raise EmptyWord("cannot compose the empty word")
    result = map_of(sys, w.symbols[0])
    for s in w.symbols[1:]:
        result = result.compose(map_of(sys, s))
    return result


def count_vector(w: Word) -> dict:
    """Per-symbol occurrence counts {(group, member): count}."""
    counts: dict = {}
    for s in w.symbols:
        key = (s.group, s.member)
        counts[key] = counts.get(key, 0) + 1
    return counts


def class_weight(sig: BlockSignature, p: ProbVector):
    """Total p-weight of all words sharing this signature.

    Equals p_w times the product over blocks of |b|! / prod (counts!).
    Multinomials go through log-space in float mode; exact in rational mode.
    """
    if p.mode == "rational":
        from fractions import Fraction
        total = Fraction(1)
        for b in sig.blocks:
            total *= math.factorial(b.length)
            for member, count in b.counts:
                total /= math.factorial(count)
                total *= p.weights[b.group - 1][member - 1] ** count
        return total
    log_total = 0.0
    for b in sig.blocks:
        log_total += math.lgamma(b.length + 1)
        for member, count in b.counts:
            log_total -= math.lgamma(count + 1)
            w = p.weights[b.group - 1][member - 1]
            if w == 0.0:
                return 0.0
            log_total += count * math.log(w)
    return math.exp(log_total)


def enumerate_words(sys: CFSystem, n: int) -> Iterator[Word]:
    """All words of length n in lexicographic order."""
    L = sys.n_maps
    if L**n > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(
            f"L^n = {L}^{n} exceeds budget {DEFAULT_ENUM_BUDGET}")
    alphabet = sys.symbols()
    for combo in itertools.product(alphabet, repeat=n):
        yield Word(combo)


def signature_classes(sys: CFSystem, n: int) -> Iterator[tuple]:
    """Each block signature of words of length n >= 1 once, as the record
    (signature, count vector, contraction product, Pi value).

    A depth-first walk over block prefixes.  Each appended block extends the
    running symbol counts and the telescoped projection
    Pi(w) = f_w(0) = t_1 + sum_k Lambda_k (t_{k+1} - t_k) - Lambda_m t_m,
    where t_k is the k-th block's fixed point and Lambda_k the product of the
    ratios of the first k blocks; it agrees with compose(sys, w).intercept.
    The product is the exact running scale in rational mode and the product
    over the sorted count vector in float mode.
    """
    rational = sys.mode == "rational"
    one = 1.0
    if rational:
        from fractions import Fraction
        one = Fraction(1)
    counts = {(s.group, s.member): 0 for s in sys.symbols()}  # sorted keys
    blocks: list = []
    emitted = 0

    def rec(remaining: int, prev_group: int, value, scale, t_prev):
        # value: the telescoped sum up to the last block's fixed point;
        # scale: the product of the ratios of all blocks so far
        nonlocal emitted
        for g, (t, row) in enumerate(zip(sys.fixed_points, sys.ratios), 1):
            if g == prev_group:
                continue
            g_value = t if prev_group == 0 else value + scale * (t - t_prev)
            for length in range(1, remaining + 1):
                # reversed, the multisets come in ascending count-vector order
                for combo in reversed(list(itertools.combinations_with_replacement(
                        range(1, len(row) + 1), length))):
                    block = Block(g, tuple((m, len(list(run)))
                                           for m, run in itertools.groupby(combo)))
                    lam = math.prod((row[m - 1] ** c for m, c in block.counts),
                                    start=one)
                    for member, count in block.counts:
                        counts[g, member] += count
                    blocks.append(block)
                    g_scale = scale * lam
                    if length < remaining:
                        yield from rec(remaining - length, g, g_value, g_scale, t)
                    else:
                        emitted += 1
                        if emitted > DEFAULT_ENUM_BUDGET:
                            raise BudgetExceeded(f"signature budget "
                                                 f"{DEFAULT_ENUM_BUDGET} exceeded")
                        cv = tuple((k, c) for k, c in counts.items() if c)
                        prod = g_scale if rational else math.prod(
                            sys.ratios[i - 1][j - 1] ** c for (i, j), c in cv)
                        yield (BlockSignature(tuple(blocks)), cv, prod,
                               g_value - g_scale * t)
                    blocks.pop()
                    for member, count in block.counts:
                        counts[g, member] -= count

    yield from rec(n, 0, None, one, None)


def enumerate_signatures(sys: CFSystem, n: int) -> Iterator[BlockSignature]:
    """All block signatures realized by words of length n, each once."""
    if n == 0:
        yield BlockSignature(())
    yield from (rec[0] for rec in signature_classes(sys, n))

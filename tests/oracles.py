"""Word-level brute force, kept only to check the library.

Words with the same block signature compose to the same map, so the library
computes over signature classes and never enumerates words.  Enumerating
every word of a length, decomposing it into its signature and composing its
maps one at a time is the independent check of the signature walk, the
signature DP and the separation probe.
"""

import itertools
import math

from cfsdim import BudgetExceeded, Symbol, ValidationError, map_of
from cfsdim.words import Block, BlockSignature, Word, signature_classes

ENUM_BUDGET = 10**8     # the most words enumerate_words gives: L**n


class EmptyWord(ValidationError):
    pass


def word(*pairs) -> Word:
    """word((1, 1), (2, 1)): the word of these (group, member) symbols."""
    return Word([Symbol(i, j) for i, j in pairs])


def decompose(w: Word) -> BlockSignature:
    """Unique block representation: maximal same-group runs with counts."""
    blocks = []
    for group, run in itertools.groupby(w.symbols, key=lambda s: s.group):
        counts: dict = {}
        for s in run:
            counts[s.member] = counts.get(s.member, 0) + 1
        blocks.append(Block(group, tuple(sorted(counts.items()))))
    return BlockSignature(tuple(blocks))


def compose(sys, w: Word):
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


def class_weight(sig: BlockSignature, p):
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


def enumerate_words(sys, n: int):
    """All words of length n in lexicographic order."""
    L = sys.n_maps
    if L**n > ENUM_BUDGET:
        raise BudgetExceeded(f"L^n = {L}^{n} exceeds budget {ENUM_BUDGET}")
    for combo in itertools.product(sys.symbols(), repeat=n):
        yield Word(combo)


def enumerate_signatures(sys, n: int):
    """All block signatures realized by words of length n, each once."""
    if n == 0:
        yield BlockSignature(())
    yield from (rec[0] for rec in signature_classes(sys, n))


def word_records(sys, n: int, p=None):
    """(signature, composed map, weight) of every word of length n, in
    lexicographic order.  The weight is the product of the word's symbol
    weights under p, and None without p."""
    for w in enumerate_words(sys, n):
        weight = None if p is None else math.prod(
            p.weights[s.group - 1][s.member - 1] for s in w)
        yield decompose(w), compose(sys, w), weight

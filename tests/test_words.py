"""The signature walk and its projection against the word-level oracles,
and those oracles themselves: block decomposition, composition, count
vectors, class weights and enumeration."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cfsdim import Block, CFSystem, ProbVector
from cfsdim.ifs import BudgetExceeded
from cfsdim.words import signature_classes
from oracles import (EmptyWord, class_weight, compose, count_vector, decompose,
                     enumerate_signatures, enumerate_words, representative,
                     word)


class TestDecompose:
    def test_runs_become_blocks(self):
        w = word((1, 1), (1, 2), (1, 1), (2, 1), (1, 1))
        assert decompose(w) == ((1, ((1, 2), (2, 1))), (2, ((1, 1),)),
                                (1, ((1, 1),)))

    def test_repeated_symbol_single_block(self):
        assert decompose(word((2, 1), (2, 1))) == ((2, ((1, 2),)),)

    def test_empty_word(self):
        assert decompose(word()) == ()

    def test_block_lengths_sum_to_word_length(self):
        w = word((1, 1), (1, 2), (2, 1), (2, 1), (1, 1))
        assert sum(c for _, counts in decompose(w) for _, c in counts) \
            == len(w)

    def test_adjacent_blocks_differ_in_group(self):
        w = word((1, 1), (1, 2), (2, 1), (1, 1), (1, 1))
        groups = [group for group, _ in decompose(w)]
        assert all(a != b for a, b in zip(groups, groups[1:]))


class TestSameBlockStructure:
    def test_within_block_permutation(self):
        assert decompose(word((1, 1), (1, 2))) == \
            decompose(word((1, 2), (1, 1)))

    def test_across_group_swap_differs(self):
        assert decompose(word((1, 1), (2, 1))) != \
            decompose(word((2, 1), (1, 1)))

    def test_reflexive(self):
        w = word((1, 1), (2, 1), (1, 2))
        assert decompose(w) == decompose(w)


class TestCompose:
    def test_single_symbol(self, equal_halves):
        m = compose(equal_halves, word((1, 1)))
        assert (m.ratio, m.intercept) == (0.5, 0.0)

    def test_hand_composition(self, equal_halves):
        m12 = compose(equal_halves, word((1, 1), (2, 1)))
        assert (m12.ratio, m12.intercept) == pytest.approx((0.25, 0.25))
        m21 = compose(equal_halves, word((2, 1), (1, 1)))
        assert (m21.ratio, m21.intercept) == pytest.approx((0.25, 0.5))

    def test_empty_word_rejected(self, equal_halves):
        with pytest.raises(EmptyWord):
            compose(equal_halves, word())

    def test_same_signature_same_map_exact(self):
        sys = CFSystem(["0", "1"], [["1/2", "1/3"], ["1/5"]], mode="rational")
        for n in range(2, 5):
            for w1 in enumerate_words(sys, n):
                w2 = w1[::-1]
                if decompose(w1) == decompose(w2):
                    assert compose(sys, w1) == compose(sys, w2)


HYPOTHESIS_SYSTEM = CFSystem([0.25, 0.9], [[0.3, 0.2], [0.25]])


@functools.lru_cache(maxsize=None)
def _walk_pi(sys, n):
    """{signature: Pi} for every class of length n, from the signature walk."""
    return {sig: pi for sig, _, pi in signature_classes(sys, n)}


class TestProject:
    """The natural projection Pi(w) = f_w(0) as the signature walk carries it."""

    def test_single_symbol(self, equal_halves):
        w = word((2, 1))
        assert _walk_pi(equal_halves, 1)[decompose(w)] == 0.5

    def test_two_symbols(self, equal_halves):
        w = word((1, 1), (2, 1))
        assert _walk_pi(equal_halves, 2)[decompose(w)] == pytest.approx(0.25)

    def test_fixed_point_absorbs(self, two_group_overlap):
        w = word(*[(1, 1)] * 5)
        assert _walk_pi(two_group_overlap, 5)[decompose(w)] == 0.0

    # each new length walks all its classes once (17711 at length 10)
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([(1, 1), (1, 2), (2, 1)]),
                    min_size=1, max_size=10))
    def test_matches_composition_intercept(self, pairs):
        w = word(*pairs)
        assert _walk_pi(HYPOTHESIS_SYSTEM, len(w))[decompose(w)] == \
            pytest.approx(compose(HYPOTHESIS_SYSTEM, w).intercept, abs=1e-12)

    def test_exact_in_rational_mode(self):
        sys = CFSystem(["0", "1"], [["1/2", "1/5"], ["1/7"]], mode="rational")
        for n in range(1, 9):
            for sig, prod, pi in signature_classes(sys, n):
                m = compose(sys, representative(sig))
                assert (prod, pi) == (m.ratio, m.intercept)


class TestCountVector:
    def test_basic(self):
        cv = count_vector(word((1, 1), (1, 1), (2, 1)))
        assert cv == {(1, 1): 2, (2, 1): 1}

    def test_empty(self):
        assert count_vector(word()) == {}

    def test_additive_under_concatenation(self):
        w1 = word((1, 1), (2, 1))
        w2 = word((1, 2), (1, 1))
        combined = count_vector(w1 + w2)
        merged = dict(count_vector(w1))
        for k, v in count_vector(w2).items():
            merged[k] = merged.get(k, 0) + v
        assert combined == merged


class TestClassWeight:
    def test_one_block_two_orderings(self):
        sig = decompose(word((1, 1), (1, 2)))
        p = ProbVector([[0.3, 0.2], [0.5]])
        assert class_weight(sig, p) == pytest.approx(2 * 0.3 * 0.2)

    def test_trivial_multinomials(self):
        sig = decompose(word((1, 1), (2, 1)))
        p = ProbVector([[0.3, 0.2], [0.5]])
        assert class_weight(sig, p) == pytest.approx(0.3 * 0.5)

    def test_against_word_enumeration(self, two_group_overlap):
        """Independent oracle: sum p-weights of all words in each class."""
        p = ProbVector([[0.5, 0.2], [0.3]])
        n = 5
        by_sig = {}
        for sig, _, weight in oracles.word_records(two_group_overlap, n, p):
            by_sig[sig] = by_sig.get(sig, 0.0) + weight
        for sig, total in by_sig.items():
            assert class_weight(sig, p) == pytest.approx(total, rel=1e-10,
                                                         abs=0)

    def test_rational_exact(self):
        sys = CFSystem(["0", "1"], [["1/2", "1/3"], ["1/5"]], mode="rational")
        p = ProbVector([["1/2", "1/4"], ["1/4"]], mode="rational")
        sig = decompose(word((1, 1), (1, 2), (1, 1)))
        assert class_weight(sig, p) == 3 * Fraction(1, 2) ** 2 * Fraction(1, 4)

    def test_partition_of_unity(self, two_group_overlap):
        """The walk's classes partition the measure."""
        p = ProbVector.uniform(two_group_overlap)
        for n in (1, 4, 8):
            total = sum(class_weight(rec[0], p)
                        for rec in signature_classes(two_group_overlap, n))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestEnumeration:
    def test_word_counts(self, equal_halves, two_group_overlap):
        assert sum(1 for _ in enumerate_words(equal_halves, 2)) == 4
        assert sum(1 for _ in enumerate_words(two_group_overlap, 0)) == 1
        assert sum(1 for _ in enumerate_words(two_group_overlap, 8)) == 6561

    def test_lexicographic_and_unique(self, two_group_overlap):
        words = list(enumerate_words(two_group_overlap, 3))
        assert words == sorted(words)
        assert len(set(words)) == len(words)

    def test_budget(self, two_group_overlap, monkeypatch):
        monkeypatch.setattr(oracles, "ENUM_BUDGET", 10**6)
        with pytest.raises(BudgetExceeded):
            list(enumerate_words(two_group_overlap, 30))

    def test_signatures_cover_all_words(self, two_group_overlap):
        n = 4
        from_words = enumerate_signatures(two_group_overlap, n)
        walked = [rec[0] for rec in signature_classes(two_group_overlap, n)]
        assert set(walked) == set(from_words)
        assert len(walked) == len(from_words)
        assert all(isinstance(b, Block) for sig in walked for b in sig)


class TestSignatureClasses:
    """The walk's records against every word of their class."""

    @pytest.mark.parametrize("sys", [
        CFSystem(["0", "1"], [["1/2", "1/5"], ["1/7"]], mode="rational"),
        CFSystem([0.0, 1.0], [[0.3, 0.2], [0.25]]),
    ], ids=["rational_three_symbol", "two_group_overlap"])
    def test_values_match_every_word(self, sys):
        exact = sys.mode == "rational"
        for n in range(1, 6):
            by_sig: dict = {}
            for w in enumerate_words(sys, n):
                by_sig.setdefault(decompose(w), []).append(w)
            records = list(signature_classes(sys, n))
            assert len(records) == len(by_sig)
            assert {rec[0] for rec in records} == set(by_sig)
            for sig, prod, pi in records:
                for w in by_sig[sig]:
                    m = compose(sys, w)
                    if exact:
                        assert prod == m.ratio
                        assert pi == m.intercept
                    else:
                        assert prod == pytest.approx(m.ratio, rel=1e-12, abs=0)
                        assert pi == pytest.approx(m.intercept, abs=1e-12)

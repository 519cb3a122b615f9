"""Finite-depth separation probe: collision buckets, minimum gaps, exact
coincidence detection."""

import math

import pytest

from cfsdim import (CFSystem, ValidationError, Word, collision_buckets,
                    compose, esc_probe, min_gap)


@pytest.fixture
def osc_quarters():
    return CFSystem([0.0, 1.0], [[0.25], [0.25]])


@pytest.fixture
def rational_three_symbol():
    return CFSystem(["0", "1"], [["1/2", "1/5"], ["1/7"]], mode="rational")


@pytest.fixture
def coincidence_system():
    """f1 = x/2, f2 = x/2 + 1/2, f3 = x/2 + 1/4: f1 o f2 == f3 o f1 exactly,
    with different block structures."""
    return CFSystem(["0", "1", "1/2"], [["1/2"], ["1/2"], ["1/2"]],
                    mode="rational")


class TestCollisionBuckets:
    def test_depth_one_all_separate(self, rational_three_symbol):
        buckets = collision_buckets(rational_three_symbol, 1)
        assert all(len(b) == 1 for b in buckets)
        assert len(buckets) == 3

    def test_rational_exact_product_merge(self):
        # (1/2)^2 = 1/4: count vectors (2,0) and (0,?) cannot collide at equal
        # length here, but (1,1)(1,1) vs (2,1)(1,1)-type products do at n=3
        sys = CFSystem(["0", "1"], [["1/2"], ["1/4"]], mode="rational")
        buckets = collision_buckets(sys, 3)
        for bucket in buckets:
            prods = {rec[2] for rec in bucket}
            assert len(prods) == 1

    def test_float_generic_buckets_are_count_vectors(self, two_group_overlap):
        buckets = collision_buckets(two_group_overlap, 4)
        for bucket in buckets:
            cvs = {rec[1] for rec in bucket}
            assert len(cvs) == 1  # generic ratios: no cross-cv merges

    def test_same_product_same_bucket(self):
        sys = CFSystem(["0", "1"], [["1/2"], ["1/4"]], mode="rational")
        # length 2: (1,1)(1,1) has product 1/4 = product of any word with one
        # (2,1) and one ... no same-length partner; verify partition is total
        buckets = collision_buckets(sys, 2)
        assert sum(len(b) for b in buckets) == \
            len({rec[0] for b in buckets for rec in b})

    @pytest.mark.parametrize("n", [0, -1])
    def test_depth_below_one_rejected(self, rational_three_symbol, n):
        with pytest.raises(ValidationError):
            collision_buckets(rational_three_symbol, n)


class TestMinGap:
    def test_osc_gap_positive(self, osc_quarters):
        rep = min_gap(osc_quarters, 4)
        assert rep.min_gap is None or rep.min_gap > 0

    def test_osc_implied_b_bounded(self, osc_quarters):
        for n in (2, 3, 4, 5):
            rep = min_gap(osc_quarters, n)
            if rep.implied_b is not None:
                assert rep.implied_b <= 2.0 + 1e-9

    def test_rational_certified_positive(self, rational_three_symbol):
        for n in (2, 4, 6):
            rep = min_gap(rational_three_symbol, n)
            assert not rep.exact_zero
            assert rep.min_gap is None or rep.min_gap > 0
            assert rep.mode == "rational"

    def test_exact_coincidence_witnessed(self, coincidence_system):
        # sanity: the engineered overlap really is exact
        m1 = compose(coincidence_system, Word.of((1, 1), (2, 1)))
        m2 = compose(coincidence_system, Word.of((3, 1), (1, 1)))
        assert m1 == m2
        rep = min_gap(coincidence_system, 2)
        assert rep.exact_zero
        assert rep.witness is not None
        sig_a, sig_b = rep.witness
        assert sig_a != sig_b

    def test_witness_words_reproduce_gap(self, two_group_overlap):
        rep = min_gap(two_group_overlap, 5)
        assert rep.witness is not None
        w1 = rep.witness[0].representative()
        w2 = rep.witness[1].representative()
        gap = abs(compose(two_group_overlap, w1).intercept
                  - compose(two_group_overlap, w2).intercept)
        assert gap == pytest.approx(rep.min_gap, rel=1e-9)

    def test_implied_b_matches_gap(self, two_group_overlap):
        rep = min_gap(two_group_overlap, 6)
        assert rep.implied_b == pytest.approx(
            -math.log2(rep.min_gap) / 6, rel=1e-12)


class TestEscProbe:
    def test_consistent_verdict_osc(self, osc_quarters):
        res = esc_probe(osc_quarters, 6)
        assert res.verdict == "consistent-up-to-6"
        assert len(res.rows) == 5

    def test_violation_verdict(self, coincidence_system):
        res = esc_probe(coincidence_system, 4)
        assert res.verdict == "violated-with-witness"

    def test_b_hat_is_max_over_rows(self, two_group_overlap):
        res = esc_probe(two_group_overlap, 6)
        implied = [r.implied_b for r in res.rows if r.implied_b is not None]
        assert res.b_hat == pytest.approx(max(implied))

    def test_json_round_trippable(self, two_group_overlap):
        import json
        res = esc_probe(two_group_overlap, 4)
        text = json.dumps(res.to_json_dict(), sort_keys=True)
        assert json.loads(text)["verdict"] == res.verdict


class TestSameSignatureSameMap:
    def test_every_class_is_map_constant(self, rational_three_symbol):
        """The exact-overlap half: all words sharing a signature compose to
        the identical map (exact arithmetic)."""
        from cfsdim import decompose, enumerate_words
        for n in (3, 5):
            by_sig = {}
            for w in enumerate_words(rational_three_symbol, n):
                m = compose(rational_three_symbol, w)
                sig = decompose(w)
                by_sig.setdefault(sig, set()).add((m.ratio, m.intercept))
            assert all(len(maps) == 1 for maps in by_sig.values())

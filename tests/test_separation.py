"""Finite-depth separation probe: collision buckets, minimum gaps, exact
coincidence detection."""

import decimal
import hashlib
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfsdim import (BudgetExceeded, CFSystem, ValidationError, esc_probe,
                    min_gap, separation)
from cfsdim.cli import main
from cfsdim.separation import count_classes
from cfsdim.words import signature_classes
from conftest import config_path
from oracles import (compose, count_vector, decompose, fraction_min_gap,
                     representative, word, word_records)

# sha256 of the stdout and CSV of `esc-probe rational_three_symbol.json
# --n-max 8 --csv` and of the stdout of `esc-probe exact_coincidence.json`:
# a change to the probe's arithmetic must not move a byte of them
R3_STDOUT_SHA256 = \
    "1e24b295c9c67fb4122f5bdc786727239654a670619d9f847ab78464da7d2e6a"
R3_CSV_SHA256 = \
    "10ecdbf79d90873bc54a21ac5b457d47a1d473a569eb8d02e85c52d67c2cb66a"
COINCIDENCE_STDOUT_SHA256 = \
    "19b506661bb082ee3fdc1a401077e291e2d6fc77caca49fbd5196d9d565c3440"


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


@pytest.fixture
def halves_quarter():
    """Two one-map groups, of ratios 1/2 and 1/4."""
    return CFSystem(["0", "1"], [["1/2"], ["1/4"]], mode="rational")


class TestCollisionBuckets:
    """The buckets of equal contraction product that min_gap compares
    within, seen through its reports."""

    def test_depth_one_all_separate(self, rational_three_symbol):
        rep = min_gap(rational_three_symbol, 1)
        assert rep.class_count == 3
        assert (rep.min_gap, rep.witness) == (None, None)

    def test_rational_exact_product_merge(self, halves_quarter):
        for n in (2, 3, 4):
            m1, m2 = (compose(halves_quarter, w)
                      for w in min_gap(halves_quarter, n).witness_words)
            assert m1.ratio == m2.ratio

    def test_float_generic_buckets_are_count_vectors(self, two_group_overlap):
        for n in range(2, 7):
            w1, w2 = min_gap(two_group_overlap, n).witness_words
            assert count_vector(w1) == count_vector(w2)  # no cross-cv merges

    def test_same_product_same_bucket(self, halves_quarter):
        # every class is bucketed once: the partition is total
        assert min_gap(halves_quarter, 2).class_count == \
            len({sig for sig, _, _ in word_records(halves_quarter, 2)})

    @pytest.mark.parametrize("n", [0, -1])
    def test_depth_below_one_rejected(self, rational_three_symbol, n):
        with pytest.raises(ValidationError):
            min_gap(rational_three_symbol, n)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_class_budget(self, rational_three_symbol, two_group_overlap,
                          monkeypatch, mode):
        """Depth 3 has 21 classes: a cap of 20 stops the probe."""
        sys = rational_three_symbol if mode == "rational" else two_group_overlap
        monkeypatch.setattr(separation, "DEFAULT_CLASS_BUDGET", 20)
        with pytest.raises(BudgetExceeded):
            esc_probe(sys, 3)
        monkeypatch.setattr(separation, "DEFAULT_CLASS_BUDGET", 21)
        assert esc_probe(sys, 3).rows[-1].class_count == 21


def _shaped(sizes, mode):
    """A system with group sizes ``sizes``: fixed points 0, 1, ... and
    member ratios 1/2, 1/3, ..., offset by three per group."""
    ratios = [[f"1/{2 + 3 * g + m}" for m in range(k)]
              for g, k in enumerate(sizes)]
    sys = CFSystem(list(range(len(sizes))), ratios, mode="rational")
    if mode == "rational":
        return sys
    return CFSystem([float(t) for t in sys.fixed_points],
                    [[float(r) for r in row] for row in sys.ratios])


class TestClassCap:
    """The class count from the group sizes against the signature walk, and
    the cap it enforces before the walk starts."""

    # depths 1-8, less where the walk would pass 10^5 classes: (2, 2, 1)
    # has 207 391 classes at depth 8 and (3, 1, 1, 2) 482 985 at depth 7
    @pytest.mark.parametrize("sizes, depth", [
        ((1, 1), 8), ((2, 1), 8), ((1, 3), 8), ((2, 2, 1), 7),
        ((3, 1, 1, 2), 6)], ids=lambda v: "-".join(map(str, v))
        if isinstance(v, tuple) else None)
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_count_matches_walk(self, sizes, depth, mode):
        sys = _shaped(sizes, mode)
        for n in range(1, depth + 1):
            assert count_classes(sys, n) == \
                sum(1 for _ in signature_classes(sys, n))

    def test_count_matches_probe_rows(self, rational_three_symbol):
        res = esc_probe(rational_three_symbol, 8)
        assert [r.class_count for r in res.rows] == \
            [count_classes(rational_three_symbol, n) for n in range(2, 9)]

    def test_checked_before_the_walk(self, two_group_overlap, monkeypatch):
        def walk(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(separation, "signature_classes", walk)
        monkeypatch.setattr(separation, "DEFAULT_CLASS_BUDGET", 20)
        with pytest.raises(BudgetExceeded, match="21 classes at depth 3"):
            esc_probe(two_group_overlap, 3)
        with pytest.raises(BudgetExceeded):
            min_gap(two_group_overlap, 3)

    def test_deep_probe_exits_at_once(self):
        """At n = 40 the walk would run for hours; the count stops it."""
        proc = subprocess.run(
            [sys.executable, "-m", "cfsdim.cli", "esc-probe",
             config_path("two_group_overlap.json"), "--n-max", "40"],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 3
        assert "signature class budget" in proc.stderr


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
        m1 = compose(coincidence_system, word((1, 1), (2, 1)))
        m2 = compose(coincidence_system, word((3, 1), (1, 1)))
        assert m1 == m2
        rep = min_gap(coincidence_system, 2)
        assert rep.exact_zero
        assert rep.witness is not None
        sig_a, sig_b = rep.witness
        assert sig_a != sig_b

    def test_witness_words_reproduce_gap(self, two_group_overlap):
        rep = min_gap(two_group_overlap, 5)
        assert rep.witness is not None
        w1, w2 = rep.witness_words
        assert (decompose(w1), decompose(w2)) == rep.witness
        gap = abs(compose(two_group_overlap, w1).intercept
                  - compose(two_group_overlap, w2).intercept)
        assert gap == pytest.approx(rep.min_gap, rel=1e-9)

    def test_implied_b_matches_gap(self, two_group_overlap):
        rep = min_gap(two_group_overlap, 6)
        assert rep.implied_b == pytest.approx(
            -math.log2(rep.min_gap) / 6, rel=1e-12)


def _word_min_gap(sys, n):
    """The minimum |Pi| gap over same-scale pairs of distinct signatures,
    and the class count, from every word of length n.  The scale is the
    exact ratio in rational mode and the count vector in float mode, where
    the ratios are generic."""
    buckets: dict = {}
    for sig, m, _ in word_records(sys, n):
        scale = m.ratio if sys.mode == "rational" else \
            tuple(sorted(count_vector(representative(sig)).items()))
        buckets.setdefault(scale, {})[sig] = m.intercept
    gaps = [abs(a - b) for bucket in buckets.values()
            for a, b in itertools.combinations(bucket.values(), 2)]
    return min(gaps, default=None), sum(map(len, buckets.values()))


class TestMinGapAgainstWords:
    @pytest.mark.parametrize("name", [
        "rational_three_symbol", "coincidence_system", "halves_quarter",
        "two_group_overlap"])
    def test_matches_word_brute_force(self, name, request):
        sys = request.getfixturevalue(name)
        for n in range(1, 7):
            gap, classes = _word_min_gap(sys, n)
            rep = min_gap(sys, n)
            assert rep.class_count == classes
            assert rep.exact_zero == (gap == 0)
            if gap is None or sys.mode == "rational":
                assert rep.min_gap == (None if gap is None else float(gap))
            else:
                assert rep.min_gap == pytest.approx(gap, rel=1e-9, abs=0)


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


class TestFloatRounding:
    """Fixed points 0 and 2/3, ratios [[1/5, 1/2], [1/2]]: two depth-4
    signatures compose to the same map, and float rounding leaves a gap of
    about 1e-17 between their Pi values."""

    def test_rational_finds_the_coincidence(self):
        sys = CFSystem(["0", "2/3"], [["1/5", "1/2"], ["1/2"]],
                       mode="rational")
        res = esc_probe(sys, 4)
        assert res.verdict == "violated-with-witness"
        assert (res.rows[-1].min_gap, res.rows[-1].exact_zero) == (0.0, True)
        m1, m2 = (compose(sys, w) for w in res.rows[-1].witness_words)
        assert m1 == m2

    def test_float_gap_within_rounding_is_no_evidence(self):
        res = esc_probe(CFSystem([0, 2 / 3], [[0.2, 0.5], [0.5]]), 4)
        row = res.rows[-1]
        # a gap below the rounding bound of one Pi value (about 4e-15 here)
        assert 0 < row.min_gap < 1e-15 and not row.exact_zero
        assert row.implied_b is None
        assert res.verdict == "indeterminate"
        assert res.b_hat == max(r.implied_b for r in res.rows[:-1])

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_covers_every_float_pi(self, seed):
        """min_gap's bound E on the rounding of one Pi value, against the
        exact walk over the same (float) inputs as fractions."""
        rng = random.Random(seed)
        t = [rng.uniform(-3, 3) for _ in range(3)]
        ratios = [[rng.uniform(0.05, 0.95) for _ in range(rng.randint(1, 3))]
                  for _ in t]
        exact = CFSystem([Fraction(x) for x in t],
                         [[Fraction(r) for r in row] for row in ratios],
                         mode="rational")
        n, u, lam = 5, 2.0**-53, max(map(max, ratios))
        bound = ((4 * n + 1) * u / (1 - (4 * n + 1) * u) * 2
                 * max(map(abs, t)) * sum(lam**i for i in range(n)))
        for (sig, _, pi), (sig_q, _, pi_q) in zip(
                signature_classes(CFSystem(t, ratios), n),
                signature_classes(exact, n), strict=True):
            assert sig == sig_q
            assert abs(Fraction(pi) - pi_q) <= bound


class TestSameSignatureSameMap:
    def test_every_class_is_map_constant(self, rational_three_symbol):
        """The exact-overlap half: all words sharing a signature compose to
        the identical map (exact arithmetic)."""
        for n in (3, 5):
            by_sig = {}
            for sig, m, _ in word_records(rational_three_symbol, n):
                by_sig.setdefault(sig, set()).add((m.ratio, m.intercept))
            assert all(len(maps) == 1 for maps in by_sig.values())


def _neg_log2(q: Fraction) -> float:
    """-log2 q of a positive rational, from 60-digit logarithms."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float((decimal.Decimal(q.denominator).ln()
                      - decimal.Decimal(q.numerator).ln())
                     / decimal.Decimal(2).ln())


class TestGapsBelowTheDoubles:
    """Fixed points 0 and 10^-300: every gap is exact and positive, and from
    depth 3 on it lies below the normal doubles (from depth 5 below the
    subnormals too)."""

    @pytest.fixture
    def tiny(self):
        return CFSystem(["0", Fraction(1, 10**300)],
                        [["1/1000000", "1/999999"], ["1/7"]], mode="rational")

    def test_exponent_from_the_exact_gap(self, tiny):
        res = esc_probe(tiny, 6)
        assert res.verdict == "consistent-up-to-6"
        for row in res.rows:
            gap, _ = _word_min_gap(tiny, row.depth)
            assert not row.exact_zero and row.min_gap == float(gap)
            assert row.implied_b == pytest.approx(
                _neg_log2(gap) / row.depth, rel=1e-13)
        assert res.b_hat == res.rows[0].implied_b


# ratios p/q with q <= 12; fixed points on denominators dividing 12, so
# that groups share them, negative ones among them
_ratios = st.integers(2, 12).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q)))
_points = st.builds(Fraction, st.integers(-12, 12),
                    st.sampled_from([1, 2, 3, 4, 6, 12]))


@st.composite
def _rational_probes(draw):
    """A system of 2-3 groups of 1-3 members and a depth from 1 to 6, less
    where the depth has more than 20 000 classes (three groups of three
    have 282 132 at depth 6)."""
    k = draw(st.integers(2, 3))
    points = draw(st.lists(_points, min_size=k, max_size=k, unique=True))
    sys = CFSystem(points, [draw(st.lists(_ratios, min_size=1, max_size=3))
                            for _ in points], mode="rational")
    n = draw(st.integers(1, 6))
    while count_classes(sys, n) > 20_000:
        n -= 1
    return sys, n


class TestAgainstFractionReference:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_rational_probes())
    def test_report_matches(self, case):
        """The integer keys give every field the Fractions give."""
        sys, n = case
        ref = fraction_min_gap(signature_classes(sys, n), n)
        rep = min_gap(sys, n)
        assert {field: getattr(rep, field) for field in ref} == ref


class TestPinnedOutput:
    def _sha256(self, text):
        return hashlib.sha256(text.encode()).hexdigest()

    def test_rational_three_symbol(self, tmp_path, capsys):
        csv = tmp_path / "probe.csv"
        assert main(["esc-probe", config_path("rational_three_symbol.json"),
                     "--n-max", "8", "--csv", str(csv)]) == 0
        assert self._sha256(capsys.readouterr().out) == R3_STDOUT_SHA256
        assert self._sha256(csv.read_text()) == R3_CSV_SHA256

    def test_exact_coincidence(self, capsys):
        assert main(["esc-probe",
                     config_path("exact_coincidence.json")]) == 0
        assert self._sha256(capsys.readouterr().out) == \
            COINCIDENCE_STDOUT_SHA256

"""Domain model: construction, validation, maps, pruning, serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cfsdim import (AffineMap1D, CFSystem, ProbVector, Symbol,
                    ValidationError, load_system, map_of, prune_zeros,
                    validate_probabilities, validate_system)


class TestValidateSystem:
    def test_canonical_two_map_system_ok(self, equal_halves):
        assert validate_system(equal_halves) == []

    def test_duplicate_fixed_point(self):
        sys = CFSystem([0.0, 0.0], [[0.5], [0.5]])
        errs = validate_system(sys)
        assert any("DuplicateFixedPoint" in e for e in errs)

    def test_ratio_out_of_range(self):
        sys = CFSystem([0.0, 1.0], [[1.0], [0.5]])
        errs = validate_system(sys)
        assert any("RatioOutOfRange" in e for e in errs)

    def test_empty_group(self):
        sys = CFSystem([0.0, 1.0], [[], [0.5]])
        errs = validate_system(sys)
        assert any("EmptyGroup" in e for e in errs)

    def test_single_group_rejected(self):
        sys = CFSystem([0.0], [[0.5]])
        assert validate_system(sys)


class TestMapOf:
    def test_fixed_point_zero_gives_zero_intercept(self, equal_halves):
        m = map_of(equal_halves, Symbol(1, 1))
        assert (m.ratio, m.intercept) == (0.5, 0.0)

    def test_fixed_point_one(self, equal_halves):
        m = map_of(equal_halves, Symbol(2, 1))
        assert (m.ratio, m.intercept) == (0.5, 0.5)

    def test_second_member_same_group(self):
        sys = CFSystem([0.0, 1.0], [[0.45, 0.09], [0.45]])
        m = map_of(sys, Symbol(1, 2))
        assert (m.ratio, m.intercept) == (0.09, 0.0)

    def test_map_fixes_its_fixed_point(self, two_group_overlap):
        for s in two_group_overlap.symbols():
            t = two_group_overlap.fixed_point(s)
            assert map_of(two_group_overlap, s)(t) == pytest.approx(t)


class TestComposition:
    def test_composition_law(self):
        a = AffineMap1D(0.5, 0.25)
        b = AffineMap1D(0.3, 0.1)
        ab = a.compose(b)
        assert ab.ratio == pytest.approx(0.15)
        assert ab.intercept == pytest.approx(0.5 * 0.1 + 0.25)
        for x in (-1.0, 0.0, 0.7):
            assert ab(x) == pytest.approx(a(b(x)))

    @given(st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(-1, 1)),
                    min_size=3, max_size=6))
    def test_associativity(self, params):
        maps = [AffineMap1D(r, c) for r, c in params]
        left = maps[0]
        for m in maps[1:]:
            left = left.compose(m)
        right = maps[-1]
        for m in reversed(maps[:-1]):
            right = m.compose(right)
        assert left.ratio == pytest.approx(right.ratio, rel=1e-12)
        assert left.intercept == pytest.approx(right.intercept, abs=1e-12)


class TestPruneZeros:
    def test_drops_zero_symbols(self, two_group_overlap):
        p = ProbVector([[0.5, 0.0], [0.5]])
        sys2, p2, degenerate = prune_zeros(two_group_overlap, p)
        assert sys2.group_sizes == (1, 1)
        assert p2.flat() == [0.5, 0.5]
        assert not degenerate

    def test_all_mass_one_group_degenerate(self, two_group_overlap):
        p = ProbVector([[0.5, 0.5], [0.0]])
        _, _, degenerate = prune_zeros(two_group_overlap, p)
        assert degenerate

    def test_identity_on_positive_weights(self, two_group_overlap):
        p = ProbVector.uniform(two_group_overlap)
        sys2, p2, degenerate = prune_zeros(two_group_overlap, p)
        assert sys2.group_sizes == two_group_overlap.group_sizes
        assert p2.flat() == p.flat()
        assert not degenerate


class TestProbabilities:
    def test_uniform_sums_to_one(self, two_group_overlap):
        p = ProbVector.uniform(two_group_overlap)
        assert validate_probabilities(two_group_overlap, p) == []
        assert p.total() == pytest.approx(1.0)

    def test_shape_mismatch(self, two_group_overlap):
        p = ProbVector([[0.5], [0.5]])
        assert validate_probabilities(two_group_overlap, p)

    def test_sum_not_one(self, equal_halves):
        p = ProbVector([[0.5], [0.6]])
        assert validate_probabilities(equal_halves, p)

    def test_negative_weight(self, equal_halves):
        p = ProbVector([[1.5], [-0.5]])
        assert validate_probabilities(equal_halves, p)

    def test_non_finite_weight(self, two_group_overlap):
        p = ProbVector([[float("nan"), 0.5], [0.25]])
        assert validate_probabilities(two_group_overlap, p)


class TestRationalMode:
    def test_fractions_parsed_from_strings(self):
        sys = CFSystem(["0", "1"], [["1/2", "1/3"], ["1/5"]], mode="rational")
        assert sys.ratios[0][1] == Fraction(1, 3)
        assert isinstance(sys.fixed_points[1], Fraction)

    def test_float_input_rejected(self):
        with pytest.raises(ValidationError):
            CFSystem([0.5], [[0.5]], mode="rational")

    def test_uniform_is_exact(self):
        sys = CFSystem(["0", "1"], [["1/2", "1/3"], ["1/5"]], mode="rational")
        p = ProbVector.uniform(sys)
        assert p.total() == 1


class TestSerialization:
    def test_round_trip(self, two_group_overlap):
        p = ProbVector.uniform(two_group_overlap)
        d = two_group_overlap.to_json_dict(p)
        text = json.dumps(d)
        sys2, p2 = load_system(json.loads(text))
        assert sys2 == two_group_overlap
        assert p2.flat() == pytest.approx(p.flat())

    def test_rational_round_trip(self):
        sys = CFSystem(["0", "1"], [["1/2", "1/3"], ["1/5"]], mode="rational")
        sys2, _ = load_system(sys.to_json_dict())
        assert sys2 == sys

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"type": "cfs", "fixed_points": [0, 1],
                                    "ratios": [[0.5], [0.5]]}))
        sys, p = load_system(str(path))
        assert sys.n_maps == 2
        assert p is None

    def test_wrong_type_rejected(self):
        with pytest.raises(ValidationError):
            load_system({"type": "nope", "fixed_points": [0, 1],
                         "ratios": [[0.5], [0.5]]})

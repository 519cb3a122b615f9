"""Domain model: construction, validation, maps, pruning, serialization."""

import copy
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cfsdim import (Block, CFSystem, DimensionReport, FourCornerProb,
                    FourCornerSystem, PhiResult, ProbeResult, ProbVector,
                    RWEntropyResult, ScalingFit, SeparationReport,
                    ValidationError, entropy_slope, load_system, lyapunov,
                    phi_series, prune_zeros, rw_entropy_closed,
                    validate_probabilities, validate_system)
from cfsdim.ifs import PROB_SUM_TOL, weight_errors
from oracles import compose


class TestValidateSystem:
    """A CFSystem that breaks a rule of validate_system cannot be built."""

    def test_canonical_two_map_system_ok(self, equal_halves):
        assert validate_system(equal_halves) == []

    def test_duplicate_fixed_point(self):
        with pytest.raises(ValidationError,
                           match=r"^DuplicateFixedPoint: t\[1\] == t\[2\]$"):
            CFSystem([0.0, 0.0], [[0.5], [0.5]])

    def test_ratio_out_of_range(self):
        with pytest.raises(ValidationError,
                           match=r"^RatioOutOfRange: lambda\[1\]\[1\]=1.0$"):
            CFSystem([0.0, 1.0], [[1.0], [0.5]])

    @pytest.mark.parametrize("ratio", [1.5, 0.0, -0.5, float("nan"),
                                       float("inf")])
    def test_ratio_outside_unit_interval(self, ratio):
        with pytest.raises(ValidationError, match="RatioOutOfRange"):
            CFSystem([0.0, 1.0], [[0.5], [ratio]])

    def test_empty_group(self):
        with pytest.raises(ValidationError,
                           match="^EmptyGroup: group 1 has no maps$"):
            CFSystem([0.0, 1.0], [[], [0.5]])

    def test_single_group_rejected(self):
        with pytest.raises(ValidationError,
                           match="^EmptyGroup: need at least 2 fixed points$"):
            CFSystem([0.0], [[0.5]])

    def test_rows_and_fixed_points_differ(self):
        with pytest.raises(ValidationError,
                           match="^ShapeMismatch: ratios rows != fixed points$"):
            CFSystem([0.0, 1.0, 2.0], [[0.5], [0.5]])

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_fixed_point(self, t):
        with pytest.raises(ValidationError, match="^NonFiniteFixedPoint: t"):
            CFSystem([0.0, t], [[0.5], [0.5]])

    def test_every_violation_is_named(self):
        with pytest.raises(ValidationError) as info:
            CFSystem([0.0, 0.0], [[1.5], [0.5]])
        assert str(info.value) == ("RatioOutOfRange: lambda[1][1]=1.5; "
                                   "DuplicateFixedPoint: t[1] == t[2]")

    # every formula computes in doubles, so the rules hold for the doubles
    @pytest.mark.parametrize("t, ratios, mode, match", [
        ([-1e308, 1e308], [[0.5, 0.3], [0.25]], "float",
         r"^InfiniteSpan: max t - min t overflows a double$"),
        (["0", "1"], [[f"1/{10**400}"], ["1/2"]], "rational",
         r"^RatioOutOfRange: lambda\[1\]\[1\]=1/1000"),
        (["0", f"1/{10**400}"], [["1/2"], ["1/3"]], "rational",
         r"^DuplicateFixedPoint: t\[1\] == t\[2\]$"),
        (["0", "1"], [["1/2"], [f"{10**400 - 1}/{10**400}"]], "rational",
         r"^RatioOutOfRange: lambda\[2\]\[1\]=9999"),
        (["0", str(10**400)], [["1/2"], ["1/3"]], "rational",
         r"^NonFiniteFixedPoint: t\[2\]=1000"),
    ], ids=["float-span", "ratio-rounding-to-zero",
            "fixed-points-rounding-together", "ratio-rounding-to-one",
            "fixed-point-past-double-range"])
    def test_double_image_must_be_valid(self, t, ratios, mode, match):
        with pytest.raises(ValidationError, match=match):
            CFSystem(t, ratios, mode=mode)

    def test_equal_maps_cannot_reach_the_formulas(self):
        """Both maps x -> x/2: h_RW is 0, not the log 2 that h_p + Phi would
        give, so the system is refused before any formula runs."""
        with pytest.raises(ValidationError, match="DuplicateFixedPoint"):
            rw_entropy_closed(CFSystem([0, 0], [[0.5], [0.5]]),
                              ProbVector([[0.5], [0.5]]))


class TestMapOf:
    """CFSystem.maps(): the (ratio, intercept) pair of each map, group by
    group and member by member."""

    def test_fixed_point_zero_gives_zero_intercept(self, equal_halves):
        assert equal_halves.maps()[0] == (0.5, 0.0)

    def test_fixed_point_one(self, equal_halves):
        assert equal_halves.maps()[1] == (0.5, 0.5)

    def test_second_member_same_group(self):
        sys = CFSystem([0.0, 1.0], [[0.45, 0.09], [0.45]])
        assert sys.maps() == ((0.45, 0.0), (0.09, 0.0), (0.45, 0.55))

    def test_map_fixes_its_fixed_point(self, two_group_overlap):
        ts = [t for t, row in zip(two_group_overlap.fixed_points,
                                  two_group_overlap.ratios) for _ in row]
        for (ratio, intercept), t in zip(two_group_overlap.maps(), ts,
                                         strict=True):
            assert ratio * t + intercept == pytest.approx(t)


class TestComposition:
    """The word oracle's composition against the maps applied one by one."""

    def test_composition_law(self):
        sys = CFSystem([0.0, 0.5, 1.0], [[0.5], [0.25], [0.3]])
        (ra, ca), (rb, cb) = sys.maps()[1:]
        ab = compose(sys, ((2, 1), (3, 1)))
        assert ab.ratio == pytest.approx(ra * rb)
        assert ab.intercept == pytest.approx(ra * cb + ca)
        for x in (-1.0, 0.0, 0.7):
            assert ab.ratio * x + ab.intercept == pytest.approx(
                ra * (rb * x + cb) + ca)

    @given(st.lists(st.sampled_from([(1, 1), (1, 2), (2, 1), (3, 1)]),
                    min_size=3, max_size=6), st.floats(-1, 1))
    def test_associativity(self, w, x):
        """f_{w_1} o ... o f_{w_n} at x, innermost map first."""
        sys = CFSystem([-0.5, 0.25, 1.0], [[0.3, 0.2], [0.25], [0.45]])
        maps = dict(zip([(1, 1), (1, 2), (2, 1), (3, 1)], sys.maps()))
        y = x
        for s in reversed(w):
            y = maps[s][0] * y + maps[s][1]
        m = compose(sys, w)
        assert m.ratio * x + m.intercept == pytest.approx(y, abs=1e-12)


class TestPruneZeros:
    def test_drops_zero_symbols(self, two_group_overlap):
        p = ProbVector([[0.5, 0.0], [0.5]])
        assert prune_zeros(two_group_overlap, p).weights == ((0.5,), (0.5,))

    def test_all_mass_one_group_degenerate(self, two_group_overlap):
        """One group left: the measure is a point mass at its fixed point."""
        p = ProbVector([[0.5, 0.5], [0.0]])
        assert prune_zeros(two_group_overlap, p).weights == ((0.5, 0.5),)

    def test_identity_on_positive_weights(self, two_group_overlap):
        p = ProbVector.uniform(two_group_overlap)
        assert prune_zeros(two_group_overlap, p) == p

    def test_shape_mismatch_rejected(self, two_group_overlap):
        with pytest.raises(ValidationError, match="^ShapeMismatch: weights"):
            prune_zeros(two_group_overlap, ProbVector([[0.5], [0.5]]))


class TestProbabilities:
    """A ProbVector that breaks weight_errors' rule cannot be built; the
    shape rule is checked where a system meets its weights."""

    def test_uniform_sums_to_one(self, two_group_overlap):
        p = ProbVector.uniform(two_group_overlap)
        assert validate_probabilities(two_group_overlap, p) == []
        assert sum(p.flat()) == pytest.approx(1.0)

    def test_shape_mismatch(self, two_group_overlap):
        p = ProbVector([[0.5], [0.5]])
        assert validate_probabilities(two_group_overlap, p) == [
            "ShapeMismatch: weights do not match system shape"]

    # the same number of weights, grouped (1, 2) against the system's (2, 1)
    @pytest.mark.parametrize("call", [
        lambda sys, p: lyapunov(sys, p),
        lambda sys, p: phi_series(sys, p),
        lambda sys, p: entropy_slope(sys, p, 10, range(2, 6), 0),
    ], ids=["lyapunov", "phi_series", "entropy_slope"])
    def test_shape_mismatch_rejected_where_weights_meet_ratios(
            self, two_group_overlap, call):
        p = ProbVector([[0.5], [0.25, 0.25]])
        with pytest.raises(ValidationError, match="^ShapeMismatch: weights"):
            call(two_group_overlap, p)

    def test_sum_not_one(self):
        with pytest.raises(ValidationError, match=r"^SumNotOne: total=1.1$"):
            ProbVector([[0.5], [0.6]])

    def test_negative_weight(self):
        with pytest.raises(ValidationError, match="^NegativeWeight: -0.5$"):
            ProbVector([[1.5], [-0.5]])

    def test_non_finite_weight(self):
        with pytest.raises(ValidationError, match="^NonFiniteWeight: nan$"):
            ProbVector([[float("nan"), 0.5], [0.25]])

    @pytest.mark.parametrize("weights, match", [
        ([[0.9], [0.9]], "SumNotOne"),
        ([[0.5], [0.5 + 2e-12]], "SumNotOne"),
        ([[1.0], [-1e-300]], "NegativeWeight"),
        ([[float("inf")], [0.0]], "NonFiniteWeight"),
        ([], "SumNotOne"),
    ], ids=["sum-1.8", "sum-past-tol", "tiny-negative", "infinite", "empty"])
    def test_invalid_weights_cannot_be_built(self, weights, match):
        with pytest.raises(ValidationError, match=match):
            ProbVector(weights)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           st.booleans())
    def test_total_is_summed_left_to_right(self, weights, normalise):
        """The verdict and the printed total are those of the sum from 0,
        left to right, on every interpreter: built-in sum compensates a
        float sum from 3.12 on.  Normalised weights land within rounding
        of 1, where the tolerance decides."""
        scale = math.fsum(weights)
        if normalise and scale > 0:
            weights = [w / scale for w in weights]
        total = 0
        for w in weights:
            total = total + w
        assert [e for e in weight_errors(weights) if "SumNotOne" in e] == (
            [f"SumNotOne: total={total}"] if abs(total - 1) > PROB_SUM_TOL
            else [])


class TestRationalMode:
    def test_fractions_parsed_from_strings(self):
        sys = CFSystem(["0", "1"], [["1/2", "1/3"], ["1/5"]], mode="rational")
        assert sys.ratios[0][1] == Fraction(1, 3)
        assert isinstance(sys.fixed_points[1], Fraction)

    def test_float_input_rejected(self):
        with pytest.raises(ValidationError,
                           match="^rational mode requires exact inputs, got 0.5$"):
            CFSystem([0.5], [[0.5]], mode="rational")

    def test_float_weight_rejected(self):
        with pytest.raises(ValidationError,
                           match="^rational mode requires exact inputs"):
            ProbVector([["1/2"], [0.5]], mode="rational")

    def test_weights_sum_to_one_exactly(self):
        with pytest.raises(ValidationError, match="^SumNotOne: total=5/6$"):
            ProbVector([["1/2"], ["1/3"]], mode="rational")

    def test_uniform_is_exact(self):
        sys = CFSystem(["0", "1"], [["1/2", "1/3"], ["1/5"]], mode="rational")
        p = ProbVector.uniform(sys)
        assert sum(p.flat()) == 1


class TestSerialization:
    def test_descriptor_dict(self):
        sys, p = load_system({"type": "cfs", "fixed_points": ["0", "1"],
                              "ratios": [["1/2", "1/3"], ["1/5"]],
                              "mode": "rational",
                              "probabilities": [["1/2", "1/4"], ["1/4"]]})
        assert sys == CFSystem(["0", "1"], [["1/2", "1/3"], ["1/5"]],
                               mode="rational")
        assert p == ProbVector([["1/2", "1/4"], ["1/4"]], mode="rational")
        assert load_system({"fixed_points": [0, 1],
                            "ratios": [[0.5], [0.5]]})[1] is None

    def test_wrong_type_rejected(self):
        with pytest.raises(ValidationError):
            load_system({"type": "nope", "fixed_points": [0, 1],
                         "ratios": [[0.5], [0.5]]})


_BLOCK = Block(1, ((1, 2),))
_ROW = SeparationReport(2, 3, None, False, None, None, None, "rational")

# (build, the field assigned, repr, JSON of a report or None): build makes
# a new value each call
VALUES = [
    (lambda: CFSystem([0, 1], [[0.5], [0.25]]), "mode",
     "CFSystem(fixed_points=(0.0, 1.0), ratios=((0.5,), (0.25,)), "
     "mode='float')", None),
    (lambda: CFSystem(["0", "1"], [["1/2"], ["1/4"]], mode="rational"),
     "ratios", "CFSystem(fixed_points=(Fraction(0, 1), Fraction(1, 1)), "
     "ratios=((Fraction(1, 2),), (Fraction(1, 4),)), mode='rational')",
     None),
    (lambda: ProbVector([[0.5], [0.5]]), "weights",
     "ProbVector(weights=((0.5,), (0.5,)), mode='float')", None),
    (lambda: _BLOCK, "counts", "Block(group=1, counts=((1, 2),))", None),
    (lambda: FourCornerSystem([[0.5, 0.25], [0.25, 0.5]],
                              [[0.5, 0.25], [0.25, 0.5]]), "lam",
     "FourCornerSystem(gamma=((0.5, 0.25), (0.25, 0.5)), "
     "lam=((0.5, 0.25), (0.25, 0.5)))", None),
    (lambda: FourCornerProb([0.25] * 4), "p",
     "FourCornerProb(p=(0.25, 0.25, 0.25, 0.25))", None),
    # a default-None field appears only while set; a required one always
    (lambda: PhiResult(1.0, 0.0, 3, "series"), "value",
     "PhiResult(value=1.0, tail_bound=0.0, terms_used=3, method='series', "
     "stderr=None)",
     {"value": 1.0, "tail_bound": 0.0, "terms_used": 3, "method": "series"}),
    (lambda: PhiResult(1.0, 0.0, 3, "monte-carlo", stderr=0.5), "stderr",
     "PhiResult(value=1.0, tail_bound=0.0, terms_used=3, "
     "method='monte-carlo', stderr=0.5)",
     {"value": 1.0, "tail_bound": 0.0, "terms_used": 3,
      "method": "monte-carlo", "stderr": 0.5}),
    (lambda: RWEntropyResult(0.5, "brute-force", 2, (0.25,)), "increments",
     "RWEntropyResult(value=0.5, method='brute-force', depth=2, "
     "increments=(0.25,), tail_bound=None)",
     {"value": 0.5, "method": "brute-force", "depth": 2,
      "increments": [0.25]}),
    (lambda: RWEntropyResult(0.5, "closed-form", tail_bound=1e-11), "method",
     "RWEntropyResult(value=0.5, method='closed-form', depth=None, "
     "increments=None, tail_bound=1e-11)",
     {"value": 0.5, "method": "closed-form", "tail_bound": 1e-11}),
    (lambda: DimensionReport(0.5, 0.5, "measure-formula", 1e-10, {}),
     "diagnostics",
     "DimensionReport(dimension=0.5, raw=0.5, method='measure-formula', "
     "tolerance=1e-10, diagnostics={})",
     {"dimension": 0.5, "raw": 0.5, "method": "measure-formula",
      "tolerance": 1e-10, "diagnostics": {}}),
    (lambda: ScalingFit((1, 2), (2, 4), 1.0, 1.0, (1, 2)), "slope",
     "ScalingFit(scales=(1, 2), counts=(2, 4), slope=1.0, r2=1.0, "
     "window=(1, 2))",
     {"scales": [1, 2], "counts": [2, 4], "slope": 1.0, "r2": 1.0,
      "window": [1, 2]}),
    (lambda: _ROW, "min_gap",
     "SeparationReport(depth=2, class_count=3, min_gap=None, "
     "exact_zero=False, witness=None, witness_words=None, implied_b=None, "
     "mode='rational')",
     {"depth": 2, "class_count": 3, "min_gap": None, "exact_zero": False,
      "witness": None, "witness_words": None, "implied_b": None,
      "mode": "rational"}),
    (lambda: ProbeResult((_ROW,), "consistent-up-to-2", None), "verdict",
     f"ProbeResult(rows=({_ROW!r},), verdict='consistent-up-to-2', "
     "b_hat=None)",
     {"rows": [{"depth": 2, "class_count": 3, "min_gap": None,
                "exact_zero": False, "witness": None,
                "witness_words": None, "implied_b": None,
                "mode": "rational"}],
      "verdict": "consistent-up-to-2", "b_hat": None}),
]


class TestValueSemantics:
    """Results and values are immutable and read by attribute; equal
    values compare and hash equal, and a report's JSON follows one rule."""

    @pytest.mark.parametrize("build, field, text, as_json", VALUES,
                             ids=lambda v: v if isinstance(v, str) else None)
    def test_value(self, build, field, text, as_json):
        a, b = build(), build()
        assert a == b and not a != b
        if isinstance(a, DimensionReport):   # a dict field: unhashable
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
        assert repr(a) == text
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) == getattr(b, field)
        assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)
        if as_json is not None:
            assert a.to_json_dict() == as_json
            assert json.loads(json.dumps(a.to_json_dict())) == as_json

    def test_values_of_other_types_differ(self):
        assert CFSystem([0, 1], [[0.5], [0.5]]) != ProbVector([[0.5], [0.5]])
        assert CFSystem([0, 1], [[0.5], [0.5]]) != CFSystem([0, 2],
                                                            [[0.5], [0.5]])

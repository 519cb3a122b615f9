"""Empirical oracles: 1-D cylinder box counting, 2-D chaos-game box
counting, dyadic entropy slopes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cfsdim import (BudgetExceeded, CFSystem, FourCornerSystem, ProbVector,
                    ValidationError, attractor_dimension, box_dimension_1d,
                    box_dimension_2d, cover_boxes_1d, entropy_slope,
                    estimate, measure_dimension)
from cfsdim.estimate import _fit, _keys, _occupancy
from cfsdim.ifs import SAMPLE_CHUNK
from oracles import (cell_counts, cover_count, line_chaos_points,
                     measure_samples)


@st.composite
def small_line_systems(draw):
    """Line systems of 2 or 3 groups and at most 4 maps, fixed points in
    [-2, 2] and ratios in [0.02, 0.35]: a cover at m <= 9 refines a few
    thousand cylinders, few enough for the Fraction oracle."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3)
                 .filter(lambda sizes: sum(sizes) <= 4))
    fixed = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(sizes),
                          max_size=len(sizes), unique=True))
    ratios = [draw(st.lists(st.floats(0.02, 0.35), min_size=k, max_size=k))
              for k in sizes]
    return CFSystem(fixed, ratios)


class TestFit:
    @pytest.mark.parametrize("xs, ys", [
        (range(6, 13), [math.log2(2 ** (m // 2) + m) for m in range(6, 13)]),
        ([4, 5, 6, 7], [1.0, 2.5, 2.75, 4.5]),
        ([1, 2, 3], [5.0, 5.0, 5.0]),
    ])
    def test_matches_polyfit(self, xs, ys):
        """The closed-form line agrees with numpy's least-squares fit."""
        xs = list(xs)
        slope, r2 = _fit(xs, ys)
        ref, intercept = np.polyfit(xs, ys, 1)
        pred = ref * np.asarray(xs) + intercept
        ss_tot = float(np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
        ref_r2 = 1.0 if ss_tot == 0 else \
            1.0 - float(np.sum((ys - pred) ** 2)) / ss_tot
        assert slope == pytest.approx(ref, abs=1e-12)
        assert r2 == pytest.approx(ref_r2, abs=1e-12)


class TestCoverBoxes1D:
    def test_full_interval_counts(self, equal_halves):
        for m in (4, 6, 8):
            assert abs(cover_boxes_1d(equal_halves, m) - 2 ** m) <= 2

    def test_counts_nondecreasing_in_m(self, cantor_quarter):
        counts = [cover_boxes_1d(cantor_quarter, m) for m in range(4, 14)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_end_rounding_outside_the_grid_counts_no_box(self):
        """The leftmost cylinder's rescaled left end is 0 exactly and reads
        -3.97e-17 in doubles; its box index -1 clips to 0, so the counts
        are the exact cover's, not one more."""
        sys = CFSystem([0.4152232489332732, 1.813590367009101],
                       [[0.15202761029576867],
                        [0.35438497796503027, 0.23889809743044665]])
        counts = [cover_boxes_1d(sys, m) for m in (4, 8, 12)]
        assert counts == [cover_count(sys, m) for m in (4, 8, 12)]
        assert counts == [9, 53, 312]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sys=small_line_systems(), m=st.integers(1, 9))
    def test_counts_match_exact_cover(self, sys, m):
        assert cover_boxes_1d(sys, m) == cover_count(sys, m)

    def test_sampled_points_fall_in_counted_range(self, cantor_quarter):
        """Every attractor point's dyadic box count is consistent: the
        chaos game, started at the fixed point t_min, visits attractor
        points only, and occupies no more boxes than the upper cover."""
        p = ProbVector.uniform(cantor_quarter)
        m = 10
        xs = line_chaos_points(cantor_quarter, p, 10_000, m, seed=4)
        boxes = set(np.clip((xs * 2 ** m).astype(int), 0, 2 ** m - 1))
        assert len(boxes) <= cover_boxes_1d(cantor_quarter, m)


class TestBoxDimension1D:
    def test_full_interval(self, equal_halves):
        fit = box_dimension_1d(equal_halves, range(6, 16))
        assert fit.slope == pytest.approx(1.0, abs=0.01)

    def test_quarter_cantor(self, cantor_quarter):
        fit = box_dimension_1d(cantor_quarter, range(8, 19))
        assert fit.slope == pytest.approx(0.5, abs=0.02)

    def test_overlapping_system_near_root(self, two_group_overlap):
        s0 = attractor_dimension(two_group_overlap).dimension
        fit = box_dimension_1d(two_group_overlap, range(6, 17))
        assert abs(fit.slope - s0) <= 0.05

    def test_coinciding_maps_refined_once(self, all_third, monkeypatch):
        """all_third's two maps at 0 are one map: the cover walks 2^k
        cylinders, not 3^k, and counts as the two-map system does."""
        monkeypatch.setattr(estimate, "DEFAULT_COVER_BUDGET", 10**4)
        fit = box_dimension_1d(all_third, range(4, 17))
        assert fit.counts == (10, 16, 28, 42, 70, 102, 154, 240, 362, 570,
                              888, 1340, 2158)
        distinct = CFSystem([0, 1], [[1 / 3], [1 / 3]])
        assert box_dimension_1d(distinct, range(4, 17)) == fit

    def test_window_trimming(self, cantor_quarter):
        fit = box_dimension_1d(cantor_quarter, range(4, 15))
        assert fit.window == (6, 12)
        assert 0.0 <= fit.r2 <= 1.0


class TestBoxDimension2D:
    def test_disjoint_quarter_copies(self):
        sys = FourCornerSystem([[0.25, 0.25], [0.25, 0.25]],
                               [[0.25, 0.25], [0.25, 0.25]])
        # window must span full periods: the count staircase alternates
        # slopes 0 and 2 between consecutive m for this product Cantor set
        fit = box_dimension_2d(sys, range(2, 11), 500_000, seed=5)
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_full_square(self):
        sys = FourCornerSystem([[0.5, 0.5], [0.5, 0.5]],
                               [[0.5, 0.5], [0.5, 0.5]])
        fit = box_dimension_2d(sys, range(2, 9), 500_000, seed=5)
        assert fit.slope == pytest.approx(2.0, abs=0.1)

    def test_deterministic(self, four_corner_main):
        a = box_dimension_2d(four_corner_main, range(2, 7), 50_000, seed=3)
        b = box_dimension_2d(four_corner_main, range(2, 7), 50_000, seed=3)
        assert a == b

    def test_pinned_counts(self, four_corner_main):
        """Pinned from counting the chaos game held as one (points, 2)
        array (oracles.chaos_game_points and cell_counts): counting its
        steps as they come finds the same cells."""
        fit = box_dimension_2d(four_corner_main, range(2, 7), 50_000, seed=3)
        assert fit.counts == (16, 56, 199, 494, 1064)
        assert fit.slope == 1.5251577180529452

    @pytest.mark.parametrize("weights, match", [
        ([0.5, 0.5], "ShapeMismatch"), ([0.5, 0.6, -0.1, 0.0], "Negative"),
        ([0.5, 0.5, 0.5, 0.0], "SumNotOne")])
    def test_weights_checked_before_drawing(self, four_corner_main,
                                            monkeypatch, weights, match):
        """The weights obey FourCornerProb's rule, checked on the call."""
        monkeypatch.setattr(np.random, "default_rng", refuse_to_draw)
        with pytest.raises(ValidationError, match=match):
            box_dimension_2d(four_corner_main, range(2, 7), 100, 0,
                             weights=weights)

    def test_peak_memory(self, four_corner_main):
        """The steps are counted as they come: the traced peak follows the
        occupied cells at the finest scale (at most 4^8 here), under one
        bound at 10^5 and at 10^6 points."""
        box_dimension_2d(four_corner_main, range(2, 9), 10, seed=1)
        for points in (10**5, 10**6):
            tracemalloc.start()
            try:
                box_dimension_2d(four_corner_main, range(2, 9), points, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2**20, points


class TestEntropySlope:
    def test_lebesgue(self, equal_halves):
        p = ProbVector.uniform(equal_halves)
        fit = entropy_slope(equal_halves, p, 200_000, range(3, 12), seed=1)
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_uniform_cantor_measure(self, cantor_quarter):
        p = ProbVector.uniform(cantor_quarter)
        fit = entropy_slope(cantor_quarter, p, 200_000, range(3, 12), seed=1)
        assert fit.slope == pytest.approx(0.5, abs=0.05)

    def test_overlapping_measure(self, two_group_overlap, uniform21):
        target = measure_dimension(two_group_overlap, uniform21).dimension
        fit = entropy_slope(two_group_overlap, uniform21, 300_000,
                            range(3, 12), seed=2)
        assert abs(fit.slope - target) <= 0.1

    def test_peak_memory(self, two_group_overlap, uniform21):
        """The chaos game's steps are counted as they come: the traced peak
        is some arrays over the chains, the keys waiting to join (at most
        about SAMPLE_CHUNK) and the occupied bins, under one bound at 10^5
        and at 10^6 samples."""
        entropy_slope(two_group_overlap, uniform21, 10, range(3, 12), seed=1)
        for samples in (10**5, 10**6):
            tracemalloc.start()
            try:
                entropy_slope(two_group_overlap, uniform21, samples,
                              range(3, 12), seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2**21, samples


# coordinates: the unit interval, its ends, and values that a rescaling
# rounds just below 0 or just below 1
coordinate = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 1.0, -1e-17, -2.0**-60, 5e-324,
                     float(np.nextafter(1.0, 0.0)), 0.5 - 2.0**-54]))


class TestOccupancy:
    """The streamed cell counter against one clip and np.unique per scale
    over the points held as one array."""

    @settings(max_examples=300, deadline=None)
    @given(dims=st.sampled_from([1, 2]), top=st.integers(0, 31),
           coarser=st.lists(st.integers(0, 31), max_size=6),
           points=st.lists(st.tuples(coordinate, coordinate), min_size=1,
                           max_size=200),
           cuts=st.lists(st.integers(1, 200), max_size=8))
    @example(dims=2, top=31, coarser=[0], points=[(1.0, 1.0)], cuts=[])
    @example(dims=2, top=31, coarser=[0, 30], cuts=[1],
             points=[(-1e-17, 1.0), (1.0, -1e-17), (0.0, 0.0)])
    @example(dims=1, top=0, coarser=[], points=[(-1e-17, 0.0)], cuts=[])
    def test_counts_match_oracle(self, dims, top, coarser, points, cuts):
        ms = sorted({m for m in coarser if m <= top} | {top})
        pts = np.array(points)
        x, y = pts[:, 0], (pts[:, 1] if dims == 2 else None)
        # the points in chunks cut at the drawn offsets
        bounds = sorted({0, len(pts)} | {c for c in cuts if c < len(pts)})
        chunks = [_keys(top, x[a:b], None if y is None else y[a:b])
                  for a, b in zip(bounds, bounds[1:])]
        got = _occupancy(chunks, ms, dims,
                         lambda counts: sorted(counts.tolist()))
        assert got == cell_counts(ms, x, y)

    def test_many_chunks_of_many_cells(self):
        """Enough chunks of enough distinct cells that the kept array grows
        by many joins."""
        rng = np.random.default_rng(0)
        x, y = rng.random(200_000) ** 3, rng.random(200_000)
        chunks = [_keys(20, x[i:i + 4096], y[i:i + 4096])
                  for i in range(0, len(x), 4096)]
        ms = [0, 3, 9, 15, 20]
        got = _occupancy(chunks, ms, 2,
                         lambda counts: sorted(counts.tolist()))
        assert got == cell_counts(ms, x, y)


def refuse_to_draw(seed):
    raise AssertionError("a refused sampler must not draw")


class TestSampleMeasurePoints:
    """The chaos game on the line, as entropy_slope reads it."""

    @pytest.mark.parametrize("sys", [
        CFSystem([0.0, 1.0], [[0.3, 0.2], [0.25]]),
        CFSystem([0.0, 1.0], [[0.9999, 0.3], [0.25]]),
    ], ids=["two_group_overlap", "ratio_near_one"])
    def test_law_matches_long_words(self, sys):
        """At scale 2^-6 the histogram of 5*10^5 chaos-game points lies
        within total variation 0.006 of that of as many words run until
        their ratio is below 2^-36 (tests/oracles.py), whose points f_w(0)
        lie within 2^-36 of their exact points.  The same words stopped at
        2^-8 sit left of their points and read about 0.011 and 0.065."""
        p = ProbVector.uniform(sys)
        n, m = 500_000, 6

        def histogram(xs):
            bins = np.clip((xs * 2**m).astype(int), 0, 2**m - 1)
            return np.bincount(bins, minlength=2**m) / n

        chaos = histogram(line_chaos_points(sys, p, n, m, seed=1))
        words = histogram(measure_samples(sys, p, n, 36, 2, SAMPLE_CHUNK))
        assert 0.5 * np.abs(chaos - words).sum() <= 0.006

    def test_points_inside_hull(self, two_group_overlap, uniform21):
        xs = line_chaos_points(two_group_overlap, uniform21, 5_000, 10,
                               seed=0)
        assert np.all(xs >= 0.0) and np.all(xs <= 1.0)

    def test_deterministic(self, two_group_overlap, uniform21):
        a = line_chaos_points(two_group_overlap, uniform21, 1_000, 8, seed=6)
        b = line_chaos_points(two_group_overlap, uniform21, 1_000, 8, seed=6)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("ratio, burn_in", [
        (0.5, 8 + 42), (0.84, 199), (0.842, None)])
    def test_burn_in_rule(self, monkeypatch, ratio, burn_in):
        """The burn-in is (scale + 42) log 2 / -log m steps, m the expected
        ratio, and past MC_RUN_CAP the sampler refuses before it draws.  At
        a cap of 200 and scale 8 the threshold is m = 2^(-50/200) = 0.8409:
        m = 0.5 burns in for 50 steps and m = 0.84 for 199, each then draws
        once for 10 points, and m = 0.842 would need 202."""
        monkeypatch.setattr(estimate, "MC_RUN_CAP", 200)
        sys = CFSystem([0.0, 1.0], [[ratio], [ratio]])
        p = ProbVector.uniform(sys)
        real, draws = np.random.default_rng, []

        class CountingRng:
            def __init__(self, seed):
                self.rng = real(seed)

            def random(self, *args, **kwargs):
                draws.append(1)
                return self.rng.random(*args, **kwargs)

        if burn_in is None:
            monkeypatch.setattr(np.random, "default_rng", refuse_to_draw)
            with pytest.raises(BudgetExceeded, match="over 200 steps"):
                line_chaos_points(sys, p, 10, 8, seed=0)
        else:
            monkeypatch.setattr(np.random, "default_rng", CountingRng)
            assert len(line_chaos_points(sys, p, 10, 8, seed=0)) == 10
            assert len(draws) == burn_in + 1

    def test_burn_in_capped_before_sampling(self, monkeypatch):
        """With all weight on a ratio of 1 - 2^-53 a chain needs about 10^17
        steps to forget its start, so the burn-in is checked against
        ifs.MC_RUN_CAP before anything is drawn.  The rule reads the
        expected ratio: weights (0.5, 0.25, 0.25) beside that ratio give
        0.75 and answer, and a map of weight 0 does not count."""
        sys = CFSystem([0.0, 1.0], [[1 - 2**-53, 0.5], [0.5]])
        for weights in ([[0.5, 0.25], [0.25]], [[0.0, 0.5], [0.5]]):
            xs = line_chaos_points(sys, ProbVector(weights), 10, 8, seed=0)
            assert np.all((xs >= 0.0) & (xs <= 1.0))
        monkeypatch.setattr(np.random, "default_rng", refuse_to_draw)
        with pytest.raises(BudgetExceeded,
                           match="may need over 1000000 steps"):
            line_chaos_points(sys, ProbVector([[1.0, 0.0], [0.0]]), 10, 8,
                              seed=0)


class TestChaosDraw:
    """The map choice of estimate._chaos_steps: one inverse-CDF draw for
    uniform and weighted games alike."""

    @settings(max_examples=40, deadline=None)
    @given(counts=st.lists(st.integers(0, 5), min_size=1, max_size=8)
           .filter(any),
           points=st.integers(1, 3 * estimate.CHAOS_CHAINS),
           seed=st.integers(0, 2**32))
    @example(counts=[0, 1, 0], points=2 * estimate.CHAOS_CHAINS + 5, seed=0)
    @example(counts=[0, 2, 0, 1, 5] * 80, points=5_000, seed=1)
    def test_draw_is_generator_choice(self, counts, points, seed):
        """Each step's maps are the indices Generator.choice(n, size, p=w)
        draws on a twin generator, zero weights, a cut last step and 400
        maps (nine halving passes) included.  Maps of ratio 0 send every
        chain to its map's index and burn in for the floor of one step."""
        n, total = len(counts), sum(counts)
        w = [c / total for c in counts]
        maps = [((0.0, float(i)),) for i in range(n)]
        got = np.concatenate([x for x, in estimate._chaos_steps(
            maps, w, (0.0,), points, seed, 8)])
        twin = np.random.default_rng(seed)
        chains = min(estimate.CHAOS_CHAINS, points)
        draws = [twin.choice(n, size=chains, p=w)
                 for _ in range(1 + -(-points // chains))]
        assert np.array_equal(got, np.concatenate(draws[1:])[:points])

    def test_uniform_weights_are_the_default(self, four_corner_main):
        """weights=None and explicit uniform weights give the same bytes, so
        a caller may pass its resolved weights either way."""
        def steps(weights):
            return [x.tobytes() for step in estimate._chaos_steps(
                four_corner_main.maps(), weights, (0.5, 0.5), 10_001, 3, 10)
                for x in step]

        assert steps(None) == steps([0.25] * 4)

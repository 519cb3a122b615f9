"""Dimension formulas, the graph-directed approximation, and the spectral
and determinant identities backing it."""

import glob
import json
import math
import os
import subprocess
import sys as _sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfsdim import (BudgetExceeded, CFSystem, ProbVector, ValidationError,
                    attractor_dimension, dimension, gd_dimension, lyapunov,
                    measure_dimension, phi_series, shannon_entropy,
                    similarity_dimension)
from cfsdim.dimension import _gd_radius
from conftest import CONFIG_DIR, config_path, load_config
from identities import (attractor_excess, bisect_root, bn_matrix_check,
                        gd_limit_matrix, gd_quotient_matrix, perron_root,
                        quotient_of, secular_excess, special_det,
                        symmetric_form)
import oracles

S0_ALL_THIRD = math.log(2 / (3 - math.sqrt(5))) / math.log(3)  # ~0.876036
# The root for the doubles of [[0.999] * 399 + [1e-200], [0.5]], by
# 400-digit arithmetic (mpmath.findroot on F(s) - (N - 1))
S0_ROUNDED_GROUP = 519.67352085283427809
# ln 2 / -ln 0.02 for the double 0.02, by 50-digit Decimal arithmetic: the
# root of CFSystem([0, 1], [[0.02], [0.02]]), 8.8e-18 below the double
# 0.17718382013555792 that _root's bracket shrinks to
S0_TWO_002 = "0.17718382013555790908841000973771785081379438333221"
# s0 at the default tol of each cfs descriptor in configs/, as found when
# the excess was the direct sum of the group products minus N - 1
S0_DIRECT_SUM = {
    "all_third.json": 0.8760357589718848,
    "cantor_quarter.json": 0.49999999999990075,
    "equal_halves.json": 1.0,
    "exact_coincidence.json": 1.584962500721152,
    "rational_three_symbol.json": 0.6962498846734093,
    "two_group_overlap.json": 0.6949210051017765,
}


class TestSimilarityDimension:
    def test_halves(self):
        assert similarity_dimension([0.5, 0.5]) == pytest.approx(1.0)

    def test_thirds(self):
        assert similarity_dimension([1 / 3] * 3) == pytest.approx(1.0)

    def test_quarter_cantor(self):
        assert similarity_dimension([0.25, 0.25]) == pytest.approx(0.5)

    def test_invalid_ratio(self):
        with pytest.raises(ValidationError):
            similarity_dimension([1.0, 0.5])


class TestMeasureDimension:
    def test_full_interval(self, equal_halves):
        rep = measure_dimension(equal_halves,
                                ProbVector.uniform(equal_halves))
        assert rep.dimension == pytest.approx(1.0)

    def test_quarter_cantor(self, cantor_quarter):
        rep = measure_dimension(cantor_quarter,
                                ProbVector.uniform(cantor_quarter))
        assert rep.dimension == pytest.approx(0.5)

    def test_assembled_from_parts(self, two_group_overlap, uniform21):
        rep = measure_dimension(two_group_overlap, uniform21, tol=1e-12)
        h = shannon_entropy(uniform21)
        chi = lyapunov(two_group_overlap, uniform21)
        phi = phi_series(two_group_overlap, uniform21, tol=1e-12).value
        assert rep.raw == pytest.approx((h + phi) / chi, abs=1e-10)
        assert h == pytest.approx(math.log(3))

    def test_degenerate_is_zero(self, two_group_overlap):
        p = ProbVector([[0.7, 0.3], [0.0]])
        rep = measure_dimension(two_group_overlap, p)
        assert (rep.dimension, rep.raw) == (0.0, 0.0)
        h = shannon_entropy(p)
        assert rep.diagnostics["phi"] == -h
        assert 0.0 < rep.diagnostics["phi_tail_bound"] <= 4 * math.ulp(h)

    def test_near_point_mass_is_zero(self, two_group_overlap):
        """All but 1e-16 of the mass in one group: the point-mass rule
        answers, with its bound B(1e-16) = 7.5e-15."""
        p = ProbVector([[0.5, 0.4999999999999999], [1e-16]])
        rep = measure_dimension(two_group_overlap, p)
        assert rep.dimension == 0.0
        assert rep.diagnostics["phi"] == -rep.diagnostics["entropy"]
        assert 0.0 < rep.diagnostics["phi_tail_bound"] <= 1e-14


class TestAttractorDimension:
    def test_two_halves(self, equal_halves):
        rep = attractor_dimension(equal_halves)
        assert rep.raw == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_closed_form(self, all_third):
        rep = attractor_dimension(all_third)
        assert rep.raw == pytest.approx(S0_ALL_THIRD, abs=1e-10)

    def test_root_satisfies_expanded_identity(self, two_group_overlap):
        s = attractor_dimension(two_group_overlap).raw
        l11, l12 = two_group_overlap.ratios[0]
        l21 = two_group_overlap.ratios[1][0]
        residual = l11**s + l12**s - l11**s * l12**s + l21**s - 1.0
        assert abs(residual) <= 1e-9

    def test_at_most_similarity_dimension(self, two_group_overlap):
        s0 = attractor_dimension(two_group_overlap).raw
        sim = similarity_dimension(
            [r for row in two_group_overlap.ratios for r in row])
        assert s0 <= sim + 1e-12

    def test_root_past_rounded_group_products(self):
        """1 - 0.5^s rounds to 1 from s = 54 on, where the direct sum of
        the group products read an excess of exactly 0 and returned 64.0;
        the root is near 519.67 and its bracket must hold it."""
        sys = CFSystem([0, 1], [[0.999] * 399 + [1e-200], [0.5]])
        rep = attractor_dimension(sys)
        assert rep.raw == pytest.approx(S0_ROUNDED_GROUP, rel=1e-9)
        lo, hi = rep.diagnostics["bracket"]
        assert lo <= S0_ROUNDED_GROUP <= hi

    def test_bracket_holds_the_root_below_its_sign_change(self):
        """The rounded excess changes sign at 0.17718382013555792 on both
        sides, an ulp above the root; the ends moved out past the rounding
        bound hold it, and the root is unchanged."""
        rep = attractor_dimension(CFSystem([0, 1], [[0.02], [0.02]]))
        assert rep.raw == 0.17718382013555792
        lo, hi = map(Decimal, rep.diagnostics["bracket"])
        assert lo < Decimal(S0_TWO_002) < hi
        assert hi - lo < Decimal(1e-15)

    def test_config_roots_match_direct_sum(self):
        """On every cfs descriptor in configs/ the evaluation of the
        excess moves s0 by at most 1e-12."""
        assert sorted(S0_DIRECT_SUM) == _cfs_configs()
        for name, s0 in S0_DIRECT_SUM.items():
            raw = attractor_dimension(load_config(name)[0]).raw
            assert abs(raw - s0) <= 1e-12, name


def _sums(sys, s, depth) -> list:
    """The column sums c that gd_dimension's g(s) builds at depth n."""
    return [dimension._complete_homogeneous_sums(
        [float(lam)**s for lam in row], depth) for row in sys.ratios]


class TestGDMatrix:
    """The column sums c of C_n^(s) = 1 c^T - diag(c) and the radius that
    _gd_radius reads from them."""

    def test_depth_one_entries(self, two_group_overlap):
        """c = (0.3 + 0.2, 0.25) at depth 1 and s = 1, and the radius of
        the 2 x 2 quotient is sqrt(c_1 c_2)."""
        c = _sums(two_group_overlap, 1.0, 1)
        assert c == pytest.approx([0.5, 0.25])
        assert _gd_radius(c) == pytest.approx(math.sqrt(0.5 * 0.25))

    def test_zero_exponent_counts_multisets(self, two_group_overlap):
        """At s = 0 each c_k counts the group's multisets of length <= n."""
        c = _sums(two_group_overlap, 0.0, 2)
        assert c == [2 + 3, 1 + 1]
        assert _gd_radius(c) == pytest.approx(math.sqrt(10.0))

    def test_singleton_geometric(self):
        sys = CFSystem([0.0, 1.0], [[0.5], [0.5]])
        c = _sums(sys, 1.0, 3)
        assert c == [0.5 + 0.25 + 0.125] * 2
        assert _gd_radius(c) == pytest.approx(0.875)

    def test_singleton_infinite_depth(self):
        sys = CFSystem([0.0, 1.0], [[0.5], [0.5]])
        assert gd_limit_matrix(sys, 1.0)[0, 1] == pytest.approx(1.0)
        assert _sums(sys, 1.0, 60) == pytest.approx([1.0, 1.0])
        assert _gd_radius(_sums(sys, 1.0, 60)) == pytest.approx(1.0)

    def test_finite_entries_increase_to_limit(self, two_group_overlap):
        """The sums, and so the radius, increase with depth to those of the
        limit matrix, whose column k holds c_k off the diagonal."""
        limit = gd_limit_matrix(two_group_overlap, 0.9).max(axis=0)
        prev = _sums(two_group_overlap, 0.9, 1)
        for depth in (2, 4, 8):
            cur = _sums(two_group_overlap, 0.9, depth)
            assert all(a <= b + 1e-15 for a, b in zip(prev, cur))
            assert all(b <= l + 1e-12 for b, l in zip(cur, limit))
            assert _gd_radius(prev) <= _gd_radius(cur)
            prev = cur
        assert _gd_radius(prev) <= perron_root(gd_limit_matrix(
            two_group_overlap, 0.9)) + 1e-12


class TestSymmetricForm:
    """_gd_radius against the quotient 1 c^T - diag(c) that
    tests/identities.py builds by enumerating multisets."""

    @settings(max_examples=100, deadline=None)
    @given(ratios=st.lists(st.lists(st.one_of(
               st.floats(0.01, 0.999),
               st.floats(math.log(5e-324), math.log(0.999)).map(math.exp)
               .filter(lambda r: r > 0.0)), min_size=1, max_size=4),
               min_size=2, max_size=6),
           s=st.floats(0.0, 2.0), depth=st.integers(1, 20))
    def test_similar_to_the_quotient(self, ratios, s, depth):
        """The radius on the library's sums is within 1e-9 of max |eigvals|
        of the enumerated quotient, and s_1..s_n rise (within tol, the
        roots' accuracy) to at most the upper end of s0's bracket."""
        sys = CFSystem(list(range(len(ratios))), ratios)
        want = perron_root(gd_quotient_matrix(sys, s, depth))
        assert abs(_gd_radius(_sums(sys, s, depth)) - want) <= 1e-9 * want
        tol = 1e-10
        hi = attractor_dimension(sys, tol).diagnostics["bracket"][1]
        seq = [gd_dimension(sys, n, tol) for n in range(1, depth + 1)]
        assert all(a <= b + tol for a, b in zip(seq, seq[1:]))
        assert seq[-1] <= hi


class TestSpectralRadius:
    def test_antidiagonal(self):
        """c = (4, 9): the quotient [[0, 9], [4, 0]] has radius 6."""
        assert _gd_radius([4.0, 9.0]) == pytest.approx(6.0, rel=1e-10)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = rng.uniform(0.01, 1.0, size=5).tolist()
            assert _gd_radius(c) == pytest.approx(
                perron_root(quotient_of(c)), rel=1e-9)

    def test_extreme_scale_spread(self):
        """Sums spanning about 10^+-9: four members near 1 at depth 400
        give c_1 about C(404, 4) - 1 = 1.1e9, beside c_2 near 1 and c_3
        near 1e-9."""
        sys = CFSystem([0.0, 1.0, 2.0],
                       [[1 - 1e-15] * 4, [0.5], [1e-9]])
        c = _sums(sys, 1.0, 400)
        assert c[0] / c[2] == pytest.approx(1.1e18, rel=0.1)
        assert _gd_radius(c) == pytest.approx(perron_root(quotient_of(c)),
                                              rel=1e-9)

    def test_subnormal_entry(self):
        """Fixed points 0, 1 and ratios [[0.7], [5e-324]] at s = 1: the
        symmetric entry is sqrt(0.7) sqrt(2^-1074), with no quotient left
        to overflow, and the root is sqrt(0.7) 2^-537 (abs=0: approx's
        default absolute tolerance 1e-12 would accept any root this small)."""
        sys = CFSystem([0.0, 1.0], [[0.7], [5e-324]])
        assert _gd_radius(_sums(sys, 1.0, 1)) == pytest.approx(
            math.sqrt(0.7) * 2**-537, rel=1e-9, abs=0.0)

    def test_zero_and_overflowed_sums(self):
        """All sums 0 give radius 0; a sum that overflowed, to inf or to
        NaN by 0 * inf, gives inf, and so do finite sums whose largest row
        sum sigma overflows (rho >= sigma / sqrt(N - 1)): three sums of
        1e308 have sigma = 2e308."""
        assert _gd_radius([0.0, 0.0, 0.0]) == 0.0
        assert _gd_radius([math.inf, 1.0]) == math.inf
        assert _gd_radius([1.0, math.nan]) == math.inf
        assert _gd_radius([1e308] * 3) == math.inf
        assert _gd_radius([1e308] * 2) == 1e308

    def test_cap_raises_nonconvergence(self, monkeypatch):
        """The step cap still ends the iteration, with BudgetExceeded."""
        monkeypatch.setattr(dimension, "POWER_ITER_CAP", 1)
        with pytest.raises(BudgetExceeded, match="1 steps"):
            _gd_radius([1e-9, 1.0, 1e9])

    @settings(max_examples=200, deadline=None)
    @given(c=st.lists(st.one_of(st.just(0.0),
                                st.builds(lambda m, e: m * 10.0**e,
                                          st.floats(1.0, 10.0),
                                          st.integers(-300, 300))),
                      min_size=2, max_size=64))
    def test_against_numpy_power_iteration(self, c):
        """The evaluator with one O(N) product a step against the numpy
        power iteration with two dense ones (tests/oracles.py) and a dense
        eigensolver, on sums each with its own exponent over 10^+-300, so
        that a product formed as a total minus its dominant term cancels.

        Both iterations stop at a nonnegative x of 1-norm 1 with
        ||A x - lam x||_1 <= eps lam for A = S/sigma + I, S the symmetric
        form and sigma its largest row sum; eps = 1e-14 + 2 N u covers the
        rounding of the computed residual (u = 2^-53).  A is symmetric,
        so some eigenvalue mu of A lies within ||A x - lam x||_2 / ||x||_2
        <= sqrt(N) eps lam of lam (||x||_2 >= ||x||_1 / sqrt(N)); from the
        positive start it is the Perron one, 1 + rho/sigma.  As lam <= 2
        (sigma bounds every row sum) and sigma <= sqrt(N - 1) rho (rho is
        the 2-norm of S, at least a column's 1-norm over sqrt(N - 1)), the
        root (lam - 1) sigma lies within 2 sqrt(N) sqrt(N - 1) eps rho <
        2 N eps rho of rho.  So the two evaluators lie within 4 N eps rho of
        each other, and each within 4 N eps rho of the dense Perron root,
        whose backward-stable solve adds O(N u) rho.  The dense solve runs
        on S over its largest entry (rho is at least that entry), so no
        norm of S overflows."""
        n = len(c)
        eps = 1e-14 + 2 * n * 2.0**-53
        S = symmetric_form(c)
        top = float(S.max())
        dense = perron_root(S / top) * top if top > 0.0 else 0.0
        got = _gd_radius(c)
        for want in (oracles.spectral_radius(S, 1e-14), dense):
            assert abs(got - want) <= 4 * n * eps * want


def _cfs_configs() -> list:
    """The names of the cfs descriptors in configs/."""
    names = []
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        with open(path) as fh:
            if json.load(fh)["type"] == "cfs":
                names.append(os.path.basename(path))
    return names


class TestSecularEquation:
    """The identity that can replace the power iteration: rho(C) - 1 and
    the secular excess sum_k c_k / (1 + c_k) - 1 share their sign."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(c=st.lists(st.one_of(st.just(0.0),
                                st.floats(-300.0, 300.0).map(
                                    lambda e: 10.0**e)),
                      min_size=2, max_size=64))
    def test_sign_of_the_radius(self, c):
        """Sums log-uniform over 10^+-300, zeros included: _gd_radius - 1
        and the secular excess have the same sign wherever both lie
        outside their rounding bands.  The radius is within 2 N eps rho of
        rho, eps = 1e-14 + 2 N u, the residual stop and its rounding
        (TestSpectralRadius); the excess is within (N + 2) u (1 + |e|) of
        the exact one, N - 1 sums, two roundings a quotient and the final
        subtraction."""
        n, u = len(c), 2.0**-53
        rho, excess = _gd_radius(c), secular_excess(c)
        if (abs(rho - 1.0) > 2 * n * (1e-14 + 2 * n * u) * rho
                and abs(excess) > (n + 2) * u * (1.0 + abs(excess))):
            assert (rho > 1.0) == (excess > 0.0)

    @pytest.mark.parametrize("name", _cfs_configs())
    def test_roots_match_gd_dimension(self, name):
        """On each cfs config at depths 1-20, _root over the secular excess
        of the same column sums, on the same bracket, finds gd_dimension's
        s_n within tol."""
        sys, _ = load_config(name)
        tol = 1e-10
        hi = attractor_dimension(sys, tol).diagnostics["bracket"][1]
        for depth in range(1, 21):
            root = dimension._root(
                lambda s: secular_excess(_sums(sys, s, depth)), 0.0, hi,
                tol)[0]
            assert abs(root - gd_dimension(sys, depth, tol)) <= tol


class TestGDDimension:
    @pytest.mark.parametrize("name", _cfs_configs())
    def test_roots_of_the_numpy_power_iteration(self, name):
        """Every s_n of depths 1-10 on each cfs config equals the root that
        _root finds on the same bracket with the numpy power iteration it
        replaced (tests/oracles.py) as the evaluator."""
        sys, _ = load_config(name)
        tol = 1e-10
        hi = attractor_dimension(sys, tol).diagnostics["bracket"][1]
        for depth in range(1, 11):
            def g(s):
                return oracles.spectral_radius(
                    symmetric_form(_sums(sys, s, depth)), tol=1e-14) - 1.0
            assert gd_dimension(sys, depth, tol) == \
                dimension._root(g, 0.0, hi, tol)[0]

    def test_overflowing_sums_answer(self):
        """400 members of ratio 0.001 at depth 1000 (401 000 cells, under
        GD_CELL_CAP): at s = 0 the group's sum overflows to inf, which
        reads as rho > 1, so the root comes, at or below s0's bracket
        end."""
        sys = CFSystem([0, 1], [[0.001] * 400, [0.5]])
        s = gd_dimension(sys, 1000)
        assert s == gd_dimension(sys, 100)
        assert s <= attractor_dimension(sys, 1e-10).diagnostics["bracket"][1]

    def test_infinite_depth_full_interval(self, equal_halves):
        assert gd_dimension(equal_halves, None) == pytest.approx(1.0, abs=1e-9)

    def test_root_at_zero_is_zero(self, equal_halves):
        """At depth 1 the matrix is [[0, 1], [1, 0]] for every s, so the
        root is exactly 0: no positive floor stands in for it."""
        assert gd_dimension(equal_halves, 1) == 0.0

    def test_monotone_in_depth(self, two_group_overlap):
        seq = [gd_dimension(two_group_overlap, d) for d in range(1, 11)]
        assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))

    def test_converges_to_attractor_root(self, all_third):
        s0 = attractor_dimension(all_third).raw
        s10 = gd_dimension(all_third, 10)
        assert s10 <= s0 + 1e-12
        assert abs(s10 - s0) <= 1e-3

    def test_infinite_depth_equals_root(self, two_group_overlap):
        """The limit matrix has spectral radius 1 at the attractor root, so
        the infinite-depth equation is the attractor equation."""
        s_inf = gd_dimension(two_group_overlap, None)
        s0 = attractor_dimension(two_group_overlap, 1e-10).raw
        assert s_inf == s0
        assert perron_root(gd_limit_matrix(two_group_overlap, s0)) == \
            pytest.approx(1.0, abs=1e-9)

    def test_ends_at_any_positive_tolerance(self):
        """The root finder stops once the midpoint rounds to an end, so a
        tol below the float spacing still ends (in a subprocess, to time
        it)."""
        code = ("from cfsdim import CFSystem, gd_dimension\n"
                "sys = CFSystem([0.0, 1.0], [[0.3, 0.2], [0.25]])\n"
                "print(repr(gd_dimension(sys, 2, tol=1e-300)))")
        out = subprocess.run([_sys.executable, "-c", code], timeout=60,
                             capture_output=True, text=True, check=True)
        fine = float(out.stdout)
        two_group = CFSystem([0.0, 1.0], [[0.3, 0.2], [0.25]])
        assert abs(fine - gd_dimension(two_group, 2, tol=1e-10)) <= 1e-10

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_tolerance_rule(self, two_group_overlap, uniform21, tol):
        for call in (lambda: gd_dimension(two_group_overlap, 2, tol=tol),
                     lambda: gd_dimension(two_group_overlap, None, tol=tol),
                     lambda: attractor_dimension(two_group_overlap, tol=tol),
                     lambda: similarity_dimension([0.5, 0.25], tol=tol),
                     lambda: measure_dimension(two_group_overlap, uniform21,
                                               tol=tol),
                     lambda: measure_dimension(
                         two_group_overlap, ProbVector([[0.7, 0.3], [0.0]]),
                         tol=tol)):
            with pytest.raises(ValidationError, match="tolerance"):
                call()

    def test_each_point_evaluated_once(self, two_group_overlap, monkeypatch):
        """The bracket starts at g(0), and no point is evaluated twice: the
        sums strictly fall in s, so distinct points give distinct sums."""
        seen = _count_gd_radius(monkeypatch)
        gd_dimension(two_group_overlap, 5)
        assert seen[0] == tuple(_sums(two_group_overlap, 0.0, 5))
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("name", ["two_group_overlap.json",
                                      "all_third.json",
                                      "rational_three_symbol.json"])
    def test_evaluations_per_root(self, name, monkeypatch):
        """Brent's method on [0, hi], hi the upper end of the attractor
        root's bracket, takes at most 9 evaluations of rho(C_n^(s)) per root
        at the default tol (11 from [0, 1]; halving took 36 or 37)."""
        sys = load_config(name)[0]
        seen = _count_gd_radius(monkeypatch)
        for depth in range(1, 11):
            seen.clear()
            gd_dimension(sys, depth)
            assert len(seen) <= 9, (depth, len(seen))

    def test_depth_budget(self, two_group_overlap, monkeypatch):
        """One cells rule, d M summed over the requested depths (M = 3
        maps here: d M for gd_dimension, D(D+1)/2 M for gd_sequence), is
        checked against GD_CELL_CAP before any evaluation, of rho or of the
        attractor root that brackets s_n.  The root is stubbed to raise, so
        a depth inside the cap stops at it."""
        class Reached(Exception):
            pass

        def root(*args):
            raise Reached

        seen = _count_gd_radius(monkeypatch)
        monkeypatch.setattr(dimension, "attractor_dimension", root)
        cap_depth = dimension.GD_CELL_CAP // 3
        # D = 2581 fills 9 996 213 cells, D = 2582 10 003 959
        for call, last_inside in ((gd_dimension, cap_depth),
                                  (dimension.gd_sequence, 2581)):
            with pytest.raises(Reached):
                call(two_group_overlap, last_inside)
            for depth in (last_inside + 1, 10**18):
                with pytest.raises(BudgetExceeded,
                                   match="homogeneous-sum cells"):
                    call(two_group_overlap, depth)
        assert seen == []

    @pytest.mark.parametrize("depth", [0, -3])
    def test_sequence_depth_rule(self, two_group_overlap, depth):
        with pytest.raises(ValidationError,
                           match=f"depth must be >= 1 or None, got {depth}"):
            dimension.gd_sequence(two_group_overlap, depth)

    @pytest.mark.parametrize("name", _cfs_configs())
    def test_sequence_is_each_depth(self, name):
        """gd_sequence's s_1..s_12 are gd_dimension's, bit for bit: each
        comes from the same _root call on the same bracket."""
        sys = load_config(name)[0]
        assert dimension.gd_sequence(sys, 12) == \
            [gd_dimension(sys, d) for d in range(1, 13)]


def _count_gd_radius(monkeypatch) -> list:
    """The list of column sums, as tuples, on which dimension._gd_radius is
    called from now on."""
    seen = []
    real = dimension._gd_radius

    def counted(c):
        seen.append(tuple(c))
        return real(c)

    monkeypatch.setattr(dimension, "_gd_radius", counted)
    return seen


def _check_root(fn, root, bracket, tol, oracle, noise, width=None):
    """root lies in a bracket on which fn changes sign, at most ``width``
    (tol/2 by default) wide or of adjacent doubles, and within tol plus 4
    ulps of the oracle's root once ``noise`` is added: the width about the
    root where the rounding of fn can set its sign, inside which the two
    may find different changes."""
    lo, hi = bracket
    assert lo <= root <= hi
    assert hi - lo <= (tol / 2 if width is None else width) \
        or math.nextafter(lo, math.inf) >= hi
    flo, fhi = fn(lo), fn(hi)
    assert flo == 0.0 or fhi == 0.0 or (flo > 0.0) != (fhi > 0.0)
    assert abs(root - oracle) <= tol + 4 * math.ulp(max(root, oracle)) + noise


def _gd_case(sys, depth, tol):
    """(g, hi, oracle, noise) for s_n: g(s) = rho(C_n^(s)) - 1 as the
    library computes it, the upper end of the attractor root's bracket, the
    root by halving from [0, 1], and the width _check_root adds for the
    rounding of rho, taken as within 1e-13, ten times the power iteration's
    relative stopping residual, over g' by a central difference."""
    def g(s):
        return _gd_radius(_sums(sys, s, depth)) - 1.0

    hi = attractor_dimension(sys, tol).diagnostics["bracket"][1]
    oracle = bisect_root(g, 0.0, 1.0, tol)
    slope = abs(g(oracle + 1e-5) - g(max(oracle - 1e-5, 0.0))) \
        / (oracle + 1e-5 - max(oracle - 1e-5, 0.0))
    return g, hi, oracle, 2e-13 / slope


ratio_rows = st.lists(st.lists(st.floats(0.001, 0.99), min_size=1,
                               max_size=3), min_size=2, max_size=4)


class TestRootFinder:
    """Brent's method against the halving it replaced (identities.py)."""

    @settings(max_examples=200, deadline=None)
    @given(ratios=ratio_rows, exponent=st.floats(-13.0, -1.0))
    def test_attractor_root_against_halving(self, ratios, exponent):
        """The bracket is _root's, at most tol/2 wide, with each end moved
        out until the excess passes its rounding bound ``error`` with the
        end's sign.  An end needs to move at most 2 noise past the root to
        get there, the width where the rounding can set the sign, and the
        doubling steps overshoot by at most 2: each end moves by at most
        4 noise and an ulp or two."""
        sys = CFSystem(list(range(len(ratios))), ratios)
        tol = 10.0**exponent
        rep = attractor_dimension(sys, tol)
        F, dF, error = attractor_excess(sys)
        oracle = bisect_root(F, 0.0, 1.0, tol)
        noise = 2.0 * error / dF(oracle)
        lo, hi = rep.diagnostics["bracket"]
        assert lo == 0.0 or F(lo) < -error
        assert F(hi) > error
        _check_root(F, rep.raw, (lo, hi), tol, oracle, noise,
                    tol / 2 + 8 * noise + 4 * math.ulp(hi))

    @settings(max_examples=25, deadline=None)
    @given(ratios=ratio_rows, depth=st.integers(1, 3),
           exponent=st.floats(-12.0, -4.0))
    def test_gd_root_against_halving(self, ratios, depth, exponent):
        sys = CFSystem(list(range(len(ratios))), ratios)
        tol = 10.0**exponent
        g, hi, oracle, noise = _gd_case(sys, depth, tol)
        root, bracket, _ = dimension._root(g, 0.0, hi, tol)
        assert gd_dimension(sys, depth, tol) == root
        _check_root(g, root, bracket, tol, oracle, noise)

    @settings(max_examples=25, deadline=None)
    @given(ratios=ratio_rows, depth=st.integers(1, 4),
           exponent=st.floats(-12.0, -4.0))
    def test_gd_root_below_attractor_bracket(self, ratios, depth, exponent):
        """s_n <= s0: each s_n lies at or below the upper end of the
        attractor root's bracket, and within _check_root's bound of the
        halving from [0, 1]."""
        sys = CFSystem(list(range(len(ratios))), ratios)
        tol = 10.0**exponent
        g, hi, oracle, noise = _gd_case(sys, depth, tol)
        root = gd_dimension(sys, depth, tol)
        assert root <= hi
        assert abs(root - oracle) <= \
            tol + 4 * math.ulp(max(root, oracle)) + noise

    def test_root_at_lower_end_is_exact(self):
        assert dimension._root(lambda s: s, 0.0, 1.0, 1e-10) == \
            (0.0, (0.0, 0.0), 1)

    def test_signs_compared_not_multiplied(self):
        """fn(0) * fn(1) = 6e-400 underflows to 0.0, which a product test
        would take for a sign change on [0, 1]; the root is at 3."""
        root, (lo, hi), _ = dimension._root(
            lambda s: 1e-200 * (3.0 - s), 0.0, 1.0, 1e-12)
        assert abs(root - 3.0) <= 1e-12 and lo <= 3.0 <= hi

    def test_doubling_until_sign_change(self):
        """hi doubles, and lo follows the last hi, until the sign changes;
        no sign change up to inf is a validation error."""
        root, (lo, hi), _ = dimension._root(lambda s: 100.5 - s, 0.0, 1.0,
                                            1e-12)
        assert abs(root - 100.5) <= 1e-12 and 64.0 <= lo <= hi <= 128.0
        with pytest.raises(ValidationError, match="no sign change"):
            dimension._root(lambda s: 1.0, 0.0, 1.0, 1e-12)


class TestSpecialDet:
    @staticmethod
    def _matrix(xs):
        n = len(xs)
        A = np.full((n, n), 0.0)
        for j, x in enumerate(xs):
            A[:, j] = x - 1.0
        np.fill_diagonal(A, -1.0)
        return A

    def test_base_case(self):
        assert special_det([2.0, 3.0]) == pytest.approx(2 + 3 - 6)

    def test_base_case_direct(self):
        assert np.linalg.det(self._matrix([2.0, 3.0])) == pytest.approx(-1.0)

    def test_against_elimination(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            xs = rng.uniform(-2.0, 2.0, size=n)
            oracle = np.linalg.det(self._matrix(xs))
            scale = max(1.0, abs(oracle))
            assert abs(special_det(xs) - oracle) <= 1e-9 * scale

    def test_too_short(self):
        with pytest.raises(ValidationError):
            special_det([1.0])


class TestBnMatrix:
    def test_radii_agree_two_groups(self, two_group_overlap):
        rho_b, rho_c = bn_matrix_check(two_group_overlap, 0.8, 3)
        assert abs(rho_b - rho_c) <= 1e-9

    def test_radii_agree_three_groups(self):
        sys = CFSystem([0.0, 1.0, 2.0], [[0.3, 0.2], [0.25], [0.2, 0.1]])
        rho_b, rho_c = bn_matrix_check(sys, 0.7, 3)
        assert abs(rho_b - rho_c) <= 1e-9

    def test_depth_one(self, equal_halves):
        rho_b, rho_c = bn_matrix_check(equal_halves, 1.0, 1)
        assert rho_b == pytest.approx(rho_c, abs=1e-10)
        assert rho_c == pytest.approx(0.5)

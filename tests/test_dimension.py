"""Dimension formulas, the graph-directed approximation, and the spectral
and determinant identities backing it."""

import math
import subprocess
import sys as _sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfsdim import (BudgetExceeded, CFSystem, ProbVector, ValidationError,
                    attractor_dimension, dimension, gd_dimension, gd_matrix,
                    load_system, lyapunov, measure_dimension, phi_series,
                    shannon_entropy, similarity_dimension, spectral_radius)
from conftest import config_path
from identities import (bisect_root, bn_matrix_check, gd_limit_matrix,
                        perron_root, special_det)

S0_ALL_THIRD = math.log(2 / (3 - math.sqrt(5))) / math.log(3)  # ~0.876036


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


class TestGDMatrix:
    def test_depth_one_entries(self, two_group_overlap):
        M = gd_matrix(two_group_overlap, 1.0, 1)
        assert M[1, 0] == pytest.approx(0.3 + 0.2)
        assert M[0, 1] == pytest.approx(0.25)
        assert M[0, 0] == 0.0

    def test_zero_exponent_counts_multisets(self, two_group_overlap):
        """At s = 0 each entry counts the group's multisets of length <= n;
        a negative s is refused."""
        M = gd_matrix(two_group_overlap, 0.0, 2)
        assert (M[1, 0], M[0, 1]) == (2 + 3, 1 + 1)
        with pytest.raises(ValidationError):
            gd_matrix(two_group_overlap, -1e-300, 2)

    def test_singleton_geometric(self):
        sys = CFSystem([0.0, 1.0], [[0.5], [0.5]])
        M = gd_matrix(sys, 1.0, 3)
        assert M[0, 1] == pytest.approx(0.5 + 0.25 + 0.125)

    def test_singleton_infinite_depth(self):
        sys = CFSystem([0.0, 1.0], [[0.5], [0.5]])
        assert gd_limit_matrix(sys, 1.0)[0, 1] == pytest.approx(1.0)
        assert gd_matrix(sys, 1.0, 60)[0, 1] == pytest.approx(1.0)

    def test_finite_entries_increase_to_limit(self, two_group_overlap):
        limit = gd_limit_matrix(two_group_overlap, 0.9)
        prev = gd_matrix(two_group_overlap, 0.9, 1)
        for depth in (2, 4, 8):
            cur = gd_matrix(two_group_overlap, 0.9, depth)
            assert np.all(cur + 1e-15 >= prev)
            assert np.all(cur <= limit + 1e-12)
            prev = cur


class TestSpectralRadius:
    def test_antidiagonal(self):
        assert spectral_radius(np.array([[0.0, 4.0], [9.0, 0.0]])) == \
            pytest.approx(6.0, rel=1e-10)

    def test_shift_property(self):
        rng = np.random.default_rng(3)
        M = rng.uniform(0.1, 1.0, size=(4, 4))
        assert spectral_radius(M + np.eye(4)) == \
            pytest.approx(spectral_radius(M) + 1.0, rel=1e-9)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            M = rng.uniform(0.01, 1.0, size=(5, 5))
            oracle = max(abs(np.linalg.eigvals(M)))
            assert spectral_radius(M) == pytest.approx(oracle, rel=1e-9)

    def test_extreme_scale_spread(self):
        # entries spanning many orders of magnitude must still converge
        M = np.array([[0.0, 1e-9], [1e9, 0.0]])
        assert spectral_radius(M) == pytest.approx(1.0, rel=1e-9)


class TestGDDimension:
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
        """The bracket starts at g(0), and no point is evaluated twice."""
        seen = _count_gd_matrix(monkeypatch)
        gd_dimension(two_group_overlap, 5)
        assert seen[0] == 0.0
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("name", ["two_group_overlap.json",
                                      "all_third.json",
                                      "rational_three_symbol.json"])
    def test_evaluations_per_root(self, name, monkeypatch):
        """Brent's method takes at most 16 evaluations of rho(C_n^(s)) per
        root at the default tol, where halving took 36 or 37."""
        sys = load_system(config_path(name))[0]
        seen = _count_gd_matrix(monkeypatch)
        for depth in range(1, 11):
            seen.clear()
            gd_dimension(sys, depth)
            assert len(seen) <= 16, (depth, len(seen))

    def test_depth_budget(self, two_group_overlap, monkeypatch):
        """A depth past GD_CELL_CAP homogeneous-sum cells per evaluation (the
        depth times the number of maps; for the sequence s_1..s_D,
        D(D+1)/2 times it) is refused before any evaluation."""
        seen = _count_gd_matrix(monkeypatch)
        cap_depth = dimension.GD_CELL_CAP // 3
        assert dimension.gd_cells(two_group_overlap, cap_depth) == 3 * cap_depth
        with pytest.raises(BudgetExceeded, match="cap"):
            gd_dimension(two_group_overlap, cap_depth + 1)
        assert dimension.gd_cells(two_group_overlap, 1000, sequence=True) \
            == 3 * 1000 * 1001 // 2
        with pytest.raises(BudgetExceeded, match="cap"):
            dimension.gd_cells(two_group_overlap, 100_000, sequence=True)
        assert seen == []


def _count_gd_matrix(monkeypatch) -> list:
    """The list of exponents s at which dimension.gd_matrix is called from
    now on."""
    seen = []
    real = dimension.gd_matrix

    def counted(sys, s, depth):
        seen.append(s)
        return real(sys, s, depth)

    monkeypatch.setattr(dimension, "gd_matrix", counted)
    return seen


def _attractor_excess(sys):
    """F(s) - (N - 1) as the library computes it, its derivative, and a
    bound on its rounding: each 1 - lam^s is within 3u, so a group's product
    P of m factors, each at least P, within 4 m u; the sum of the N terms
    below N and the last subtraction add N^2 u + u."""
    def F(s):
        return sum(math.prod(1.0 - float(lam)**s for lam in row)
                   for row in sys.ratios) - (sys.n_groups - 1)

    def dF(s):
        return sum(-float(lam)**s * math.log(float(lam))
                   * math.prod(1.0 - float(mu)**s
                               for k, mu in enumerate(row) if k != j)
                   for row in sys.ratios for j, lam in enumerate(row))

    error = (4 * sys.n_maps + sys.n_groups**2 + 1) * 2.0**-53
    return F, dF, error


def _check_root(fn, root, bracket, tol, oracle, noise):
    """root lies in a bracket on which fn changes sign, at most tol/2 wide
    or of adjacent doubles, and within tol plus 4 ulps of the oracle's root
    once ``noise`` is added: the width about the root where the rounding of
    fn can set its sign, inside which the two may find different changes."""
    lo, hi = bracket
    assert lo <= root <= hi
    assert hi - lo <= tol / 2 or math.nextafter(lo, math.inf) >= hi
    flo, fhi = fn(lo), fn(hi)
    assert flo == 0.0 or fhi == 0.0 or (flo > 0.0) != (fhi > 0.0)
    assert abs(root - oracle) <= tol + 4 * math.ulp(max(root, oracle)) + noise


ratio_rows = st.lists(st.lists(st.floats(0.001, 0.99), min_size=1,
                               max_size=3), min_size=2, max_size=4)


class TestRootFinder:
    """Brent's method against the halving it replaced (identities.py)."""

    @settings(max_examples=200, deadline=None)
    @given(ratios=ratio_rows, exponent=st.floats(-13.0, -1.0))
    def test_attractor_root_against_halving(self, ratios, exponent):
        sys = CFSystem(list(range(len(ratios))), ratios)
        tol = 10.0**exponent
        rep = attractor_dimension(sys, tol)
        F, dF, error = _attractor_excess(sys)
        oracle = bisect_root(F, 0.0, 1.0, tol)
        _check_root(F, rep.raw, rep.diagnostics["bracket"], tol, oracle,
                    2.0 * error / dF(oracle))

    @settings(max_examples=25, deadline=None)
    @given(ratios=ratio_rows, depth=st.integers(1, 3),
           exponent=st.floats(-12.0, -4.0))
    def test_gd_root_against_halving(self, ratios, depth, exponent):
        sys = CFSystem(list(range(len(ratios))), ratios)
        tol = 10.0**exponent

        def g(s):
            return spectral_radius(gd_matrix(sys, s, depth), tol=1e-14) - 1.0

        root, bracket, _ = dimension._root(g, 0.0, 1.0, tol)
        assert gd_dimension(sys, depth, tol) == root
        oracle = bisect_root(g, 0.0, 1.0, tol)
        # rho is taken as within 1e-13, ten times the power iteration's
        # relative stopping residual; g' by a central difference
        slope = abs(g(oracle + 1e-5) - g(max(oracle - 1e-5, 0.0))) \
            / (oracle + 1e-5 - max(oracle - 1e-5, 0.0))
        _check_root(g, root, bracket, tol, oracle, 2e-13 / slope)

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

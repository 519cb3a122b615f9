"""Dimension formulas, the graph-directed approximation, and the spectral
and determinant identities backing it."""

import math

import numpy as np
import pytest

from cfsdim import (CFSystem, ProbVector, attractor_dimension, bn_matrix_check,
                    dimension, gd_dimension, gd_matrix, lyapunov,
                    measure_dimension, phi_series, shannon_entropy,
                    similarity_dimension, special_det, spectral_radius)

S0_ALL_THIRD = math.log(2 / (3 - math.sqrt(5))) / math.log(3)  # ~0.876036


class TestSimilarityDimension:
    def test_halves(self):
        assert similarity_dimension([0.5, 0.5]) == pytest.approx(1.0)

    def test_thirds(self):
        assert similarity_dimension([1 / 3] * 3) == pytest.approx(1.0)

    def test_quarter_cantor(self):
        assert similarity_dimension([0.25, 0.25]) == pytest.approx(0.5)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
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
        rep = measure_dimension(two_group_overlap,
                                ProbVector([[0.7, 0.3], [0.0]]))
        assert rep.dimension == 0.0
        assert rep.diagnostics.get("degenerate")


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
        sim = similarity_dimension(two_group_overlap.flat_ratios())
        assert s0 <= sim + 1e-12


class TestGDMatrix:
    def test_depth_one_entries(self, two_group_overlap):
        M = gd_matrix(two_group_overlap, 1.0, 1)
        assert M[1, 0] == pytest.approx(0.3 + 0.2)
        assert M[0, 1] == pytest.approx(0.25)
        assert M[0, 0] == 0.0

    def test_singleton_geometric(self):
        sys = CFSystem([0.0, 1.0], [[0.5], [0.5]])
        M = gd_matrix(sys, 1.0, 3)
        assert M[0, 1] == pytest.approx(0.5 + 0.25 + 0.125)

    def test_singleton_infinite_depth(self):
        sys = CFSystem([0.0, 1.0], [[0.5], [0.5]])
        M = gd_matrix(sys, 1.0, None)
        assert M[0, 1] == pytest.approx(1.0)

    def test_finite_entries_increase_to_limit(self, two_group_overlap):
        limit = gd_matrix(two_group_overlap, 0.9, None)
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

    def test_monotone_in_depth(self, two_group_overlap):
        seq = [gd_dimension(two_group_overlap, d) for d in range(1, 11)]
        assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))

    def test_converges_to_attractor_root(self, all_third):
        s0 = attractor_dimension(all_third).raw
        s10 = gd_dimension(all_third, 10)
        assert s10 <= s0 + 1e-12
        assert abs(s10 - s0) <= 1e-3

    def test_infinite_depth_equals_root(self, two_group_overlap):
        s_inf = gd_dimension(two_group_overlap, None)
        s0 = attractor_dimension(two_group_overlap).raw
        assert s_inf == pytest.approx(s0, abs=1e-8)

    def test_each_point_evaluated_once(self, two_group_overlap, monkeypatch):
        """g(1e-9) serves both the early exit and the bracket's low end."""
        seen = []
        real = dimension.gd_matrix

        def counted(sys, s, depth):
            seen.append(s)
            return real(sys, s, depth)

        monkeypatch.setattr(dimension, "gd_matrix", counted)
        gd_dimension(two_group_overlap, 5)
        assert seen[0] == 1e-9
        assert len(seen) == len(set(seen))


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
        with pytest.raises(ValueError):
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

"""Entropy, Lyapunov exponent, the overlap correction Phi, random-walk
entropy (closed form vs exact finite-depth brute force)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfsdim import (CFSystem, DegenerateMeasure, ProbVector, Word, compose,
                    decompose, enumerate_words, lyapunov, phi_lower_bound,
                    phi_monte_carlo, phi_series, rw_entropy_bruteforce,
                    rw_entropy_closed, shannon_entropy)
from cfsdim.entropy import _tail_bound, _truncation_depth

# Frozen cross-oracle value for groups (2,1), lam=[[0.3,0.2],[0.25]],
# uniform p: 10^7-sample Monte-Carlo run (seed 12345) gave
# -0.21366 +- 0.00011, bracketing the series value below.
V_STAR_21_UNIFORM = -0.21384847298967688


def random_p(shape, rng_vals):
    """Build a normalized ProbVector over a ragged shape from raw values."""
    flat = [v + 1e-3 for v in rng_vals]
    total = sum(flat)
    rows, i = [], 0
    for n in shape:
        rows.append([flat[i + j] / total for j in range(n)])
        i += n
    return ProbVector(rows)


class TestShannonEntropy:
    def test_uniform_four_symbols(self):
        p = ProbVector([[0.25, 0.25], [0.25, 0.25]])
        assert shannon_entropy(p) == pytest.approx(math.log(4))

    def test_point_mass(self):
        p = ProbVector([[1.0], [0.0]])
        assert shannon_entropy(p) == 0.0

    def test_dyadic(self):
        p = ProbVector([[0.5], [0.25, 0.25]])
        assert shannon_entropy(p) == pytest.approx(1.5 * math.log(2))


class TestLyapunov:
    def test_all_half(self, equal_halves):
        p = ProbVector.uniform(equal_halves)
        assert lyapunov(equal_halves, p) == pytest.approx(math.log(2))

    def test_concentrated(self, cantor_quarter):
        p = ProbVector([[1.0], [0.0]])
        assert lyapunov(cantor_quarter, p) == pytest.approx(math.log(4))

    def test_uniform_mixed(self, two_group_overlap):
        p = ProbVector.uniform(two_group_overlap)
        expected = -(math.log(0.3) + math.log(0.2) + math.log(0.25)) / 3
        assert lyapunov(two_group_overlap, p) == pytest.approx(expected)


class TestPhiSeries:
    def test_zero_without_shared_fixed_points(self, equal_halves):
        res = phi_series(equal_halves, ProbVector.uniform(equal_halves))
        assert res.value == 0.0
        assert res.tail_bound == 0.0

    def test_frozen_value(self, two_group_overlap, uniform21):
        res = phi_series(two_group_overlap, uniform21, tol=1e-12)
        assert res.value == pytest.approx(V_STAR_21_UNIFORM, abs=1e-11)
        assert res.tail_bound <= 1e-12

    def test_degenerate_rejected(self, two_group_overlap):
        with pytest.raises(DegenerateMeasure):
            phi_series(two_group_overlap, ProbVector([[0.5, 0.5], [0.0]]))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5))
    def test_nonpositive_and_above_lower_bound(self, vals):
        sys = CFSystem([0.0, 1.0], [[0.3, 0.2, 0.15], [0.25, 0.1]])
        p = random_p((3, 2), vals)
        res = phi_series(sys, p, tol=1e-11)
        assert res.value <= 1e-14
        assert res.value + res.tail_bound >= phi_lower_bound(sys, p) - 1e-12

    @pytest.mark.parametrize("weights", [
        [[0.9, 0.05], [0.05]],
        [[0.495, 0.495], [0.01]],
    ], ids=["rho0.95", "rho0.99"])
    def test_matches_log_space_series(self, two_group_overlap, weights):
        """Once b^k underflows (k past about 250 at b = 0.05, about 1060 at
        b = 0.495), a row restarted from b^k drops every later term."""
        p = ProbVector(weights)
        res = phi_series(two_group_overlap, p)
        assert abs(res.value - _phi_log_space(p)) <= res.tail_bound + 1e-12


class TestTruncationDepth:
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.95, 0.99, 0.999])
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 5e-11, 1e-14])
    def test_smallest_depth(self, rho, tol):
        K = _truncation_depth(rho, tol)
        assert _tail_bound(rho, K) < tol
        assert K == 0 or _tail_bound(rho, K - 1) >= tol

    def test_zero_tolerance_stops_at_ceiling(self):
        assert _truncation_depth(0.5, 0.0) == 10**7


def _phi_log_space(p, tail=1e-18):
    """Independent oracle for Phi: the double series with every binomial
    weight C(k,q) a^q b^(k-q) formed in log space from lgamma, summed until
    rho^k drops below ``tail``."""
    total = 0.0
    for row in p.weights:
        rho = sum(row)
        if len(row) == 1:
            continue
        K = int(math.log(tail) / math.log(rho)) + 1
        lgam = np.array([math.lgamma(j + 1.0) for j in range(K + 1)])
        logs = np.log(np.arange(1.0, K + 2.0))
        for a in row:
            b = rho - a
            acc = 0.0
            for k in range(1, K + 1):
                q = np.arange(k + 1)
                log_w = (lgam[k] - lgam[q] - lgam[k - q] + q * math.log(a)
                         + (k - q) * math.log(b))
                acc += float(np.exp(log_w) @ (logs[q] - logs[k]))
            total += a * (1.0 - rho) * acc
    return total


class TestPhiMonteCarlo:
    def test_exactly_zero_without_overlap(self, equal_halves):
        res = phi_monte_carlo(equal_halves, ProbVector.uniform(equal_halves),
                              1000, seed=0)
        assert res.value == 0.0

    def test_agrees_with_series(self, two_group_overlap, uniform21):
        mc = phi_monte_carlo(two_group_overlap, uniform21, 10**6, seed=42)
        se = phi_series(two_group_overlap, uniform21, tol=1e-12)
        assert abs(mc.value - se.value) <= 3 * mc.stderr + se.tail_bound

    def test_deterministic(self, two_group_overlap, uniform21):
        a = phi_monte_carlo(two_group_overlap, uniform21, 10**4, seed=7)
        b = phi_monte_carlo(two_group_overlap, uniform21, 10**4, seed=7)
        assert a == b


class TestPhiLowerBound:
    def test_zero_without_overlap(self, equal_halves):
        assert phi_lower_bound(equal_halves,
                               ProbVector.uniform(equal_halves)) == \
            pytest.approx(0.0)

    def test_direct_substitution(self, two_group_overlap, uniform21):
        expected = (2 / 3) * math.log(2 / 3)  # + (1/3)*log(1) for group 2
        assert phi_lower_bound(two_group_overlap, uniform21) == \
            pytest.approx(expected)

    def test_nonpositive(self, two_group_overlap):
        p = ProbVector([[0.6, 0.1], [0.3]])
        assert phi_lower_bound(two_group_overlap, p) <= 0.0


def _entropy_by_word_enumeration(sys, p, n):
    """Independent oracle for H_n: enumerate all words, group by the exact
    composed map, and take the entropy of the induced map distribution."""
    by_map = {}
    for w in enumerate_words(sys, n):
        weight = math.prod(p.weight(s) for s in w)
        m = compose(sys, w)
        key = (round(m.ratio, 14), round(m.intercept, 14))
        by_map[key] = by_map.get(key, 0.0) + weight
    return -sum(v * math.log(v) for v in by_map.values() if v > 0)


class TestRWEntropy:
    def test_closed_form_is_h_plus_phi(self, two_group_overlap, uniform21):
        res = rw_entropy_closed(two_group_overlap, uniform21, tol=1e-12)
        h = shannon_entropy(uniform21)
        phi = phi_series(two_group_overlap, uniform21, tol=1e-12).value
        assert res.value == pytest.approx(h + phi, abs=1e-12)

    def test_no_overlap_entropy_is_h(self, equal_halves):
        p = ProbVector.uniform(equal_halves)
        res = rw_entropy_closed(equal_halves, p)
        assert res.value == pytest.approx(shannon_entropy(p))

    def test_point_mass_is_zero(self, two_group_overlap):
        p = ProbVector([[1.0, 0.0], [0.0]])
        assert rw_entropy_closed(two_group_overlap, p).value == 0.0

    def test_bruteforce_h1_is_entropy(self, two_group_overlap, uniform21):
        bf = rw_entropy_bruteforce(two_group_overlap, uniform21, 4)
        assert bf.entropies[0] == pytest.approx(shannon_entropy(uniform21))

    def test_bruteforce_no_overlap_linear(self, equal_halves):
        p = ProbVector.uniform(equal_halves)
        bf = rw_entropy_bruteforce(equal_halves, p, 6)
        h = shannon_entropy(p)
        for n, H in enumerate(bf.entropies, start=1):
            assert H == pytest.approx(n * h, rel=1e-12)

    def test_bruteforce_past_depth_170(self):
        """Singleton groups identify every word, so H_n = n h_p exactly; at
        n = 200 a factorial-based block sum overflows."""
        sys = CFSystem([0.0, 0.5, 1.0], [[0.3], [0.2], [0.25]])
        p = ProbVector([[0.2], [0.3], [0.5]])
        bf = rw_entropy_bruteforce(sys, p, 200)
        assert bf.value == pytest.approx(shannon_entropy(p), rel=1e-12)

    @pytest.mark.parametrize("sys, p", [
        (CFSystem([0.0, 1.0], [[0.3, 0.2], [0.25]]),
         ProbVector([[0.5, 0.2], [0.3]])),
        (CFSystem([0.0, 1.0, 2.5], [[0.3, 0.2], [0.25, 0.15], [0.1]]),
         ProbVector([[0.3, 0.1], [0.2, 0.25], [0.15]])),
    ], ids=["two-groups", "three-groups"])
    def test_bruteforce_matches_word_enumeration(self, sys, p):
        """Signature DP vs the exact composed-map grouping oracle."""
        bf = rw_entropy_bruteforce(sys, p, 6)
        for n in (2, 4, 6):
            oracle = _entropy_by_word_enumeration(sys, p, n)
            assert bf.entropies[n - 1] == pytest.approx(oracle, abs=1e-9)

    def test_entropy_of_signature_classes_not_of_maps(self):
        """With fixed points 0, 1/2, 1 some distinct signatures compose to
        the same map exactly, so the DP's H_6 (signature classes) exceeds
        the entropy of the composed maps."""
        ratios = [["3/10", "1/5"], ["1/4", "3/20"], ["1/10"]]
        exact = CFSystem(["0", "1/2", "1"], ratios, mode="rational")
        sys = CFSystem([0.0, 0.5, 1.0], [[0.3, 0.2], [0.25, 0.15], [0.1]])
        p = ProbVector([[0.3, 0.1], [0.2, 0.25], [0.15]])
        by_sig, by_map = {}, {}
        for w in enumerate_words(exact, 6):
            weight = math.prod(p.weight(s) for s in w)
            sig, m = decompose(w), compose(exact, w)
            by_sig[sig] = by_sig.get(sig, 0.0) + weight
            by_map[m] = by_map.get(m, 0.0) + weight
        assert (len(by_sig), len(by_map)) == (9967, 9955)
        h_sig = -sum(v * math.log(v) for v in by_sig.values())
        h_map = -sum(v * math.log(v) for v in by_map.values())
        h6 = rw_entropy_bruteforce(sys, p, 6).entropies[5]
        assert h6 == pytest.approx(h_sig, abs=1e-9)
        assert h6 == pytest.approx(8.626150, abs=1e-6)
        assert h_map == pytest.approx(8.625437, abs=1e-6)

    def test_increments_approach_closed_form(self, two_group_overlap,
                                             uniform21):
        bf = rw_entropy_bruteforce(two_group_overlap, uniform21, 13)
        target = rw_entropy_closed(two_group_overlap, uniform21,
                                   tol=1e-12).value
        errs = [abs(inc - target) for inc in bf.increments]
        assert errs[-1] < errs[0]
        assert errs[-1] <= 1e-3

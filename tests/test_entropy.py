"""Entropy, Lyapunov exponent, the overlap correction Phi, random-walk
entropy (closed form vs exact finite-depth brute force)."""

import math
import random
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfsdim import (BudgetExceeded, CFSystem, ProbVector, ValidationError, ifs,
                    lyapunov, phi_lower_bound, phi_monte_carlo, phi_series,
                    rw_entropy_bruteforce, rw_entropy_closed, shannon_entropy)
from cfsdim.entropy import RunTooLong, _tail_bound, _truncation_depth
from identities import signature_entropies
from oracles import word_records

# Frozen cross-oracle value for groups (2,1), lam=[[0.3,0.2],[0.25]],
# uniform p: 10^7-sample Monte-Carlo run (seed 12345) gave
# -0.21366 +- 0.00011, bracketing the series value below.
V_STAR_21_UNIFORM = -0.21384847298967688

# Phi for weights [[0.5, 0.49], [0.01]] (as doubles) on two_group_overlap,
# from 40-digit mpmath on the per-member closed form a (1 - rho)
# [F(a / (1 - b)) / (1 - b) - F(rho)], F(y) = sum_q log(q + 1) y^q, b = rho - a
PHI_MASS_099 = -0.65893242587094896653


def random_p(shape, rng_vals):
    """Build a normalized ProbVector over a ragged shape from raw values."""
    flat = [v + 1e-3 for v in rng_vals]
    total = sum(flat)
    rows, i = [], 0
    for n in shape:
        rows.append([flat[i + j] / total for j in range(n)])
        i += n
    return ProbVector(rows)


def point_mass_bound(delta, groups, others_max, heavy_members):
    """B(delta) = H2(delta) + delta log((N'-1) M) + (m-1) delta
    log(1 + 1/delta), written out from its definition."""
    h2 = -delta * math.log(delta) - (1 - delta) * math.log1p(-delta)
    return (h2 + delta * math.log((groups - 1) * others_max)
            + (heavy_members - 1) * delta * math.log(1 + 1 / delta))


def h_rounding(h, n):
    """gamma_{n+2} h, the rounding of an entropy h of n terms (Higham's
    gamma_k = k u / (1 - k u), u = 2^-53), written out."""
    k = (n + 2) * 2.0**-53
    return k / (1 - k) * h


def minus_h_40_digits(weights) -> Decimal:
    """-h = sum w log w for the weights as doubles, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        return sum(Decimal(w) * Decimal(w).ln() for w in weights if w > 0)


# All but 1e-16 of the mass in the first group of two_group_overlap
NEAR_POINT_MASS = [[0.5, 0.4999999999999999], [1e-16]]


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

    def test_point_mass_is_minus_h(self, two_group_overlap):
        """One group holds all the mass: h_RW = 0, so Phi = -h, and the
        bound is the rounding of h alone."""
        p = ProbVector([[0.5, 0.5], [0.0]])
        res = phi_series(two_group_overlap, p)
        assert res.value == -math.log(2)
        assert res.tail_bound == pytest.approx(h_rounding(math.log(2), 2),
                                               rel=1e-12, abs=0)
        assert (res.method, res.terms_used) == ("point-mass", 0)

    @pytest.mark.parametrize("weights", [
        [[0.7, 0.2, 0.1], [0.0]], [[0.45, 0.35, 0.2], [0.0]]])
    def test_point_mass_bound_covers_rounding_of_h(self, weights):
        """-h as computed is off by about an ulp (1.2e-16 and 1.1e-16 here),
        which a bound of 0.0 left out; both evaluators' bounds cover it."""
        sys = CFSystem([0.0, 1.0], [[0.3, 0.2, 0.1], [0.25]])
        p = ProbVector(weights)
        ref = minus_h_40_digits(weights[0])
        for res in (phi_series(sys, p), phi_monte_carlo(sys, p, 10, seed=0)):
            err = abs(Decimal(res.value) - ref)
            assert 0 < err <= Decimal(res.tail_bound)
            assert res.tail_bound <= 8 * math.ulp(res.value)

    def test_one_symbol_point_mass_is_plus_zero(self, two_group_overlap):
        """h = 0, and Phi = 0.0 - h prints as 0.0, not -0.0."""
        p = ProbVector([[1.0, 0.0], [0.0]])
        for res in (phi_series(two_group_overlap, p),
                    phi_monte_carlo(two_group_overlap, p, 100, seed=0)):
            assert res.method == "point-mass"
            assert math.copysign(1.0, res.value) == 1.0

    def test_near_point_mass_within_its_bound(self, two_group_overlap):
        p = ProbVector(NEAR_POINT_MASS)
        res = phi_series(two_group_overlap, p)
        assert res.method == "point-mass"
        assert res.value == -shannon_entropy(p)
        assert res.tail_bound == pytest.approx(
            point_mass_bound(1e-16, 2, 1, 2)
            + h_rounding(shannon_entropy(p), 3), rel=1e-12, abs=0)
        assert 7e-15 < res.tail_bound <= 1e-14

    def test_rule_needs_bound_below_tol(self, two_group_overlap):
        """A bound above tol runs the series, which cannot reach a mass that
        rounds to 1: a budget error, not a ZeroDivisionError."""
        p = ProbVector([[0.5, 0.5], [1e-17]])
        assert phi_series(two_group_overlap, p).method == "point-mass"
        with pytest.raises(BudgetExceeded, match="rounds to 1"):
            phi_series(two_group_overlap, p, tol=1e-300)

    def test_random_walk_entropy_below_point_mass_bound(self):
        """h + Phi <= B(delta) on random systems with 2 to 4 groups of 1 to
        4 members and delta, the mass outside the heaviest group, in
        [0.01, 0.5]."""
        rng = np.random.default_rng(20260118)
        for _ in range(200):
            n_groups = int(rng.integers(2, 5))
            sizes = rng.integers(1, 5, size=n_groups)
            delta = float(rng.uniform(0.01, 0.5))
            # group 0, the heaviest, holds 1 - delta; the others share delta
            out = rng.dirichlet(np.ones(n_groups - 1)) * delta
            masses = [1.0 - delta, *out]
            rows = [list(m * rng.dirichlet(np.ones(k)))
                    for m, k in zip(masses, sizes)]
            delta = math.fsum(w for row in rows[1:] for w in row)
            sys = CFSystem(range(n_groups), [[0.3] * k for k in sizes])
            p = ProbVector(rows)
            res = phi_series(sys, p, tol=1e-8)
            bound = point_mass_bound(delta, n_groups,
                                     max(map(len, rows[1:])), len(rows[0]))
            # equality holds when every group has one member (h_RW = h =
            # H2(delta)), so allow rounding
            assert shannon_entropy(p) + res.value <= \
                bound + res.tail_bound + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5))
    def test_nonpositive_and_above_lower_bound(self, vals):
        sys = CFSystem([0.0, 1.0], [[0.3, 0.2, 0.15], [0.25, 0.1]])
        p = random_p((3, 2), vals)
        res = phi_series(sys, p, tol=1e-11)
        assert res.value <= 1e-14
        assert res.value + res.tail_bound >= phi_lower_bound(sys, p) - 1e-12

    @pytest.mark.parametrize("ratios, weights", [
        ([[0.3, 0.2], [0.25]], [[0.9, 0.05], [0.05]]),
        ([[0.3, 0.2], [0.25]], [[0.495, 0.495], [0.01]]),
        ([[0.3, 0.2, 0.1], [0.25]], [[0.3, 0.3, 0.3], [0.1]]),
    ], ids=["rho0.95", "rho0.99", "three-members"])
    def test_matches_log_space_series(self, ratios, weights):
        """Once b^k underflows (k past about 250 at b = 0.05, about 1060 at
        b = 0.495), a row restarted from b^k drops every later term.  A pair
        reads one binomial row both ways and a group of three builds one
        per member; both meet the oracle within the bound alone, as it
        covers rounding."""
        p = ProbVector(weights)
        res = phi_series(CFSystem([0.0, 1.0], ratios), p)
        assert abs(res.value - _phi_log_space(p)) <= res.tail_bound

    def test_bound_covers_rounding_near_mass_one(self, two_group_overlap):
        """At group mass 0.99 and tol 1e-13 the truncation tail is below
        5e-16, but rounding can reach several times that (4.6e-15 with one
        row of C(k, q) a^q b^(k-q) per member): the bound covers both, and
        stays below 1e-11."""
        res = phi_series(two_group_overlap,
                         ProbVector([[0.5, 0.49], [0.01]]), tol=1e-13)
        assert abs(res.value - PHI_MASS_099) <= res.tail_bound < 1e-11


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
    def test_point_mass_is_exact(self, two_group_overlap):
        res = phi_monte_carlo(two_group_overlap,
                              ProbVector([[0.5, 0.5], [0.0]]), 1000, seed=0)
        assert (res.value, res.stderr) == (-math.log(2), 0.0)
        assert res.method == "point-mass"

    def test_group_mass_rounding_to_one_is_a_budget_error(
            self, two_group_overlap):
        """Runs inside a group of float mass 1 never end; the sampler says
        so before drawing."""
        with pytest.raises(RunTooLong, match="rounds to 1"):
            phi_monte_carlo(two_group_overlap,
                            ProbVector([[0.5, 0.5], [1e-17]]), 10, seed=0)

    def test_long_mean_run_is_rejected_before_drawing(
            self, two_group_overlap):
        """A group of mass 1 - 1e-12 runs 1e12 steps on average, past
        MC_RUN_CAP: the sampler says so without allocating its arrays."""
        p = ProbVector([[0.5, 0.499999999999], [1e-12]])
        tracemalloc.start()
        try:
            with pytest.raises(RunTooLong, match="mean run"):
                phi_monte_carlo(two_group_overlap, p, 10**6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sample_count_rule(self, two_group_overlap, uniform21,
                               monkeypatch):
        monkeypatch.setattr(ifs, "SAMPLE_CAP", 100)
        with pytest.raises(ValidationError, match="sample count"):
            phi_monte_carlo(two_group_overlap, uniform21, 0, seed=0)
        with pytest.raises(BudgetExceeded, match="cap 100"):
            phi_monte_carlo(two_group_overlap, uniform21, 101, seed=0)
        assert phi_monte_carlo(two_group_overlap, uniform21, 100,
                               seed=0).terms_used == 100

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

    @pytest.mark.parametrize("weights, samples, seed, value, stderr", [
        (None, 10**6, 7, -0.21387099174750107, 0.00034998680325390924),
        ([[0.5, 0.3], [0.2]], 20000, 3, -0.32266463770745835,
         0.0028374722848581928),
    ])
    def test_pinned_draws(self, two_group_overlap, uniform21, weights,
                          samples, seed, value, stderr):
        """A seed keeps its numbers: the draw order (choice, geometric,
        binomial) and the arithmetic are fixed."""
        p = uniform21 if weights is None else ProbVector(weights)
        res = phi_monte_carlo(two_group_overlap, p, samples, seed)
        assert (res.value, res.stderr) == (value, stderr)

    def test_peak_memory(self, two_group_overlap, uniform21):
        """At most 16 B per sample: the symbol index, the int32 run length
        and the float64 log ratio, plus one chunk's scratch."""
        samples = 10**6
        tracemalloc.start()
        try:
            phi_monte_carlo(two_group_overlap, uniform21, samples, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * samples


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
    for _, m, weight in word_records(sys, n, p):
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
        for sig, m, weight in word_records(exact, 6, p):
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


# (ratios, weights) per group shape; the last has a zero weight, whose map
# the DP must drop as if it were not there
DP_SYSTEMS = {
    "1-1": ([[0.3], [0.25]], [[0.45], [0.55]]),
    "2-1": ([[0.3, 0.2], [0.25]], [[0.35, 0.25], [0.4]]),
    "1-3": ([[0.2], [0.3, 0.2, 0.1]], [[0.3], [0.35, 0.2, 0.15]]),
    "2-2": ([[0.3, 0.2], [0.25, 0.1]], [[0.1, 0.4], [0.3, 0.2]]),
    "2-1-1": ([[0.3, 0.2], [0.25], [0.1]], [[0.3, 0.3], [0.25], [0.15]]),
    "2-2-zero": ([[0.3, 0.2], [0.25, 0.1]], [[0.1, 0.4], [0.5, 0.0]]),
}

# increments of H_n against h_p + Phi: five measures, group masses up to 0.9
CERTIFICATE_CASES = [
    ([[0.3, 0.2], [0.25]], [[1 / 3, 1 / 3], [1 / 3]]),
    ([[0.3, 0.2], [0.25]], [[0.45, 0.35], [0.2]]),
    ([[0.3, 0.2], [0.25, 0.1]], [[0.1, 0.4], [0.3, 0.2]]),
    ([[0.3, 0.2], [0.25], [0.1]], [[0.3, 0.3], [0.25], [0.15]]),
    ([[0.2], [0.3, 0.2, 0.1]], [[0.1], [0.5, 0.3, 0.1]]),
]


def _line_system(ratios):
    return CFSystem([float(k) for k in range(len(ratios))], ratios)


class TestSignatureDP:
    @pytest.mark.parametrize("n", [1, 2, 12, 60, 200, 1200])
    @pytest.mark.parametrize("name", list(DP_SYSTEMS))
    def test_matches_quadratic_oracle(self, name, n):
        """The O(N n) DP against the log-space block sums and O(N n^2) DP it
        replaced; the oracle sees the system with zero-weight maps removed."""
        ratios, weights = DP_SYSTEMS[name]
        got = rw_entropy_bruteforce(_line_system(ratios), ProbVector(weights),
                                    n).entropies
        kept = [[(lam, w) for lam, w in zip(rr, ww) if w > 0]
                for rr, ww in zip(ratios, weights)]
        want = signature_entropies(
            _line_system([[lam for lam, _ in row] for row in kept]),
            ProbVector([[w for _, w in row] for row in kept]), n)
        assert len(got) == n
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=2, max_size=3),
           st.integers(0, 2**32 - 1), st.data())
    def test_matches_word_enumeration(self, shape, seed, data):
        """Random systems of 2-3 groups with 1-3 members.  Fixed points and
        distinct ratios are six-digit decimals drawn from the seed, in
        rational mode, so words compose to exactly equal maps just when they
        share a signature class."""
        rng = random.Random(seed)
        L = sum(shape)
        nums = iter(rng.sample(range(50_000, 400_000), L))
        sys = CFSystem(
            [f"{k}.{rng.randrange(10**6):06d}" for k in range(len(shape))],
            [[f"0.{next(nums):06d}" for _ in range(m)] for m in shape],
            mode="rational")
        p = random_p(shape, data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=L, max_size=L)))
        # at most 3000 words: n <= 5, and n <= 3 for 8 or 9 maps
        n = data.draw(st.integers(1, min(5, int(math.log(3000, L)))))
        got = rw_entropy_bruteforce(sys, p, n).entropies[-1]
        assert got == pytest.approx(_entropy_by_word_enumeration(sys, p, n),
                                    abs=1e-9)

    @pytest.mark.parametrize("ratios, weights", CERTIFICATE_CASES)
    def test_increments_fall_to_closed_form(self, ratios, weights):
        """Delta_n = H_n - H_{n-1} does not increase and stays above
        h_RW = h_p + Phi, so each Delta_n is an upper bound on h_RW.  1e-13
        allows for rounding in the increments, 1e-10 for that of h_RW."""
        sys, p = _line_system(ratios), ProbVector(weights)
        inc = rw_entropy_bruteforce(sys, p, 40).increments
        phi = phi_series(sys, p)
        floor = shannon_entropy(p) + phi.value - phi.tail_bound - 1e-10
        assert all(b <= a + 1e-13 for a, b in zip(inc, inc[1:]))
        assert min(inc) >= floor

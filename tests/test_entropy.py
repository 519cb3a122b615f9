"""Entropy, Lyapunov exponent, the overlap correction Phi, random-walk
entropy (closed form vs exact finite-depth brute force)."""

import math
import random
import statistics
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfsdim import (BudgetExceeded, CFSystem, ProbVector, ValidationError, ifs,
                    lyapunov, phi_lower_bound, phi_monte_carlo, phi_series,
                    rw_entropy_bruteforce, rw_entropy_closed, shannon_entropy)
from cfsdim import entropy
from cfsdim.entropy import DEFAULT_TOL, TRIM, _log_moments, _row_cells
from identities import dp_entropies, signature_entropies
from oracles import (log_moments_untrimmed, phi_monte_carlo_per_sample,
                     word_records)

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


def jensen_depth(rho, members, share):
    """The smallest K whose Jensen half-width (m - 1) rho^(K+2) / (2 (K + 2))
    is within ``share``, by a scan from K = 0."""
    K = 0
    while (members - 1) * rho ** (K + 2) / (2 * (K + 2)) > share:
        K += 1
    return K


def stopped_depths(monkeypatch, sys, p, tol):
    """The depth K of each group of two or more members at which phi_series
    stops, read from the untrimmed cell count it asks of _row_cells (to
    depth K + 1) before the cap; a cap of -1 refuses every count, so no
    row is built."""
    depths = []

    def spy(row, n):
        depths.append(n - 1)
        return _row_cells(row, n)

    monkeypatch.setattr(entropy, "_row_cells", spy)
    monkeypatch.setattr(entropy, "PHI_TERM_CAP", -1)
    with pytest.raises(BudgetExceeded, match="binomial-row cells"):
        phi_series(sys, p, tol)
    monkeypatch.undo()
    return depths


# All but 1e-16 of the mass in the first group of two_group_overlap
NEAR_POINT_MASS = [[0.5, 0.4999999999999999], [1e-16]]


def recording_kernel(calls):
    """_log_moments that appends (rho, logs, floors, its result) of each
    call to ``calls``, logs cut to the call's depth."""
    def kernel(row, rho, n, logs, floors):
        out = _log_moments(row, rho, n, logs, floors)
        calls.append((rho, logs[:n], floors, out))
        return out
    return kernel


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

    @pytest.mark.parametrize("weights, tol", [
        ([[0.5, 0.49], [0.01]], DEFAULT_TOL),
        ([[0.5, 0.49], [0.01]], 1e-13),
        ([[0.4975, 0.4975], [0.005]], DEFAULT_TOL),
        ([[0.4985, 0.4985], [0.003]], DEFAULT_TOL),
    ], ids=["mass0.99", "mass0.99-tol1e-13", "mass0.995", "mass0.997"])
    def test_trimmed_rows_within_bound_near_mass_one(
            self, two_group_overlap, weights, tol):
        """Near group mass one most cells of a row lie below their floors
        and are trimmed; the bound, which adds the mass they carried, holds
        against the log-space series (its own truncation below tol / 1000)
        and the 40-digit value."""
        p = ProbVector(weights)
        res = phi_series(two_group_overlap, p, tol)
        K = jensen_depth(math.fsum(weights[0]), 2, tol / 2)
        assert res.terms_used < _row_cells(weights[0], K + 1)
        assert abs(res.value - _phi_log_space(p, tail=tol * 1e-4)) \
            <= res.tail_bound
        if weights[0] == [0.5, 0.49]:
            assert abs(res.value - PHI_MASS_099) <= res.tail_bound

    @pytest.mark.parametrize("mass", [0.5, 0.7, 0.9, 0.95, 0.98, 0.998,
                                      0.999])
    def test_mass_sweep_within_bound(self, two_group_overlap, mass):
        """From group mass 0.5 to 0.999 (0.99 to 0.997 above), on an
        uneven pair, each value meets the log-space series (its own
        truncation below tol / 1000) within the reported bound alone: the
        centred Jensen tail, the trimmed mass and the rounding."""
        p = ProbVector([[0.6 * mass, 0.4 * mass], [1.0 - mass]])
        res = phi_series(two_group_overlap, p)
        assert res.method == "series"
        assert abs(res.value - _phi_log_space(p, tail=DEFAULT_TOL * 1e-4)) \
            <= res.tail_bound < DEFAULT_TOL

    def test_cap_counts_untrimmed_cells(self, two_group_overlap):
        """terms_used counts the cells filled, under a third of the untrimmed
        count at mass 0.99, but PHI_TERM_CAP is checked against the untrimmed
        count before any work: mass 0.999 answers and 0.9995 exits."""
        res = phi_series(two_group_overlap, ProbVector([[0.5, 0.49], [0.01]]))
        K = jensen_depth(0.99, 2, DEFAULT_TOL / 2)
        assert 0 < res.terms_used < _row_cells([0.5, 0.49], K + 1) / 3
        res = phi_series(two_group_overlap,
                         ProbVector([[0.4995, 0.4995], [0.001]]))
        assert res.method == "series" and res.tail_bound < 1e-10
        K = jensen_depth(0.9995, 2, DEFAULT_TOL / 2)
        assert _row_cells([0.49975, 0.49975], K + 1) > entropy.PHI_TERM_CAP
        with pytest.raises(BudgetExceeded, match="binomial-row cells"):
            phi_series(two_group_overlap,
                       ProbVector([[0.49975, 0.49975], [0.0005]]))


class TestTrimmedRows:
    """entropy._log_moments trims row k where its entries fall below
    floors[k]: 2^-70 at every depth for the signature DP, max(2^-70,
    theta / rho^k) for the Phi series.  The untrimmed kernel in
    tests/oracles.py carries every row in full."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
           st.floats(0.5, 0.999), st.integers(1, 600),
           st.one_of(st.just(0.0), st.floats(-30.0, -3.0).map(
               lambda t: 10.0 ** t)))
    def test_within_lost_mass_of_untrimmed(self, raw, mass, n, theta):
        """Row k trimmed at max(2^-70, theta / rho^k), at most 1/(2 (k +
        1)^2): each D_k reads at most lost_k log(k + 1) below the untrimmed
        one, up to the rounding of both; lost_k grows with k and is at most
        k times the highest floor so far; no row empties (it would raise
        IndexError).  While lost_k is zero, nothing but exact zeros was
        cut, and D_k is the untrimmed kernel's double."""
        row = [mass * x / sum(raw) for x in raw]
        rho = math.fsum(row)
        logs = [math.log(c + 1.0) for c in range(n)]
        floors = [min(max(TRIM, theta / rho ** k), 0.5 / (k + 1) ** 2)
                  for k in range(n)]
        d, lost, cells = _log_moments(row, rho, n, logs, floors)
        want = log_moments_untrimmed(row, rho, n, logs)
        for k in range(n):
            # each computed D_k is within gamma_{3k+3m+10} (L + 1) of its
            # exact value (phi_series docstring)
            rounding = 2.0 * ifs._gamma(3 * k + 3 * len(row) + 10) * (
                logs[k] + 1.0)
            missed = lost[k] * logs[k] * (1.0 + rounding)
            assert want[k] - missed - rounding <= d[k] <= want[k] + rounding
            assert lost[k] <= k * max(floors[:k + 1]) * (1.0 + 1e-12)
        assert lost == sorted(lost)
        assert cells <= _row_cells(row, n)
        if lost[-1] == 0.0:
            assert list(map(float.hex, d)) == list(map(float.hex, want))

    @pytest.mark.parametrize("row, depth", [
        ([0.25, 0.25], 71), ([0.2, 0.1, 0.1], 36)], ids=["pair", "three"])
    def test_bit_identical_until_a_cell_is_cut(self, row, depth):
        """At q = 1/2 the ends of row k are 2^-k, at q = 1/4 one end is
        4^-k: through row 70, or 35, nothing is cut and every D_k is the
        untrimmed kernel's double.  One row on the ends go, and the row
        after that fills fewer cells."""
        rho = math.fsum(row)
        logs = [math.log(c + 1.0) for c in range(depth + 2)]
        for n, cut in ((depth, False), (depth + 2, True)):
            d, lost, cells = _log_moments(row, rho, n, logs, [TRIM] * n)
            assert (cells < _row_cells(row, n), lost[-1] > 0.0) == (cut, cut)
            if not cut:
                want = log_moments_untrimmed(row, rho, n, logs)
                assert list(map(float.hex, d)) == list(map(float.hex, want))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3),
           st.lists(st.integers(0, 2), min_size=3, max_size=5),
           st.floats(0.5, 0.999), st.integers(1, 60))
    def test_equal_weights_share_a_row(self, distinct, picks, mass, n):
        """Members of equal weight share one binomial row, added once per
        member in member order: while nothing is cut every D_k is the
        untrimmed kernel's double, and the cells count one row per distinct
        weight."""
        raw = [distinct[i % len(distinct)] for i in picks]
        row = [mass * x / sum(raw) for x in raw]
        rho = math.fsum(row)
        logs = [math.log(c + 1.0) for c in range(n)]
        d, lost, cells = _log_moments(row, rho, n, logs, [TRIM] * n)
        assert _row_cells(row, n) == len(set(row)) * (n - 1) * (n + 2) // 2
        assert cells <= _row_cells(row, n)
        if lost[-1] == 0.0:
            assert cells == _row_cells(row, n)
            want = log_moments_untrimmed(row, rho, n, logs)
            assert list(map(float.hex, d)) == list(map(float.hex, want))

    def test_equal_weights_fill_one_row(self):
        """Three members of weight 0.3 fill one row: 8 725 cells at the
        default tol, trimmed at its floors, fewer than one untrimmed row
        and a third of what three rows of distinct weights take."""
        three = CFSystem([0.0, 1.0], [[0.2, 0.3, 0.25], [0.25]])
        K = jensen_depth(math.fsum([0.3] * 3), 3, DEFAULT_TOL / 2)
        one_row = _row_cells([0.3, 0.3, 0.3], K + 1)
        assert 3 * one_row == _row_cells([0.3, 0.31, 0.32], K + 1)
        res = phi_series(three, ProbVector([[0.3, 0.3, 0.3], [0.1]]))
        assert res.terms_used == 8725 < one_row

    def test_dp_matches_untrimmed_kernel_at_depth_3000(
            self, two_group_overlap, uniform21, monkeypatch):
        """The signature DP on trimmed rows against the same DP on full rows,
        within 1e-12 relative in H_n / n and every increment."""
        got = rw_entropy_bruteforce(two_group_overlap, uniform21, 3000)
        monkeypatch.setattr(
            entropy, "_log_moments", lambda row, rho, n, logs, floors: (
                log_moments_untrimmed(row, rho, n, logs), None, None))
        want = rw_entropy_bruteforce(two_group_overlap, uniform21, 3000)
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert got.increments == pytest.approx(want.increments, rel=1e-12)

    def test_dp_trims_at_trim_and_keeps_its_bits(self, monkeypatch):
        """The signature DP trims every row at 2^-70: on a pair, a group of
        three and a single member, H_300 / 300 and the last increment are
        the doubles pinned from the kernel that trimmed at that floor
        alone."""
        sys = CFSystem([0.0, 1.0, 2.0], [[0.3, 0.2], [0.25, 0.2, 0.15],
                                         [0.1]])
        p = ProbVector([[0.3, 0.2], [0.2, 0.15, 0.1], [0.05]])
        calls = []
        monkeypatch.setattr(entropy, "_log_moments", recording_kernel(calls))
        res = rw_entropy_bruteforce(sys, p, 300)
        assert [floors for _, _, floors, _ in calls] == [[TRIM] * 300] * 3
        assert res.value.hex() == "0x1.73ad84e0028d6p+0"
        assert res.increments[-1].hex() == "0x1.73702759b3d4ap+0"


class TestSeriesFloors:
    """phi_series trims row k of a group of mass rho at max(2^-70,
    theta / rho^k), theta within tol (1 - rho) / (16 G (K + 2)
    (log(K + 1) + 1)): the trimmed-mass term of its bound stays within
    tol rho (1 - rho) / (8G) a group, past what a floor of 2^-70 costs."""

    # (weights, tol) -> value and tail bound, as float.hex, with every row
    # trimmed at 2^-70, from the kernel that trimmed at that floor alone
    FIXED_FLOOR_BITS = [
        ([[1 / 3, 1 / 3], [1 / 3]], 1e-10,
         "-0x1.b5f6302e494c0p-3", "0x1.435d44c3941f3p-35"),
        ([[0.5, 0.49], [0.01]], 1e-10,
         "-0x1.515f9746c159ep-1", "0x1.b8bca872e4197p-35"),
        ([[0.3, 0.25, 0.2], [0.25]], 1e-12,
         "-0x1.a6382edf0c1b4p-2", "0x1.b67f5fe9da508p-42"),
    ]

    @staticmethod
    def _fixed_floor(row, rho, n, logs, floors):
        return _log_moments(row, rho, n, logs, [TRIM] * n)

    @pytest.mark.parametrize("weights, tol, value, bound", FIXED_FLOOR_BITS,
                             ids=["pair2/3", "pair0.99", "three0.75"])
    def test_fixed_floors_give_the_same_bits(self, weights, tol, value,
                                             bound, monkeypatch):
        """With every floor at 2^-70 the series and its bound are the pinned
        doubles: the rounding term forms each rho^k (L + 1) gamma_n as
        before, with no call a row."""
        sys = CFSystem([0.0, 1.0], [[0.3, 0.2, 0.1][:len(weights[0])],
                                    [0.25]])
        monkeypatch.setattr(entropy, "_log_moments", self._fixed_floor)
        res = phi_series(sys, ProbVector(weights), tol)
        assert (res.value.hex(), res.tail_bound.hex()) == (value, bound)

    def test_subnormal_tol_trims_at_trim(self, two_group_overlap, uniform21,
                                         monkeypatch):
        """At tol = 5e-324 theta rounds to 0, so every floor is 2^-70: the
        series fills the cells of the fixed floor and returns its bits."""
        calls = []
        monkeypatch.setattr(entropy, "_log_moments", recording_kernel(calls))
        res = phi_series(two_group_overlap, uniform21, 5e-324)
        monkeypatch.setattr(entropy, "_log_moments", self._fixed_floor)
        ((_, _, floors, _),) = calls
        assert set(floors) == {TRIM}
        assert res == phi_series(two_group_overlap, uniform21, 5e-324)

    @pytest.mark.parametrize("mass, tol", [(0.3, 1e-1), (0.5, 1e-6),
                                           (0.7, 1e-6)])
    def test_floors_stay_under_their_cap(self, mass, tol, monkeypatch):
        """A group of 300 members (299 share a row) stops at a small depth
        K, where theta / rho^K would pass 1/(2 (K + 1)^2): the floors stay
        in [2^-70, 1/(2 (k + 1)^2)], the last one at that cap, and the
        value meets the log-space series within its bound."""
        row = [1.0] * 299 + [1.01]
        row = [mass * x / math.fsum(row) for x in row]
        p = ProbVector([row, [1.0 - math.fsum(row)]])
        sys = CFSystem([0.0, 1.0], [[0.01] * 300, [0.25]])
        calls = []
        monkeypatch.setattr(entropy, "_log_moments", recording_kernel(calls))
        res = phi_series(sys, p, tol)
        ((_, _, floors, _),) = calls
        caps = [0.5 / (k + 1) ** 2 for k in range(len(floors))]
        assert all(TRIM <= f <= cap for f, cap in zip(floors, caps))
        assert floors[-1] == pytest.approx(caps[-1], rel=1e-12)
        assert abs(res.value - _phi_log_space(p)) <= res.tail_bound

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4),
           st.floats(0.3, 0.99), st.sampled_from([1e-6, 1e-10, 1e-12]))
    def test_bound_holds_and_grows_by_its_share(self, raw, mass, tol):
        """A group of 2-4 members of mass 0.3 to 0.99 beside one member:
        the value meets the log-space series within its bound; the
        trimmed-mass term, 2 rho (1 - rho) sum_k rho^k lost_k log(k + 1),
        stays within tol rho (1 - rho) / 8 plus 2 rho^2 log(K + 1) 2^-70 /
        (1 - rho), the most floors of 2^-70 can cut; against the same
        series at floors of 2^-70 the bound grows by at most that share,
        stays at or below tol wherever that one does, and no more cells
        are filled."""
        row = [mass * x / sum(raw) for x in raw]
        p = ProbVector([row, [1.0 - math.fsum(row)]])
        sys = CFSystem([0.0, 1.0], [[0.3, 0.2, 0.15, 0.1][:len(row)],
                                    [0.25]])
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy, "_log_moments", recording_kernel(calls))
            res = phi_series(sys, p, tol)
            mp.setattr(entropy, "_log_moments", self._fixed_floor)
            fixed = phi_series(sys, p, tol)
        assert abs(res.value - _phi_log_space(p)) <= res.tail_bound
        ((rho, logs, _, (_, lost, _)),) = calls
        term = 2 * rho * (1 - rho) * math.fsum(
            rho ** k * lg * x for k, (lg, x) in enumerate(zip(logs, lost)))
        share = tol * rho * (1 - rho) / 8
        assert term <= share + 2 * rho ** 2 * logs[-1] * TRIM / (1 - rho)
        assert res.tail_bound <= fixed.tail_bound + share
        assert fixed.tail_bound > tol or res.tail_bound <= tol
        assert res.terms_used <= fixed.terms_used


class TestTruncationDepth:
    """A group of m >= 2 members stops at the smallest K whose Jensen
    half-width w/2 = (m - 1) rho^(K+2) / (2 (K + 2)) is within its share
    tol / (2G), G the groups of two or more members."""

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.95, 0.99, 0.999])
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 5e-11, 1e-14])
    def test_smallest_depth(self, rho, tol, monkeypatch):
        """A pair of mass rho, a group of three sharing 1 - rho with a
        single member: G = 2, the single member takes no share."""
        rest = (1.0 - rho) / 4
        sys = CFSystem([0.0, 1.0, 2.0], [[0.3, 0.2], [0.25, 0.2, 0.15],
                                         [0.1]])
        p = ProbVector([[0.6 * rho, 0.4 * rho], [rest, rest, rest], [rest]])
        depths = stopped_depths(monkeypatch, sys, p, tol)
        share = tol / 4
        for K, (mass, m) in zip(depths, [(math.fsum(p.weights[0]), 2),
                                        (math.fsum(p.weights[1]), 3)]):
            assert (m - 1) * mass ** (K + 2) / (2 * (K + 2)) <= share
            assert K == 0 or \
                (m - 1) * mass ** (K + 1) / (2 * (K + 1)) > share
        assert len(depths) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
           st.floats(0.5, 0.999), st.integers(1, 600))
    def test_jensen_interval(self, raw, mass, n):
        """Every D_k of the untrimmed kernel lies in [-H, -H + (m - 1)/(k +
        1)], H = -sum q_j log q_j over the m members, up to the rounding of
        D_k (gamma_{3k+3m+10} (L + 1), phi_series docstring) and of H
        (gamma_{m+5} (H + 1))."""
        row = [mass * x / sum(raw) for x in raw]
        rho, m = math.fsum(row), len(row)
        logs = [math.log(c + 1.0) for c in range(n)]
        d = log_moments_untrimmed(row, rho, n, logs)
        h = -math.fsum(w / rho * math.log(w / rho) for w in row)
        for k in range(n):
            slack = (ifs._gamma(3 * k + 3 * m + 10) * (logs[k] + 1.0)
                     + ifs._gamma(m + 5) * (h + 1.0))
            assert -h - slack <= d[k] <= -h + (m - 1) / (k + 1) + slack

    def test_subnormal_tolerance_answers_within_its_bound(
            self, two_group_overlap, uniform21):
        """At tol = 5e-324 the share tol / (2G) rounds to 0; the depth comes
        from logs, so it is found where the half-width underflows, and the
        answer meets the log-space series within its bound, which rounding
        keeps above tol."""
        res = phi_series(two_group_overlap, uniform21, tol=5e-324)
        assert res.method == "series"
        assert abs(res.value - _phi_log_space(uniform21)) <= res.tail_bound


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
            # q log a and q log b for q = 0..K; the reversed slices read k - q
            qa = np.arange(K + 1) * math.log(a)
            qb = np.arange(K + 1) * math.log(b)
            acc = 0.0
            for k in range(1, K + 1):
                log_w = (lgam[k] - lgam[:k + 1] - lgam[k::-1] + qa[:k + 1]
                         + qb[k::-1])
                acc += float(np.exp(log_w) @ (logs[:k + 1] - logs[k]))
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
        with pytest.raises(BudgetExceeded, match="rounds to 1"):
            phi_monte_carlo(two_group_overlap,
                            ProbVector([[0.5, 0.5], [1e-17]]), 10, seed=0)

    def test_long_mean_run_is_rejected_before_drawing(
            self, two_group_overlap):
        """A group of mass 1 - 1e-12 runs 1e12 steps on average, past
        MC_RUN_CAP: the sampler says so without allocating its arrays."""
        p = ProbVector([[0.5, 0.499999999999], [1e-12]])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="mean run"):
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
        (None, 10**6, 7, -0.21383616463452143, 0.00035016707676552484),
        ([[0.5, 0.3], [0.2]], 20000, 3, -0.3204149442593033,
         0.002784384606583799),
    ], ids=["uniform21", "skewed"])
    def test_pinned_draws(self, two_group_overlap, uniform21, weights,
                          samples, seed, value, stderr):
        """A seed keeps its numbers: the draw order (the multinomial
        histogram of the symbols, then per symbol its rows of a binomial
        and a multinomial draw and the chunks of geometric and binomial
        draws past them) and the arithmetic are fixed."""
        p = uniform21 if weights is None else ProbVector(weights)
        res = phi_monte_carlo(two_group_overlap, p, samples, seed)
        assert (res.value, res.stderr) == (value, stderr)

    @pytest.mark.parametrize("weights", [
        None, [[0.6, 0.3], [0.1]], [[0.5, 0.49], [0.01]]],
        ids=["mass2/3", "mass0.9", "mass0.99"])
    def test_z_scores_over_fixed_seeds(self, two_group_overlap, uniform21,
                                       weights):
        """Over seeds 0..39 the z-scores of the row draw against the series
        look standard normal: their mean within 0.5 (about 3 standard
        errors of a mean of 40) and their spread within [0.7, 1.35].  A
        row's count drawn at the wrong rate, a wrong Pascal step or a row
        value off by one moves the mean by several stderr at 10^5
        samples."""
        p = uniform21 if weights is None else ProbVector(weights)
        series = phi_series(two_group_overlap, p, tol=1e-12).value
        zs = []
        for seed in range(40):
            mc = phi_monte_carlo(two_group_overlap, p, 10**5, seed)
            zs.append((mc.value - series) / mc.stderr)
        assert abs(statistics.fmean(zs)) <= 0.5
        assert 0.7 <= statistics.stdev(zs) <= 1.35

    @pytest.mark.parametrize("weights", [
        None, [[0.6, 0.3], [0.1]], [[0.5, 0.49], [0.01]]],
        ids=["mass2/3", "mass0.9", "mass0.99"])
    def test_agrees_with_per_sample_draw(self, two_group_overlap, uniform21,
                                         weights):
        """The row draw and the per-sample draw of every run estimate the
        same mean: within 5 combined stderr at 10^6 samples each."""
        p = uniform21 if weights is None else ProbVector(weights)
        mc = phi_monte_carlo(two_group_overlap, p, 10**6, seed=11)
        mean, stderr = phi_monte_carlo_per_sample(two_group_overlap, p,
                                                  10**6, seed=12)
        assert abs(mc.value - mean) <= 5 * math.hypot(mc.stderr, stderr)
        assert mc.stderr == pytest.approx(stderr, rel=0.05)

    @pytest.mark.parametrize("weights", [None, [[0.6, 0.3], [0.1]]],
                             ids=["mass2/3", "mass0.9"])
    def test_samples_past_the_rows_agree_with_series(
            self, two_group_overlap, uniform21, weights):
        """At 3 samples no row expects more than one sample, so every run
        is drawn by _mc_chunk from run 0, where a run off by one would move
        the value most: the mean of 3000 seeds' values lies within 5 of its
        standard errors of the series."""
        p = uniform21 if weights is None else ProbVector(weights)
        series = phi_series(two_group_overlap, p, tol=1e-12).value
        values = [phi_monte_carlo(two_group_overlap, p, 3, seed).value
                  for seed in range(3000)]
        stderr = statistics.stdev(values) / math.sqrt(len(values))
        assert abs(statistics.fmean(values) - series) <= 5 * stderr

    def test_long_run_past_the_rows_is_refused(self, two_group_overlap,
                                               uniform21, monkeypatch):
        """The samples left after the last row carry its run length on into
        _mc_chunk, which refuses a run at MC_RUN_CAP: at 10^4 uniform
        samples and seed 7 the rows stop at runs 11 and 12 by their own
        rule, so a cap of 16 passes the check before drawing, and one of
        the 61 runs of 11 or 12 plus a geometric draw reaches it."""
        monkeypatch.setattr(entropy, "MC_RUN_CAP", 16)
        with pytest.raises(BudgetExceeded, match="exceeded 16"):
            phi_monte_carlo(two_group_overlap, uniform21, 10**4, seed=7)
        monkeypatch.setattr(entropy, "MC_RUN_CAP", 10**6)
        phi_monte_carlo(two_group_overlap, uniform21, 10**4, seed=7)

    def test_peak_memory(self, two_group_overlap, uniform21):
        """The samples stream in chunks of SAMPLE_CHUNK: the traced peak is
        a few chunk-sized arrays of 8 B per sample (the runs, the counts and
        the log ratios), under one bound at 10^5 and at 10^6 samples.  A
        first small call leaves numpy's own first-use allocations outside
        the trace."""
        phi_monte_carlo(two_group_overlap, uniform21, 10, seed=7)
        for samples in (10**5, 10**6):
            tracemalloc.start()
            try:
                phi_monte_carlo(two_group_overlap, uniform21, samples, seed=7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2**20, samples


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
        """h_p + Phi, with the Phi series' tail bound and the rounding of
        h_p and of the sum, gamma_{n+3} h_p over n = 3 weights."""
        res = rw_entropy_closed(two_group_overlap, uniform21, tol=1e-12)
        h = shannon_entropy(uniform21)
        phi = phi_series(two_group_overlap, uniform21, tol=1e-12)
        assert res.value == pytest.approx(h + phi.value, abs=1e-12)
        assert res.tail_bound == pytest.approx(
            phi.tail_bound + h_rounding(h, 4), rel=1e-12, abs=0)

    @pytest.mark.parametrize("weights", [
        [[0.2], [0.3], [0.5]], [[0.15], [0.35], [0.5]]])
    def test_bound_covers_rounding_of_h(self, weights):
        """Without overlap Phi = 0 with bound 0, and h_RW = h_p is off by
        about an ulp (1.3e-16 and 5.9e-17 here): the bound covers it."""
        sys = CFSystem([0.0, 0.5, 1.0], [[0.3], [0.2], [0.25]])
        res = rw_entropy_closed(sys, ProbVector(weights))
        err = abs(Decimal(res.value)
                  + minus_h_40_digits([w for (w,) in weights]))
        assert 0 < err <= Decimal(res.tail_bound)
        assert res.tail_bound <= 8 * math.ulp(res.value)

    def test_no_overlap_entropy_is_h(self, equal_halves):
        p = ProbVector.uniform(equal_halves)
        res = rw_entropy_closed(equal_halves, p)
        assert res.value == pytest.approx(shannon_entropy(p))

    def test_point_mass_is_zero(self, two_group_overlap):
        p = ProbVector([[1.0, 0.0], [0.0]])
        assert rw_entropy_closed(two_group_overlap, p).value == 0.0

    def test_bruteforce_h1_is_entropy(self, two_group_overlap, uniform21):
        h1 = rw_entropy_bruteforce(two_group_overlap, uniform21, 1).value
        assert h1 == pytest.approx(shannon_entropy(uniform21))

    def test_bruteforce_no_overlap_linear(self, equal_halves):
        p = ProbVector.uniform(equal_halves)
        h = shannon_entropy(p)
        for n, H in enumerate(dp_entropies(equal_halves, p, 6), start=1):
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
        entropies = dp_entropies(sys, p, 6)
        for n in (2, 4, 6):
            oracle = _entropy_by_word_enumeration(sys, p, n)
            assert entropies[n - 1] == pytest.approx(oracle, abs=1e-9)

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
        h6 = dp_entropies(sys, p, 6)[5]
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
        got = dp_entropies(_line_system(ratios), ProbVector(weights), n)
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
        got = dp_entropies(sys, p, n)[-1]
        assert got == pytest.approx(_entropy_by_word_enumeration(sys, p, n),
                                    abs=1e-9)

    def test_series_and_dp_read_one_group_mass(self, monkeypatch):
        """The Phi series and the DP take a group's mass by one rule, the
        fsum of its weights: 0.281 + 0.288 + 0.12 is 0.6890000000000001
        correctly rounded and 0.689 summed left to right."""
        row = [0.281, 0.288, 0.12]
        assert ifs._total(row) != math.fsum(row)
        sys = CFSystem([0.0, 1.0], [[0.3, 0.2, 0.1], [0.25]])
        p = ProbVector([row, [0.311]])
        masses = []

        def spy(row, rho, n, logs, floors):
            masses.append(rho)
            return _log_moments(row, rho, n, logs, floors)

        monkeypatch.setattr(entropy, "_log_moments", spy)
        phi_series(sys, p)
        rw_entropy_bruteforce(sys, p, 5)
        assert masses == [math.fsum(row), math.fsum(row), 0.311]

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

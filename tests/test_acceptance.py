"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints a single PASS line with the
measured quantities, and enforces the stated tolerance and runtime budget.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from cfsdim import (CFSystem, FourCornerProb, FourCornerSystem, ProbVector,
                    attractor_dimension, box_dimension_1d, box_dimension_2d,
                    entropy_slope, gd_dimension, lyapunov, measure_dimension,
                    measure_dimension_4c, min_gap, natural_p,
                    phi_lower_bound, phi_monte_carlo, phi_series,
                    rw_entropy_bruteforce, set_dimension_4c, shannon_entropy,
                    validate_4c)
from conftest import config_path
from identities import bn_matrix_check, special_det
from oracles import word_records

REFERENCE_4C = FourCornerSystem([[0.8, 0.1], [0.1, 0.8]],
                                [[0.45, 0.09], [0.09, 0.45]])


def _random_simple_system(rng, n_groups):
    """A system with one map per fixed point (no shared fixed points)."""
    ts = rng.uniform(-2.0, 2.0, size=n_groups)
    while len(set(ts.round(6))) < n_groups:
        ts = rng.uniform(-2.0, 2.0, size=n_groups)
    lams = rng.uniform(0.05, 0.9, size=n_groups)
    return CFSystem(list(ts), [[l] for l in lams])


def _random_grouped_system(rng):
    shape = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))]
    if all(n == 1 for n in shape):
        shape[0] = 2
    ts = list(range(len(shape)))
    lams = [[float(rng.uniform(0.05, 0.6)) for _ in range(n)] for n in shape]
    return CFSystem(ts, lams)


def _random_p(rng, shape):
    flat = rng.uniform(0.05, 1.0, size=sum(shape))
    flat /= flat.sum()
    rows, i = [], 0
    out = []
    for n in shape:
        out.append([float(v) for v in flat[i:i + n]])
        i += n
    return ProbVector(out)


def test_criterion_01_phi_vanishes_without_shared_fixed_points():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_phi = 0.0
    worst_dim = 0.0
    for _ in range(50):
        sys = _random_simple_system(rng, int(rng.integers(2, 6)))
        p = _random_p(rng, sys.group_sizes)
        res = phi_series(sys, p, tol=1e-12)
        worst_phi = max(worst_phi, abs(res.value))
        rep = measure_dimension(sys, p, tol=1e-12)
        h = shannon_entropy(p)
        chi = lyapunov(sys, p)
        worst_dim = max(worst_dim, abs(rep.dimension - min(1.0, h / chi)))
    elapsed = time.time() - start
    assert worst_phi <= 1e-14
    assert worst_dim <= 1e-14
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: Phi=0 without shared fixed points "
          f"(max |Phi|={worst_phi:.2e}, max dim err={worst_dim:.2e}, "
          f"{elapsed:.2f}s)")


def test_criterion_02_phi_oracle_triangle():
    start = time.time()
    rng = np.random.default_rng(202)
    worst_sigma = 0.0
    for i in range(20):
        sys = _random_grouped_system(rng)
        p = _random_p(rng, sys.group_sizes)
        se = phi_series(sys, p, tol=1e-11)
        mc = phi_monte_carlo(sys, p, 10**6, seed=1000 + i)
        gap = abs(se.value - mc.value)
        assert gap <= 3 * mc.stderr + se.tail_bound
        if mc.stderr > 0:
            worst_sigma = max(worst_sigma, gap / mc.stderr)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: series vs Monte-Carlo on 20 configs "
          f"(worst gap {worst_sigma:.2f} sigma, {elapsed:.2f}s)")


def test_criterion_03_jensen_lower_bound():
    start = time.time()
    rng = np.random.default_rng(303)
    worst = -math.inf
    for _ in range(200):
        sys = _random_grouped_system(rng)
        p = _random_p(rng, sys.group_sizes)
        se = phi_series(sys, p, tol=1e-11)
        slack = (se.value + se.tail_bound) - phi_lower_bound(sys, p)
        assert slack >= -1e-12
        worst = max(worst, -slack)
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 3: lower bound holds on 200 random p "
          f"(min slack >= {-worst:.2e}, {elapsed:.2f}s)")


def test_criterion_04_random_walk_entropy_limit():
    start = time.time()
    results = []
    for lams in ([[0.3, 0.2], [0.25]], [[0.3, 0.2, 0.15], [0.25, 0.1]]):
        sys = CFSystem([0.0, 1.0], lams)
        p = ProbVector.uniform(sys)
        target = shannon_entropy(p) + phi_series(sys, p, tol=1e-12).value
        bf = rw_entropy_bruteforce(sys, p, 13)
        rho = max(float(sum(row)) for row in p.weights)
        errs = {n: abs(bf.increments[n - 1] - target) for n in range(4, 13)}
        assert errs[12] <= 1e-3
        for n, err in errs.items():
            assert err <= math.log(n + 2) * rho ** n
        results.append((sys.group_sizes, errs[12]))
    elapsed = time.time() - start
    assert elapsed < 60.0
    detail = ", ".join(f"{shape}: {err:.2e}" for shape, err in results)
    print(f"\nPASS criterion 4: increment error at n=12 ({detail}; decay "
          f"within log(n+2)*rho^n for n=4..12, {elapsed:.2f}s)")


def test_criterion_05_attractor_root_identity():
    start = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        lams = [[float(rng.uniform(0.05, 0.9)) for _ in range(2)],
                [float(rng.uniform(0.05, 0.9))]]
        sys = CFSystem([0.0, 1.0], lams)
        s = attractor_dimension(sys).raw
        l11, l12 = lams[0]
        l21 = lams[1][0]
        res = abs(l11**s + l12**s - l11**s * l12**s + l21**s - 1.0)
        worst = max(worst, res)
    elapsed = time.time() - start
    assert worst <= 1e-9
    assert elapsed < 2.0
    print(f"\nPASS criterion 5: expanded root identity on 100 systems "
          f"(max residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_06_graph_directed_convergence():
    start = time.time()
    small = [
        CFSystem([0.0, 1.0], [[1 / 3, 1 / 3], [1 / 3]]),
        CFSystem([0.0, 1.0], [[0.3, 0.2], [0.25]]),
        CFSystem([0.0, 1.0, 2.0], [[0.3, 0.15], [0.25], [0.2]]),
    ]
    worst_gap = 0.0
    for sys in small:
        seq = [gd_dimension(sys, d) for d in range(1, 11)]
        assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))
        s0 = attractor_dimension(sys).raw
        gap = abs(seq[-1] - s0)
        assert gap <= 1e-3
        worst_gap = max(worst_gap, gap)
    worst_rho = 0.0
    for sys in (small[1], small[2]):
        rho_b, rho_c = bn_matrix_check(sys, 0.8, 3)
        assert abs(rho_b - rho_c) <= 1e-9
        worst_rho = max(worst_rho, abs(rho_b - rho_c))
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 6: s_n monotone, |s_10 - s_0| <= "
          f"{worst_gap:.2e}, |rho_B - rho_C| <= {worst_rho:.2e} "
          f"({elapsed:.2f}s)")


def test_criterion_07_determinant_identity():
    start = time.time()
    rng = np.random.default_rng(707)
    assert special_det([2.0, 3.0]) == pytest.approx(2.0 + 3.0 - 6.0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        xs = rng.uniform(-3.0, 3.0, size=n)
        A = np.tile(xs - 1.0, (n, 1))
        np.fill_diagonal(A, -1.0)
        oracle = float(np.linalg.det(A))
        rel = abs(special_det(xs) - oracle) / max(1.0, abs(oracle))
        worst = max(worst, rel)
    elapsed = time.time() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(f"\nPASS criterion 7: determinant closed form vs elimination, "
          f"1000 vectors (worst rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_08_four_corner_reference_point():
    start = time.time()
    rep = validate_4c(REFERENCE_4C)
    assert rep["open_set_ok"] and rep["domination_ok"]
    value = set_dimension_4c(REFERENCE_4C, tol=1e-14).diagnostics["suff_value"]
    assert value > 0
    prob, s = natural_p(REFERENCE_4C)
    dim = measure_dimension_4c(REFERENCE_4C, prob, tol=1e-12)
    h = dim.diagnostics["entropy"]
    cx, cy = dim.diagnostics["chi_x"], dim.diagnostics["chi_y"]
    assert dim.raw == pytest.approx(1.0 + (h - cx) / cy, abs=1e-12)
    assert abs(dim.raw - s) <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 8: reference 4-corner point certified "
          f"(s={s:.12f}, suff={value:.5f}, |dim - s|="
          f"{abs(dim.raw - s):.2e}, {elapsed:.2f}s)")


def test_criterion_09_coordinate_phi_equivalence():
    start = time.time()
    rng = np.random.default_rng(909)
    shape_sys = CFSystem([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]])
    worst = 0.0
    for _ in range(50):
        raw = rng.uniform(0.05, 1.0, size=4)
        raw /= raw.sum()
        p = FourCornerProb([float(v) for v in raw])
        diag = measure_dimension_4c(REFERENCE_4C, p, tol=1e-12).diagnostics
        vx, vy = diag["phi_x"], diag["phi_y"]
        gx = phi_series(shape_sys, p.x_grouping(), tol=1e-12)
        gy = phi_series(shape_sys, p.y_grouping(), tol=1e-12)
        ex = abs(vx - gx.value)
        ey = abs(vy - gy.value)
        assert ex <= 1e-10 + gx.tail_bound
        assert ey <= 1e-10 + gy.tail_bound
        worst = max(worst, ex, ey)
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 9: coordinate Phi vs generic series, 50 random "
          f"p (worst gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_10_empirical_cross_oracles():
    start = time.time()
    lines = []
    # OSC 1-D systems: within 0.05 of min{1, s0}
    for sys in (CFSystem([0.0, 1.0], [[0.5], [0.5]]),
                CFSystem([0.0, 1.0], [[0.25], [0.25]])):
        target = min(1.0, attractor_dimension(sys).raw)
        fit = box_dimension_1d(sys, range(6, 17))
        assert abs(fit.slope - target) <= 0.05
        lines.append(f"osc {fit.slope:.3f}/{target:.3f}")
    # overlapping 1-D systems: within 0.1
    for lams in ([[0.3, 0.2], [0.25]], [[0.45, 0.09], [0.45]]):
        sys = CFSystem([0.0, 1.0], lams)
        target = min(1.0, attractor_dimension(sys).raw)
        fit = box_dimension_1d(sys, range(6, 17))
        assert abs(fit.slope - target) <= 0.1
        lines.append(f"overlap {fit.slope:.3f}/{target:.3f}")
    # measure entropy slope on the (2,1) example: within 0.1
    sys21 = CFSystem([0.0, 1.0], [[0.3, 0.2], [0.25]])
    p21 = ProbVector.uniform(sys21)
    target = measure_dimension(sys21, p21).dimension
    fit = entropy_slope(sys21, p21, 400_000, range(3, 12), seed=10)
    assert abs(fit.slope - target) <= 0.1
    lines.append(f"entropy {fit.slope:.3f}/{target:.3f}")
    # 2-D chaos-game box counting at the reference point: within 0.1
    prob, s_star = natural_p(REFERENCE_4C)
    fit2 = box_dimension_2d(REFERENCE_4C, range(2, 11), 4_000_000, seed=5,
                            weights=prob.p)
    assert abs(fit2.slope - s_star) <= 0.1
    lines.append(f"box2d {fit2.slope:.3f}/{s_star:.3f}")
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 10: empirical estimates within tolerance "
          f"({'; '.join(lines)}; {elapsed:.1f}s)")


def test_criterion_11_exact_overlap_soundness():
    start = time.time()
    # ratios chosen free of multiplicative coincidences through n = 8;
    # e.g. (1/2, 1/3, 1/5) has a genuine non-block exact overlap at n = 7
    sys = CFSystem(["0", "1"], [["1/2", "1/5"], ["1/7"]], mode="rational")
    for n in range(1, 9):
        by_sig = {}
        by_map = {}
        for sig, m, _ in word_records(sys, n):
            key = (m.ratio, m.intercept)
            by_sig.setdefault(sig, set()).add(key)
            by_map.setdefault(key, set()).add(sig)
        assert all(len(v) == 1 for v in by_sig.values())
        assert all(len(v) == 1 for v in by_map.values())
    rep = min_gap(sys, 8)
    assert not rep.exact_zero
    assert rep.min_gap is None or rep.min_gap > 0
    elapsed = time.time() - start
    assert elapsed < 60.0
    gap_str = "none" if rep.min_gap is None else f"{rep.min_gap:.3e}"
    print(f"\nPASS criterion 11: signature equality <=> map equality for "
          f"n<=8 (3^8 words); min_gap at n=8 certified {gap_str} > 0 "
          f"({elapsed:.2f}s)")


def test_criterion_12_cli_determinism():
    start = time.time()
    runs = [
        ["measure-dim", config_path("two_group_overlap.json")],
        ["phi", config_path("two_group_overlap.json"),
         "--mc-samples", "100000", "--seed", "21"],
        ["attractor-dim", config_path("all_third.json"), "--gd-depth", "4"],
        ["esc-probe", config_path("cantor_quarter.json"), "--n-max", "4"],
        ["fourcorner", config_path("four_corner_main.json"),
         "--probabilities", "natural"],
        ["estimate", config_path("two_group_overlap.json"),
         "--kind", "entropy", "--points", "50000", "--m-lo", "3",
         "--m-hi", "9", "--seed", "21"],
    ]
    for argv in runs:
        cmd = [sys.executable, "-m", "cfsdim.cli"] + argv
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == 0, a.stderr.decode()
        assert a.stdout == b.stdout
    elapsed = time.time() - start
    print(f"\nPASS criterion 12: {len(runs)} CLI invocations byte-identical "
          f"on repeat runs ({elapsed:.1f}s)")

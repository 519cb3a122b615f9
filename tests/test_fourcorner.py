"""The 4-corner self-affine system: conditions, coordinate entropies,
the four-case measure dimension, the natural weights, and rendering."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from cfsdim import (BudgetExceeded, CFSystem, FourCornerProb,
                    FourCornerSystem, ProbVector, ValidationError,
                    box_dimension_2d, fourcorner, lyapunov,
                    measure_dimension, measure_dimension_4c, natural_p,
                    phi_series, render_attractor_ppm, set_dimension_4c,
                    shannon_entropy, validate_4c)
from cfsdim.fourcorner import render_cylinders_svg, _cylinders
from cfsdim.cli import main
from oracles import attractor_ppm, chaos_game_points

# Frozen root of sum gamma_i * lambda_i^{s-1} = 1 at the reference
# parameters, from the bisection oracle at tol 1e-14.
S_STAR = 1.64301670663502

# sha256 of the rendered files: the PPM's from the full-image writer
# (oracles.attractor_ppm), the SVG's from before the renderers streamed
# their output; streaming must not change a byte
PPM_SHA256 = "f56aad90a00d1992d6a44244d427e83c1dda5b96b08788ca9c2d9403db1c48d8"
SVG_SHA256 = "88f7afe2d81e2855dc0a228550d5531ac5a221c16a899fab485be6c4776f1cfd"
# box_dimension_2d(four_corner_main, range(4, 15), 10**6, seed=0) at uniform
# weights, from counting the chaos game held as one array
# (oracles.chaos_game_points and cell_counts)
BOX2D_COUNTS = (200, 558, 1590, 4209, 9110, 17942, 33240, 55116, 88200,
                132286, 186143)


def log_space_excess(sys, s):
    """sum_i gamma_i * lambda_i^{s-1} - 1 with every term taken in logs, so
    that no power leaves the doubles."""
    return math.fsum(math.exp(math.log(g) + (s - 1) * math.log(l))
                     for (g, _), (l, _) in sys.maps()) - 1.0


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak traced bytes while fn(*args, **kwargs) runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture
def quarters():
    return FourCornerSystem([[0.25, 0.25], [0.25, 0.25]],
                            [[0.25, 0.25], [0.25, 0.25]])


class TestValidate:
    def test_reference_point_passes(self, four_corner_main):
        rep = validate_4c(four_corner_main)
        assert rep["open_set_ok"]
        assert rep["domination_ok"]

    def test_oversized_ratios_fail(self):
        sys = FourCornerSystem([[0.6] * 2] * 2, [[0.6] * 2] * 2)
        rep = validate_4c(sys)
        assert not rep["open_set_ok"]

    def test_symmetric_quarters_ok(self, quarters):
        rep = validate_4c(quarters)
        assert rep["open_set_ok"]

    @pytest.mark.parametrize("gamma", [
        [[0.5, 0.5]], [[0.5, 0.5], [0.5]], [[0.5, 0.5], [0.5, 0.5, 0.5]],
        [[0.5, 0.5]] * 3])
    def test_grid_not_2x2_refused(self, gamma):
        with pytest.raises(ValidationError, match="^gamma and lambda must "
                                                  "be 2x2$"):
            FourCornerSystem(gamma, [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="must be 2x2"):
            FourCornerSystem([[0.5, 0.5], [0.5, 0.5]], gamma)

    @pytest.mark.parametrize("kind", ["cfs", None, 4])
    def test_other_descriptor_type_refused(self, kind):
        desc = {"gamma": [[0.5, 0.5]] * 2, "lambda": [[0.5, 0.5]] * 2}
        if kind is not None:
            desc["type"] = kind
        with pytest.raises(ValidationError, match=f"^not a four_corner "
                                                  f"descriptor: {kind!r}$"):
            FourCornerSystem.from_json_dict(desc)


def _chis(sys, p) -> tuple:
    """(chi_x, chi_y) as the measure report gives them."""
    diag = measure_dimension_4c(sys, p).diagnostics
    return diag["chi_x"], diag["chi_y"]


def _phis(sys, p, tol=1e-12) -> tuple:
    """((Phi_x, its tail bound), (Phi_y, its tail bound)) as the measure
    report gives them."""
    diag = measure_dimension_4c(sys, p, tol).diagnostics
    return ((diag["phi_x"], diag["phi_x_tail_bound"]),
            (diag["phi_y"], diag["phi_y_tail_bound"]))


class TestChis:
    def test_all_half(self):
        sys = FourCornerSystem([[0.5, 0.5], [0.5, 0.5]],
                               [[0.5, 0.5], [0.5, 0.5]])
        cx, cy = _chis(sys, FourCornerProb.uniform())
        assert cx == pytest.approx(math.log(2))
        assert cy == pytest.approx(math.log(2))

    def test_corner_mass(self, four_corner_main):
        cx, cy = _chis(four_corner_main, FourCornerProb([1, 0, 0, 0]))
        assert cx == pytest.approx(-math.log(0.8))
        assert cy == pytest.approx(-math.log(0.45))

    def test_y_pairing(self, four_corner_main):
        # p2 pairs with lambda[2][1], p3 with lambda[1][2]
        _, cy = _chis(four_corner_main, FourCornerProb([0, 1, 0, 0]))
        assert cy == pytest.approx(-math.log(0.09))


class TestPhiXY:
    def _generic_phi(self, grouping):
        # another line system of the same shape: Phi ignores the ratios
        sys = CFSystem([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]])
        return phi_series(sys, grouping, tol=1e-12)

    def test_matches_generic_series(self, four_corner_main):
        """Phi ignores the ratios: each projection's PhiResult, bound
        included, is that of another line system of the same shape."""
        p = FourCornerProb([0.4, 0.3, 0.2, 0.1])
        rx, ry = _phis(four_corner_main, p, tol=1e-12)
        assert rx == self._generic_phi(p.x_grouping())[:2]
        assert ry == self._generic_phi(p.y_grouping())[:2]
        assert 0.0 < rx[1] <= 1e-12 and 0.0 < ry[1] <= 1e-12

    def test_nonpositive(self, four_corner_main):
        p = FourCornerProb([0.3, 0.3, 0.2, 0.2])
        (vx, _), (vy, _) = _phis(four_corner_main, p)
        assert vx <= 0.0 and vy <= 0.0

    def test_symmetric_p_symmetric_phi(self, four_corner_main):
        p = FourCornerProb([0.25, 0.25, 0.25, 0.25])
        (vx, _), (vy, _) = _phis(four_corner_main, p)
        assert vx == pytest.approx(vy, abs=1e-14)

    @pytest.mark.parametrize("weights, bound", [
        ([0.5, 0.5, 0.0, 0.0], 4 * math.ulp(math.log(2))),
        ([0.5, 0.5, 1e-16, 0.0], 1e-14),
    ], ids=["point-mass", "mass-rounding-to-one"])
    def test_coordinate_group_holding_all_mass_gives_minus_h(
            self, four_corner_main, weights, bound):
        """The x grouping holds all the mass in one group, exactly or up to
        1e-16 (0.5 + 0.5 + 1e-16 rounds to 1): Phi_x = -h, within the
        point-mass bound and the rounding of h."""
        p = FourCornerProb(weights)
        h = shannon_entropy(p.x_grouping())
        x_line = CFSystem([0.0, 1.0], four_corner_main.gamma)
        res = phi_series(x_line, p.x_grouping(), tol=1e-12)
        assert (res.value, res.method) == (-h, "point-mass")
        assert res.tail_bound <= bound
        assert _phis(four_corner_main, p)[0][0] == -h

    @pytest.mark.parametrize("excess, ok", [(5e-13, True), (2e-12, False)])
    def test_weight_rule_is_the_line_systems(self, excess, ok):
        """FourCornerProb and ProbVector share one rule: the sum may miss 1
        by at most PROB_SUM_TOL."""
        weights = [0.25, 0.25, 0.25, 0.25 + excess]
        for build in (lambda: ProbVector([weights[:2], weights[2:]]),
                      lambda: FourCornerProb(weights)):
            if ok:
                build()
            else:
                with pytest.raises(ValidationError, match="SumNotOne"):
                    build()

    def test_wrong_number_of_weights_rejected(self):
        with pytest.raises(ValidationError, match="4 weights"):
            FourCornerProb([0.5, 0.5])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValidationError):
            FourCornerProb([float("nan"), 0.5, 0.25, 0.25])


class TestNaturalP:
    def test_symmetric_quarters(self, quarters):
        prob, s = natural_p(quarters)
        assert s == pytest.approx(1.0, abs=1e-10)
        assert prob.p == pytest.approx((0.25,) * 4)

    def test_reference_point(self, four_corner_main):
        prob, s = natural_p(four_corner_main)
        assert s == pytest.approx(S_STAR, abs=1e-10)
        assert sum(prob.p) == pytest.approx(1.0, abs=1e-12)
        assert prob.p[0] == pytest.approx(0.478740137, abs=1e-8)
        assert prob.p[1] == pytest.approx(0.021259863, abs=1e-8)

    @pytest.mark.parametrize("g, l", [(0.01, 0.005), (0.2, 0.1),
                                      (0.3, 0.01), (0.45, 0.99)])
    def test_equal_ratio_closed_form(self, g, l):
        """Every gamma g and every lambda l: 4 g l^(s-1) = 1 gives
        s = 1 + log(1/(4g)) / log(l), here 0.39, 0.90, 1.04 and 59.5; the
        first and last lie outside the fixed bracket [0.5, 3] used before."""
        prob, s = natural_p(FourCornerSystem([[g, g], [g, g]], [[l, l], [l, l]]))
        closed = 1.0 + math.log(1.0 / (4 * g)) / math.log(l)
        assert abs(s - closed) <= 1e-12 * max(1.0, closed)
        assert prob.p == pytest.approx((0.25,) * 4, abs=1e-12)

    def test_root_not_positive_refused(self):
        """4 gamma / lambda = 0.89 <= 1: the excess is negative from s = 0
        on, so the root 1 + log(2.5) / log(0.45) = -0.15 is not positive."""
        sys = FourCornerSystem([[0.1, 0.1], [0.1, 0.1]],
                               [[0.45, 0.45], [0.45, 0.45]])
        with pytest.raises(ValidationError, match="no positive root"):
            natural_p(sys)

    def test_root_satisfies_equation(self, four_corner_main):
        _, s = natural_p(four_corner_main)
        g, l = four_corner_main.gamma, four_corner_main.lam
        total = (g[0][0] * l[0][0] ** (s - 1) + g[0][1] * l[1][0] ** (s - 1)
                 + g[1][0] * l[0][1] ** (s - 1) + g[1][1] * l[1][1] ** (s - 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_subnormal_ratio_root(self):
        """lambda_11 = 1e-309 is subnormal: lambda_11^{s-1} overflows at
        s = 0, which the root reads as +inf.  The root and its bracket are
        checked against the equation evaluated in log space."""
        sys = FourCornerSystem([[0.5, 0.5], [0.5, 0.5]],
                               [[1e-309, 0.5], [0.5, 0.5]])
        prob, s = natural_p(sys)
        assert log_space_excess(sys, s) == pytest.approx(0.0, abs=1e-14)
        assert s == pytest.approx(math.log2(3), abs=1e-13)
        rep = set_dimension_4c(sys)
        lo, hi = rep.diagnostics["bracket"]
        assert lo == hi or (log_space_excess(sys, lo) > 0
                            > log_space_excess(sys, hi))
        assert sum(prob.p) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("argv", [
        ["fourcorner", "--probabilities", "natural"],
        ["estimate", "--kind", "box2d", "--probabilities", "natural",
         "--points", "2000", "--m-lo", "2", "--m-hi", "6"],
    ], ids=["fourcorner", "estimate-box2d"])
    def test_subnormal_ratio_commands(self, argv, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({
            "type": "four_corner", "gamma": [[0.5, 0.5], [0.5, 0.5]],
            "lambda": [[1e-309, 0.5], [0.5, 0.5]]}))
        assert main([argv[0], str(path), *argv[1:]]) == 0
        json.loads(capsys.readouterr().out)


def _suff_value(sys):
    """The sufficiency expression at the natural weights."""
    return set_dimension_4c(sys, tol=1e-14).diagnostics["suff_value"]


class TestSuffCheck:
    def test_reference_point_holds(self, four_corner_main):
        value = _suff_value(four_corner_main)
        assert value > 0.0
        assert value == pytest.approx(0.50918, abs=1e-4)

    def test_symmetric_quarters_boundary(self, quarters):
        # every log argument is (1 - 1/4) / 1 < 1 ... evaluate and only
        # assert consistency of the certificate with the sign
        diag = set_dimension_4c(quarters, tol=1e-14).diagnostics
        assert diag["certified"] == (diag["conditions"]["domination_ok"]
                                     and diag["suff_value"] > 0.0)

    def test_quotients_past_the_doubles(self):
        """Subnormal ratios put p_4 within 2e-14 of 1: (1 - p_4) gamma_3
        underflows to 0, so that term goes through logs.  Checked against
        the expression summed in logs, 1 - p_j summed from the others.  At
        the root lambda^{s-1} is past the doubles while every term is not,
        so s is checked against the equation in log space too: s sits
        about 0.0024 below the power's overflow boundary."""
        sys = FourCornerSystem([[5e-324, 5e-324], [5e-324, 1e-309]],
                               [[5e-324, 5e-324], [5e-324, 5e-324]])
        diag = set_dimension_4c(sys, tol=1e-14).diagnostics
        lo, hi = diag["bracket"]
        assert log_space_excess(sys, diag["s"]) == pytest.approx(0.0,
                                                                 abs=1e-11)
        assert lo == hi or (log_space_excess(sys, lo) > 0
                            > log_space_excess(sys, hi))
        assert diag["s"] == pytest.approx(0.0442497380631332, abs=1e-13)
        p, g = diag["natural_p"], [5e-324, 5e-324, 5e-324, 1e-309]
        oracle = math.fsum(
            p[i] * (math.log(math.fsum(p[:j] + p[j + 1:])) + math.log(g[i])
                    - math.log(p[i]))
            for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)))
        assert diag["suff_value"] == pytest.approx(oracle, rel=1e-12)


class TestMeasureDimension4C:
    def test_reference_point_natural_p(self, four_corner_main):
        prob, s = natural_p(four_corner_main)
        rep = measure_dimension_4c(four_corner_main, prob, tol=1e-12)
        assert rep.diagnostics["case"] == "x-overflow"
        h = rep.diagnostics["entropy"]
        cx = rep.diagnostics["chi_x"]
        cy = rep.diagnostics["chi_y"]
        assert rep.raw == pytest.approx(1.0 + (h - cx) / cy, abs=1e-12)
        assert rep.raw == pytest.approx(s, abs=1e-9)

    def test_reports_both_phi_bounds(self, four_corner_main):
        """The diagnostics carry each projection's Phi with its tail
        bound, as phi_series gives them on the projection's line system,
        and its chi, as lyapunov does."""
        p = FourCornerProb([0.4, 0.3, 0.2, 0.1])
        diag = measure_dimension_4c(four_corner_main, p).diagnostics
        for axis, ratios, q in (("x", four_corner_main.gamma, p.x_grouping()),
                                ("y", four_corner_main.lam, p.y_grouping())):
            line = CFSystem([0.0, 1.0], ratios)
            assert (diag[f"phi_{axis}"], diag[f"phi_{axis}_tail_bound"]) \
                == phi_series(line, q, tol=1e-12)[:2]
            assert diag[f"chi_{axis}"] == lyapunov(line, q)

    def test_corner_mass_is_zero(self, four_corner_main):
        rep = measure_dimension_4c(four_corner_main,
                                   FourCornerProb([1, 0, 0, 0]))
        assert rep.dimension == 0.0

    def test_symmetric_boundary_case_agreement(self, quarters):
        # chi_x == chi_y: both saturating formulas must agree
        p = FourCornerProb([0.4, 0.1, 0.1, 0.4])
        rep = measure_dimension_4c(quarters, p)
        h = rep.diagnostics["entropy"]
        cx, cy = rep.diagnostics["chi_x"], rep.diagnostics["chi_y"]
        px, py = rep.diagnostics["phi_x"], rep.diagnostics["phi_y"]
        assert cx == pytest.approx(cy, abs=1e-12)
        alt = {"x-saturating": (h + py) / cy - py / cx,
               "y-saturating": (h + px) / cx - px / cy}
        case = rep.diagnostics["case"]
        if case in alt:
            assert rep.raw == pytest.approx(alt[case], abs=1e-9)

    def test_open_set_required(self):
        sys = FourCornerSystem([[0.6] * 2] * 2, [[0.6] * 2] * 2)
        with pytest.raises(ValidationError):
            measure_dimension_4c(sys, FourCornerProb.uniform())

    @pytest.mark.parametrize("gamma, lam, p, case", [
        ([[0.8, 0.1], [0.1, 0.8]], [[0.45, 0.09], [0.09, 0.45]], None,
         "x-overflow"),
        ([[0.25, 0.25], [0.25, 0.25]], [[0.25, 0.25], [0.25, 0.25]],
         [0.4, 0.1, 0.1, 0.4], "x-saturating"),
        ([[0.45, 0.09], [0.09, 0.45]], [[0.8, 0.1], [0.1, 0.8]],
         [0.4, 0.2, 0.2, 0.2], "y-overflow"),
        ([[0.1, 0.1], [0.1, 0.1]], [[0.25, 0.25], [0.25, 0.25]],
         [0.25, 0.25, 0.25, 0.25], "y-saturating"),
    ], ids=["reference", "quarters", "y-overflow", "y-saturating"])
    def test_ledrappier_young_rule(self, gamma, lam, p, case):
        """raw = dim_a + (h - chi_a dim_a)/chi_b, with dim_a the line-system
        measure dimension of the less contracted projection a."""
        sys = FourCornerSystem(gamma, lam)
        prob = natural_p(sys)[0] if p is None else FourCornerProb(p)
        rep = measure_dimension_4c(sys, prob, tol=1e-12)
        assert rep.diagnostics["case"] == case
        lines = {"x": (CFSystem([0.0, 1.0], gamma), prob.x_grouping()),
                 "y": (CFSystem([0.0, 1.0], lam), prob.y_grouping())}
        chi = {c: lyapunov(*lines[c]) for c in lines}
        a, b = ("x", "y") if chi["y"] >= chi["x"] else ("y", "x")
        dim_a = measure_dimension(*lines[a], tol=1e-12).dimension
        h = shannon_entropy(prob.x_grouping())
        assert rep.raw == pytest.approx(
            dim_a + (h - chi[a] * dim_a) / chi[b], abs=1e-12)

    @pytest.mark.parametrize("p, point_mass", [
        ([0.5, 0.5, 0.0, 0.0], "x"),
        ([0.5, 0.0, 0.5, 0.0], "y"),
        ([0.3, 0.7, 0.0, 0.0], "x"),
        ([0.0, 0.0, 0.4, 0.6], "x"),
        ([0.5, 0.5, 1e-16, 0.0], "x"),
    ], ids=["x0-halves", "y0-halves", "x0-uneven", "x1-uneven",
            "x0-rounded"])
    def test_point_mass_projection(self, four_corner_main, p, point_mass):
        """The measure lives on an edge of the square: its dimension is the
        line-system dimension of the projection that is not a point mass."""
        prob = FourCornerProb(p)
        rep = measure_dimension_4c(four_corner_main, prob, tol=1e-12)
        assert rep.diagnostics["phi_" + point_mass] == \
            -rep.diagnostics["entropy"]
        other = ((CFSystem([0.0, 1.0], four_corner_main.lam),
                  prob.y_grouping()) if point_mass == "x" else
                 (CFSystem([0.0, 1.0], four_corner_main.gamma),
                  prob.x_grouping()))
        assert rep.raw == pytest.approx(
            measure_dimension(*other, tol=1e-12).raw, abs=1e-12)

    def test_one_map_is_a_point(self, four_corner_main):
        """All mass on one map: both projections are point masses, and the
        Ledrappier-Young rule gives 0 with no special case."""
        rep = measure_dimension_4c(four_corner_main,
                                   FourCornerProb([1.0, 0.0, 0.0, 0.0]))
        assert (rep.dimension, rep.raw) == (0.0, 0.0)
        assert rep.diagnostics["phi_x"] == rep.diagnostics["phi_y"] == 0.0

    def test_duality_swap(self, four_corner_main):
        """Exchanging the two coordinates (gamma <-> lambda with the member
        transposition) swaps (chi_x, phi_x) and (chi_y, phi_y)."""
        g, l = four_corner_main.gamma, four_corner_main.lam
        swapped = FourCornerSystem(l, g)
        p = FourCornerProb([0.4, 0.2, 0.2, 0.2])
        # the coordinate swap permutes map roles 2 <-> 3
        q = FourCornerProb([p.p[0], p.p[2], p.p[1], p.p[3]])
        cx, cy = _chis(four_corner_main, p)
        cx2, cy2 = _chis(swapped, q)
        assert (cx2, cy2) == pytest.approx((cy, cx))
        (vx, _), (vy, _) = _phis(four_corner_main, p)
        (vx2, _), (vy2, _) = _phis(swapped, q)
        assert (vx2, vy2) == pytest.approx((vy, vx))


class TestSetDimension4C:
    def test_reference_point_certified(self, four_corner_main):
        rep = set_dimension_4c(four_corner_main)
        assert rep.raw == pytest.approx(S_STAR, abs=1e-10)
        assert rep.diagnostics["certified"]

    def test_symmetric_quarters(self, quarters):
        rep = set_dimension_4c(quarters)
        assert rep.raw == pytest.approx(1.0, abs=1e-10)

    def test_open_set_required(self):
        sys = FourCornerSystem([[0.6] * 2] * 2, [[0.4] * 2] * 2)
        with pytest.raises(ValidationError,
                           match="^gamma11 \\+ gamma21 > 1; gamma12"):
            set_dimension_4c(sys)

    def test_domination_failure_flagged(self):
        # lambda11 > gamma11 breaks domination but not the open set condition
        sys = FourCornerSystem([[0.3, 0.1], [0.1, 0.3]],
                               [[0.45, 0.09], [0.09, 0.45]])
        rep = set_dimension_4c(sys)
        assert rep.diagnostics["certified"] is False
        assert rep.diagnostics["suff_value"] == pytest.approx(
            _suff_value(sys), abs=1e-10)


class TestRendering:
    def test_depth_one_cylinders(self, four_corner_main):
        rects = list(_cylinders(four_corner_main, 1))
        assert len(rects) == 4
        assert (0.0, 0.0, 0.8, 0.45) in [tuple(round(v, 12) for v in r)
                                         for r in rects]

    def test_svg_has_four_rects(self, four_corner_main, tmp_path):
        out = str(tmp_path / "cyl.svg")
        render_cylinders_svg(four_corner_main, 1, out)
        with open(out) as fh:
            text = fh.read()
        assert text.count("<rect") == 5  # background + 4 cylinders
        assert text.startswith("<svg")

    def test_chaos_game_stays_inside_square(self, four_corner_main):
        pts = chaos_game_points(four_corner_main, 50_000, seed=1, scale=10)
        assert pts.shape == (50_000, 2)
        assert np.all(pts >= 0.0) and np.all(pts <= 1.0)

    def test_chaos_game_deterministic(self, four_corner_main):
        a = chaos_game_points(four_corner_main, 10_000, seed=9, scale=10)
        b = chaos_game_points(four_corner_main, 10_000, seed=9, scale=10)
        assert np.array_equal(a, b)

    def test_weighted_chaos_game(self, four_corner_main):
        prob, _ = natural_p(four_corner_main)
        pts = chaos_game_points(four_corner_main, 10_000, seed=2, scale=10,
                                weights=prob.p)
        assert np.all(pts >= 0.0) and np.all(pts <= 1.0)

    def test_cylinder_cap(self, four_corner_main, monkeypatch):
        monkeypatch.setattr(fourcorner, "CYLINDER_CAP", 4**3)
        assert len(list(_cylinders(four_corner_main, 3))) == 4**3
        for depth in (4, 10**9):
            with pytest.raises(BudgetExceeded, match="rectangles"):
                _cylinders(four_corner_main, depth)

    def test_ppm_header(self, four_corner_main, tmp_path):
        out = str(tmp_path / "att.ppm")
        render_attractor_ppm(four_corner_main, 20_000, 0, out, size=100)
        with open(out, "rb") as fh:
            data = fh.read()
        assert data.startswith(b"P6\n100 100\n255\n")
        assert len(data) == len(b"P6\n100 100\n255\n") + 100 * 100 * 3


    def test_ppm_bytes_pinned(self, four_corner_main, tmp_path):
        out = str(tmp_path / "att.ppm")
        render_attractor_ppm(four_corner_main, 20_000, 0, out, size=100)
        assert sha256_of(out) == PPM_SHA256

    def test_box2d_counts_pinned(self, four_corner_main):
        fit = box_dimension_2d(four_corner_main, range(4, 15), 10**6, seed=0)
        assert fit.counts == BOX2D_COUNTS

    @pytest.mark.parametrize("points, seed, size", [
        (20_000, 0, 100), (10_001, 5, 600), (5_000, 3, 257), (3_000, 1, 1)])
    def test_ppm_bytes_match_full_image_writer(self, four_corner_main,
                                               tmp_path, points, seed, size):
        """The flat image written a block of rows at a time gives the bytes
        of the 2-D image repeated into RGB in full (tests/oracles.py), also
        where the last block is cut short (600 and 257 rows)."""
        out = str(tmp_path / "att.ppm")
        render_attractor_ppm(four_corner_main, points, seed, out, size=size)
        with open(out, "rb") as fh:
            assert fh.read() == attractor_ppm(four_corner_main, points, seed,
                                              size)

    def test_svg_bytes_pinned(self, four_corner_main, tmp_path):
        out = str(tmp_path / "cyl.svg")
        render_cylinders_svg(four_corner_main, 4, out)
        assert sha256_of(out) == SVG_SHA256

    def test_chaos_game_points_are_the_rendered_steps(self, four_corner_main,
                                                      tmp_path):
        """The raster marks exactly the pixels of chaos_game_points burned
        in for its scale (6 at 64 pixels), with a point count that cuts the
        last step short."""
        points, size = 10_001, 64
        out = str(tmp_path / "att.ppm")
        render_attractor_ppm(four_corner_main, points, 5, out, size=size)
        with open(out, "rb") as fh:
            data = fh.read()
        header = f"P6\n{size} {size}\n255\n".encode()
        img = np.frombuffer(data[len(header):], dtype=np.uint8)
        pts = chaos_game_points(four_corner_main, points, seed=5, scale=6)
        want = np.full((size, size), 255, dtype=np.uint8)
        xi = np.clip((pts[:, 0] * size).astype(int), 0, size - 1)
        yi = np.clip(((1.0 - pts[:, 1]) * size).astype(int), 0, size - 1)
        want[yi, xi] = 0
        assert np.array_equal(img.reshape(size, size, 3)[:, :, 0], want)

    def test_ppm_memory_does_not_grow_with_points(self, four_corner_main,
                                                  tmp_path):
        out = str(tmp_path / "att.ppm")
        render_attractor_ppm(four_corner_main, 20_000, 0, out)   # warm up
        small = traced_peak(render_attractor_ppm, four_corner_main, 20_000,
                            0, out)
        large = traced_peak(render_attractor_ppm, four_corner_main, 10**6,
                            0, out)
        assert large <= small + 2**19

    def test_ppm_memory_about_a_byte_per_pixel(self, four_corner_main,
                                               tmp_path):
        """The raster takes one byte a pixel and the RGB body is written a
        block of rows at a time: a full RGB copy and its bytes would add six
        bytes a pixel."""
        out, size = str(tmp_path / "att.ppm"), 2000
        render_attractor_ppm(four_corner_main, 20_000, 0, out)   # warm up
        peak = traced_peak(render_attractor_ppm, four_corner_main, 20_000,
                           0, out, size=size)
        assert peak <= 2 * size * size

    def test_svg_memory_per_rectangle(self, four_corner_main, tmp_path):
        depth = 7
        peak = traced_peak(render_cylinders_svg, four_corner_main, depth,
                           str(tmp_path / "cyl.svg"))
        assert peak <= 80 * 4**depth

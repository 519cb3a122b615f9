"""CLI contract: subcommand behaviour, exit codes, determinism."""

import ast
import builtins
import inspect
import json
import math
import os
import re
import subprocess
import sys

import pytest

import cfsdim
from cfsdim import (ProbVector, cli, dimension, entropy, estimate,
                    fourcorner, ifs, measure_dimension, separation, words)
from cfsdim.cli import main
from conftest import config_path

TWO_GROUP = config_path("two_group_overlap.json")
FOUR_CORNER = config_path("four_corner_main.json")
CANTOR = config_path("cantor_quarter.json")

# A 4-corner set of dimension 1 + log 25 / log 0.005 = 0.392472...
SMALL_4C = {"type": "four_corner", "gamma": [[0.01, 0.01], [0.01, 0.01]],
            "lambda": [[0.005, 0.005], [0.005, 0.005]]}


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_descriptor(tmp_path, desc):
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(desc))
    return str(path)


class TestMeasureDim:
    def test_full_interval(self, capsys):
        code, out, _ = run_main(
            ["measure-dim", config_path("equal_halves.json")], capsys)
        assert code == 0
        assert json.loads(out)["dimension"] == pytest.approx(1.0)

    def test_overlapping_system(self, capsys):
        code, out, _ = run_main(
            ["measure-dim", config_path("two_group_overlap.json"),
             "--probabilities", "uniform"], capsys)
        assert code == 0
        rep = json.loads(out)
        d = rep["diagnostics"]
        assembled = (d["entropy"] + d["phi"]) / d["lyapunov"]
        assert rep["raw"] == pytest.approx(assembled, abs=1e-10)

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run_main(["measure-dim", str(bad)], capsys)
        assert code == 1
        assert err

    def test_missing_file(self, capsys):
        code, _, _ = run_main(["measure-dim", "/nonexistent.json"], capsys)
        assert code == 1

    @pytest.mark.parametrize("desc, line", [
        ({"fixed_points": [0, 0], "ratios": [[0.5], [0.5]]},
         "DuplicateFixedPoint: t[1] == t[2]"),
        ({"fixed_points": [0, 1], "ratios": [[1.5], [0.5]]},
         "RatioOutOfRange: lambda[1][1]=1.5"),
        ({"fixed_points": [0, 1], "ratios": [[], [0.5]]},
         "EmptyGroup: group 1 has no maps"),
        ({"fixed_points": [0], "ratios": [[0.5]]},
         "EmptyGroup: need at least 2 fixed points"),
        ({"fixed_points": [0, 1, 2], "ratios": [[0.5], [0.5]]},
         "ShapeMismatch: ratios rows != fixed points"),
        ({"fixed_points": [0, 1], "ratios": [[0.5, 0.25], [0.5]],
          "probabilities": [[0.5], [0.5]]},
         "ShapeMismatch: weights do not match system shape"),
        ({"fixed_points": [0, 1], "ratios": [[0.5], [0.5]],
          "probabilities": [[0.5], [0.6]]}, "SumNotOne: total=1.1"),
        ({"fixed_points": [0, 1], "ratios": [[0.5], [0.5]],
          "probabilities": [[1.5], [-0.5]]}, "NegativeWeight: -0.5"),
        ({"fixed_points": [0, 1], "ratios": [[0.5, 0.25], [0.5]],
          "probabilities": [[math.nan, 0.5], [0.25]]}, "NonFiniteWeight: nan"),
        ({"fixed_points": ["0", "1"], "ratios": [["1/2"], [0.5]],
          "mode": "rational"}, "rational mode requires exact inputs, got 0.5"),
        ({"fixed_points": [0, 1], "ratios": [[0.5], [0.5]], "mode": "exotic"},
         "unknown mode 'exotic'"),
        ({"fixed_points": [0, math.inf], "ratios": [[0.5], [0.5]]},
         "NonFiniteFixedPoint: t[2]=inf"),
    ], ids=["duplicate-fixed-point", "ratio-out-of-range", "empty-group",
            "single-group", "rows-vs-fixed-points", "weights-shape",
            "sum-not-one", "negative-weight", "non-finite-weight",
            "rational-inexact", "unknown-mode", "non-finite-fixed-point"])
    def test_invalid_system(self, desc, line, tmp_path, capsys):
        path = write_descriptor(tmp_path, {"type": "cfs", **desc})
        code, out, err = run_main(["measure-dim", path], capsys)
        assert (code, out, err) == (2, "", f"validation error: {line}\n")


class TestAttractorDim:
    def test_cantor(self, capsys):
        code, out, _ = run_main(
            ["attractor-dim", config_path("cantor_quarter.json")], capsys)
        assert code == 0
        assert json.loads(out)["raw"] == pytest.approx(0.5, abs=1e-9)

    def test_quadratic_system(self, capsys):
        code, out, _ = run_main(
            ["attractor-dim", config_path("all_third.json")], capsys)
        assert code == 0
        expected = math.log(2 / (3 - math.sqrt(5))) / math.log(3)
        assert json.loads(out)["raw"] == pytest.approx(expected, abs=1e-6)

    def test_gd_sequence_monotone(self, capsys):
        code, out, _ = run_main(
            ["attractor-dim", config_path("two_group_overlap.json"),
             "--gd-depth", "6"], capsys)
        assert code == 0
        seq = json.loads(out)["gd_sequence"]
        assert seq == sorted(seq)

    def test_root_reports_its_bracket(self, capsys):
        """The attractor root lies in its final sign-change bracket, at most
        tol/2 wide, found in a handful of evaluations."""
        code, out, _ = run_main(["attractor-dim", TWO_GROUP], capsys)
        assert code == 0
        rep = json.loads(out)
        lo, hi = rep["diagnostics"]["bracket"]
        assert lo <= rep["raw"] <= hi and hi - lo <= 0.5 * rep["tolerance"]
        assert 2 <= rep["diagnostics"]["evaluations"] <= 16

    def test_gd_sequence_budget_checked_first(self):
        """The homogeneous-sum cells of s_1..s_D (D(D+1)/2 per map per
        evaluation) are checked against dimension.GD_CELL_CAP before any
        root, so a huge depth exits 3 at once rather than in O(D^2) time
        (the timeout turns a hang into a failure)."""
        proc = subprocess.run(
            [sys.executable, "-m", "cfsdim.cli", "attractor-dim", TWO_GROUP,
             "--gd-depth", "100000"],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 3
        assert "homogeneous-sum cells" in proc.stderr
        assert proc.stdout == ""


class TestPhiAndEntropy:
    def test_phi_with_mc(self, capsys):
        code, out, _ = run_main(
            ["phi", config_path("two_group_overlap.json"),
             "--mc-samples", "10000", "--seed", "3"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["series"]["value"] <= 0
        assert rep["lower_bound"] <= rep["series"]["value"] + 1e-9

    def test_rw_entropy(self, capsys):
        code, out, _ = run_main(
            ["rw-entropy", config_path("two_group_overlap.json"),
             "--depth", "8"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["brute_force"]["depth"] == 8

    def test_rw_entropy_cap_counts_dp_cells(self, capsys):
        """The signature-DP cap counts the cells the DP fills, (n-1)(n+2)/2
        per binomial row (rows 1..n-1) plus N per depth: groups (2, 1) need
        one row, so they run to depth 4469 and stop at 4470."""
        code, out, _ = run_main(["rw-entropy", TWO_GROUP, "--depth", "4469"],
                                capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["brute_force"]["increments"][-1] == pytest.approx(
            rep["closed_form"]["value"], abs=1e-9)
        code, out, err = run_main(["rw-entropy", TWO_GROUP, "--depth", "4470"],
                                  capsys)
        assert code == 3
        assert "10001624 cells" in err and out == ""


class TestEscProbe:
    def test_probe_with_csv(self, tmp_path, capsys):
        csv = tmp_path / "probe.csv"
        code, out, _ = run_main(
            ["esc-probe", config_path("cantor_quarter.json"),
             "--n-max", "5", "--csv", str(csv)], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "consistent-up-to-5"
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,min_gap,implied_b"
        assert len(lines) == 5  # header + n = 2..5

    def test_probe_csv_writes_null_as_empty_field(self, tmp_path, capsys):
        """all_third's equal maps meet at gap 0, where no b is implied: the
        CSV leaves that field empty where the JSON has null."""
        csv = tmp_path / "probe.csv"
        code, out, _ = run_main(
            ["esc-probe", config_path("all_third.json"), "--n-max", "3",
             "--csv", str(csv)], capsys)
        assert code == 0
        assert [r["implied_b"] for r in json.loads(out)["rows"]] == [None] * 2
        assert csv.read_text() == "n,min_gap,implied_b\n2,0.0,\n3,0.0,\n"

    def test_violation_witness(self, capsys):
        code, out, _ = run_main(
            ["esc-probe", config_path("exact_coincidence.json"),
             "--n-max", "3"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "violated-with-witness"


class TestFourCorner:
    def test_reference_system(self, capsys):
        code, out, _ = run_main(
            ["fourcorner", config_path("four_corner_main.json"),
             "--probabilities", "natural"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["suff_holds"]
        assert rep["s"] == pytest.approx(1.64301670663502, abs=1e-9)
        assert rep["measure_dimension"]["raw"] == pytest.approx(rep["s"],
                                                                abs=1e-9)

    @pytest.mark.parametrize("spec", ["uniform", "natural"])
    def test_set_dimension_below_one_half(self, spec, tmp_path, capsys):
        """gamma all 0.01 and lambda all 0.005 meet the open-set and
        domination conditions, and the natural-weight root is the equal-ratio
        closed form 1 + log(1/(4 gamma)) / log(lambda) = 0.392472..., below
        the 0.5 an earlier fixed bracket started at."""
        path = write_descriptor(tmp_path, SMALL_4C)
        code, out, _ = run_main(["fourcorner", path, "--probabilities", spec],
                                capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["conditions"]["open_set_ok"]
        assert rep["conditions"]["domination_ok"]
        closed = 1.0 + math.log(1.0 / (4 * 0.01)) / math.log(0.005)
        assert abs(rep["s"] - closed) <= 1e-12

    def test_no_positive_natural_root(self, tmp_path, capsys):
        """sum gamma_i / lambda_i = 0.08 <= 1: the natural-weight excess is
        negative from s = 0 on, so its root is not positive (exit 2)."""
        path = write_descriptor(tmp_path, {
            "type": "four_corner", "gamma": [[0.01, 0.01], [0.01, 0.01]],
            "lambda": [[0.5, 0.5], [0.5, 0.5]]})
        code, _, err = run_main(["fourcorner", path], capsys)
        assert code == 2
        assert "no positive root" in err

    def test_natural_equation_solved_once_per_use(self, monkeypatch, capsys):
        """--probabilities natural and the set dimension each solve it once,
        and every reported value comes from the set-dimension report."""
        solves = []
        natural_root = fourcorner._natural_root

        def counted(*args, **kwargs):
            solves.append(args)
            return natural_root(*args, **kwargs)

        monkeypatch.setattr(fourcorner, "_natural_root", counted)
        code, out, _ = run_main(["fourcorner", FOUR_CORNER,
                                 "--probabilities", "natural"], capsys)
        assert code == 0
        assert len(solves) == 2
        rep = json.loads(out)
        diag = rep["set_dimension"]["diagnostics"]
        assert rep["s"] == rep["set_dimension"]["raw"] == diag["s"]
        assert rep["natural_p"] == diag["natural_p"]
        assert rep["suff_value"] == diag["suff_value"]
        assert rep["suff_holds"] == (diag["suff_value"] > 0)


class TestRender:
    def test_cylinders(self, tmp_path, capsys):
        out_path = tmp_path / "fig.svg"
        code, _, _ = run_main(
            ["render", config_path("four_corner_main.json"),
             "--mode", "cylinders", "--depth", "1", "--out", str(out_path)],
            capsys)
        assert code == 0
        assert out_path.read_text().count("<rect") == 5

    def test_attractor(self, tmp_path, capsys):
        out_path = tmp_path / "fig.ppm"
        code, _, _ = run_main(
            ["render", config_path("four_corner_main.json"),
             "--mode", "attractor", "--points", "20000", "--seed", "1",
             "--out", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_bytes().startswith(b"P6\n")


class TestEstimateCommand:
    def test_box1d(self, capsys):
        code, out, _ = run_main(
            ["estimate", config_path("cantor_quarter.json"),
             "--kind", "box1d", "--m-lo", "6", "--m-hi", "14"], capsys)
        assert code == 0
        assert json.loads(out)["slope"] == pytest.approx(0.5, abs=0.05)


JSON_TYPES = {type(None): "null", bool: "bool", int: "int", float: "float",
              str: "str", list: "array", dict: "object"}


def json_shape(value) -> dict:
    """{path: JSON types} of every value nested in ``value``: the items of
    an array share the path "<array>[]", and member-number keys (a block
    signature's counts) share "*"."""
    shape = {}

    def walk(v, path):
        shape.setdefault(path, set()).add(JSON_TYPES[type(v)])
        if isinstance(v, dict):
            for k, x in v.items():
                walk(x, f"{path}.{'*' if k.isdigit() else k}")
        elif isinstance(v, list):
            for x in v:
                walk(x, path + "[]")

    walk(value, "$")
    return {path: "|".join(sorted(types)) for path, types in shape.items()}


OUTPUT_COMMANDS = {
    "measure-dim": ["measure-dim", TWO_GROUP],
    "attractor-dim": ["attractor-dim", config_path("all_third.json"),
                      "--gd-depth", "3", "--box", "8"],
    "phi": ["phi", TWO_GROUP],
    "phi-mc": ["phi", TWO_GROUP, "--mc-samples", "1000"],
    "rw-entropy": ["rw-entropy", TWO_GROUP],
    "rw-entropy-depth": ["rw-entropy", TWO_GROUP, "--depth", "4"],
    "esc-probe-all-third": ["esc-probe", config_path("all_third.json"),
                            "--n-max", "4"],
    "esc-probe-rational": ["esc-probe",
                           config_path("rational_three_symbol.json"),
                           "--n-max", "4"],
    "fourcorner": ["fourcorner", FOUR_CORNER],
    "estimate-box1d": ["estimate", CANTOR, "--kind", "box1d", "--m-lo", "4",
                       "--m-hi", "8"],
    "estimate-box2d": ["estimate", FOUR_CORNER, "--kind", "box2d",
                       "--points", "2000", "--m-lo", "2", "--m-hi", "6"],
    "estimate-entropy": ["estimate", TWO_GROUP, "--kind", "entropy",
                         "--points", "2000", "--m-lo", "2", "--m-hi", "6"],
}

# Each command's key paths and JSON types, recorded before the results
# shared one serialiser; a null value and an absent key are different shapes.
OUTPUT_SHAPES = {
    "measure-dim": {
        "$": "object", "$.diagnostics": "object",
        "$.diagnostics.entropy": "float", "$.diagnostics.lyapunov": "float",
        "$.diagnostics.phi": "float", "$.diagnostics.phi_tail_bound": "float",
        "$.dimension": "float", "$.method": "str", "$.raw": "float",
        "$.tolerance": "float",
    },
    "attractor-dim": {
        "$": "object", "$.box_delta": "float", "$.box_fit": "object",
        "$.box_fit.counts": "array", "$.box_fit.counts[]": "int",
        "$.box_fit.r2": "float", "$.box_fit.scales": "array",
        "$.box_fit.scales[]": "int", "$.box_fit.slope": "float",
        "$.box_fit.window": "array", "$.box_fit.window[]": "int",
        "$.diagnostics": "object", "$.diagnostics.bracket": "array",
        "$.diagnostics.bracket[]": "float",
        "$.diagnostics.evaluations": "int",
        "$.dimension": "float", "$.gd_delta": "float",
        "$.gd_sequence": "array", "$.gd_sequence[]": "float",
        "$.method": "str", "$.raw": "float", "$.tolerance": "float",
    },
    "phi": {
        "$": "object", "$.lower_bound": "float", "$.series": "object",
        "$.series.method": "str", "$.series.tail_bound": "float",
        "$.series.terms_used": "int", "$.series.value": "float",
    },
    "phi-mc": {
        "$": "object", "$.lower_bound": "float", "$.monte_carlo": "object",
        "$.monte_carlo.method": "str", "$.monte_carlo.stderr": "float",
        "$.monte_carlo.tail_bound": "float",
        "$.monte_carlo.terms_used": "int", "$.monte_carlo.value": "float",
        "$.series": "object", "$.series.method": "str",
        "$.series.tail_bound": "float", "$.series.terms_used": "int",
        "$.series.value": "float",
    },
    "rw-entropy": {
        "$": "object", "$.closed_form": "object",
        "$.closed_form.method": "str", "$.closed_form.value": "float",
    },
    "rw-entropy-depth": {
        "$": "object", "$.brute_force": "object",
        "$.brute_force.depth": "int", "$.brute_force.increments": "array",
        "$.brute_force.increments[]": "float", "$.brute_force.method": "str",
        "$.brute_force.value": "float", "$.closed_form": "object",
        "$.closed_form.method": "str", "$.closed_form.value": "float",
    },
    "esc-probe-all-third": {
        "$": "object", "$.b_hat": "null", "$.rows": "array",
        "$.rows[]": "object", "$.rows[].class_count": "int",
        "$.rows[].depth": "int", "$.rows[].exact_zero": "bool",
        "$.rows[].implied_b": "null", "$.rows[].min_gap": "float",
        "$.rows[].mode": "str", "$.rows[].witness": "array",
        "$.rows[].witness[]": "array", "$.rows[].witness[][]": "object",
        "$.rows[].witness[][].counts": "object",
        "$.rows[].witness[][].counts.*": "int",
        "$.rows[].witness[][].group": "int",
        "$.rows[].witness_words": "array",
        "$.rows[].witness_words[]": "array",
        "$.rows[].witness_words[][]": "array",
        "$.rows[].witness_words[][][]": "int", "$.verdict": "str",
    },
    "esc-probe-rational": {
        "$": "object", "$.b_hat": "float", "$.rows": "array",
        "$.rows[]": "object", "$.rows[].class_count": "int",
        "$.rows[].depth": "int", "$.rows[].exact_zero": "bool",
        "$.rows[].implied_b": "float", "$.rows[].min_gap": "float",
        "$.rows[].mode": "str", "$.rows[].witness": "array",
        "$.rows[].witness[]": "array", "$.rows[].witness[][]": "object",
        "$.rows[].witness[][].counts": "object",
        "$.rows[].witness[][].counts.*": "int",
        "$.rows[].witness[][].group": "int",
        "$.rows[].witness_words": "array",
        "$.rows[].witness_words[]": "array",
        "$.rows[].witness_words[][]": "array",
        "$.rows[].witness_words[][][]": "int", "$.verdict": "str",
    },
    "fourcorner": {
        "$": "object", "$.conditions": "object",
        "$.conditions.domination_ok": "bool",
        "$.conditions.domination_violations": "array",
        "$.conditions.open_set_ok": "bool",
        "$.conditions.open_set_violations": "array",
        "$.measure_dimension": "object",
        "$.measure_dimension.diagnostics": "object",
        "$.measure_dimension.diagnostics.case": "str",
        "$.measure_dimension.diagnostics.chi_x": "float",
        "$.measure_dimension.diagnostics.chi_y": "float",
        "$.measure_dimension.diagnostics.entropy": "float",
        "$.measure_dimension.diagnostics.phi_x": "float",
        "$.measure_dimension.diagnostics.phi_y": "float",
        "$.measure_dimension.dimension": "float",
        "$.measure_dimension.method": "str",
        "$.measure_dimension.raw": "float",
        "$.measure_dimension.tolerance": "float", "$.natural_p": "array",
        "$.natural_p[]": "float", "$.s": "float", "$.set_dimension": "object",
        "$.set_dimension.diagnostics": "object",
        "$.set_dimension.diagnostics.bracket": "array",
        "$.set_dimension.diagnostics.bracket[]": "float",
        "$.set_dimension.diagnostics.certified": "bool",
        "$.set_dimension.diagnostics.conditions": "object",
        "$.set_dimension.diagnostics.conditions.domination_ok": "bool",
        "$.set_dimension.diagnostics.conditions.domination_violations": "array",
        "$.set_dimension.diagnostics.conditions.open_set_ok": "bool",
        "$.set_dimension.diagnostics.conditions.open_set_violations": "array",
        "$.set_dimension.diagnostics.evaluations": "int",
        "$.set_dimension.diagnostics.natural_p": "array",
        "$.set_dimension.diagnostics.natural_p[]": "float",
        "$.set_dimension.diagnostics.s": "float",
        "$.set_dimension.diagnostics.suff_value": "float",
        "$.set_dimension.dimension": "float", "$.set_dimension.method": "str",
        "$.set_dimension.raw": "float", "$.set_dimension.tolerance": "float",
        "$.suff_holds": "bool", "$.suff_value": "float",
    },
    "estimate-box1d": {
        "$": "object", "$.counts": "array", "$.counts[]": "int",
        "$.r2": "float", "$.scales": "array", "$.scales[]": "int",
        "$.slope": "float", "$.window": "array", "$.window[]": "int",
    },
    "estimate-box2d": {
        "$": "object", "$.counts": "array", "$.counts[]": "int",
        "$.r2": "float", "$.scales": "array", "$.scales[]": "int",
        "$.slope": "float", "$.window": "array", "$.window[]": "int",
    },
    "estimate-entropy": {
        "$": "object", "$.counts": "array", "$.counts[]": "float",
        "$.r2": "float", "$.scales": "array", "$.scales[]": "int",
        "$.slope": "float", "$.window": "array", "$.window[]": "int",
    },
}


class TestOutputShape:
    @pytest.mark.parametrize("name", OUTPUT_COMMANDS)
    def test_keys_and_types_pinned(self, name, capsys):
        code, out, _ = run_main(OUTPUT_COMMANDS[name], capsys)
        assert code == 0
        assert json_shape(json.loads(out)) == OUTPUT_SHAPES[name]

    def test_library_report_is_the_printed_json(self, capsys):
        """The CLI prints the library's to_json_dict as it is; the dump and
        load only turn a block signature's integer member keys into the
        strings JSON keys are."""
        path = config_path("rational_three_symbol.json")
        code, out, _ = run_main(["esc-probe", path, "--n-max", "5"], capsys)
        assert code == 0
        lib = separation.esc_probe(ifs.load_system(path)[0], 5).to_json_dict()
        assert json.loads(json.dumps(lib)) == json.loads(out)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["phi", config_path("two_group_overlap.json"),
         "--mc-samples", "50000", "--seed", "11"],
        ["estimate", config_path("two_group_overlap.json"),
         "--kind", "entropy", "--points", "50000", "--m-lo", "3",
         "--m-hi", "9", "--seed", "11"],
        ["fourcorner", config_path("four_corner_main.json"),
         "--probabilities", "natural"],
    ])
    def test_repeat_runs_byte_identical(self, argv):
        def run():
            return subprocess.run(
                [sys.executable, "-m", "cfsdim.cli"] + argv,
                capture_output=True)
        a, b = run(), run()
        assert a.returncode == 0
        assert a.stdout == b.stdout


# One form of each command whose work is the paper's formulas, or the 1-D
# cover count; none of them may need numpy.
NUMPY_FREE_FORMS = [
    ["measure-dim", TWO_GROUP, "--probabilities", "uniform"],
    ["rw-entropy", TWO_GROUP, "--depth", "12"],
    ["esc-probe", config_path("rational_three_symbol.json"), "--n-max", "6"],
    ["fourcorner", FOUR_CORNER, "--probabilities", "natural"],
    ["phi", TWO_GROUP],
    ["estimate", CANTOR, "--kind", "box1d", "--m-lo", "6", "--m-hi", "12"],
    ["attractor-dim", config_path("all_third.json"), "--box", "12"],
]

# Runs each argv of a JSON list through cfsdim.cli.main with numpy made
# unimportable, and prints [exit code, stdout] per argv as a JSON list.
WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import cfsdim.cli
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cfsdim.cli.main(argv)
    results.append([code, buf.getvalue()])
print(json.dumps(results))
"""


class TestNumpyFree:
    def test_import_leaves_numpy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, cfsdim, cfsdim.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_formula_commands_run_without_numpy(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-c", WITHOUT_NUMPY,
             json.dumps(NUMPY_FREE_FORMS)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for argv, (code, out) in zip(NUMPY_FREE_FORMS,
                                     json.loads(proc.stdout)):
            assert (code, out) == (0, run_main(argv, capsys)[1]), argv


class TestFractionsFree:
    def test_float_run_leaves_fractions_unloaded(self):
        """fractions (and decimal, which it imports) load on the rational
        branches only."""
        script = """
import contextlib, io, sys
import cfsdim.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cfsdim.cli.main(sys.argv[1:])
print(code, *(m in sys.modules for m in ("fractions", "decimal")))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, "measure-dim", TWO_GROUP,
             "--probabilities", "uniform"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "False"]


# Runs cfsdim.cli.main(argv) on the command line's argv and prints the
# cfsdim modules it loaded.
LOADED_MODULES = """
import contextlib, io, sys
import cfsdim.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cfsdim.cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("cfsdim")))
"""


def loaded_modules(argv):
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    assert code == "0"
    return {m.removeprefix("cfsdim.") for m in modules} - {"cfsdim", "cli"}


class TestLazyImports:
    def test_cli_import_loads_only_ifs(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, cfsdim.cli; print(*sorted("
             "m for m in sys.modules if m.startswith('cfsdim')))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["cfsdim", "cfsdim.cli", "cfsdim.ifs"]

    @pytest.mark.parametrize("argv, modules", [
        (["measure-dim", TWO_GROUP, "--probabilities", "uniform"],
         {"ifs", "entropy", "dimension"}),
        (["attractor-dim", config_path("all_third.json"), "--gd-depth", "2",
          "--box", "8"], {"ifs", "entropy", "dimension", "estimate"}),
        (["phi", TWO_GROUP, "--mc-samples", "1000", "--seed", "7"],
         {"ifs", "entropy"}),
        (["rw-entropy", TWO_GROUP, "--depth", "4"], {"ifs", "entropy"}),
        (["esc-probe", config_path("rational_three_symbol.json"),
          "--n-max", "4", "--csv", "{tmp}/probe.csv"],
         {"ifs", "words", "separation"}),
        (["fourcorner", FOUR_CORNER, "--probabilities", "natural"],
         {"ifs", "entropy", "dimension", "fourcorner"}),
        (["render", FOUR_CORNER, "--mode", "attractor", "--points", "1000",
          "--seed", "0", "--out", "{tmp}/attractor.ppm"],
         {"ifs", "entropy", "dimension", "fourcorner"}),
        (["estimate", CANTOR, "--kind", "box1d", "--m-lo", "6",
          "--m-hi", "10"], {"ifs", "estimate"}),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_readme_command_loads_only_its_modules(self, argv, modules,
                                                   tmp_path):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert loaded_modules(argv) == modules

    def test_star_import_and_unknown_names(self):
        script = """
import importlib, json
from cfsdim import *
import cfsdim
print(json.dumps({
    "all": cfsdim.__all__,
    "bound": all(globals()[name] is getattr(
        importlib.import_module("cfsdim." + mod), name)
        for name, mod in cfsdim._MODULE_OF.items()),
    "nope": hasattr(cfsdim, "nope")}))
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "all": sorted(cfsdim._MODULE_OF), "bound": True, "nope": False}

    def test_public_names_are_pinned(self):
        """The package exports what it computes with; a check-only oracle
        (word enumeration, composition, class weights) lives in the tests."""
        assert cfsdim.__all__ == [
            "AffineMap1D", "Block", "BlockSignature", "BudgetExceeded",
            "CFSystem", "ConditionsNotMet", "DimensionReport",
            "FourCornerProb", "FourCornerSystem", "PhiResult", "ProbVector",
            "ProbeResult", "RWEntropyResult", "ScalingFit",
            "SeparationReport", "Symbol", "ValidationError", "Word",
            "attractor_dimension", "box_dimension_1d", "box_dimension_2d",
            "chaos_game_points", "chis", "collision_buckets",
            "cover_boxes_1d", "entropy_slope", "esc_probe", "gd_dimension",
            "gd_matrix", "load_system", "lyapunov", "map_of",
            "measure_dimension", "measure_dimension_4c", "min_gap",
            "natural_p", "phi_lower_bound", "phi_monte_carlo", "phi_series",
            "phi_xy", "prune_zeros", "render_attractor_ppm",
            "render_cylinders_svg", "rw_entropy_bruteforce",
            "rw_entropy_closed", "set_dimension_4c", "shannon_entropy",
            "similarity_dimension", "spectral_radius", "validate_4c",
            "validate_probabilities", "validate_system"]
        assert len(cfsdim.__all__) == 52


class TestProbabilitiesRule:
    def test_json_list_is_used(self, two_group_overlap, capsys):
        weights = [[0.2031, 0.5469], [0.25]]
        code, out, err = run_main(
            ["measure-dim", TWO_GROUP, "--probabilities", json.dumps(weights)],
            capsys)
        assert code == 0 and "Traceback" not in err
        expected = measure_dimension(two_group_overlap, ProbVector(weights),
                                     tol=1e-10)
        assert json.loads(out)["raw"] == expected.raw

    def test_descriptor_probabilities_unless_overridden(
            self, two_group_overlap, tmp_path, capsys):
        weights = [[0.5, 0.2], [0.3]]
        path = write_descriptor(
            tmp_path, two_group_overlap.to_json_dict(ProbVector(weights)))
        _, own, _ = run_main(["phi", path], capsys)
        _, listed, _ = run_main(
            ["phi", path, "--probabilities", json.dumps(weights)], capsys)
        _, uniform, _ = run_main(["phi", path, "--probabilities", "uniform"],
                                 capsys)
        _, plain, _ = run_main(["phi", TWO_GROUP], capsys)
        assert own == listed
        assert uniform == plain != own

    @pytest.mark.parametrize("argv, spec", [
        (["measure-dim", TWO_GROUP], "[[0.5,0.6],[0.1]]"),
        (["fourcorner", FOUR_CORNER], "[0.5,0.6,0.1,0]"),
    ], ids=["cfs", "four_corner"])
    def test_invalid_flag_weights_name_the_flag(self, argv, spec, capsys):
        code, out, err = run_main([*argv, "--probabilities", spec], capsys)
        assert (code, out, err) == (
            2, "", f"validation error: --probabilities {spec}: "
                   "SumNotOne: total=1.2000000000000002\n")

    def test_invalid_descriptor_weights_refused_under_the_flag(
            self, tmp_path, capsys):
        """The descriptor's own weights are built, and so checked, even when
        --probabilities replaces them."""
        path = write_descriptor(tmp_path, {
            "type": "cfs", "fixed_points": [0, 1], "ratios": [[0.5], [0.5]],
            "probabilities": [[0.5], [0.6]]})
        code, out, err = run_main(["phi", path, "--probabilities", "uniform"],
                                  capsys)
        assert (code, out, err) == (2, "", "validation error: "
                                           "SumNotOne: total=1.1\n")


# All but 1e-16 (then 1e-17) of the mass in the first group
NEAR_POINT_MASS = "[[0.5,0.4999999999999999],[1e-16]]"
MASS_ROUNDING_TO_ONE = "[[0.5,0.5],[1e-17]]"

BAD_RATIO_4C = {"type": "four_corner", "gamma": [[1.5, 0.1], [0.1, 0.8]],
                "lambda": [[0.45, 0.09], [0.09, 0.45]]}


class TestExitCodes:
    @pytest.mark.parametrize("argv, code", [
        (["measure-dim", TWO_GROUP, "--probabilities", "natural"], 2),
        (["fourcorner", FOUR_CORNER], 0),
        (["fourcorner", FOUR_CORNER, "--probabilities", "[0.5,"], 2),
        (["fourcorner", FOUR_CORNER, "--probabilities", '"abc"'], 2),
        (["fourcorner", FOUR_CORNER, "--probabilities",
          "[NaN,0.5,0.25,0.25]"], 2),
        (["rw-entropy", TWO_GROUP, "--depth", "200"], 0),
        (["rw-entropy", TWO_GROUP, "--depth", "-1"], 2),
        (["attractor-dim", TWO_GROUP, "--gd-depth", "-2"], 2),
        (["attractor-dim", TWO_GROUP, "--gd-depth", "-100000"], 2),
        (["attractor-dim", TWO_GROUP, "--box", "2"], 2),
        (["estimate", CANTOR, "--kind", "box1d", "--m-lo", "10",
          "--m-hi", "5"], 2),
        (["estimate", FOUR_CORNER, "--kind", "box2d", "--points", "0",
          "--m-lo", "2", "--m-hi", "6"], 2),
        (["estimate", CANTOR, "--kind", "box1d", "--m-lo", "5",
          "--m-hi", "5"], 2),
        (["esc-probe", config_path("rational_three_symbol.json"),
          "--n-max", "-3"], 2),
        (["measure-dim", TWO_GROUP, "--tol", "0"], 2),
        (["fourcorner", FOUR_CORNER, "--tol", "0"], 2),
        (["phi", TWO_GROUP, "--probabilities", "[[0.499,0.499],[0.002]]"], 3),
        (["fourcorner", FOUR_CORNER, "--probabilities", "[0.5,0.5,0,0]"], 0),
        (["measure-dim", TWO_GROUP, "--probabilities", NEAR_POINT_MASS], 0),
        (["rw-entropy", TWO_GROUP, "--probabilities", NEAR_POINT_MASS], 0),
        (["phi", TWO_GROUP, "--probabilities", NEAR_POINT_MASS], 0),
        (["phi", TWO_GROUP, "--tol", "1e-300", "--probabilities",
          MASS_ROUNDING_TO_ONE], 3),
        (["phi", TWO_GROUP, "--mc-samples", "10", "--probabilities",
          MASS_ROUNDING_TO_ONE], 3),
        (["phi", TWO_GROUP, "--mc-samples", "10", "--seed", "-1"], 2),
        (["render", FOUR_CORNER, "--mode", "attractor", "--points", "10",
          "--seed", "-1", "--out", os.devnull], 2),
        (["estimate", TWO_GROUP, "--kind", "entropy", "--points", "10",
          "--m-lo", "2", "--m-hi", "6", "--seed", "-3"], 2),
        (["estimate", FOUR_CORNER, "--kind", "box2d", "--points", "10",
          "--m-lo", "2", "--m-hi", "6", "--seed", "-3"], 2),
        (["estimate", CANTOR, "--kind", "entropy", "--m-lo", "58",
          "--m-hi", "66"], 2),
        (["estimate", FOUR_CORNER, "--kind", "box2d", "--m-lo", "60",
          "--m-hi", "64"], 2),
        (["estimate", FOUR_CORNER, "--kind", "box2d", "--points", "1000",
          "--m-lo", "28", "--m-hi", "31"], 0),
    ], ids=["natural-on-line-system", "fourcorner-default-p",
            "truncated-json", "json-string", "nan-weight", "depth-200",
            "depth-negative", "gd-depth-negative",
            "gd-depth-negative-past-cap", "box-below-first-scale",
            "m-lo-above-m-hi", "box2d-no-points", "one-scale",
            "n-max-negative", "phi-tol-zero", "fourcorner-tol-zero",
            "phi-term-cap", "fourcorner-point-mass-projection",
            "measure-dim-near-point-mass", "rw-entropy-near-point-mass",
            "phi-near-point-mass", "phi-series-mass-rounding-to-one",
            "phi-mc-mass-rounding-to-one", "phi-mc-negative-seed",
            "render-negative-seed", "estimate-entropy-negative-seed",
            "estimate-box2d-negative-seed", "entropy-scale-past-int64",
            "box2d-scale-past-int64", "box2d-largest-scale"])
    def test_command(self, argv, code, capsys):
        got, _, err = run_main(argv, capsys)
        assert got == code
        assert "Traceback" not in err

    def test_scale_past_float_range_exits_at_once(self):
        """A scale exponent lies in 0..estimate.MAX_SCALE (31, the largest m
        whose box2d cell key x * 2^m + y fits in int64), checked before any
        sampling.  At m = 1100, 2.0**-(m + 2) underflows to 0.0 and a started
        sampler would never stop refining: the timeout turns a hang into a
        failure."""
        proc = subprocess.run(
            [sys.executable, "-m", "cfsdim.cli", "estimate", CANTOR,
             "--kind", "entropy", "--m-hi", "1100"],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert "scale exponents must lie in 0..31, got 4..1100" in proc.stderr

    def test_near_point_mass_answers(self, capsys):
        """All but 1e-16 of the mass in one group: dimension 0, h_RW 0 and
        Phi = -h, each within the point-mass bound B(1e-16) = 7.5e-15."""
        args = [TWO_GROUP, "--probabilities", NEAR_POINT_MASS]
        _, out, _ = run_main(["measure-dim", *args], capsys)
        rep = json.loads(out)
        assert rep["dimension"] == 0.0
        assert 0.0 < rep["diagnostics"]["phi_tail_bound"] <= 1e-14
        _, out, _ = run_main(["rw-entropy", *args], capsys)
        assert json.loads(out)["closed_form"]["value"] == 0.0
        _, out, _ = run_main(["phi", *args], capsys)
        series = json.loads(out)["series"]
        assert series["method"] == "point-mass"
        assert series["value"] == -rep["diagnostics"]["entropy"]
        assert series["tail_bound"] == rep["diagnostics"]["phi_tail_bound"]

    @pytest.mark.parametrize("argv", [
        ["phi", TWO_GROUP, "--mc-samples", "101"],
        ["render", FOUR_CORNER, "--mode", "attractor", "--points", "101",
         "--out", "{dir}/fig"],
        ["estimate", TWO_GROUP, "--kind", "entropy", "--points", "101",
         "--m-lo", "2", "--m-hi", "6"],
        ["estimate", FOUR_CORNER, "--kind", "box2d", "--points", "101",
         "--m-lo", "2", "--m-hi", "6"],
        ["render", FOUR_CORNER, "--mode", "cylinders", "--depth", "4",
         "--out", "{dir}/fig"],
    ], ids=["phi-mc", "render-attractor", "estimate-entropy",
            "estimate-box2d", "render-cylinders"])
    def test_sample_caps(self, argv, tmp_path, monkeypatch, capsys):
        """Sample counts above ifs.SAMPLE_CAP and cylinder pictures above
        fourcorner.CYLINDER_CAP rectangles are budget errors, raised before
        anything is allocated or written (caps lowered here to keep the
        runs small)."""
        monkeypatch.setattr(ifs, "SAMPLE_CAP", 100)
        monkeypatch.setattr(fourcorner, "CYLINDER_CAP", 4**3)
        argv = [a.format(dir=tmp_path) for a in argv]
        got, out, err = run_main(argv, capsys)
        assert got == 3
        assert "budget exceeded" in err and "cap" in err
        assert "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "fig").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("argv", [
        ["measure-dim", TWO_GROUP],
        ["attractor-dim", TWO_GROUP],
        ["attractor-dim", TWO_GROUP, "--gd-depth", "2"],
        ["phi", TWO_GROUP],
        ["rw-entropy", TWO_GROUP],
        ["fourcorner", FOUR_CORNER],
    ], ids=["measure-dim", "attractor-dim", "attractor-dim-gd", "phi",
            "rw-entropy", "fourcorner"])
    def test_tolerance_rule(self, argv, tol, capsys):
        """A tolerance that is not finite or not positive is a validation
        error."""
        got, out, err = run_main([*argv, "--tol", tol], capsys)
        assert got == 2
        assert "tolerance must be finite and > 0" in err
        assert out == ""

    @pytest.mark.parametrize("flags, code", [
        (["--mode", "cylinders", "--depth", "0"], 0),
        (["--mode", "cylinders", "--depth", "-3"], 2),
        (["--mode", "attractor", "--points", "0"], 2),
    ], ids=["unit-square", "depth-negative", "no-points"])
    def test_render_range(self, flags, code, tmp_path, capsys):
        out = tmp_path / "fig"
        got, _, err = run_main(["render", FOUR_CORNER, *flags,
                                "--out", str(out)], capsys)
        assert got == code
        assert out.exists() == (code == 0)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["render", "{path}", "--out", "{dir}/fig.svg"],
        ["estimate", "{path}", "--kind", "box2d"],
    ], ids=["render", "estimate-box2d"])
    def test_four_corner_ratio_out_of_range(self, argv, tmp_path, capsys):
        path = write_descriptor(tmp_path, BAD_RATIO_4C)
        argv = [a.format(path=path, dir=tmp_path) for a in argv]
        code, _, err = run_main(argv, capsys)
        assert code == 2
        assert "not in (0,1)" in err

    def test_descriptor_holding_a_list(self, tmp_path, capsys):
        path = write_descriptor(tmp_path, [0.0, 1.0])
        code, _, err = run_main(["measure-dim", path], capsys)
        assert code == 1
        assert "Traceback" not in err


def test_library_raises_only_its_own_exceptions():
    """Every raise under src/cfsdim names a package exception (or re-raises),
    so each one maps to a row of cli.EXIT_CODES; a builtin such as
    ValueError or RuntimeError would not."""
    src = os.path.dirname(cli.__file__)
    builtin = {name for name, obj in vars(builtins).items()
               if inspect.isclass(obj) and issubclass(obj, BaseException)}
    found = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read(), filename=fname)
        # a module-level __getattr__ must raise AttributeError (PEP 562)
        in_getattr = {node for fn in tree.body
                      if isinstance(fn, ast.FunctionDef)
                      and fn.name == "__getattr__" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not isinstance(exc, ast.Name) or exc.id not in builtin \
                    or exc.id == "SystemExit":
                continue
            if exc.id == "AttributeError" and node in in_getattr:
                continue
            found.append(f"{fname}:{node.lineno} raise {exc.id}")
    assert found == []


def _exception_classes():
    modules = (ifs, words, entropy, dimension, separation, fourcorner,
               estimate, cli)
    return sorted({obj for mod in modules for obj in vars(mod).values()
                   if inspect.isclass(obj) and issubclass(obj, Exception)
                   and obj.__module__.startswith("cfsdim")},
                  key=lambda cls: cls.__name__)


def _documented_exit_codes():
    """{exception class name: exit code} from README's exit-code table,
    whose last column names the classes in backticks."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        rows = [line.split("|") for line in fh
                if line.startswith("| ") and line.split("|")[1].strip()
                in ("1", "2", "3")]
    return {name.rsplit(".", 1)[-1]: int(cells[1])
            for cells in rows for name in re.findall(r"`([\w.]+)`",
                                                     cells[-2])}


DOCUMENTED_EXIT = _documented_exit_codes()


def test_readme_exit_table_matches_exit_codes():
    """README's table and cli.EXIT_CODES name the same classes with the
    same codes; a subclass is documented with its base class's code."""
    table = {cls.__name__: code
             for classes, code, _ in cli.EXIT_CODES for cls in classes}
    assert {name: DOCUMENTED_EXIT[name] for name in table} == table
    assert set(DOCUMENTED_EXIT) == \
        set(table) | {cls.__name__ for cls in _exception_classes()}
    for cls in _exception_classes():
        base = next(code for classes, code, _ in cli.EXIT_CODES
                    if issubclass(cls, classes))
        assert DOCUMENTED_EXIT[cls.__name__] == base


@pytest.mark.parametrize("exc_class", _exception_classes(),
                         ids=lambda cls: cls.__name__)
def test_every_exception_class_has_its_exit_code(exc_class, monkeypatch,
                                                 capsys):
    def fail(*args, **kwargs):
        raise exc_class("injected failure")

    monkeypatch.setattr(dimension, "measure_dimension", fail)
    code, _, err = run_main(["measure-dim", TWO_GROUP], capsys)
    assert code == DOCUMENTED_EXIT[exc_class.__name__]
    assert "injected failure" in err
    assert "Traceback" not in err

"""CLI contract: subcommand behaviour, exit codes, determinism."""

import inspect
import json
import math
import subprocess
import sys

import pytest

from cfsdim import (ProbVector, cli, dimension, entropy, estimate,
                    fourcorner, ifs, measure_dimension, separation, words)
from cfsdim.cli import main
from conftest import config_path

TWO_GROUP = config_path("two_group_overlap.json")
FOUR_CORNER = config_path("four_corner_main.json")


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

    def test_invalid_system(self, tmp_path, capsys):
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps({"type": "cfs", "fixed_points": [0, 0],
                                   "ratios": [[0.5], [0.5]]}))
        code, _, _ = run_main(["measure-dim", str(bad)], capsys)
        assert code == 2


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
    ], ids=["natural-on-line-system", "fourcorner-default-p",
            "truncated-json", "json-string", "nan-weight", "depth-200"])
    def test_command(self, argv, code, capsys):
        got, _, err = run_main(argv, capsys)
        assert got == code
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


def _exception_classes():
    modules = (ifs, words, entropy, dimension, separation, fourcorner,
               estimate, cli)
    return sorted({obj for mod in modules for obj in vars(mod).values()
                   if inspect.isclass(obj) and issubclass(obj, Exception)
                   and obj.__module__.startswith("cfsdim")},
                  key=lambda cls: cls.__name__)


# The exit code README documents for each exception class of the package.
DOCUMENTED_EXIT = {
    "ConfigError": 1,
    "ValidationError": 2, "DegenerateMeasure": 2, "ConditionsNotMet": 2,
    "RootOutsideBracket": 2, "EmptyWord": 2,
    "BudgetExceeded": 3, "RunTooLong": 3, "NonConvergence": 3,
}


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

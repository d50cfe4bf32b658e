"""Command-line interface: exit-code contract, JSON reports, determinism."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from cmtk import cli
from cmtk.cli import main

TESTS = Path(__file__).resolve().parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def reject_constant(name):
    """json.loads hook that fails on NaN, Infinity and -Infinity, which
    strict JSON does not have."""
    raise ValueError(f"report holds {name}, which is not strict JSON")


@pytest.fixture
def harmonic_csv(tmp_path):
    p = tmp_path / "harmonic.csv"
    p.write_text("".join(f"1/{k + 1}\n" for k in range(22)))
    return str(p)


@pytest.fixture
def alternating_csv(tmp_path):
    p = tmp_path / "alt.csv"
    p.write_text("0\n1\n0\n1\n")
    return str(p)


class TestExitCodes:
    def test_certify_pass(self, capsys, harmonic_csv):
        code, report, _ = run(
            capsys, "certify", "--kind", "cm", "--depth", "20", harmonic_csv
        )
        assert code == 0
        assert report["result"]["certificate"]["verdict"] == "pass"

    def test_certify_fail_witness(self, capsys, alternating_csv):
        code, report, _ = run(capsys, "certify", "--kind", "cm", alternating_csv)
        assert code == 1
        w = report["result"]["certificate"]["witness"]
        assert (w["n"], w["k"]) == (1, 0)

    def test_certify_inconclusive(self, capsys, tmp_path):
        p = tmp_path / "noisy.json"
        p.write_text(json.dumps([1.0 / (k + 1) for k in range(41)]))
        code, report, _ = run(
            capsys, "certify", "--kind", "cm", "--depth", "30", str(p)
        )
        assert code == 2
        assert report["result"]["certificate"]["verdict"] == "inconclusive"

    def test_certify_signed_zero_margin(self, capsys, tmp_path):
        # the least |entry| of [-0.0, 0.0] is 0.0, not the entry -0.0
        p = tmp_path / "zeros.json"
        p.write_text("[-0.0, 0.0]")
        code = main(["certify", "--kind", "cm", str(p)])
        assert code == 2
        assert '"min_margin": 0.0,' in capsys.readouterr().out

    def test_usage_error(self, capsys, harmonic_csv):
        code = main(["certify", "--kind", "cm", "--bogus-flag", harmonic_csv])
        assert code == 3

    def test_missing_file(self, capsys):
        code = main(["certify", "--kind", "cm", "/nonexistent/nowhere.csv"])
        assert code == 3

    def test_malformed_input_names_line(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1\noops\n")
        code = main(["certify", "--kind", "cm", str(p)])
        err = capsys.readouterr().err
        assert code == 3
        assert "line 2" in err


class TestSubcommands:
    def test_minimal(self, capsys, harmonic_csv):
        code, report, _ = run(
            capsys, "minimal", "--kind", "cm", "--tol", "0.05", harmonic_csv
        )
        assert code == 0
        assert report["result"]["minimality"]["minimal"] is True

    def test_invert_cm_and_evaluate(self, capsys, tmp_path, harmonic_csv):
        model_path = str(tmp_path / "model.json")
        code, report, _ = run(
            capsys, "invert", "cm", harmonic_csv, "--out", model_path
        )
        assert code == 0
        with open(model_path) as fh:
            model = json.load(fh)["result"]["model"]
        mfile = tmp_path / "measure.json"
        mfile.write_text(json.dumps(model))
        code, report, _ = run(capsys, "evaluate", str(mfile), "--at", "0.5,3")
        assert code == 0
        vals = dict((lam, v) for lam, v in report["result"]["values"])
        assert vals[0.5] == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert vals[3.0] == pytest.approx(0.25, abs=1e-3)

    def test_extend(self, capsys, harmonic_csv):
        code, report, _ = run(
            capsys, "extend", "--kind", "cm", "--at", "0.5", harmonic_csv
        )
        assert code == 0
        assert report["result"]["values"][0][1] == pytest.approx(2 / 3, abs=1e-3)

    def test_newton_eval(self, capsys, tmp_path):
        p = tmp_path / "recip.csv"
        p.write_text("".join(f"1/{k + 1}\n" for k in range(30)))
        code, report, _ = run(
            capsys, "newton", "eval", str(p), "--at", "2", "--terms", "30"
        )
        assert code == 0
        assert report["result"]["value"] == "1/3"

    def test_newton_eval_exact_value_past_float_range(self, capsys, tmp_path):
        # float(value) raised OverflowError; the report keeps the exact value
        p = tmp_path / "big.csv"
        p.write_text("0.5\n1.7e308\n1\n0.5\n0.5\n1\n0.5\n1\n-1.7e308\n")
        code, report, err = run(capsys, "newton", "eval", str(p), "--mode", "exact",
                                "--at", "0.5", "--no-meta")
        assert (code, err) == (0, "")
        result = report["result"]
        assert result["value_float"] is None
        assert Fraction(result["value"]) > Fraction(10**308)

    def test_newton_eval_nan_noise_bound_warns(self, capsys, tmp_path):
        # Delta f(0) and Delta^2 f(0) pass float range, so their bounds read
        # inf and the terms' sum is inf - inf: the NaN value warns
        p = tmp_path / "seq.csv"
        p.write_text("1.7e308\n-1.7e308\n-1.7e308\n1.7e308\n1\n2\n")
        code, report, err = run(capsys, "newton", "eval", str(p), "--mode", "float",
                                "--at", "0.5", "--no-meta")
        assert (code, err) == (0, "")
        assert report["result"]["value"] is None
        assert report["result"]["warnings"] == [
            "rounding noise may swamp the value: the sample table's error bounds "
            "allow inf, at least |value|"]

    def test_newton_eval_noise_bound_past_float_range(self, capsys, tmp_path):
        # the float noise bound's fsum overflowed into a traceback; the bounds
        # of the exact differences keep it finite, and the NaN value warns
        p = tmp_path / "noisy.csv"
        drawn = "AAACBCCBABDDCDCAACDCDDBBBBABCBBCBDDCCCDBDDBDCD"
        p.write_text("".join({"A": "1e300\n", "B": "1e150\n", "C": "3.0\n",
                              "D": "-1e-300\n"}[c] for c in drawn))
        code = main(["newton", "eval", str(p), "--mode", "float", "--at", "52", "--terms", "33",
                     "--no-meta"])
        out = capsys.readouterr()
        assert (code, out.err) == (0, "")
        # strict JSON: the value is NaN and the tail estimate inf, written as null
        report = json.loads(out.out, parse_constant=reject_constant)
        assert report["result"]["warnings"] == [
            "rounding noise may swamp the value: the sample table's error bounds "
            "allow 1.03e+308, at least |value|"]
        for key in ("tail_estimate", "value", "value_float"):
            assert report["result"][key] is None, key

    def test_webster(self, capsys):
        code, report, _ = run(
            capsys, "webster", "--g", "identity", "--at", "0.5",
            "--terms", "10000",
        )
        assert code == 0
        val = report["result"]["solutions"][0]["value"]
        assert val == pytest.approx(1.7724539, abs=1e-4)

    def test_operator(self, capsys):
        code, report, _ = run(
            capsys, "operator", "--builtin", "square", "--op", "theta",
            "--c", "1", "--at", "2",
        )
        assert code == 0
        assert report["result"]["values"][0][1] == -4.0

    def test_decompose_bf(self, capsys):
        code, report, _ = run(
            capsys, "decompose", "bf", "--builtin", "one-minus-exp",
            "--nmax", "50",
        )
        assert code == 0
        d = report["result"]["decomposition"]
        assert d["q"] == 0.0
        assert abs(d["d"]) <= 1e-12

    def test_lattice(self, capsys):
        code, report, _ = run(
            capsys, "lattice", "--kind", "cm", "--builtin", "exp-decay",
            "--alpha", "1,0.5", "--depth", "15", "--tol", "2e-3",
        )
        assert code == 0
        assert report["result"]["lattice"]["all_minimal"] is True

    def test_subaffine_fail(self, capsys):
        code, report, _ = run(
            capsys, "subaffine", "--builtin", "square", "--c", "1",
            "--bound", "10",
        )
        assert code == 1

    def test_subaffine_past_float_range_is_inconclusive(self, capsys):
        # the rounding slack of (x + 1e300)^2 was inf: exit 0 with "ok": true
        code, report, _ = run(
            capsys, "subaffine", "--builtin", "square", "--c", "1e300",
            "--bound", "1",
        )
        assert code == 2
        assert report["result"]["subaffine"]["ok"] is None

    def test_bftheta_fail(self, capsys):
        code, report, _ = run(capsys, "bftheta", "--builtin", "square")
        assert code == 1

    def test_selfdec_pass(self, capsys):
        code, report, _ = run(
            capsys, "selfdec", "--builtin", "log1p", "--tol", "0.05"
        )
        assert code == 0
        assert report["result"]["selfdecomposable"]["verdict"] == "pass"

    def test_selfdec_fail(self, capsys):
        code, report, _ = run(capsys, "selfdec", "--builtin", "one-minus-exp")
        assert code == 1

    def test_egf(self, capsys, tmp_path):
        p = tmp_path / "drift.csv"
        p.write_text("".join(f"{k}\n" for k in range(21)))
        code, report, _ = run(capsys, "egf", str(p))
        assert code == 0
        assert report["result"]["egf_residual"] <= 1e-12

    def test_invert_ca(self, capsys, tmp_path):
        p = tmp_path / "bf.csv"
        p.write_text("".join(f"{k}/{k + 1}\n" for k in range(21)))
        code, report, _ = run(capsys, "invert", "ca", str(p), "--tol", "1e-4")
        assert code == 0
        assert report["result"]["model"]["q"] == "0/1"

    def test_newton_fit(self, capsys, tmp_path):
        p = tmp_path / "geo.csv"
        p.write_text("".join(f"1/{2 ** k}\n" for k in range(8)))
        code, report, _ = run(capsys, "newton", "fit", str(p))
        assert code == 0
        assert report["result"]["series"]["coefficients"][1] == "-1/2"

    def test_evaluate_levy_triplet(self, capsys, tmp_path):
        p = tmp_path / "triplet.json"
        p.write_text(json.dumps({"q": 2.0, "d": 3.0, "levy": []}))
        code, report, _ = run(capsys, "evaluate", str(p), "--at", "4")
        assert code == 0
        assert report["result"]["values"][0][1] == 14.0

    def test_custom_triplet_handle(self, capsys, tmp_path):
        p = tmp_path / "triplet.json"
        p.write_text(json.dumps({"q": 0.0, "d": 1.0, "levy": [{"x": 1.0, "w": 0.5}]}))
        code, report, _ = run(
            capsys, "bftheta", "--builtin", f"triplet:{p}"
        )
        assert code == 0

    def test_decompose_cm(self, capsys):
        code, report, _ = run(
            capsys, "decompose", "cm", "--builtin", "exp-decay", "--nmax", "40"
        )
        assert code == 0
        assert abs(report["result"]["decomposition"]["psi_inf"]) <= 1e-17

    def test_webster_check_grid(self, capsys):
        code, report, _ = run(
            capsys, "webster", "--g", "constant:0.5", "--at", "2.0",
            "--terms", "500", "--check-grid", "0.5,1.5,3",
        )
        assert code == 0
        assert report["result"]["functional_equation_residual"] <= 1e-12


class TestCheckExitCodes:
    """lattice and bftheta share one rule: pass when the check passed, fail
    only when a certificate failed, inconclusive otherwise."""

    @pytest.mark.parametrize("kind, builtin", [("cm", "reciprocal"), ("ca", "log1p")])
    def test_lattice_without_failed_certificate_is_inconclusive(self, capsys, kind, builtin):
        # both functions are in the class; rounding noise leaves the deep
        # rows undecidable, which is no certified violation
        code, report, _ = run(capsys, "lattice", "--kind", kind, "--builtin", builtin,
                              "--alpha", "1,0.5", "--depth", "30")
        entries = report["result"]["lattice"]["entries"]
        assert [e["certificate"]["verdict"] for e in entries] == ["inconclusive"] * 2
        assert code == report["exit_code"] == 2

    def test_lattice_with_failed_certificate_fails(self, capsys):
        code, _, _ = run(capsys, "lattice", "--kind", "ca", "--builtin", "exp-decay",
                         "--depth", "8")
        assert code == 1

    def test_partial_lattice_is_inconclusive(self, capsys, monkeypatch):
        # the budget covers the first alpha (14 samples), whose certificate
        # fails, and runs out on the second
        monkeypatch.setenv("CMTK_MAX_EVALS", "20")
        code, report, _ = run(capsys, "lattice", "--kind", "ca", "--builtin", "exp-decay",
                              "--alpha", "1,0.5", "--depth", "8")
        lattice = report["result"]["lattice"]
        assert lattice["partial"] is True
        assert [e["certificate"]["verdict"] for e in lattice["entries"]] == ["fail"]
        assert code == 2


class TestNewtonFloatSeries:
    def test_200_float_samples(self, capsys, tmp_path):
        # 200! is beyond float range; the series builds and evaluates anyway
        p = tmp_path / "h200.csv"
        p.write_text("".join(f"{1.0 / (k + 1)!r}\n" for k in range(200)))
        code, report, err = run(capsys, "newton", "eval", str(p), "--mode", "float")
        assert code == 0 and err == ""
        assert report["result"]["n_terms"] == 200
        assert math.isfinite(report["result"]["value_float"])
        # the value is rounding noise, and the report says so
        assert any(w.startswith("rounding noise may swamp the value")
                   for w in report["result"]["warnings"])
        _, exact, _ = run(capsys, "newton", "eval", str(p), "--terms", "25")
        _, rounded, _ = run(capsys, "newton", "eval", str(p), "--mode", "float", "--terms", "25")
        assert rounded["result"]["value_float"] == pytest.approx(
            exact["result"]["value_float"], abs=1e-9)
        assert rounded["result"]["warnings"] == []

    @pytest.mark.parametrize("values, at", [([0.0] * 4, "0.5"), ([0.0, 1.0, 2.0, 3.0], "0")])
    def test_exact_zero_has_no_noise_warning(self, capsys, tmp_path, values, at):
        # the only bound left is the inputs' 2**-1074 floor
        p = tmp_path / "s.csv"
        p.write_text("".join(f"{v!r}\n" for v in values))
        code, report, _ = run(capsys, "newton", "eval", str(p), "--mode", "float", "--at", at)
        assert code == 0
        assert report["result"]["value_float"] == 0.0
        assert report["result"]["warnings"] == []


class TestMalformedParameterWhateverTheData:
    """A malformed parameter is refused before the data are read: exit 3 with
    the same one stderr line and no report, on data whose certificate fails
    as on data whose certificate passes."""

    CASES = [
        (["minimal", "--kind", "cm", "--tol", "-1"], "alternating.csv", "harmonic.csv",
         "tol must be nonnegative"),
        (["minimal", "--kind", "cm", "--depth", "0"], "negative", "harmonic.csv",
         "depth too small: CM minimality needs depth >= 1"),
        (["minimal", "--kind", "ca", "--depth", "1"], "harmonic.csv", "bf.csv",
         "depth too small: CA atom trail needs depth >= 2"),
        (["lattice", "--kind", "cm", "--tol", "-1"], "square", "exp-decay",
         "tol must be nonnegative"),
        (["lattice", "--kind", "ca", "--depth", "1"], "exp-decay", "square",
         "depth too small: CA atom trail needs depth >= 2"),
        (["selfdec", "--tol", "-1"], "square", "log1p", "tol must be nonnegative"),
        (["selfdec", "--depth", "1"], "exp-decay", "log1p",
         "depth too small: CA atom trail needs depth >= 2"),
        (["invert", "cm", "--tol", "-1"], "alternating.csv", "harmonic.csv",
         "tol must be nonnegative"),
        (["extend", "--kind", "cm", "--at", "1", "--tol", "-1"], "alternating.csv",
         "harmonic.csv", "tol must be nonnegative"),
        (["egf", "--tol", "-1"], "harmonic.csv", "bf.csv", "tol must be nonnegative"),
    ]

    @pytest.mark.parametrize("argv, failing, passing, message", CASES,
                             ids=[" ".join(argv) for argv, *_ in CASES])
    def test_exit_3_on_failing_and_passing_data(self, capsys, tmp_path, argv, failing, passing,
                                                message):
        negative = tmp_path / "negative.csv"
        negative.write_text("1\n-1\n1/3\n")
        for data in (failing, passing):
            if data.endswith(".csv"):
                tail = [str(TESTS / "data" / "cli" / data)]
            elif data == "negative":
                tail = [str(negative)]
            else:
                tail = ["--builtin", data]
            code = main([*argv, *tail, "--no-meta"])
            out = capsys.readouterr()
            assert (code, out.out, out.err) == (3, "", f"error: {message}\n"), data


class TestSumsPastFloatRange:
    """A nonnegative atom sum past float range reads inf, its correctly
    rounded value, and is never an OverflowError."""

    ATOMS = [{"u": 0.5, "w": 1e308}, {"u": 0.7, "w": 1e308}]

    @pytest.mark.parametrize("model, at", [
        ({"atoms": ATOMS}, "0"),
        ({"q": 0, "d": 0, "atoms": ATOMS}, "50"),
    ], ids=["measure", "ca-triplet"])
    def test_model_value_reads_null(self, capsys, tmp_path, model, at):
        p = tmp_path / "model.json"
        p.write_text(json.dumps(model))
        code, report, err = run(capsys, "evaluate", str(p), "--at", at)
        assert (code, err) == (0, "")
        assert report["result"]["values"] == [[float(at), None]]

    @pytest.mark.parametrize("argv", [["evaluate", "{p}", "--at", "1"],
                                      ["bftheta", "--builtin", "triplet:{p}"]],
                             ids=lambda argv: argv[0])
    def test_levy_integral_past_float_range_is_refused(self, capsys, tmp_path, argv):
        p = tmp_path / "triplet.json"
        p.write_text(json.dumps({"q": 0, "d": 0, "levy": [{"x": 1, "w": 1e308},
                                                          {"x": 2, "w": 1e308}]}))
        code = main([arg.format(p=p) for arg in argv])
        out = capsys.readouterr()
        assert (code, out.out) == (3, "")
        assert out.err == "error: levy atoms must have finite integral of 1 ^ x\n"


class TestOneSampleMinimality:
    """A single sample decides minimality on neither side: the CM trail's
    only entry would be the total mass, and the CA trail starts at row 2."""

    @pytest.mark.parametrize("kind, depth", [("cm", "1"), ("ca", "2")])
    def test_one_sample_is_a_usage_error(self, capsys, tmp_path, kind, depth):
        p = tmp_path / "one.csv"
        p.write_text("1\n")
        code, report, err = run(capsys, "minimal", "--kind", kind, str(p))
        assert code == 3 and report is None
        assert err == f"error: depth too small: {kind.upper()} " + (
            "minimality" if kind == "cm" else "atom trail") + f" needs depth >= {depth}\n"

    def test_two_samples_decide_cm(self, capsys, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text("1\n1/2\n")
        code, report, _ = run(capsys, "minimal", "--kind", "cm", str(p))
        assert code == 1
        assert report["result"]["minimality"]["atom"]["trail"] == ["1/1", "1/2"]


class TestPerCommandParser:
    """``main`` builds only the parser row that argv[0] names; it must read
    and print exactly as the parser of every command does."""

    @staticmethod
    def _exit(capsys, call):
        """(exit code, stdout, stderr) of ``call()``, which may exit."""
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_command_help_matches_full_parser(self, capsys, name):
        own = self._exit(capsys, lambda: cli.build_parser(name).parse_args([name, "-h"]))
        full = self._exit(capsys, lambda: cli.build_parser().parse_args([name, "-h"]))
        assert own == full
        assert own[0] == 0 and own[1].startswith(f"usage: cmtk {name} ")

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]]
                             + [[name, flag] for name in sorted(cli.COMMANDS)
                                for flag in ("--bogus", "-h")])
    def test_main_matches_full_parser(self, capsys, monkeypatch, argv):
        built, build = [], cli.build_parser

        def recorded(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", recorded)
        own = self._exit(capsys, lambda: main(argv))
        assert built == [argv[0] if argv and argv[0] in cli.COMMANDS else None]
        monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
        assert self._exit(capsys, lambda: main(argv)) == own
        assert own[0] in (0, 3) and (own[1] or own[2])


class TestReports:
    def test_params_echoed(self, capsys, harmonic_csv):
        code, report, _ = run(
            capsys, "certify", "--kind", "cm", "--depth", "7", harmonic_csv
        )
        assert report["params"]["kind"] == "cm"
        assert report["params"]["depth"] == 7
        assert report["params"]["mode"] is None

    def test_no_meta_is_deterministic(self, tmp_path, harmonic_csv):
        outs = []
        for i in range(2):
            out = str(tmp_path / f"r{i}.json")
            assert main([
                "certify", "--kind", "cm", "--depth", "10", harmonic_csv,
                "--no-meta", "--out", out,
            ]) == 0
            with open(out, "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_meta_has_timestamp(self, capsys, harmonic_csv):
        _, report, _ = run(capsys, "certify", "--kind", "cm", harmonic_csv)
        assert "timestamp" in report["meta"]

    def test_rationals_serialized_as_strings(self, capsys, harmonic_csv):
        _, report, _ = run(
            capsys, "certify", "--kind", "cm", "--depth", "20", harmonic_csv
        )
        margin = report["result"]["certificate"]["min_margin"]
        num, den = margin.split("/")
        assert Fraction(int(num), int(den)) > 0


class TestErrorReports:
    """Every CmtkError becomes a report: exit 1, or 2 for an exhausted
    evaluation budget, with the failing certificate when there is one."""

    def test_budget_exhausted_is_partial_with_report(self, capsys, monkeypatch):
        monkeypatch.setenv("CMTK_MAX_EVALS", "5")
        code, report, err = run(capsys, "selfdec", "--builtin", "log1p")
        assert code == 2
        assert report["exit_code"] == 2
        assert "budget 5 exhausted" in report["result"]["error"]
        assert err == ""

    def test_egf_on_cm_sequence_carries_failing_certificate(self, capsys, tmp_path):
        p = tmp_path / "dyadic.csv"
        p.write_text("".join(f"1/{2 ** k}\n" for k in range(21)))
        code, report, _ = run(capsys, "egf", str(p))
        assert code == 1
        assert "not ca" in report["result"]["error"]
        assert report["result"]["certificate"]["verdict"] == "fail"

    def test_domain_error_writes_report(self, capsys, tmp_path):
        p = tmp_path / "triplet.json"
        p.write_text(json.dumps({"q": 0.0, "d": 1.0, "levy": []}))
        code, report, _ = run(capsys, "evaluate", str(p), "--at", "-1")
        assert code == 1
        assert report["result"] == {"error": "lambda must be nonnegative"}

    @pytest.mark.parametrize("model", [
        {"atoms": [{"u": 0.5, "w": 1.0}]},
        {"q": 1, "d": 0.5, "atoms": [{"u": 0.5, "w": 1.0}]},
    ], ids=["measure", "ca-triplet"])
    def test_negative_lambda_writes_report_for_every_model(self, capsys, tmp_path, model):
        p = tmp_path / "model.json"
        p.write_text(json.dumps(model))
        code, report, _ = run(capsys, "evaluate", str(p), "--at", "-1")
        assert code == 1
        assert report["result"] == {"error": "lambda must be nonnegative"}


class TestMalformedInput:
    """Non-finite and out-of-range input: exit 3, one stderr line, no
    traceback and no warning.  A fit near the ends of float range is not
    out of range: it reads as its copy scaled to [1, 2)."""

    @pytest.mark.parametrize("text, argv", [
        pytest.param("1\ninf\n1/2\n", ["certify", "--kind", "cm"], id="csv-inf"),
        pytest.param("1\n-Infinity\n", ["certify", "--kind", "cm"], id="csv-minus-infinity"),
        pytest.param("1\nnan\n", ["minimal", "--kind", "cm"], id="csv-nan"),
        pytest.param("[1.0, NaN, 0.5]", ["certify", "--kind", "cm"], id="json-nan"),
        pytest.param("[1.0, Infinity]", ["invert", "cm"], id="json-infinity"),
        pytest.param("1\n1/2\n1/3\n", ["newton", "eval", "--at", "inf"], id="newton-at-inf"),
        pytest.param("1\n1/2\n1/3\n", ["newton", "eval", "--at", "nan"], id="newton-at-nan"),
        pytest.param("1\n1/2\n1/4\n", ["invert", "cm", "--grid", "0"], id="invert-cm-grid-0"),
        pytest.param("0\n1/2\n2/3\n", ["invert", "ca", "--grid", "0"], id="invert-ca-grid-0"),
        pytest.param("1\n1/2\n1/4\n", ["extend", "--kind", "cm", "--at", "1", "--grid", "0"],
                     id="extend-grid-0"),
        pytest.param("0\n1\n2\n", ["egf", "--grid", "0"], id="egf-grid-0"),
        pytest.param(None, ["webster", "--terms", "0"], id="webster-terms-0"),
        pytest.param('{"command": "certify", "result": {"certificate": {}}}',
                     ["evaluate", "--at", "1"], id="evaluate-report-without-model"),
        pytest.param("[1, 0.5]", ["evaluate", "--at", "1"], id="evaluate-sequence-file"),
        pytest.param('{"atoms": [{"w": 1}]}', ["evaluate", "--at", "1"],
                     id="evaluate-atom-without-u"),
        pytest.param(None, ["lattice", "--kind", "cm", "--builtin", "exp-decay", "--alpha", "-1"],
                     id="lattice-alpha-negative"),
        pytest.param(None, ["lattice", "--kind", "cm", "--builtin", "exp-decay", "--alpha", "0"],
                     id="lattice-alpha-0"),
        pytest.param("1\n1/2\n1/4\n", ["extend", "--kind", "cm", "--at", "inf"],
                     id="extend-at-inf-argparse"),
        pytest.param('{"atoms": [1]}', ["evaluate", "--at", "1"], id="evaluate-atom-not-object"),
        pytest.param('{"q": 1, "atoms": [{"u": null, "w": 1}]}', ["evaluate", "--at", "1"],
                     id="evaluate-ca-atom-null"),
        pytest.param("1\n1/2\n1/3\n", ["minimal", "--kind", "cm", "--tol", "inf"],
                     id="minimal-tol-inf"),
        pytest.param("1\n1/2\n1/3\n", ["invert", "cm", "--tol", "nan"], id="invert-tol-nan"),
        pytest.param(None, ["subaffine", "--builtin", "sqrt", "--bound", "inf"],
                     id="subaffine-bound-inf"),
        pytest.param(None, ["selfdec", "--builtin", "log1p", "--tol", "inf"], id="selfdec-tol-inf"),
        pytest.param('{"atoms": [{"u": 1, "w": 1}]}', ["evaluate", "--at", "1e400"],
                     id="evaluate-at-overflow"),
        pytest.param("1\n1/2\n1/4\n", ["extend", "--kind", "cm", "--at", "1e400"],
                     id="extend-at-overflow"),
        pytest.param("1\n1/2\n1/3\n", ["newton", "eval", "--at", "1e400"],
                     id="newton-at-overflow"),
        pytest.param(None, ["operator", "--builtin", "exp-decay", "--op", "sigma", "--c", "1e400",
                            "--at", "1"], id="operator-c-overflow"),
        pytest.param(None, ["lattice", "--kind", "cm", "--builtin", "exp-decay", "--alpha", "1e309"],
                     id="lattice-alpha-overflow"),
        pytest.param("1\n1e400\n", ["certify", "--kind", "cm", "--mode", "float"],
                     id="csv-float-overflow"),
        pytest.param(None, ["operator", "--builtin", "exp-decay", "--op", "sigma", "--c", "1/0",
                            "--at", "1"], id="operator-c-zero-denominator"),
        pytest.param(None, ["decompose", "cm", "--builtin", "exp-decay", "--c", ","],
                     id="decompose-c-empty"),
        pytest.param(None, ["bftheta", "--builtin", "log1p", "--c", "0"], id="bftheta-c-0"),
        pytest.param(None, ["decompose", "cm", "--builtin", "exp-decay", "--c", "0"],
                     id="decompose-cm-c-0"),
        pytest.param(None, ["decompose", "cm", "--builtin", "exp-decay", "--nmax", "0"],
                     id="decompose-cm-nmax-0"),
        pytest.param(None, ["decompose", "cm", "--builtin", "exp-decay", "--nmax", "-1"],
                     id="decompose-cm-nmax-negative"),
        pytest.param(None, ["decompose", "bf", "--builtin", "log1p", "--c", "0"],
                     id="decompose-bf-c-0"),
        pytest.param(None, ["decompose", "bf", "--builtin", "log1p", "--nmax", "-2"],
                     id="decompose-bf-nmax-negative"),
        pytest.param(None, ["webster", "--g", "constant:inf"], id="webster-constant-inf"),
        pytest.param(None, ["webster", "--g", "constant:1000"], id="webster-constant-overflow"),
        pytest.param("1\n1/2\n1/3\n", ["newton", "eval", "--terms", "-1"],
                     id="newton-terms-negative"),
        pytest.param("1\n1/2\n1/3\n", ["newton", "eval", "--terms", "0"], id="newton-terms-0"),
        pytest.param('{"atoms": [{"u": 0.5, "w": 1e400}]}', ["evaluate", "--at", "1"],
                     id="evaluate-weight-1e400"),
        pytest.param('{"atoms": [{"u": 0.5, "w": 1%s}]}' % ("0" * 400), ["evaluate", "--at", "1"],
                     id="evaluate-weight-401-digits"),
        pytest.param("1\n1/2\n1/3\n", ["newton", "eval", "--at", "1e200"],
                     id="newton-exact-term-overflow"),
        pytest.param("1\n1/2\n1/3\n", ["invert", "cm", "--tol", "-1"], id="invert-tol-negative"),
        pytest.param("1\n1/2\n1/3\n", ["minimal", "--kind", "cm", "--tol", "-1"],
                     id="minimal-tol-negative"),
        pytest.param('{"q": "1e400", "atoms": [{"u": 0.5, "w": 1}]}', ["evaluate", "--at", "1"],
                     id="evaluate-q-string-1e400"),
        pytest.param("1\n1/2\n1/3\n",
                     ["certify", "--kind", "cm", "--out", "/nonexistent/dir/x.json"],
                     id="out-missing-directory"),
        pytest.param('{"result": 5}', ["evaluate", "--at", "1"], id="evaluate-result-number"),
        pytest.param('{"result": null}', ["evaluate", "--at", "1"], id="evaluate-result-null"),
        # binomial weights past float range raised OverflowError; a shift
        # iterate * c or nmax * c of inf evaluated f(inf) and exited 0
        *(pytest.param(None, ["operator", "--builtin", "exp-decay", "--op", op, "--c", c,
                              "--iterate", "1100", "--at", "1"], id=f"operator-{op}-iterate-1100")
          for op, c in [("delta", "1"), ("theta", "1"), ("rho", "0.5")]),
        pytest.param(None, ["operator", "--builtin", "exp-decay", "--op", "tau", "--c", "1e308",
                            "--iterate", "2", "--at", "1"], id="operator-tau-shift-overflow"),
        # an evaluation point x + iterate * c or c^iterate * x past float range
        # evaluated f(inf) and exited 0; the theta samples -2ck of x^2 ended
        # in a traceback
        *(pytest.param(None, ["operator", "--builtin", "exp-decay", "--op", op, "--c", c,
                              "--at", c], id=f"operator-{op}-point-overflow")
          for op, c in [("tau", "1e308"), ("delta", "1e308"), ("theta", "1e308"),
                        ("sigma", "1e200")]),
        pytest.param(None, ["bftheta", "--builtin", "square", "--c=1.7e308"],
                     id="bftheta-samples-overflow"),
        # one term past float range: fsum returned -2 f(x + 1) = -inf, written
        # as null with exit 0, though delta^2 x^2 = 2
        pytest.param(None, ["operator", "--builtin", "square", "--op", "delta", "--iterate", "2",
                            "--c", "1", "--at", "1.3e154"], id="operator-delta-term-overflow"),
        pytest.param(None, ["decompose", "cm", "--builtin", "reciprocal", "--nmax", "1000000000",
                            "--c", "1e300"], id="decompose-cm-shift-overflow"),
        pytest.param(None, ["decompose", "bf", "--builtin", "log1p", "--c", "1,1e307"],
                     id="decompose-bf-shift-overflow"),
        # fits of exact data past float range: an entry, a first difference
        # (the drift a report would carry), and the CA target a_k - q - d k,
        # here q + 3e308 (1 - 2^-k) - q, whose weight 3e308 at u = 1/2 a
        # report could not carry
        *(pytest.param("1e309\n0\n0\n", argv, id=f"entry-past-float-range-{argv[0]}")
          for argv in (["invert", "cm"], ["extend", "--kind", "cm", "--at", "1"])),
        *(pytest.param(text, argv, id=f"{name}-past-float-range-{argv[0]}")
          for name, text in [
              ("difference", "-1.7e308\n1.7e308\n"),
              ("ca-target", "".join(f"{-17 * 10**307 + 3 * 10**308 * (2**k - 1) // 2**k}\n"
                                    for k in range(9)))]
          for argv in (["invert", "ca"], ["extend", "--kind", "ca", "--at", "1"], ["egf"])),
    ])
    def test_exit_3_with_one_line(self, capsys, tmp_path, text, argv):
        argv = list(argv)
        if text is not None:
            p = tmp_path / "seq.txt"
            p.write_text(text)
            argv.append(str(p))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert len(out.err.strip().splitlines()) == 1
        assert out.err.startswith("error: ")

    def _one_line_exit_3(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert len(out.err.strip().splitlines()) == 1
        return out.err

    def test_huge_iterate_refused_at_once(self, capsys):
        # the handle built 10**6 + 1 binomials, C(10**6, 5 * 10**5) alone in seconds
        start = time.perf_counter()
        err = self._one_line_exit_3(capsys, ["operator", "--builtin", "exp-decay", "--op", "delta",
                                             "--iterate", "1000000", "--at", "1"])
        assert time.perf_counter() - start < 1.0
        assert err == ("error: iterate 1000000 of delta has binomial weights beyond float "
                       "range (at most 1029)\n")

    @pytest.mark.parametrize("op", ["delta", "theta"])
    def test_terms_past_float_range_name_the_operator(self, capsys, op):
        # exit 3 already, but with fsum's "-inf + inf in fsum"
        err = self._one_line_exit_3(capsys, ["operator", "--builtin", "linear", "--op", op,
                                             "--iterate", "1000", "--at", "1e300"])
        assert err == f"error: the terms of {op} at iterate 1000 and x = 1e+300 pass float range\n"

    def test_value_past_float_range_reads_null(self, capsys):
        # tau's one term is f's own value, inf here: that is the value, not an
        # overflow of the operator's terms
        code, report, err = run(capsys, "operator", "--builtin", "square", "--op", "tau",
                                "--c", "1", "--at", "1.4e154")
        assert (code, err) == (0, "")
        assert report["result"]["values"] == [[1.4e154, None]]

    @pytest.mark.parametrize("depth, message", [
        ("3", "insufficient data: depth 3 exceeds last index 2"),
        ("-1", "depth must be nonnegative"),
    ])
    def test_certify_depth_out_of_range(self, capsys, tmp_path, depth, message):
        p = tmp_path / "seq.csv"
        p.write_text("1\n1/2\n1/3\n")
        err = self._one_line_exit_3(capsys, ["certify", "--kind", "cm", "--depth", depth, str(p)])
        assert err == f"error: {message}\n"

    def test_selfdec_depth_negative(self, capsys):
        # the kernel's message, raised before the first sample and the default tol
        err = self._one_line_exit_3(capsys, ["selfdec", "--builtin", "log1p", "--depth", "-1"])
        assert err == "error: depth must be nonnegative\n"

    def test_lattice_point_past_float_range_names_alpha(self, capsys):
        # 25 alpha is inf: its slope bound 0 * inf was NaN, refused as a bad value bound
        err = self._one_line_exit_3(
            capsys, ["lattice", "--kind", "cm", "--builtin", "exp-decay", "--alpha", "1e308"])
        assert err == "error: alpha 1e+308 puts the lattice point 25 * alpha beyond float range\n"

    def test_triplet_atom_without_weight(self, capsys, tmp_path):
        p = tmp_path / "triplet.json"
        p.write_text('{"levy": [{"x": 1}]}')
        err = self._one_line_exit_3(capsys, ["bftheta", "--builtin", f"triplet:{p}"])
        assert "'w'" in err

    @pytest.mark.parametrize("text, field", [
        pytest.param('[{"x": 1, "w": 1}]', "triplet", id="array"),
        pytest.param('{"levy": [{"x": null, "w": 1}]}', "'x'", id="null-x"),
        pytest.param('{"levy": {"x": 1, "w": 1}}', "'levy'", id="levy-not-list"),
    ])
    def test_triplet_file_malformed(self, capsys, tmp_path, text, field):
        p = tmp_path / "triplet.json"
        p.write_text(text)
        err = self._one_line_exit_3(capsys, ["bftheta", "--builtin", f"triplet:{p}"])
        assert field in err

    @pytest.mark.parametrize("text", [
        pytest.param('{"atoms": [{"u": 0.5, "w": 1.0}]}', id="measure"),
        pytest.param('{"command": "invert", "result": {"model": {"atoms": []}}, "exit_code": 0}',
                     id="invert-report"),
    ])
    def test_triplet_file_not_a_triplet(self, capsys, tmp_path, text):
        # absent fields default to 0, so without the check these read as Phi = 0
        p = tmp_path / "triplet.json"
        p.write_text(text)
        err = self._one_line_exit_3(
            capsys, ["operator", "--builtin", f"triplet:{p}", "--op", "sigma", "--at", "1"])
        assert "'levy'" in err

    @pytest.mark.parametrize("argv", [["invert", "ca"], ["extend", "--kind", "ca", "--at", "1"],
                                      ["egf"]], ids=lambda argv: argv[0])
    def test_ca_target_past_float_range_in_a_child(self, tmp_path, argv):
        # a_k - q - d k passes float range at the data's scale (exit 3 once);
        # at the data's binade it is 0, so the fit has residual 0
        report = assert_fits_as_scaled_copy(tmp_path, argv, "-1.7e308\n0\n1.7e308\n")
        assert report["exit_code"] == 0
        assert report["result"]["fit"]["residual"] == 0.0

    def test_malformed_max_evals(self, capsys, monkeypatch):
        monkeypatch.setenv("CMTK_MAX_EVALS", "abc")
        err = self._one_line_exit_3(capsys, ["lattice", "--kind", "cm", "--builtin", "exp-decay"])
        assert "CMTK_MAX_EVALS" in err


# the fields of a fit report that carry the data's scale
SCALED_FIELDS = {"q", "d", "w", "residual", "kkt_gap", "drift_gap", "egf_residual"}


def _times(node, e):
    """A report's ``result`` with each field that carries the data's scale
    multiplied by 2**e, exact "p/q" strings read as Fractions."""
    def number(x):
        return Fraction(x) * Fraction(2)**e if isinstance(x, str) else math.ldexp(x, e)

    if isinstance(node, list):
        return [_times(v, e) for v in node]
    if not isinstance(node, dict):
        return node
    out = {k: number(v) if k in SCALED_FIELDS else _times(v, e) for k, v in node.items()}
    if "values" in node:  # extend's [lambda, value] pairs
        out["values"] = [[lam, number(value)] for lam, value in node["values"]]
    return out


def _run_child(argv, path):
    """The report of ``cmtk argv path --no-meta`` run under ``-W error`` in a
    child (pytest records warnings, so only a child shows them on stderr),
    after checking that its stderr is empty."""
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "cmtk.cli", *argv, str(path),
                           "--no-meta"], env=TestStartUpImports._env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.stderr == ""
    report = json.loads(proc.stdout, parse_constant=reject_constant)
    assert report["exit_code"] == proc.returncode
    return report


def assert_fits_as_scaled_copy(tmp_path, argv, text):
    """Run a fit command on the sequence ``text`` and on its exact copy scaled
    by 2**-e to [1, 2), e the binade of max |a_k|.  Both exit alike with an
    empty stderr, and the model, the fit audit (and the EGF residual and
    the values) are 2**e times the copy's; a fit that is not representable
    names 2**e times the copy's residual and threshold.  Returns the report."""
    values = [Fraction(v) for v in text.split()]
    e = math.frexp(max(abs(float(v)) for v in values))[1] - 1
    p, copy = tmp_path / "seq.csv", tmp_path / "copy.csv"
    p.write_text(text)
    copy.write_text("".join(f"{v / Fraction(2)**e}\n" for v in values))
    report, scaled = _run_child(argv, p), _run_child(argv, copy)
    assert report["exit_code"] == scaled["exit_code"] != 3
    error = report["result"].get("error")
    if error is None:
        assert _times(report["result"], 0) == _times(scaled["result"], e)
    else:
        want = scaled["result"]["error"].split()
        assert error.split()[:-3] == want[:-3]
        for got, copied in zip(error.split()[-3::2], want[-3::2]):
            assert float(got) == pytest.approx(math.ldexp(float(copied), e), rel=1e-3)
    return report


@pytest.mark.parametrize("argv, text", [
    # the NNLS routine's weight at u = 0 overflowed: a pass with null weights
    pytest.param(["invert", "ca"], "0\n1.7e308\n1.7e308\n", id="nnls-weight-near-float-range"),
    pytest.param(["invert", "ca"], "0\n5e-324\n1e-323\n", id="subnormal"),
    # 0.55^k is not representable on grid 1, at 1e-300 as at scale 1
    pytest.param(["invert", "cm", "--grid", "1"],
                 "".join(f"{Fraction(11, 20)**k / 10**300}\n" for k in range(8)),
                 id="not-representable-at-1e-300"),
])
def test_fit_near_float_range_in_a_child(tmp_path, argv, text):
    assert_fits_as_scaled_copy(tmp_path, argv, text)


def test_evaluate_reads_invert_report(capsys, tmp_path, harmonic_csv):
    """The README chain: cmtk invert --out report.json, then cmtk evaluate
    report.json gives the values of the model inside the report."""
    report_path = tmp_path / "report.json"
    assert main(["invert", "cm", harmonic_csv, "--out", str(report_path)]) == 0
    code, chained, _ = run(capsys, "evaluate", str(report_path), "--at", "0.5,3")
    assert code == 0
    model_path = tmp_path / "measure.json"
    model_path.write_text(json.dumps(json.loads(report_path.read_text())["result"]["model"]))
    _, direct, _ = run(capsys, "evaluate", str(model_path), "--at", "0.5,3")
    assert chained["result"] == direct["result"]
    assert chained["result"]["values"][0][1] == pytest.approx(2.0 / 3.0, abs=1e-3)


class TestStartUpImports:
    """numpy and SciPy's NNLS routine load only where NNLS runs: ``import
    cmtk`` and every README command but invert, extend and egf run with both
    blocked, and those three never import ``scipy`` or ``scipy.optimize``.  Each
    README command loads only the cmtk modules it runs, and ``import cmtk``
    loads none."""

    NNLS_FREE = ["certify", "minimal", "evaluate", "newton-eval", "webster", "operator",
                 "decompose-bf", "lattice", "subaffine", "bftheta", "selfdec"]

    # Runs the golden cases named in argv[1] in one child, with numpy and SciPy
    # blocked when argv[2] is "block".  Prints {name: [code, report]} and the
    # numpy and SciPy entries of sys.modules after import and after the cases.
    CHILD = """
import json, os, sys, tempfile
from pathlib import Path
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
if sys.argv[2] == "block":
    sys.modules["numpy"] = sys.modules["scipy"] = None
import cmtk
at_import = loaded()
sys.path.insert(0, sys.argv[3])
from test_cli_reports import CASES, run_case
results = {}
for name in json.loads(sys.argv[1]):
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        code, report = run_case(CASES[name], Path(tmp))
    results[name] = [code, report.decode()]
print(json.dumps({"results": results, "at_import": at_import, "after": loaded()}))
"""

    @staticmethod
    def _env():
        env = {k: v for k, v in os.environ.items() if k != "CMTK_MAX_EVALS"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(TESTS.parent / "src"), env.get("PYTHONPATH")) if p
        )
        return env

    def _child(self, names, mode):
        proc = subprocess.run([sys.executable, "-c", self.CHILD, json.dumps(names), mode,
                               str(TESTS)], env=self._env(), capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout)

    def test_readme_commands_without_numpy_or_scipy(self):
        out = self._child(self.NNLS_FREE, "block")
        assert out["after"] == ["numpy", "scipy"]  # only the None entries that block them
        for name in self.NNLS_FREE:
            code, report = out["results"][name]
            golden = (TESTS / "data" / "cli_reports" / f"{name}.json").read_text()
            assert report == golden, name
            assert f'"exit_code": {code}' in golden, name

    @pytest.mark.parametrize("name", ["invert", "extend", "egf"])
    def test_nnls_commands_load_no_scipy_optimize(self, name):
        # the fit loads numpy and SciPy's compiled NNLS routine alone
        out = self._child([name], "allow")
        assert out["at_import"] == []
        assert "numpy" in out["after"]
        # neither scipy nor scipy.optimize, nor the routine's extension module
        assert [m for m in out["after"] if m.split(".")[0] == "scipy"] == []
        golden = (TESTS / "data" / "cli_reports" / f"{name}.json").read_text()
        assert out["results"][name] == [0, golden]

    # the cmtk modules that a README command must not load, by golden case
    NOT_LOADED = {
        "certify": {"bernstein", "funcops", "moments", "newton", "webster", "builtins",
                    "_extrapolate"},
        "minimal": {"bernstein", "funcops", "moments", "newton", "webster", "builtins",
                    "_extrapolate"},
        "newton-eval": {"classify", "funcops", "bernstein", "moments", "webster"},
        "webster": {"bernstein", "classify", "moments", "newton", "seqcore"},
        "operator": {"bernstein", "classify", "moments", "newton", "seqcore", "_extrapolate"},
        "decompose-bf": {"bernstein", "classify", "moments", "newton", "seqcore", "_extrapolate"},
        "lattice": {"bernstein", "moments", "newton", "_extrapolate"},
        "subaffine": {"bernstein", "classify", "moments", "newton", "seqcore", "_extrapolate"},
        "evaluate": {"bernstein", "classify", "seqcore", "_extrapolate"},  # on a bare measure
        # on a named builtin; bftheta-triplet's handle evaluates through moments
        "bftheta": {"moments", "newton", "webster"},
        "selfdec": {"moments", "newton", "webster"},
    }
    # the commands that read no sequence file, which must not load csv
    NO_SEQUENCE_FILE = {"webster", "operator", "decompose-bf", "lattice", "subaffine", "evaluate",
                        "bftheta", "selfdec"}

    def _imported_modules(self, argv, cwd):
        """The modules that ``python -X importtime`` reports for one child,
        and its exit code."""
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=cwd, env=self._env(),
                              capture_output=True, text=True, timeout=120)
        names = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                 if line.startswith("import time:")}
        return proc.returncode, names

    def _loaded_cmtk_modules(self, argv, cwd):
        """The cmtk submodules that ``python -X importtime`` reports for one
        child, and its exit code."""
        code, names = self._imported_modules(argv, cwd)
        return code, {n.partition(".")[2] for n in names if n.startswith("cmtk.")}

    def test_import_cmtk_loads_no_submodule(self, tmp_path):
        code, loaded = self._loaded_cmtk_modules(["-c", "import cmtk; cmtk.__version__"], tmp_path)
        assert code == 0
        assert loaded == set()

    @pytest.mark.parametrize("name", sorted(NOT_LOADED))
    def test_command_loads_only_its_modules(self, name, tmp_path):
        from test_cli_reports import CASES

        for src in (TESTS / "data" / "cli").iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        code, names = self._imported_modules(["-m", "cmtk.cli", *CASES[name], "--no-meta"],
                                             tmp_path)
        golden = (TESTS / "data" / "cli_reports" / f"{name}.json").read_text()
        assert f'"exit_code": {code}' in golden
        unwanted = {f"cmtk.{m}" for m in self.NOT_LOADED[name]}
        unwanted |= {"csv"} if name in self.NO_SEQUENCE_FILE else set()
        assert not names & unwanted, sorted(names & unwanted)

    # dataclasses and inspect cost a child milliseconds to import, and
    # dataclasses generates code for each class it decorates; only a report's
    # timestamp needs datetime
    UNNEEDED = {"dataclasses", "inspect", "datetime"}

    @pytest.fixture(scope="class")
    def reference_imports(self, tmp_path_factory):
        """What a bare child imports, and one that imports numpy alone (as
        the NNLS commands must)."""
        cwd = tmp_path_factory.mktemp("reference")
        return {code: self._imported_modules(["-c", code], cwd)[1]
                for code in ("pass", "import numpy")}

    @pytest.mark.parametrize("name", NNLS_FREE + ["invert", "extend", "egf"])
    def test_command_loads_no_dataclasses_inspect_or_datetime(self, name, tmp_path,
                                                              reference_imports):
        from test_cli_reports import CASES

        for src in (TESTS / "data" / "cli").iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        code, names = self._imported_modules(["-m", "cmtk.cli", *CASES[name], "--no-meta"],
                                             tmp_path)
        golden = (TESTS / "data" / "cli_reports" / f"{name}.json").read_text()
        assert f'"exit_code": {code}' in golden
        reference = reference_imports["pass" if name in self.NNLS_FREE else "import numpy"]
        assert "dataclasses" not in reference_imports["import numpy"]
        assert not (names - reference) & self.UNNEEDED, sorted(names & self.UNNEEDED)

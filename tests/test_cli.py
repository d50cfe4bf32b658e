"""Command-line interface: exit-code contract, JSON reports, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from cmtk.cli import main

TESTS = Path(__file__).resolve().parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


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

    def test_newton_eval_noise_bound_past_float_range(self, capsys, tmp_path):
        # the float noise bound's fsum overflowed into a traceback
        p = tmp_path / "noisy.csv"
        drawn = "AAACBCCBABDDCDCAACDCDDBBBBABCBBCBDDCCCDBDDBDCD"
        p.write_text("".join({"A": "1e300\n", "B": "1e150\n", "C": "3.0\n",
                              "D": "-1e-300\n"}[c] for c in drawn))
        code, report, err = run(capsys, "newton", "eval", str(p), "--mode", "float",
                                "--at", "52", "--terms", "33", "--no-meta")
        assert (code, err) == (0, "")
        assert report["result"]["warnings"] == [
            "rounding noise may swamp the value: the sample table's error bounds "
            "allow inf, at least |value|"]

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
    traceback and no warning."""

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

    def test_malformed_max_evals(self, capsys, monkeypatch):
        monkeypatch.setenv("CMTK_MAX_EVALS", "abc")
        err = self._one_line_exit_3(capsys, ["lattice", "--kind", "cm", "--builtin", "exp-decay"])
        assert "CMTK_MAX_EVALS" in err


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
        "certify": {"bernstein", "funcops", "moments", "newton", "webster", "builtins"},
        "minimal": {"bernstein", "funcops", "moments", "newton", "webster", "builtins"},
        "newton-eval": {"classify", "funcops", "bernstein", "moments", "webster"},
        "webster": {"bernstein", "moments", "newton"},
        "operator": {"bernstein", "moments", "newton"},
        "decompose-bf": {"bernstein", "moments", "newton"},
        "lattice": {"bernstein", "moments", "newton"},
        "subaffine": {"bernstein", "moments", "newton"},
        "evaluate": {"bernstein"},  # on a bare measure
    }

    def _loaded_cmtk_modules(self, argv, cwd):
        """The cmtk submodules that ``python -X importtime`` reports for one
        child, and its exit code."""
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=cwd, env=self._env(),
                              capture_output=True, text=True, timeout=120)
        names = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                 if line.startswith("import time:")}
        return proc.returncode, {n.partition(".")[2] for n in names if n.startswith("cmtk.")}

    def test_import_cmtk_loads_no_submodule(self, tmp_path):
        code, loaded = self._loaded_cmtk_modules(["-c", "import cmtk; cmtk.__version__"], tmp_path)
        assert code == 0
        assert loaded == set()

    @pytest.mark.parametrize("name", sorted(NOT_LOADED))
    def test_command_loads_only_its_modules(self, name, tmp_path):
        from test_cli_reports import CASES

        for src in (TESTS / "data" / "cli").iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        code, loaded = self._loaded_cmtk_modules(
            ["-m", "cmtk.cli", *CASES[name], "--no-meta"], tmp_path)
        golden = (TESTS / "data" / "cli_reports" / f"{name}.json").read_text()
        assert f'"exit_code": {code}' in golden
        assert not loaded & self.NOT_LOADED[name], sorted(loaded)

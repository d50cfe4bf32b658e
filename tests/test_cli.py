"""Command-line interface: exit-code contract, JSON reports, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal
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


class TestExitCodes:
    def test_certify_signed_zero_margin(self, capsys, tmp_path):
        # the least |entry| of [-0.0, 0.0] is 0.0, not the entry -0.0
        p = tmp_path / "zeros.json"
        p.write_text("[-0.0, 0.0]")
        code = main(["certify", "--kind", "cm", str(p)])
        assert code == 2
        assert '"min_margin": 0.0,' in capsys.readouterr().out


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


def _lattice(name, kind):
    from cmtk.builtins import get_handle
    from cmtk.funcops import lattice_check
    return lambda: lattice_check(get_handle(name), kind, (1.0, 0.5))


def _theta(name, depth=15):
    from cmtk.bernstein import check_bf_via_theta
    from cmtk.builtins import get_handle
    return lambda: check_bf_via_theta(get_handle(name), depth=depth)


def _subaffine(name, c=1.0):
    from cmtk.builtins import get_handle
    from cmtk.funcops import subaffine_check
    return lambda: subaffine_check(get_handle(name), c, 1.0)


def _minimal(name, tol):
    from cmtk.classify import is_minimal
    from cmtk.seqcore import read_sequence
    return lambda: is_minimal(read_sequence(TESTS / "data" / "cli" / name), "cm", None, tol)


class TestLibraryVerdicts:
    """lattice_check, check_bf_via_theta, subaffine_check and is_minimal each
    answer ``verdict``, and README's exit rule (0 pass, 1 fail, 2
    inconclusive) reads the CLI's exit code off it."""

    @pytest.mark.parametrize("argv, check, verdict", [
        ("lattice --kind cm --builtin exp-decay", _lattice("exp-decay", "cm"), "pass"),
        ("lattice --kind ca --builtin exp-decay", _lattice("exp-decay", "ca"), "fail"),
        # the certificates are inconclusive, and none failed
        ("lattice --kind ca --builtin linear", _lattice("linear", "ca"), "inconclusive"),
        ("bftheta --builtin log1p", _theta("log1p"), "pass"),
        ("bftheta --builtin square", _theta("square"), "fail"),
        ("bftheta --builtin sqrt --depth 20", _theta("sqrt", 20), "inconclusive"),
        ("subaffine --builtin log1p --bound 1", _subaffine("log1p"), "pass"),
        ("subaffine --builtin square --bound 1", _subaffine("square"), "fail"),
        # the increments pass float range: "ok" is null
        ("subaffine --builtin square --c 1e300 --bound 1", _subaffine("square", 1e300),
         "inconclusive"),
        # a minimality report is pass or fail; a failed certificate raises
        (f"minimal --kind cm --tol 0.02 {TESTS}/data/cli/dyadic.csv",
         _minimal("dyadic.csv", 0.02), "pass"),
        (f"minimal --kind cm --tol 0.02 {TESTS}/data/cli/harmonic.csv",
         _minimal("harmonic.csv", 0.02), "fail"),
    ])
    def test_verdict_is_the_exit_rule(self, capsys, argv, check, verdict):
        assert check().verdict == verdict
        code, report, _ = run(capsys, *argv.split())
        assert code == report["exit_code"] == {"pass": 0, "fail": 1, "inconclusive": 2}[verdict]

    def test_unbounded_theta_with_passed_certificates_is_inconclusive(self):
        # theta_c(-x^2) = 2cx is exactly CA, but its increments never fall
        from cmtk.bernstein import check_bf_via_theta
        from cmtk.funcops import FunctionHandle
        rep = check_bf_via_theta(FunctionHandle(lambda x: -x * x, "neg-square"))
        assert [(e.certificate.verdict, e.bounded_ok) for e in rep.entries] \
            == [("pass", False)] * 2
        assert rep.verdict == "inconclusive"

    def test_partial_lattice_whose_first_alpha_fails_is_inconclusive(self, capsys, monkeypatch):
        # the budget covers the first alpha's 26 samples, whose certificate
        # fails, and runs out on the second
        monkeypatch.setenv("CMTK_MAX_EVALS", "26")
        rep = _lattice("linear", "cm")()
        assert rep.partial
        assert [e.certificate.verdict for e in rep.entries] == ["fail"]
        assert rep.verdict == "inconclusive"
        code, _, _ = run(capsys, "lattice", "--kind", "cm", "--builtin", "linear")
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


class TestPastTheDigitLimit:
    """Exact values with more digits than Python's int/str limit (4300) are read
    and written through Decimal, which has none; the limit stays as it is."""

    @staticmethod
    def _exact(text):
        """A report's "p/q" string, read without the limit."""
        num, den = text.split("/")
        return Fraction(int(Decimal(num)), int(Decimal(den)))

    def _run(self, capsys, tmp_path, text, *argv):
        p = tmp_path / "seq.csv"
        p.write_text(text)
        limit = sys.get_int_max_str_digits()
        code, report, err = run(capsys, *argv, str(p), "--no-meta")
        assert sys.get_int_max_str_digits() == limit
        return code, report and report["result"], err

    def test_newton_value(self, capsys, tmp_path):
        from cmtk.newton import eval_series, series_from_samples
        from cmtk.seqcore import Sequence

        samples = [Fraction(1, k + 1) for k in range(22)]
        code, result, err = self._run(capsys, tmp_path, "".join(f"{v}\n" for v in samples),
                                      "newton", "eval", "--at", "1e-400")
        want = eval_series(series_from_samples(Sequence.from_values(samples)),
                           Fraction(1, 10**400)).value
        assert want.denominator > 10**4300
        assert (code, err) == (0, "")
        assert self._exact(result["value"]) == want

    @pytest.mark.parametrize("first, code", [(9100, 1), (9099, 0)])
    def test_certify_margin(self, capsys, tmp_path, first, code):
        # 3^9100 - 3^9099 = 2 3^9099 has 4344 digits
        text = "".join(format(Decimal(3**e), "f") + "\n" for e in (first, 18199 - first))
        got, result, err = self._run(capsys, tmp_path, text, "certify", "--kind", "ca",
                                     "--depth", "1")
        assert (got, err) == (code, "")
        assert self._exact(result["certificate"]["min_margin"]) == 2 * 3**9099

    def test_p_q_cell_reads_as_its_twin(self, capsys, tmp_path):
        big = format(Decimal(10**4300), "f")  # 4301 digits
        results = [self._run(capsys, tmp_path, text, "certify", "--kind", "ca", "--depth", "1")
                   for text in (f"1/{big}\n{big}/1\n", f"1e-4300\n{big}\n")]
        assert results[0] == results[1]
        assert results[0][0] == 0

    def test_json_array_reads_as_its_csv_twin(self, capsys, tmp_path):
        big = format(Decimal(10**4400), "f")  # 4401 digits, past json's own int
        results = [self._run(capsys, tmp_path, text, "certify", "--kind", "cm")
                   for text in (f"[{big}, 1]", f"{big}\n1\n")]
        assert results[0] == results[1]
        assert results[0][0] == 0
        assert results[0][1]["certificate"]["verdict"] == "pass"


class TestOneSampleMinimality:
    """A single sample decides minimality on neither side (exit 3, rows of
    ``cli_contract``): the CM trail's only entry would be the total mass, and
    the CA trail starts at row 2.  Two samples decide CM."""

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
    """Input at the ends of float range beside the exit-3 rows of
    ``cli_contract.ROWS``: refusals within a time or under an environment
    variable, and values that are not refused.  A fit near the ends of float
    range is not out of range: it reads as its copy scaled to [1, 2)."""

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

    def test_value_past_float_range_reads_null(self, capsys):
        # tau's one term is f's own value, inf here: that is the value, not an
        # overflow of the operator's terms
        code, report, err = run(capsys, "operator", "--builtin", "square", "--op", "tau",
                                "--c", "1", "--at", "1.4e154")
        assert (code, err) == (0, "")
        assert report["result"]["values"] == [[1.4e154, None]]

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
    """``import cmtk`` loads no submodule.  What each command loads is the
    ``not_loaded`` column of ``cli_contract.ROWS``, read in children by
    ``test_cli_contract.test_row_in_a_child``."""

    @staticmethod
    def _env():
        env = {k: v for k, v in os.environ.items() if k != "CMTK_MAX_EVALS"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(TESTS.parent / "src"), env.get("PYTHONPATH")) if p
        )
        return env

    def test_import_cmtk_loads_no_submodule(self, tmp_path):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cmtk"],
                              cwd=tmp_path, env=self._env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0
        names = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                 if line.startswith("import time:")}
        assert "cmtk" in names
        assert not {n for n in names if n.startswith(("cmtk.", "numpy", "scipy"))}

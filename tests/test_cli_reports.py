"""Golden CLI reports: each run's ``--no-meta`` report must match its stored
copy byte for byte.

The cases are the README's CLI examples plus fail, error, exact and float
variants, run in-process on the small inputs in ``tests/data/cli``.  The
stored reports are ``tests/data/cli_reports/<case>.json``.  The invert,
extend and egf reports hold NNLS weights, so they pin the SciPy build they
were made with (SciPy 1.17).
"""

import io
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cmtk import cli

DATA = Path(__file__).parent / "data"
INPUTS = DATA / "cli"
GOLDEN = DATA / "cli_reports"

CASES = {
    # the README examples, in README order
    "certify": ["certify", "--kind", "cm", "--depth", "20", "harmonic.csv"],
    "minimal": ["minimal", "--kind", "cm", "--tol", "0.02", "dyadic.csv"],
    "invert": ["invert", "cm", "harmonic.csv", "--grid", "200", "--out", "report.json"],
    "evaluate": ["evaluate", "measure.json", "--at", "0.5,3"],
    "extend": ["extend", "--kind", "cm", "--at", "0.5", "harmonic.csv"],
    "newton-eval": ["newton", "eval", "newton.csv", "--at", "0.5", "--terms", "60"],
    "webster": ["webster", "--g", "identity", "--at", "0.5", "--terms", "100000"],
    "operator": ["operator", "--builtin", "square", "--op", "theta", "--c", "1", "--at", "2"],
    "decompose-bf": ["decompose", "bf", "--builtin", "one-minus-exp", "--nmax", "50"],
    "lattice": ["lattice", "--kind", "cm", "--builtin", "exp-decay", "--alpha", "1,0.5",
                "--depth", "15", "--tol", "2e-3"],
    "subaffine": ["subaffine", "--builtin", "sqrt", "--c", "1", "--bound", "1"],
    "bftheta": ["bftheta", "--builtin", "bf-ratio"],
    "selfdec": ["selfdec", "--builtin", "log1p", "--tol", "0.05"],
    "egf": ["egf", "drift.csv"],
    # fail and error paths
    "certify-fail": ["certify", "--kind", "cm", "alternating.csv"],
    "certify-inconclusive": ["certify", "--kind", "cm", "--depth", "30", "noisy.json"],
    "minimal-not-minimal": ["minimal", "--kind", "cm", "--tol", "0.02", "harmonic.csv"],
    "minimal-not-cm": ["minimal", "--kind", "cm", "alternating.csv"],
    "invert-not-cm": ["invert", "cm", "alternating.csv"],
    "invert-not-representable": ["invert", "cm", "harmonic.csv", "--grid", "4"],
    "extend-not-ca": ["extend", "--kind", "ca", "--at", "1", "dyadic.csv"],
    "decompose-cm-linear": ["decompose", "cm", "--builtin", "linear"],
    "subaffine-fail": ["subaffine", "--builtin", "square", "--c", "1", "--bound", "10"],
    "bftheta-fail": ["bftheta", "--builtin", "square"],
    "selfdec-fail": ["selfdec", "--builtin", "one-minus-exp"],
    "lattice-ca-fail": ["lattice", "--kind", "ca", "--builtin", "exp-decay", "--depth", "8"],
    # exact, float and other variants
    "certify-float": ["certify", "--kind", "cm", "--mode", "float", "--depth", "10",
                      "harmonic.csv"],
    "certify-float-overflow": ["certify", "--kind", "ca", "--mode", "float", "overflow.csv"],
    "certify-ca": ["certify", "--kind", "ca", "bf.csv"],
    "minimal-float": ["minimal", "--kind", "cm", "--mode", "float", "dyadic.csv"],
    "minimal-ca": ["minimal", "--kind", "ca", "--tol", "0.1", "bf.csv"],
    "invert-ca": ["invert", "ca", "bf.csv", "--tol", "1e-4"],
    "extend-ca": ["extend", "--kind", "ca", "--at", "0.5,2", "bf.csv", "--tol", "1e-4"],
    "evaluate-ca": ["evaluate", "ca_triplet.json", "--at", "0,0.5,4"],
    "evaluate-triplet": ["evaluate", "triplet.json", "--at", "0,4"],
    "newton-fit": ["newton", "fit", "dyadic.csv"],
    "newton-eval-float": ["newton", "eval", "harmonic.csv", "--mode", "float", "--at", "2.5"],
    "webster-integer": ["webster", "--g", "identity", "--at", "1,3,0.5", "--terms", "100000"],
    "webster-check-grid": ["webster", "--g", "constant:0.5", "--at", "2.0", "--terms", "500",
                           "--check-grid", "0.5,1.5,3"],
    "operator-sigma": ["operator", "--builtin", "exp-decay", "--op", "sigma", "--c", "0.5",
                       "--iterate", "2", "--at", "1,2"],
    "decompose-cm": ["decompose", "cm", "--builtin", "exp-decay", "--nmax", "40"],
    "bftheta-triplet": ["bftheta", "--builtin", "triplet:triplet.json", "--depth", "10"],
    "egf-bf": ["egf", "bf.csv", "--tol", "1e-4"],
}


def run_case(argv, workdir: Path):
    """Run one CLI case in ``workdir`` (holding copies of the inputs);
    returns (exit code, report bytes)."""
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([*argv, "--no-meta"])
    if "--out" in argv:
        return code, (workdir / argv[argv.index("--out") + 1]).read_bytes()
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CMTK_MAX_EVALS", raising=False)
    code, report = run_case(CASES[name], tmp_path)
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert report == golden
    assert f'"exit_code": {code}'.encode() in report

"""The CLI contract: one table, ``ROWS``, of what each checked ``cmtk`` run must
do.  A row holds the argv, the exit code, the stdout (the name of a golden
report, or empty), the one stderr line of an exit-3 run, and the modules the
run must not load.

A row runs in a fresh copy of ``tests/data/cli``, with ``seq.txt`` holding the
row's ``seq`` text when it has one.  A golden row runs with ``--no-meta``
appended, and its report (stdout, or the ``--out`` file) must equal
``tests/data/cli_reports/<name>.json`` byte for byte.  Any other row's stdout
is empty, but for ``--help``'s, which argparse words differently across Python
versions.  Stderr is the row's ``error:`` line, or empty.  The invert, extend
and egf reports hold NNLS weights, so they pin the SciPy build they were made
with (SciPy 1.17).

Tier-1 runs every row in-process and the rows with modules in a
``python -m cmtk.cli`` child (``tests/test_cli_contract.py``).  Run as

    python tests/cli_contract.py

it sends every row through the ``cmtk`` executable on PATH, reads the modules
each run loads with ``PYTHONPROFILEIMPORTTIME=1``, prints each problem and
exits 1 if there is one.  It imports the standard library alone.
"""

import io
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

DATA = Path(__file__).resolve().parent / "data"
INPUTS = DATA / "cli"
GOLDEN = DATA / "cli_reports"


class Row(NamedTuple):
    name: str
    argv: tuple  # the arguments after ``cmtk``
    code: int  # the exit code
    stdout: str | None  # a golden report's name, "" for none, None for --help's text
    stderr: str = ""  # the one line of an exit-3 row
    not_loaded: frozenset = frozenset()  # modules the run must not import
    seq: str | None = None  # the text of seq.txt
    readme: bool = False  # one of README's CLI examples


def _modules(names):
    """A set of module names; a leading dot names a cmtk submodule."""
    return frozenset("cmtk" + name if name.startswith(".") else name for name in names.split())


def _golden(name, argv, code=0, not_loaded="", readme=False):
    return Row(name, tuple(argv.split()), code, name, not_loaded=_modules(not_loaded),
               readme=readme)


def _refused(argv, error, seq=None, name=None):
    return Row(name or argv, tuple(argv.split()), 3, "", f"error: {error}", seq=seq)


# what a command that runs no NNLS fit must not load, beside the cmtk modules it
# does not run: dataclasses and inspect cost a child milliseconds to import, and
# only a report's timestamp needs datetime (a leading space, to follow a list)
_NO_NNLS = " numpy scipy dataclasses inspect datetime"
# the fits load numpy and SciPy's compiled NNLS routine alone (numpy itself
# loads inspect and datetime)
_NNLS = "scipy scipy.optimize dataclasses"
# the cmtk modules that the sequence commands without a fit, and the handle
# commands that read no sequence file, must not load
_SEQUENCE_ONLY = ".bernstein .builtins .funcops .moments .newton .webster ._extrapolate"
_HANDLE_ONLY = ".bernstein .classify .moments .newton .seqcore ._extrapolate csv"
_CUT = "1" + "0" * 39  # 1e39 or more, as a message cuts it to 40 characters
_NEGATIVE = "1\n-1\n1/3\n"  # fails CM at row 0
_THIRDS, _QUARTERS = "1\n1/2\n1/3\n", "1\n1/2\n1/4\n"
_NO_MODEL = "seq.txt: no measure, triplet or report with a model"
_NOT_A_TRIPLET = "triplet has none of the fields 'q', 'd' and 'levy'"
_LEVY_OVERFLOW = '{"q": 0, "d": 0, "levy": [{"x": 1, "w": 1e308}, {"x": 2, "w": 1e308}]}'
_LEVY_OVERFLOW_ERROR = "levy atoms must have finite integral of 1 ^ x"
_CA_FITS = ("invert ca", "extend --kind ca --at 1", "egf")
_OVERFLOW_CA_TARGET = "".join(f"{-17 * 10**307 + 3 * 10**308 * (2**k - 1) // 2**k}\n"
                              for k in range(9))

ROWS = [
    # the README examples, in README order; each loads only the modules it runs
    _golden("certify", "certify --kind cm --depth 20 harmonic.csv", readme=True,
            not_loaded=_SEQUENCE_ONLY + _NO_NNLS),
    _golden("minimal", "minimal --kind cm --tol 0.02 dyadic.csv", readme=True,
            not_loaded=_SEQUENCE_ONLY + _NO_NNLS),
    _golden("invert", "invert cm harmonic.csv --grid 200 --out measure.json", readme=True,
            not_loaded=_NNLS),
    _golden("evaluate", "evaluate measure.json --at 0.5,3", readme=True,  # on a bare measure
            not_loaded=".bernstein .classify .seqcore ._extrapolate csv" + _NO_NNLS),
    _golden("extend", "extend --kind cm --at 0.5 harmonic.csv", readme=True, not_loaded=_NNLS),
    _golden("newton-eval", "newton eval newton.csv --at 0.5 --terms 60", readme=True,
            not_loaded=".bernstein .classify .funcops .moments .webster" + _NO_NNLS),
    _golden("webster", "webster --g identity --at 0.5 --terms 100000", readme=True,
            not_loaded=".bernstein .classify .moments .newton .seqcore csv" + _NO_NNLS),
    _golden("operator", "operator --builtin square --op theta --c 1 --at 2", readme=True,
            not_loaded=_HANDLE_ONLY + _NO_NNLS),
    _golden("decompose-bf", "decompose bf --builtin one-minus-exp --nmax 50", readme=True,
            not_loaded=_HANDLE_ONLY + _NO_NNLS),
    _golden("lattice", "lattice --kind cm --builtin exp-decay --alpha 1,0.5 --depth 15 --tol 2e-3",
            readme=True, not_loaded=".bernstein .moments .newton ._extrapolate csv" + _NO_NNLS),
    _golden("subaffine", "subaffine --builtin sqrt --c 1 --bound 1", readme=True,
            not_loaded=_HANDLE_ONLY + _NO_NNLS),
    # on a named builtin; bftheta-triplet's handle evaluates through moments
    _golden("bftheta", "bftheta --builtin bf-ratio", readme=True,
            not_loaded=".moments .newton .webster csv" + _NO_NNLS),
    _golden("selfdec", "selfdec --builtin log1p --tol 0.05", readme=True,
            not_loaded=".moments .newton .webster csv" + _NO_NNLS),
    _golden("egf", "egf drift.csv", readme=True, not_loaded=_NNLS),
    # fail and error paths
    _golden("certify-fail", "certify --kind cm alternating.csv", 1),
    _golden("certify-inconclusive", "certify --kind cm --depth 30 noisy.json", 2),
    _golden("minimal-not-minimal", "minimal --kind cm --tol 0.02 harmonic.csv", 1),
    _golden("minimal-not-cm", "minimal --kind cm alternating.csv", 1),
    _golden("invert-not-cm", "invert cm alternating.csv", 1),
    _golden("invert-not-representable", "invert cm harmonic.csv --grid 4", 1),
    _golden("extend-not-ca", "extend --kind ca --at 1 dyadic.csv", 1),
    _golden("decompose-cm-linear", "decompose cm --builtin linear", 1),
    _golden("subaffine-fail", "subaffine --builtin square --c 1 --bound 10", 1),
    _golden("bftheta-fail", "bftheta --builtin square", 1),
    _golden("selfdec-fail", "selfdec --builtin one-minus-exp", 1),
    _golden("lattice-ca-fail", "lattice --kind ca --builtin exp-decay --depth 8", 1),
    # exact, float and other variants
    _golden("certify-float", "certify --kind cm --mode float --depth 10 harmonic.csv"),
    _golden("certify-float-overflow", "certify --kind ca --mode float overflow.csv", 1),
    _golden("certify-ca", "certify --kind ca bf.csv"),
    _golden("minimal-float", "minimal --kind cm --mode float dyadic.csv"),
    _golden("minimal-ca", "minimal --kind ca --tol 0.1 bf.csv"),
    _golden("invert-ca", "invert ca bf.csv --tol 1e-4"),
    _golden("extend-ca", "extend --kind ca --at 0.5,2 bf.csv --tol 1e-4"),
    _golden("evaluate-ca", "evaluate ca_triplet.json --at 0,0.5,4"),
    _golden("evaluate-triplet", "evaluate triplet.json --at 0,4"),
    _golden("newton-fit", "newton fit dyadic.csv"),
    _golden("newton-eval-float", "newton eval harmonic.csv --mode float --at 2.5"),
    _golden("webster-integer", "webster --g identity --at 1,3,0.5 --terms 100000"),
    _golden("webster-check-grid",
            "webster --g constant:0.5 --at 2.0 --terms 500 --check-grid 0.5,1.5,3"),
    _golden("operator-sigma",
            "operator --builtin exp-decay --op sigma --c 0.5 --iterate 2 --at 1,2"),
    _golden("decompose-cm", "decompose cm --builtin exp-decay --nmax 40"),
    _golden("bftheta-triplet", "bftheta --builtin triplet:triplet.json --depth 10"),
    _golden("egf-bf", "egf bf.csv --tol 1e-4"),
    # a malformed parameter is refused before the data are read: the same line
    # on data whose certificate fails as on data whose certificate passes
    *(_refused(f"{argv} {data}", error, _NEGATIVE if data == "seq.txt" else None)
      for argv, error, pair in [
          ("minimal --kind cm --tol -1", "tol must be nonnegative",
           ("alternating.csv", "harmonic.csv")),
          ("minimal --kind cm --depth 0", "depth too small: CM minimality needs depth >= 1",
           ("seq.txt", "harmonic.csv")),
          ("minimal --kind ca --depth 1", "depth too small: CA atom trail needs depth >= 2",
           ("harmonic.csv", "bf.csv")),
          ("lattice --kind cm --tol -1", "tol must be nonnegative",
           ("--builtin square", "--builtin exp-decay")),
          ("lattice --kind ca --depth 1", "depth too small: CA atom trail needs depth >= 2",
           ("--builtin exp-decay", "--builtin square")),
          ("selfdec --tol -1", "tol must be nonnegative", ("--builtin square", "--builtin log1p")),
          ("selfdec --depth 1", "depth too small: CA atom trail needs depth >= 2",
           ("--builtin exp-decay", "--builtin log1p")),
          ("invert cm --tol -1", "tol must be nonnegative", ("alternating.csv", "harmonic.csv")),
          ("extend --kind cm --at 1 --tol -1", "tol must be nonnegative",
           ("alternating.csv", "harmonic.csv")),
          ("egf --tol -1", "tol must be nonnegative", ("harmonic.csv", "bf.csv")),
      ] for data in pair),
    _refused("certify --kind cm --bogus-flag harmonic.csv", "unrecognized arguments: --bogus-flag"),
    _refused("certify --kind cm /nonexistent/nowhere.csv",
             "[Errno 2] No such file or directory: '/nonexistent/nowhere.csv'"),
    _refused("certify --kind cm seq.txt", "line 2: not a number: 'oops'", "1\noops\n", "csv-oops"),
    # one sample decides minimality on neither side
    _refused("minimal --kind cm seq.txt", "depth too small: CM minimality needs depth >= 1", "1\n",
             "minimal-cm-one-sample"),
    _refused("minimal --kind ca seq.txt", "depth too small: CA atom trail needs depth >= 2", "1\n"),
    # non-finite and out-of-range input
    _refused("certify --kind cm seq.txt", "line 2: not a finite number: 'inf'", "1\ninf\n1/2\n",
             "csv-inf"),
    _refused("certify --kind cm seq.txt", "line 2: not a finite number: '-Infinity'",
             "1\n-Infinity\n", "csv-minus-infinity"),
    _refused("minimal --kind cm seq.txt", "line 2: not a finite number: 'nan'", "1\nnan\n"),
    _refused("certify --kind cm seq.txt", "entry 1: cannot parse nan", "[1.0, NaN, 0.5]",
             "json-nan"),
    _refused("invert cm seq.txt", "entry 1: cannot parse inf", "[1.0, Infinity]"),
    _refused("certify --kind cm --mode float seq.txt", f"entry 1 is beyond float range: {_CUT}",
             "1\n1e400\n"),
    *(_refused(f"newton eval --at {at} seq.txt", f"argument --at: invalid _scalar value: '{at}'",
               _THIRDS) for at in ("inf", "nan", "1e400")),
    _refused("newton eval --at 1e200 seq.txt", f"term 2 at z = {_CUT} is beyond float range",
             _THIRDS),
    _refused("newton eval --terms -1 seq.txt", "n_terms must lie in 1..3, got -1", _THIRDS),
    _refused("newton eval --terms 0 seq.txt", "n_terms must lie in 1..3, got 0", _THIRDS),
    _refused("extend --kind cm --at inf seq.txt", "argument --at: invalid _floats value: 'inf'",
             _QUARTERS),
    _refused("extend --kind cm --at 1e400 seq.txt", "argument --at: invalid _floats value: '1e400'",
             _QUARTERS),
    _refused("minimal --kind cm --tol inf seq.txt", "argument --tol: invalid _float value: 'inf'",
             _THIRDS),
    _refused("minimal --kind cm --tol -1 seq.txt", "tol must be nonnegative", _THIRDS),
    _refused("invert cm --tol nan seq.txt", "argument --tol: invalid _float value: 'nan'", _THIRDS),
    _refused("invert cm --tol -1 seq.txt", "tol must be nonnegative", _THIRDS),
    _refused("invert cm --grid 0 seq.txt", "grid must have at least one cell", _QUARTERS),
    _refused("invert ca --grid 0 seq.txt", "grid must have at least one cell", "0\n1/2\n2/3\n"),
    _refused("extend --kind cm --at 1 --grid 0 seq.txt", "grid must have at least one cell",
             _QUARTERS),
    _refused("egf --grid 0 seq.txt", "grid must have at least one cell", "0\n1\n2\n"),
    _refused("certify --kind cm --depth 3 seq.txt",
             "insufficient data: depth 3 exceeds last index 2", _THIRDS),
    _refused("certify --kind cm --depth -1 seq.txt", "depth must be nonnegative", _THIRDS),
    _refused("certify --kind cm --out /nonexistent/dir/x.json seq.txt",
             "[Errno 2] No such file or directory: '/nonexistent/dir/x.json'", _THIRDS),
    _refused("evaluate --at 1e400 seq.txt", "argument --at: invalid _floats value: '1e400'",
             '{"atoms": [{"u": 1, "w": 1}]}'),
    *(_refused("evaluate --at 1 seq.txt", error, text, f"evaluate-{name}")
      for name, text, error in [
          ("report-without-model", '{"command": "certify", "result": {"certificate": {}}}',
           _NO_MODEL),
          ("sequence-file", "[1, 0.5]", _NO_MODEL),
          ("result-number", '{"result": 5}', _NO_MODEL),
          ("result-null", '{"result": null}', _NO_MODEL),
          ("atom-without-u", '{"atoms": [{"w": 1}]}', "measure atom has no 'u' key"),
          ("atom-not-object", '{"atoms": [1]}', "measure atom must be a JSON object, got int"),
          ("ca-atom-null", '{"q": 1, "atoms": [{"u": null, "w": 1}]}',
           "measure atom field 'u' is not a finite number: None"),
          ("weight-1e400", '{"atoms": [{"u": 0.5, "w": 1e400}]}',
           "measure atom field 'w' is not a finite number: inf"),
          ("weight-401-digits", '{"atoms": [{"u": 0.5, "w": 1%s}]}' % ("0" * 400),
           f"measure atom field 'w' is not a finite number: {_CUT}"),
          ("q-string-1e400", '{"q": "1e400", "atoms": [{"u": 0.5, "w": 1}]}',
           "CA triplet field 'q' is not a finite number: '1e400'"),
          ("levy-integral-overflow", _LEVY_OVERFLOW, _LEVY_OVERFLOW_ERROR)]),
    # triplet:FILE files that are malformed, or not a triplet: absent fields
    # default to 0, so without the check these read as Phi = 0
    *(_refused(f"{argv} --builtin triplet:seq.txt", error, text, f"triplet-{name}")
      for name, argv, text, error in [
          ("atom-without-weight", "bftheta", '{"levy": [{"x": 1}]}', "levy atom has no 'w' key"),
          ("array", "bftheta", '[{"x": 1, "w": 1}]', "triplet must be a JSON object, got list"),
          ("null-x", "bftheta", '{"levy": [{"x": null, "w": 1}]}',
           "levy atom field 'x' is not a finite number: None"),
          ("levy-not-list", "bftheta", '{"levy": {"x": 1, "w": 1}}',
           "triplet field 'levy' is not a list: {'x': 1, 'w': 1}"),
          ("file-a-measure", "operator --op sigma --at 1", '{"atoms": [{"u": 0.5, "w": 1.0}]}',
           _NOT_A_TRIPLET),
          ("file-an-invert-report", "operator --op sigma --at 1",
           '{"command": "invert", "result": {"model": {"atoms": []}}, "exit_code": 0}',
           _NOT_A_TRIPLET),
          ("levy-integral-overflow", "bftheta", _LEVY_OVERFLOW, _LEVY_OVERFLOW_ERROR)]),
    _refused("webster --terms 0", "n_terms must be at least 1"),
    _refused("webster --g constant:inf", "not a finite number: 'inf'"),
    _refused("webster --g constant:1000", "constant:1000.0: e^c is beyond float range"),
    _refused("subaffine --builtin sqrt --bound inf",
             "argument --bound: invalid _float value: 'inf'"),
    _refused("selfdec --builtin log1p --tol inf", "argument --tol: invalid _float value: 'inf'"),
    # the kernel's message, raised before the first sample and the default tol
    _refused("selfdec --builtin log1p --depth -1", "depth must be nonnegative"),
    _refused("lattice --kind cm --builtin exp-decay --alpha -1", "alpha must be positive"),
    _refused("lattice --kind cm --builtin exp-decay --alpha 0", "alpha must be positive"),
    _refused("lattice --kind cm --builtin exp-decay --alpha 1e309",
             "argument --alpha: invalid _floats value: '1e309'"),
    # 25 alpha is inf: its slope bound 0 * inf was NaN, refused as a bad value bound
    _refused("lattice --kind cm --builtin exp-decay --alpha 1e308",
             "alpha 1e+308 puts the lattice point 25 * alpha beyond float range"),
    _refused("operator --builtin exp-decay --op sigma --c 1e400 --at 1",
             "argument --c: invalid _floats value: '1e400'"),
    _refused("operator --builtin exp-decay --op sigma --c 1/0 --at 1",
             "argument --c: invalid _floats value: '1/0'"),
    _refused("decompose cm --builtin exp-decay --c ,", "argument --c: invalid _floats value: ','"),
    _refused("bftheta --builtin log1p --c 0", "c must be positive"),
    _refused("decompose cm --builtin exp-decay --c 0", "c must be positive"),
    _refused("decompose bf --builtin log1p --c 0", "c must be positive"),
    _refused("decompose cm --builtin exp-decay --nmax 0", "n_max must be at least 1"),
    _refused("decompose cm --builtin exp-decay --nmax -1", "n_max must be at least 1"),
    _refused("decompose bf --builtin log1p --nmax -2", "n_max must be at least 1"),
    # binomial weights past float range raised OverflowError; a shift
    # iterate * c or nmax * c of inf evaluated f(inf) and exited 0
    *(_refused(f"operator --builtin exp-decay --op {op} --c {c} --iterate 1100 --at 1",
               f"iterate 1100 of {op} has binomial weights beyond float range (at most 1029)")
      for op, c in [("delta", "1"), ("theta", "1"), ("rho", "0.5")]),
    _refused("operator --builtin exp-decay --op tau --c 1e308 --iterate 2 --at 1",
             "the shift iterate * c = 2 * 1e+308 is beyond float range"),
    _refused("decompose cm --builtin reciprocal --nmax 1000000000 --c 1e300",
             "the shift n_max * c is beyond float range for n_max = 1000000000 and c = 1e+300"),
    _refused("decompose bf --builtin log1p --c 1,1e307",
             "the shift n_max * c + c is beyond float range for n_max = 64 and c = 1e+307"),
    # an evaluation point x + iterate * c or c^iterate * x past float range
    # evaluated f(inf) and exited 0; the theta samples -2ck of x^2 ended in a
    # traceback
    *(_refused(f"operator --builtin exp-decay --op {op} --c 1e308 --at 1e308",
               "the point x + iterate * c = 1e+308 + 1 * 1e+308 is beyond float range")
      for op in ("tau", "delta", "theta")),
    _refused("operator --builtin exp-decay --op sigma --c 1e200 --at 1e200",
             "the point c^iterate * x = 1e+200^1 * 1e+200 is beyond float range"),
    _refused("bftheta --builtin square --c=1.7e308",
             "the theta samples at c = 1.7e+308 pass float range"),
    # the terms' sum raised fsum's "-inf + inf in fsum"; one term past float
    # range gave fsum's -2 f(x + 1) = -inf, written as null with exit 0,
    # though delta^2 x^2 = 2
    *(_refused(f"operator --builtin linear --op {op} --iterate 1000 --at 1e300",
               f"the terms of {op} at iterate 1000 and x = 1e+300 pass float range")
      for op in ("delta", "theta")),
    _refused("operator --builtin square --op delta --iterate 2 --c 1 --at 1.3e154",
             "the terms of delta at iterate 2 and x = 1.3e+154 pass float range"),
    # fits of exact data past float range: an entry, a first difference (the
    # drift a report would carry), and the CA target a_k - q - d k, here
    # q + 3e308 (1 - 2^-k) - q, whose weight 3e308 at u = 1/2 a report could
    # not carry
    *(_refused(f"{argv} seq.txt", error, text, f"{argv} {name}") for name, text, error, argvs in [
        ("entry", "1e309\n0\n0\n", f"entry 0 is beyond float range: {_CUT}",
         ("invert cm", "extend --kind cm --at 1")),
        ("difference", "-1.7e308\n1.7e308\n", "first difference a_1 - a_0 is beyond float range",
         _CA_FITS),
        ("ca-target", _OVERFLOW_CA_TARGET, "NNLS weight is beyond float range", _CA_FITS),
    ] for argv in argvs),
    # start-up alone: neither numpy, SciPy nor a cmtk module that no command
    # has run yet; --help still builds the parser of every command
    Row("help", ("--help",), 0, None, not_loaded=_modules(
        ".bernstein .builtins .classify .funcops .moments .newton .seqcore .webster ._extrapolate "
        "csv" + _NO_NNLS)),
]


def _workdir(row, workdir: Path):
    """Fill ``workdir`` with copies of the inputs, and seq.txt."""
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    if row.seq is not None:
        (workdir / "seq.txt").write_text(row.seq)


def _argv(row):
    return [*row.argv, "--no-meta"] if row.stdout else list(row.argv)


def _report(row, workdir: Path, stdout: bytes) -> bytes:
    """stdout, followed by the --out file's bytes when the row wrote one."""
    if "--out" not in row.argv:
        return stdout
    out = workdir / row.argv[row.argv.index("--out") + 1]
    return stdout + (out.read_bytes() if out.exists() else b"")


def run_in_process(row, workdir: Path):
    """(exit code, report bytes, stderr text) of ``row`` run by ``cmtk.cli.main``
    in ``workdir``, with every warning an error."""
    from cmtk import cli

    _workdir(row, workdir)
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(_argv(row))
    finally:
        os.chdir(cwd)
    return code, _report(row, workdir, out.getvalue().encode()), err.getvalue()


def problems(row, code, report: bytes, stderr: str, loaded=None, golden=GOLDEN):
    """What a run of ``row`` got wrong, one line each, naming the row: its exit
    code, report and stderr against the row's, and the modules ``loaded``
    (when they were read) against ``row.not_loaded``."""
    found = []
    if code != row.code:
        found.append(f"exit code {code}, want {row.code}")
    if row.stdout:
        want = (golden / f"{row.stdout}.json").read_bytes()
        if report != want:
            at = next((i for i, (a, b) in enumerate(zip(report, want)) if a != b),
                      min(len(report), len(want)))
            found.append(f"report differs from {row.stdout}.json at byte {at}")
    elif row.stdout == "" and report:
        found.append(f"stdout is not empty: {report[:80]!r}")
    want = f"{row.stderr}\n" if row.stderr else ""
    if stderr != want:
        found.append(f"stderr {stderr[-300:]!r}, want {want!r}")
    if loaded is not None and loaded & row.not_loaded:
        found.append(f"loaded {sorted(loaded & row.not_loaded)}")
    return [f"{row.name}: {problem}" for problem in found]


def check_row(row, command=("cmtk",), golden=GOLDEN):
    """The problems of ``row`` run as ``command`` (the cmtk executable, or
    ``python -m cmtk.cli``) in a child, its modules read with
    ``PYTHONPROFILEIMPORTTIME=1``; the empty list when it keeps the contract."""
    env = {k: v for k, v in os.environ.items() if k != "CMTK_MAX_EVALS"}
    env["PYTHONPROFILEIMPORTTIME"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _workdir(row, workdir)
        proc = subprocess.run([*command, *_argv(row)], cwd=workdir, env=env, capture_output=True,
                              timeout=300)
        report = _report(row, workdir, proc.stdout)
    lines = proc.stderr.decode().splitlines(keepends=True)
    loaded = {line.rpartition("|")[2].strip() for line in lines if line.startswith("import time:")}
    stderr = "".join(line for line in lines if not line.startswith("import time:"))
    return problems(row, proc.returncode, report, stderr, loaded, golden)


def main() -> int:
    failed = 0
    for row in ROWS:
        found = check_row(row)
        failed += bool(found)
        for line in found:
            print(line, flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows kept the contract")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

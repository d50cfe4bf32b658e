"""Every command, on extreme but well-formed files and options, keeps the
exit-code contract: a code in 0-3, exactly one stderr line on code 3, and
on codes 0-2 a report that a strict JSON parser reads (no NaN or Infinity
tokens).  A traceback, an exit code outside 0-3 or a non-strict report
fails the test."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cmtk.bernstein import check_bf_via_theta, check_selfdecomposable
from cmtk.builtins import get_handle, get_webster_g
from cmtk.classify import certify
from cmtk.cli import main
from cmtk.funcops import (apply_operator, bf_limit_decompose, cm_limit_decompose, lattice_check,
                          subaffine_check)
from cmtk.moments import extend_from_integer_samples, invert_ca, invert_cm
from cmtk.newton import eval_series, series_from_samples
from cmtk.scalars import CA, CM
from cmtk.seqcore import Sequence
from cmtk.webster import WebsterProblem, solve_webster
from test_cli import assert_fits_as_scaled_copy, reject_constant

# sequence entries and option values at and past the ends of float range
ENTRIES = ["0", "1", "-2", "3.0", "1/3", "-1/1000000007", "1e-300", "-1e-300", "5e-324",
           "1e150", "1e300", "1.7e308", "-1.7e308", "123456789012345678901234567890"]
POSITIVE = ["5e-324", "1e-300", "1e-150", "0.5", "1", "2", "52", "1e150", "1e300", "1.7e308"]
REALS = POSITIVE + ["0", "-1", "-1e300"]
BUILTINS = ["exp-decay", "reciprocal", "sqrt", "sqrt-triplet", "log1p", "one-minus-exp",
            "linear", "square", "bf-ratio", "abs-sin-pi", "triplet:triplet.json"]

ints = st.integers(-1, 40).map(str)
reals = st.sampled_from(REALS) | st.floats(-1e300, 1e300).map(repr)
positives = st.sampled_from(POSITIVE) | st.floats(5e-324, 1.7e308).map(repr)
lists = st.lists(reals, min_size=1, max_size=4).map(",".join)
kinds = st.sampled_from(["cm", "ca"])


def _options(draw, **choices):
    """``--name=value`` options (``=`` keeps a negative value from reading
    as an option) for a drawn subset of ``choices``, a strategy each; a
    value drawn empty gives a flag."""
    out = []
    for name, strategy in choices.items():
        if draw(st.booleans()):
            value = draw(strategy)
            out.append(f"--{name.replace('_', '-')}" + (f"={value}" if value else ""))
    return out


@st.composite
def sequence_files(draw):
    entries = draw(st.lists(st.sampled_from(ENTRIES) | st.floats(-1e300, 1e300).map(repr),
                            min_size=1, max_size=40))
    return {"seq.csv": "".join(f"{e}\n" for e in entries)}


# scales of the certifiable families, at and past the ends of float range
SCALES = ["5e-324", "1e-300", "1", "1e300", "1.7e308", "1e309", "123456789012345678901234567890"]
FAMILIES = [
    lambda a, b, r, k: abs(a) * r**k,                     # CM
    lambda a, b, r, k: abs(a) / (k + 1),                  # CM
    lambda a, b, r, k: a + b * k,                         # CA
    lambda a, b, r, k: a + b * k + abs(a) * (1 - r**k),   # CA
    lambda a, b, r, k: a,                                 # CM (a >= 0) and CA
]


def _exact(v):
    return f"{v.numerator}/{v.denominator}"


def _literal(v):
    """v as a float literal, or exact where it passes float range."""
    try:
        return repr(float(v))
    except OverflowError:
        return _exact(v)


@st.composite
def certifiable_files(draw):
    """A sequence that certifies CM or CA, so that the fits run on it: a r^k,
    a/(k+1), a + bk, a + bk + |a|(1 - r^k) or a, at scales from the ends of
    float range, written exact or as float literals."""
    scales = st.sampled_from(SCALES).map(Fraction)
    a = draw(scales) * draw(st.sampled_from([1, -1, 0]))
    b, r = draw(scales), draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))
    family, write = draw(st.sampled_from(FAMILIES)), draw(st.sampled_from([_exact, _literal]))
    return {"seq.csv": "".join(f"{write(family(a, b, r, k))}\n"
                               for k in range(draw(st.integers(1, 12))))}


@st.composite
def model_files(draw):
    atoms = sorted(set(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))))
    weights = st.floats(0.0, 1e300)
    measure = [{"u": u, "w": draw(weights)} for u in atoms]
    model = draw(st.sampled_from([
        {"atoms": measure},
        {"q": draw(st.sampled_from(["1/2", "0", "1e300"])), "d": draw(weights),
         "atoms": [a for a in measure if a["u"] < 1.0]},
        {"q": draw(weights), "d": draw(weights),
         "levy": [{"x": 1.0 + u, "w": a["w"]} for u, a in zip(atoms, measure)]},
    ]))
    if draw(st.booleans()):
        model = {"result": {"model": model}}  # as an invert, extend or egf report
    return {"model.json": json.dumps(model)}


@st.composite
def commands(draw):
    """(argv, files): one command line, naming files by their keys."""
    files = draw(sequence_files() | certifiable_files())
    files["triplet.json"] = json.dumps({"q": draw(st.sampled_from([0.0, 1.0, 1e300])),
                                        "d": draw(st.sampled_from([0.0, 2.0, 1e-300])),
                                        "levy": [{"x": float(draw(positives)), "w": 0.5}]})
    command = draw(st.sampled_from(["certify", "minimal", "invert", "evaluate", "extend", "newton",
                                    "webster", "operator", "decompose", "lattice", "subaffine",
                                    "bftheta", "selfdec", "egf"]))
    mode = {"mode": st.sampled_from(["exact", "float"])}
    grid = {"grid": st.integers(-1, 30).map(str), "tol": reals}
    builtin = ["--builtin", draw(st.sampled_from(BUILTINS))]
    if command in ("certify", "minimal"):
        argv = [command, "seq.csv", "--kind", draw(kinds),
                *_options(draw, depth=ints, **mode, **({"tol": reals} if command == "minimal"
                                                       else {}))]
    elif command == "invert":
        argv = [command, draw(kinds), "seq.csv", *_options(draw, **mode, **grid)]
    elif command == "evaluate":
        files.update(draw(model_files()))
        argv = [command, "model.json", "--at=" + draw(lists)]
    elif command == "extend":
        argv = [command, "seq.csv", "--kind", draw(kinds), "--at=" + draw(lists),
                *_options(draw, **mode, **grid)]
    elif command == "newton":
        argv = [command, draw(st.sampled_from(["fit", "eval"])), "seq.csv",
                *_options(draw, **mode, at=reals | st.sampled_from(["1/3", "-7/2"]), terms=ints)]
    elif command == "webster":
        g = draw(st.sampled_from(["identity", "exp-neg-cm"]) | reals.map("constant:{}".format))
        argv = [command, "--g", g, *_options(draw, at=lists, terms=st.integers(-1, 2000).map(str),
                                             no_accel=st.just(""), g_limit_one=st.just(""),
                                             check_grid=lists)]
    elif command == "operator":
        argv = [command, *builtin, "--op",
                draw(st.sampled_from(["sigma", "tau", "delta", "theta", "rho"])),
                "--at=" + draw(lists), *_options(draw, c=positives,
                                               iterate=st.integers(-1, 3).map(str))]
    elif command == "decompose":
        argv = [command, draw(st.sampled_from(["cm", "bf"])), *builtin,
                *_options(draw, c=lists, nmax=st.integers(-1, 64).map(str))]
    elif command == "lattice":
        argv = [command, "--kind", draw(kinds), *builtin,
                *_options(draw, alpha=lists, depth=st.integers(-1, 25).map(str), tol=reals)]
    elif command == "subaffine":
        argv = [command, *builtin, "--bound=" + draw(reals), *_options(draw, c=reals)]
    elif command == "bftheta":
        argv = [command, *builtin, *_options(draw, c=lists, depth=st.integers(-1, 20).map(str))]
    elif command == "selfdec":
        argv = [command, *builtin,
                *_options(draw, c=lists, depth=st.integers(-1, 30).map(str), tol=reals)]
    else:
        argv = [command, "seq.csv", *_options(draw, **grid)]
    return argv, files


NOISY = "AAACBCCBABDDCDCAACDCDDBBBBABCBBCBDDCCCDBDDBDCD"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def default_budget():
    # the default evaluation budget, whatever the environment sets
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("CMTK_MAX_EVALS", raising=False)
        yield


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=commands())
# the float noise bound's fsum passed float range (a traceback), and the
# report wrote the NaN value and the inf tail estimate as NaN and Infinity
@example(case=(["newton", "eval", "seq.csv", "--mode", "float", "--at", "52", "--terms", "33"],
               {"seq.csv": "".join({"A": "1e300\n", "B": "1e150\n", "C": "3.0\n",
                                    "D": "-1e-300\n"}[c] for c in NOISY)}))
# an exact value past float range failed to round to float (a traceback)
@example(case=(["newton", "eval", "seq.csv", "--mode", "exact", "--at", "0.5"],
               {"seq.csv": "0.5\n1.7e308\n1\n0.5\n0.5\n1\n0.5\n1\n-1.7e308\n"}))
# a term bound that is inf already, beside a NaN value
@example(case=(["newton", "eval", "seq.csv", "--mode", "float", "--at", "52"],
               {"seq.csv": "1e308\n-1e308\n1e308\n-1e308\n"}))
# each of these ended in an OverflowError traceback
@example(case=(["operator", "--builtin", "exp-decay", "--op", "delta", "--at=-5e16",
                "--c=1.7e308"], {}))
@example(case=(["operator", "--builtin", "exp-decay", "--op", "sigma", "--at=1", "--c=1.7e308",
                "--iterate=2"], {}))
@example(case=(["webster", "--g", "identity", "--check-grid=5e-324"], {}))
@example(case=(["bftheta", "--builtin", "linear", "--c=1.7e308,1e-150", "--depth=16"], {}))
# theta_c of x^2 is -2ck: exact samples past float range (a traceback)
@example(case=(["bftheta", "--builtin", "square", "--c=1.7e308"], {}))
@example(case=(["egf", "seq.csv"], {"seq.csv": "1.7e308\n1.7e308\n"}))
# x - m rounded to the base point 0.0, a domain error (exit 1)
@example(case=(["webster", "--g", "identity", "--at", "1e16"], {}))
# the recursion multiplied on past inf until the budget ran out (exit 2)
@example(case=(["webster", "--g", "identity", "--at", "1e15"], {}))
# fits of exact data past float range: an entry (a traceback), a first
# difference (a traceback) and the CA target (numpy's warnings on stderr;
# at the data's binade it fits)
@example(case=(["invert", "cm", "seq.csv"], {"seq.csv": "1e309\n0\n0\n"}))
@example(case=(["egf", "seq.csv"], {"seq.csv": "-1.7e308\n1.7e308\n"}))
@example(case=(["extend", "seq.csv", "--kind", "ca", "--at=1"],
               {"seq.csv": "-1.7e308\n0\n1.7e308\n"}))
# the NNLS residual's sum of squares passed float range: numpy's overflow
# warning on stderr and a residual of inf (see the child test below)
@example(case=(["invert", "ca", "seq.csv"], {"seq.csv": "0\n1e300\n1e300\n"}))
@example(case=(["invert", "cm", "seq.csv"], {"seq.csv": "1.7e308\n1e300\n0\n"}))
# fits at the ends of float range: 100 tol 2^e passes float range (an
# OverflowError if scaled back by math.ldexp), and subnormal data
@example(case=(["invert", "cm", "seq.csv", "--tol=1e300"], {"seq.csv": "1.7e308\n" * 3}))
@example(case=(["invert", "ca", "seq.csv", "--tol=1e300"], {"seq.csv": "1.7e308\n" * 3}))
@example(case=(["extend", "seq.csv", "--kind", "cm", "--at=1,2", "--tol=1e300"],
               {"seq.csv": "1.7e308\n" * 3}))
@example(case=(["egf", "seq.csv", "--tol=1e300"], {"seq.csv": "1.7e308\n" * 3}))
@example(case=(["invert", "cm", "seq.csv"], {"seq.csv": "1e-323\n5e-324\n5e-324\n"}))
def test_exit_code_contract(case, workdir, default_budget):
    argv, files = case
    for name, text in files.items():
        (workdir / name).write_text(text)
    argv = [str(workdir / a) if a in files
            else f"triplet:{workdir / 'triplet.json'}" if a == "triplet:triplet.json" else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--no-meta"])
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
    else:
        report = json.loads(out.getvalue(), parse_constant=reject_constant)
        assert report["exit_code"] == code


@pytest.mark.parametrize("kind, text", [("ca", "0\n1e300\n1e300\n"), ("cm", "1.7e308\n1e300\n0\n")],
                         ids=["ca", "cm"])
def test_residual_past_float_range_in_a_child(tmp_path, kind, text):
    # the sum of squares of the residual passed float range at the data's
    # scale; at the data's binade the fit reads as the data scaled to [1, 2)
    report = assert_fits_as_scaled_copy(tmp_path, ["invert", kind], text)
    assert report["exit_code"] == 0
    assert math.isfinite(report["result"]["fit"]["residual"])


# counts as callers pass them: ints (negative ones included), numpy ints,
# bools, floats integral or not, and strings
counts = (st.integers(-2, 24) | st.integers(-2, 24).map(numpy.int64) | st.booleans()
          | st.sampled_from([2.0, 2.5, -1.0, math.nan, math.inf]) | st.sampled_from(["3", ""]))
# c and alpha values at and past the ends of their range, exact ones included
SCALE_VALUES = [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 0.25, 0.5, 1.0,
                2.0, 1e300, 1.7e308, Fraction(1, 3), 3, 10**400]
scales = st.sampled_from(SCALE_VALUES) | st.floats()
scale_lists = st.lists(scales, max_size=3).flatmap(lambda v: st.sampled_from([v, tuple(v)]))
handles = st.sampled_from(["square", "log1p", "exp-decay"]).map(get_handle)
ops = st.sampled_from(["sigma", "tau", "delta", "theta", "rho"])
HARMONIC = Sequence.from_values([Fraction(1, k + 1) for k in range(12)])  # CM
CA_SEQ = Sequence.from_values([1 - Fraction(1, 2**k) for k in range(12)])
# each public function that takes a count or a c/alpha list: the strategy
# of its arguments, and the call
LIBRARY_CALLS = {
    "apply_operator": (st.tuples(handles, ops, scales, counts),
                       lambda f, op, c, n: apply_operator(f, op, c, n)(0.5)),
    "cm_limit_decompose": (st.tuples(handles, scale_lists, counts), cm_limit_decompose),
    "bf_limit_decompose": (st.tuples(handles, scale_lists, counts), bf_limit_decompose),
    "lattice_check": (st.tuples(handles, kinds, scale_lists, counts), lattice_check),
    "check_bf_via_theta": (st.tuples(handles, scale_lists, counts), check_bf_via_theta),
    "check_selfdecomposable": (st.tuples(handles, scale_lists, counts), check_selfdecomposable),
    "subaffine_check": (st.tuples(handles, scales), lambda f, c: subaffine_check(f, c, 1.0)),
    "certify": (st.tuples(kinds, counts), lambda kind, d: certify(HARMONIC, kind, d)),
    "eval_series": (st.tuples(counts), lambda n: eval_series(
        series_from_samples(HARMONIC), Fraction(1, 2), n)),
    "webster": (st.tuples(counts, scales), lambda n, x: solve_webster(
        WebsterProblem(get_webster_g("identity"), n), x)),
    "invert_cm": (st.tuples(counts), lambda m: invert_cm(HARMONIC, m, 1.0)),
    "invert_ca": (st.tuples(counts), lambda m: invert_ca(CA_SEQ, m, 1.0)),
    "extend_cm": (st.tuples(counts), lambda m: extend_from_integer_samples(HARMONIC, CM, m, 1.0)),
    "extend_ca": (st.tuples(counts), lambda m: extend_from_integer_samples(CA_SEQ, CA, m, 1.0)),
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("name", sorted(LIBRARY_CALLS))
@given(data=st.data())
def test_library_parameter_contract(name, data, default_budget):
    """Each public function, given a count or a c/alpha list of any kind,
    returns or refuses it with a ValueError (DomainError included): never a
    TypeError, IndexError or OverflowError, and never a verdict from an
    empty list."""
    strategy, call = LIBRARY_CALLS[name]
    args = data.draw(strategy)
    try:
        call(*args)
    except ValueError:
        return
    assert not any(isinstance(a, (list, tuple)) and not a for a in args), args

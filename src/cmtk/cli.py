"""Command-line front end.

One subcommand per library operation, stable exit codes for scripting:

    0  pass / success
    1  fail (certified violation, non-representable fit, failed bound)
    2  inconclusive or partial result
    3  usage or I/O error

Every command returns a verdict that one table maps to codes 0-2, and
writes a JSON report (stdout or --out) echoing the resolved parameter set;
--no-meta strips the timestamp so identical runs produce byte-identical
reports.  Reports are strict JSON: a float that is not finite is written as
null.  Any CmtkError is a fail (inconclusive when a function handle ran out
of its evaluation budget) with a report whose result is {"error": message},
plus the failing certificate when the error carries one.  Malformed input,
including non-finite numbers and a malformed parameter whatever the data,
gives code 3 and an error line on stderr, with no report.  ``evaluate``
reads a bare model file or an ``invert``/``extend``/``egf`` report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import BudgetExceededError, CmtkError
from .scalars import (CA, CM, DEFAULT_C_PAIR, DEFAULT_GRID, DEFAULT_N, DEFAULT_SD_CS, DEFAULT_TOL,
                      FAIL, FLOAT, INCONCLUSIVE, PASS, Record, coerce_values, parse_scalar,
                      scalar_to_json)

EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _float(text):
    """Type of every float option: parse_scalar's grammar (finite numbers
    only) within float range."""
    return coerce_values([parse_scalar(text)], FLOAT)[0][0]


def _scalar(text):
    """Type of an exact scalar option: checked as _float, kept as text."""
    _float(text)
    return text


def _floats(text):
    values = [_float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("expected at least one number")
    return values


def _check_verdict(passed, entries):
    """Verdict of a lattice or theta check: pass when it passed, fail only
    when one of ``entries`` has a failed certificate, inconclusive otherwise
    (a partial lattice passes no entries)."""
    if passed:
        return PASS
    return FAIL if any(e.certificate.failed for e in entries) else INCONCLUSIVE


def _load_sequence(args):
    from .seqcore import read_sequence
    return read_sequence(args.input, mode=args.mode)


def _to_json(obj):
    """The report tree ``obj`` in JSON's own types, at every depth: a record
    as its own to_dict or else its fields, a tuple as a list, a non-finite
    float as None (so strict parsers read the report) and any other value in
    its scalar form."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, dict):
        return {key: _to_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_json(value) for value in obj]
    if hasattr(obj, "to_dict"):
        return _to_json(obj.to_dict())
    if isinstance(obj, Record):
        return _to_json({name: getattr(obj, name) for name in obj._fields})
    return _to_json(scalar_to_json(obj))


# -- subcommand implementations; each returns (verdict, result) -------------

def _cmd_certify(args):
    from . import classify
    seq = _load_sequence(args)
    cert = classify.certify(seq, args.kind, args.depth)
    return cert.verdict, {"certificate": cert}


def _cmd_minimal(args):
    from . import classify
    seq = _load_sequence(args)
    rep = classify.is_minimal(seq, args.kind, args.depth, args.tol)
    return (PASS if rep.minimal else FAIL), {"minimality": rep}


def _cmd_invert(args):
    from . import moments
    seq = _load_sequence(args)
    invert = moments.invert_cm if args.variant == "cm" else moments.invert_ca
    model, fit = invert(seq, args.grid, args.tol)
    return PASS, {"model": model, "fit": fit}


def _cmd_evaluate(args):
    with open(args.input, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "result" in data:  # a report of invert, extend or egf
        result = data["result"]
        data = result.get("model") if isinstance(result, dict) else None
    if not isinstance(data, dict) or not {"levy", "atoms"} & data.keys():
        raise ValueError(f"{args.input}: no measure, triplet or report with a model")
    if "levy" in data:
        from . import bernstein
        model, value = bernstein.BernsteinTriplet.from_dict(data), bernstein.eval_bernstein
    else:
        from . import moments
        kind = moments.CATriplet if "q" in data or "d" in data else moments.DiscreteMeasure
        model, value = kind.from_dict(data), moments.evaluate
    return PASS, {"values": [[lam, value(model, lam)] for lam in args.at]}


def _cmd_extend(args):
    from . import moments
    seq = _load_sequence(args)
    f = moments.extend_from_integer_samples(seq, args.kind, args.grid, args.tol)
    return PASS, {
        "values": [[lam, f(lam)] for lam in args.at],
        "fit": f.report,
        "model": f.model,
    }


def _cmd_newton(args):
    from .newton import eval_series, series_from_samples
    seq = _load_sequence(args)
    series = series_from_samples(seq)
    if args.action == "fit":
        return PASS, {"series": series}
    out = eval_series(series, parse_scalar(args.at), args.terms)
    try:
        value_float = float(out.value)
    except OverflowError:  # an exact value past float range
        value_float = None
    return PASS, {**vars(out), "value_float": value_float}


def _cmd_webster(args):
    from . import builtins, webster
    g = builtins.get_webster_g(args.g)
    problem = webster.WebsterProblem(
        g,
        n_terms=args.terms,
        acceleration="none" if args.no_accel else "aitken",
        g_limit_one=args.g_limit_one or args.g == "exp-neg-cm",
    )
    solution = webster.WebsterSolution(problem)
    out = {"solutions": [solution.result(x) for x in args.at]}
    if args.check_grid:
        out["functional_equation_residual"] = webster.verify_functional_equation(
            solution, g, args.check_grid)
    return PASS, out


def _cmd_operator(args):
    from . import builtins, funcops
    f = builtins.get_handle(args.builtin)
    composed = funcops.apply_operator(f, args.op, args.c[0], args.iterate)
    return PASS, {"values": [[x, composed(x)] for x in args.at]}


def _cmd_decompose(args):
    from . import builtins, funcops
    f = builtins.get_handle(args.builtin)
    decompose = funcops.cm_limit_decompose if args.variant == "cm" else funcops.bf_limit_decompose
    return PASS, {"decomposition": decompose(f, tuple(args.c), args.nmax)}


def _cmd_lattice(args):
    from . import builtins, funcops
    f = builtins.get_handle(args.builtin)
    rep = funcops.lattice_check(f, args.kind, args.alpha, args.depth, args.tol)
    return _check_verdict(rep.overall_pass, () if rep.partial else rep.entries), {"lattice": rep}


def _cmd_subaffine(args):
    from . import builtins, funcops
    f = builtins.get_handle(args.builtin)
    rep = funcops.subaffine_check(f, args.c[0], args.bound)
    return (PASS if rep.ok else FAIL), {"subaffine": rep}


def _cmd_bftheta(args):
    from . import bernstein, builtins
    f = builtins.get_handle(args.builtin)
    rep = bernstein.check_bf_via_theta(f, tuple(args.c), args.depth)
    return _check_verdict(rep.overall_pass, rep.entries), {"theta_check": rep}


def _cmd_selfdec(args):
    from . import bernstein, builtins
    f = builtins.get_handle(args.builtin)
    rep = bernstein.check_selfdecomposable(f, tuple(args.c), args.depth, args.tol)
    return rep.verdict, {"selfdecomposable": rep}


def _cmd_egf(args):
    from . import bernstein, moments
    seq = _load_sequence(args)
    triplet, fit = moments.invert_ca(seq, args.grid, args.tol)
    residual = bernstein.egf_validate(seq, triplet)
    return PASS, {"egf_residual": residual, "fit": fit, "model": triplet}


def _arg(flag, **kwargs):
    return flag, kwargs


_REPORT = (_arg("--out", help="write the JSON report to this path"),
           _arg("--no-meta", action="store_true",
                help="omit timestamps for byte-identical reports"))
_SEQUENCE = (*_REPORT, _arg("input", help="sequence file (CSV or JSON array)"),
             _arg("--mode", choices=["exact", "float"]))
_KIND = _arg("--kind", choices=[CM, CA], required=True)
_GRID = (_arg("--grid", type=int, default=DEFAULT_GRID),
         _arg("--tol", type=_float, default=DEFAULT_TOL))
_BUILTIN = _arg("--builtin", required=True)
_TOL = _arg("--tol", type=_float)
_AT = _arg("--at", type=_floats, required=True)


def _c(*default):
    return _arg("--c", type=_floats, default=list(default))


def _depth(default=None):
    return _arg("--depth", type=int, default=default)


# name -> (help, handler, arguments in the order the parser adds them)
COMMANDS = {
    "certify": ("CM/CA sign certification", _cmd_certify, (*_SEQUENCE, _KIND, _depth())),
    "minimal": ("atom-at-zero / minimality check", _cmd_minimal,
                (*_SEQUENCE, _KIND, _depth(), _TOL)),
    "invert": ("moment inversion", _cmd_invert,
               (_arg("variant", choices=["cm", "ca"]), *_SEQUENCE, *_GRID)),
    "evaluate": ("evaluate a measure/triplet JSON file", _cmd_evaluate,
                 (_arg("input", help="model JSON file"), _AT, *_REPORT)),
    "extend": ("CM/BF interpolant of integer samples fitted on the grid", _cmd_extend,
               (*_SEQUENCE, _KIND, *_GRID, _AT)),
    "newton": ("Gregory-Newton series", _cmd_newton, (
        _arg("action", choices=["fit", "eval"]), *_SEQUENCE,
        _arg("--at", type=_scalar, default="0.5", help="evaluation point (eval only)"),
        _arg("--terms", type=int))),
    "webster": ("solve f(x+1) = g(x) f(x), f(1) = 1", _cmd_webster, (
        *_REPORT, _arg("--g", default="identity", help="identity | constant:<c> | exp-neg-cm"),
        _arg("--at", type=_floats, default=[0.5]), _arg("--terms", type=int, default=DEFAULT_N),
        _arg("--no-accel", action="store_true"), _arg("--g-limit-one", action="store_true"),
        _arg("--check-grid", type=_floats, help="verify the functional equation on these x"))),
    "operator": ("apply sigma/tau/delta/theta/rho", _cmd_operator, (
        *_REPORT, _c(1.0), _BUILTIN,
        _arg("--op", choices=["sigma", "tau", "delta", "theta", "rho"], required=True),
        _arg("--iterate", type=int, default=1), _AT)),
    "decompose": ("limit decompositions", _cmd_decompose, (
        _arg("variant", choices=["cm", "bf"]), *_REPORT, _c(*DEFAULT_C_PAIR), _BUILTIN,
        _arg("--nmax", type=int, default=64))),
    "lattice": ("CM/CA certification on lattices", _cmd_lattice, (
        *_REPORT, _KIND, _BUILTIN, _arg("--alpha", type=_floats, default=[1.0, 0.5]), _depth(20),
        _TOL)),
    "subaffine": ("bounded-increment check", _cmd_subaffine,
                  (*_REPORT, _c(1.0), _BUILTIN, _arg("--bound", type=_float, required=True))),
    "bftheta": ("Bernstein membership via theta", _cmd_bftheta,
                (*_REPORT, _c(*DEFAULT_C_PAIR), _BUILTIN, _depth(15))),
    "selfdec": ("self-decomposability suite", _cmd_selfdec,
                (*_REPORT, _c(*DEFAULT_SD_CS), _BUILTIN, _depth(30), _TOL)),
    "egf": ("EGF identity residual for a CA fit", _cmd_egf, (*_SEQUENCE, *_GRID)),
}


def build_parser(command=None) -> _Parser:
    """The parser of every command in COMMANDS, or of ``command`` alone."""
    p = _Parser(prog="cmtk", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS if command is None else [command]:
        text, fn, arguments = COMMANDS[name]
        sp = sub.add_parser(name, help=text)
        for flag, kwargs in arguments:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(fn=fn)
    return p


def _resolved_params(args):
    skip = {"fn", "out", "no_meta", "command"}
    return {key: value for key, value in sorted(vars(args).items()) if key not in skip}


def _run(args):
    """(verdict, result) of the subcommand; a CmtkError becomes an error result."""
    try:
        return args.fn(args)
    except CmtkError as exc:  # before ValueError: a DomainError is both
        verdict = INCONCLUSIVE if isinstance(exc, BudgetExceededError) else FAIL
        result = {"error": str(exc)}
        if getattr(exc, "certificate", None):
            result["certificate"] = exc.certificate
        return verdict, result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command's own parser; no argument, --help and an unknown command get all of them
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    try:
        verdict, result = _run(args)
        code = {PASS: 0, FAIL: 1, INCONCLUSIVE: 2}[verdict]  # the one map to exit codes
        report = {
            "command": args.command,
            "params": _resolved_params(args),
            "result": result,
            "exit_code": code,
        }
        if not args.no_meta:
            import datetime  # only a report with a timestamp needs it

            report["meta"] = {
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()
            }
        text = json.dumps(_to_json(report), sort_keys=True, indent=2, allow_nan=False)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (OSError, ValueError, ZeroDivisionError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())

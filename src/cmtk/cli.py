"""Command-line front end.

One subcommand per library operation, stable exit codes for scripting:

    0  pass / success
    1  fail (certified violation, non-representable fit, failed bound)
    2  inconclusive or partial result
    3  usage or I/O error

Every run on codes 0-2 writes a JSON report (stdout or --out) echoing the
resolved parameter set; --no-meta strips the timestamp so identical runs
produce byte-identical reports.  Library errors map to one place: any
CmtkError gives code 1 (2 when a function handle ran out of its evaluation
budget) with a report whose result is {"error": message}, plus the failing
certificate when the error carries one.  Malformed input, including
non-finite numbers, gives code 3 and an error line on stderr, with no
report.  ``evaluate`` reads a bare model file or an
``invert``/``extend``/``egf`` report.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys

from .errors import BudgetExceededError, CmtkError
from .scalars import (CA, CM, DEFAULT_C_PAIR, DEFAULT_GRID, DEFAULT_N, DEFAULT_SD_CS, DEFAULT_TOL,
                      FLOAT, coerce_values, parse_scalar, scalar_to_json)
from .seqcore import Sequence, read_sequence  # every command loads it

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE = 0, 1, 2, 3


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


def _verdict_code(verdict):
    from . import classify
    return {
        classify.PASS: EXIT_PASS,
        classify.FAIL: EXIT_FAIL,
        classify.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[verdict]


def _check_code(passed, entries):
    """Exit code of a lattice or theta check: pass when it passed, fail only
    when one of ``entries`` has a failed certificate, inconclusive otherwise
    (a partial lattice passes no entries)."""
    if passed:
        return EXIT_PASS
    return EXIT_FAIL if any(e.certificate.failed for e in entries) else EXIT_INCONCLUSIVE


def _load_sequence(args) -> Sequence:
    return read_sequence(args.input, mode=args.mode)


def _get_handle(spec: str):
    if spec.startswith("triplet:"):
        from . import bernstein
        path = spec.partition(":")[2]
        with open(path, "r", encoding="utf-8") as fh:
            t = bernstein.BernsteinTriplet.from_dict(json.load(fh))
        return bernstein.triplet_handle(t, name=f"triplet:{path}")
    from .builtins import get_handle
    return get_handle(spec)


def _to_json(obj):
    """json.dumps hook: an object's own to_dict, else its dataclass fields
    (serialized in turn), else the scalar form."""
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return scalar_to_json(obj)


# -- subcommand implementations; each returns (exit_code, result) -----------

def _cmd_certify(args):
    from . import classify
    seq = _load_sequence(args)
    cert = classify.certify(seq, args.kind, args.depth)
    return _verdict_code(cert.verdict), {"certificate": cert}


def _cmd_minimal(args):
    from . import classify
    seq = _load_sequence(args)
    rep = classify.is_minimal(seq, args.kind, args.depth, args.tol)
    return (EXIT_PASS if rep.minimal else EXIT_FAIL), {"minimality": rep}


def _cmd_invert(args):
    from . import moments
    seq = _load_sequence(args)
    invert = moments.invert_cm if args.variant == "cm" else moments.invert_ca
    model, fit = invert(seq, args.grid, args.tol)
    return EXIT_PASS, {"model": model, "fit": fit}


def _cmd_evaluate(args):
    with open(args.input, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "result" in data:  # a report of invert, extend or egf
        result = data["result"]
        data = result.get("model") if isinstance(result, dict) else None
    if not isinstance(data, dict) or not {"levy", "atoms"} & data.keys():
        raise ValueError(f"{args.input}: no measure, triplet or report with a model")
    from . import moments  # bernstein imports it too
    if "levy" in data:
        from . import bernstein
        model, value = bernstein.BernsteinTriplet.from_dict(data), bernstein.eval_bernstein
    elif "q" in data or "d" in data:
        model, value = moments.CATriplet.from_dict(data), moments.evaluate
    else:
        model, value = moments.DiscreteMeasure.from_dict(data), moments.evaluate
    return EXIT_PASS, {"values": [[lam, value(model, lam)] for lam in args.at]}


def _cmd_extend(args):
    from . import moments
    seq = _load_sequence(args)
    f = moments.extend_from_integer_samples(seq, args.kind, args.grid, args.tol)
    return EXIT_PASS, {
        "values": [[lam, f(lam)] for lam in args.at],
        "fit": f.report,
        "model": f.model,
    }


def _cmd_newton(args):
    from .newton import eval_series, series_from_samples
    seq = _load_sequence(args)
    series = series_from_samples(seq)
    if args.action == "fit":
        return EXIT_PASS, {"series": series}
    out = eval_series(series, parse_scalar(args.at), args.terms)
    try:
        value_float = float(out.value)
    except OverflowError:  # an exact value past float range
        value_float = None
    return EXIT_PASS, {**vars(out), "value_float": value_float}


def _cmd_webster(args):
    from . import webster
    from .builtins import get_webster_g
    g = get_webster_g(args.g)
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
    return EXIT_PASS, out


def _cmd_operator(args):
    from . import funcops
    f = _get_handle(args.builtin)
    composed = funcops.apply_operator(f, args.op, args.c[0], args.iterate)
    return EXIT_PASS, {"values": [[x, composed(x)] for x in args.at]}


def _cmd_decompose(args):
    from . import funcops
    f = _get_handle(args.builtin)
    decompose = funcops.cm_limit_decompose if args.variant == "cm" else funcops.bf_limit_decompose
    return EXIT_PASS, {"decomposition": decompose(f, tuple(args.c), args.nmax)}


def _cmd_lattice(args):
    from . import funcops
    f = _get_handle(args.builtin)
    rep = funcops.lattice_check(f, args.kind, args.alpha, args.depth, args.tol)
    return _check_code(rep.overall_pass, () if rep.partial else rep.entries), {"lattice": rep}


def _cmd_subaffine(args):
    from . import funcops
    f = _get_handle(args.builtin)
    rep = funcops.subaffine_check(f, args.c[0], args.bound)
    return (EXIT_PASS if rep.ok else EXIT_FAIL), {"subaffine": rep}


def _cmd_bftheta(args):
    from . import bernstein
    f = _get_handle(args.builtin)
    rep = bernstein.check_bf_via_theta(f, tuple(args.c), args.depth)
    return _check_code(rep.overall_pass, rep.entries), {"theta_check": rep}


def _cmd_selfdec(args):
    from . import bernstein
    f = _get_handle(args.builtin)
    rep = bernstein.check_selfdecomposable(f, tuple(args.c), args.depth, args.tol)
    return _verdict_code(rep.verdict), {"selfdecomposable": rep}


def _cmd_egf(args):
    from . import bernstein, moments
    seq = _load_sequence(args)
    triplet, fit = moments.invert_ca(seq, args.grid, args.tol)
    residual = bernstein.egf_validate(seq, triplet)
    return EXIT_PASS, {"egf_residual": residual, "fit": fit, "model": triplet}


def build_parser() -> _Parser:
    p = _Parser(prog="cmtk", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, seq=False, kind=False, grid=False, c_default=None):
        sp.add_argument("--out", help="write the JSON report to this path")
        sp.add_argument("--no-meta", action="store_true",
                        help="omit timestamps for byte-identical reports")
        if seq:
            sp.add_argument("input", help="sequence file (CSV or JSON array)")
            sp.add_argument("--mode", choices=["exact", "float"], default=None)
        if kind:
            sp.add_argument("--kind", choices=[CM, CA], required=True)
        if grid:
            sp.add_argument("--grid", type=int, default=DEFAULT_GRID)
            sp.add_argument("--tol", type=_float, default=DEFAULT_TOL)
        if c_default is not None:
            sp.add_argument("--c", type=_floats, default=list(c_default))

    sp = sub.add_parser("certify", help="CM/CA sign certification")
    common(sp, seq=True, kind=True)
    sp.add_argument("--depth", type=int, default=None)
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("minimal", help="atom-at-zero / minimality check")
    common(sp, seq=True, kind=True)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--tol", type=_float, default=None)
    sp.set_defaults(fn=_cmd_minimal)

    sp = sub.add_parser("invert", help="moment inversion")
    sp.add_argument("variant", choices=["cm", "ca"])
    common(sp, seq=True, grid=True)
    sp.set_defaults(fn=_cmd_invert)

    sp = sub.add_parser("evaluate", help="evaluate a measure/triplet JSON file")
    sp.add_argument("input", help="model JSON file")
    sp.add_argument("--at", type=_floats, required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_evaluate)

    sp = sub.add_parser("extend", help="unique CM/BF interpolant of integer samples")
    common(sp, seq=True, kind=True, grid=True)
    sp.add_argument("--at", type=_floats, required=True)
    sp.set_defaults(fn=_cmd_extend)

    sp = sub.add_parser("newton", help="Gregory-Newton series")
    sp.add_argument("action", choices=["fit", "eval"])
    common(sp, seq=True)
    sp.add_argument("--at", type=_scalar, default="0.5", help="evaluation point (eval only)")
    sp.add_argument("--terms", type=int, default=None)
    sp.set_defaults(fn=_cmd_newton)

    sp = sub.add_parser("webster", help="solve f(x+1) = g(x) f(x), f(1) = 1")
    common(sp)
    sp.add_argument("--g", default="identity",
                    help="identity | constant:<c> | exp-neg-cm")
    sp.add_argument("--at", type=_floats, default=[0.5])
    sp.add_argument("--terms", type=int, default=DEFAULT_N)
    sp.add_argument("--no-accel", action="store_true")
    sp.add_argument("--g-limit-one", action="store_true")
    sp.add_argument("--check-grid", type=_floats, default=None,
                    help="verify the functional equation on these x")
    sp.set_defaults(fn=_cmd_webster)

    sp = sub.add_parser("operator", help="apply sigma/tau/delta/theta/rho")
    common(sp, c_default=(1.0,))
    sp.add_argument("--builtin", required=True)
    sp.add_argument("--op", choices=["sigma", "tau", "delta", "theta", "rho"],
                    required=True)
    sp.add_argument("--iterate", type=int, default=1)
    sp.add_argument("--at", type=_floats, required=True)
    sp.set_defaults(fn=_cmd_operator)

    sp = sub.add_parser("decompose", help="limit decompositions")
    sp.add_argument("variant", choices=["cm", "bf"])
    common(sp, c_default=DEFAULT_C_PAIR)
    sp.add_argument("--builtin", required=True)
    sp.add_argument("--nmax", type=int, default=64)
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("lattice", help="CM/CA certification on lattices")
    common(sp, kind=True)
    sp.add_argument("--builtin", required=True)
    sp.add_argument("--alpha", type=_floats, default=[1.0, 0.5])
    sp.add_argument("--depth", type=int, default=20)
    sp.add_argument("--tol", type=_float, default=None)
    sp.set_defaults(fn=_cmd_lattice)

    sp = sub.add_parser("subaffine", help="bounded-increment check")
    common(sp, c_default=(1.0,))
    sp.add_argument("--builtin", required=True)
    sp.add_argument("--bound", type=_float, required=True)
    sp.set_defaults(fn=_cmd_subaffine)

    sp = sub.add_parser("bftheta", help="Bernstein membership via theta")
    common(sp, c_default=DEFAULT_C_PAIR)
    sp.add_argument("--builtin", required=True)
    sp.add_argument("--depth", type=int, default=15)
    sp.set_defaults(fn=_cmd_bftheta)

    sp = sub.add_parser("selfdec", help="self-decomposability suite")
    common(sp, c_default=DEFAULT_SD_CS)
    sp.add_argument("--builtin", required=True)
    sp.add_argument("--depth", type=int, default=30)
    sp.add_argument("--tol", type=_float, default=None)
    sp.set_defaults(fn=_cmd_selfdec)

    sp = sub.add_parser("egf", help="EGF identity residual for a CA fit")
    common(sp, seq=True, grid=True)
    sp.set_defaults(fn=_cmd_egf)

    return p


def _resolved_params(args):
    skip = {"fn", "out", "no_meta", "command"}
    return {key: value for key, value in sorted(vars(args).items()) if key not in skip}


def _run(args):
    """(exit code, result) of the subcommand, with every CmtkError turned
    into an error result."""
    try:
        return args.fn(args)
    except CmtkError as exc:  # before ValueError: a DomainError is both
        code = EXIT_INCONCLUSIVE if isinstance(exc, BudgetExceededError) else EXIT_FAIL
        result = {"error": str(exc)}
        if getattr(exc, "certificate", None):
            result["certificate"] = exc.certificate
        return code, result


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    try:
        code, result = _run(args)
        report = {
            "command": args.command,
            "params": _resolved_params(args),
            "result": result,
            "exit_code": code,
        }
        if not args.no_meta:
            report["meta"] = {
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()
            }
        text = json.dumps(report, sort_keys=True, indent=2, default=_to_json)
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

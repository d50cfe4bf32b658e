"""cli: the README's CLI examples, one child process at a time.

Each op runs ``python -m cmtk.cli ...`` with ``src`` on PYTHONPATH (the
package is not installed) on input files written between ops, so every
op pays for interpreter start-up and ``import cmtk``.  The invert ->
evaluate chain reads the measure file the previous op wrote.  Set-up runs
cycle 0 in-process once; the timed children of cycle 0 must then print
byte-identical ``--no-meta`` reports.  A traced run executes the same ops
in-process through ``cli.main`` so that the library layers can be timed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import reference as ref
from harness import SPAWN, Op, rng_for
from reference import EPS, expect

NAME = "cli"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CMTK_MAX_EVALS", None)
    return env


def run_child(argv, root: Path, workdir: Path, env=None):
    """Run one CLI child; returns (exit code, stdout bytes, stderr text,
    the child's peak RSS in KiB)."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        proc = subprocess.Popen([sys.executable, "-m", "cmtk.cli", *argv], cwd=root,
                                env=env or child_env(root), stdout=fo, stderr=fe)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_bytes(),
            err_path.read_text(errors="replace"), usage.ru_maxrss)


def _csv(path: Path, values):
    path.write_text("".join(f"{v.numerator}/{v.denominator}\n" if isinstance(v, Fraction)
                            else f"{v!r}\n" for v in values))
    return str(path)


class Cli:
    GAUGE = SPAWN  # a CLI op is mostly interpreter start-up and imports

    def __init__(self, seed, workdir, recorder=None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.root = Path(__file__).resolve().parent.parent
        self.env = child_env(self.root)
        self.inprocess = recorder is not None
        self.child_rss_kb = 0
        self.reference_reports = {}   # argv -> report bytes from the in-process set-up run
        self._recording = False       # ops built while set shape the byte-identity reference
        from cmtk import cli

        self.cli = cli

    # -- execution ------------------------------------------------------------

    def _execute(self, argv, out_file, record):
        if self.inprocess or record:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(argv))
            stdout, stderr = out.getvalue().encode(), err.getvalue()
        else:
            code, stdout, stderr, rss = run_child(argv, self.root, self.workdir, self.env)
            self.child_rss_kb = max(self.child_rss_kb, rss)
        report = Path(out_file).read_bytes() if out_file and code in (0, 1, 2) else stdout
        if record:
            self.reference_reports[tuple(argv)] = report
        return code, report, stderr

    def _op(self, kind, argv, want_code, check_report, out_file=None):
        argv = [*argv, "--no-meta"]
        if out_file:
            argv += ["--out", out_file]
        record = self._recording

        def check(out):
            code, report, stderr = out
            expect("Traceback" not in stderr, f"traceback on stderr: {stderr[-200:]}")
            if want_code is not None:
                expect(code == want_code, f"exit {code}, want {want_code}; stderr {stderr[-200:]!r}")
            known = self.reference_reports.get(tuple(argv))
            if known is not None and not record:
                expect(report == known, "--no-meta report differs between identical runs")
            data = json.loads(report)
            expect(data["exit_code"] == code and data["command"] == argv[0], "report header")
            return check_report(data["result"])

        digest = hashlib.sha256()
        for arg in argv:
            digest.update(arg.replace(str(self.workdir), "").encode())
            if Path(arg).is_file():
                digest.update(Path(arg).read_bytes())
        return Op(f"cli/{kind}", digest.hexdigest(), lambda: self._execute(argv, out_file, record), check)

    # -- ops ----------------------------------------------------------------------

    def cycle(self, index):
        rng = rng_for(NAME, self.seed, index)
        d = self.workdir / f"c{index}"
        d.mkdir(parents=True, exist_ok=True)
        ops = []

        def atoms(count, q_lo, q_hi):
            out = {}
            while len(out) < count:
                q = rng.randint(q_lo, q_hi)
                out[Fraction(rng.randint(1, q - 1), q)] = Fraction(rng.randint(1, 40), 20)
            return sorted(out.items())

        # certify: a measure's moments pass; a bumped last term fails at (1, K-1)
        K = 24
        seq = _csv(d / "seq.csv", ref.atom_moments(atoms(2, 5, 20), K))
        ops.append(self._op("certify-pass", ["certify", "--kind", "cm", "--depth", "20", seq], 0,
                            lambda r: expect(r["certificate"]["verdict"] == "pass", "verdict")))
        m = ref.atom_moments(atoms(2, 5, 20), K)
        delta = Fraction(1, rng.randint(100, 10**4))
        pert = _csv(d / "pert.csv", m[:-1] + [m[-2] + delta])

        def check_fail(r):
            w = r["certificate"]["witness"]
            expect((w["n"], w["k"], w["value"]) == (1, K - 1, f"{-delta.numerator}/{delta.denominator}"),
                   "witness")

        ops.append(self._op("certify-fail", ["certify", "--kind", "cm", pert], 1, check_fail))

        # minimal at tol 0.02: minimal iff the closed-form trail end is <= tol
        a3 = atoms(2, 5, 20)
        end = ref.column_zero(a3, K)[K]
        mfile = _csv(d / "min.csv", ref.atom_moments(a3, K))
        ops.append(self._op("minimal", ["minimal", "--kind", "cm", "--tol", "0.02", mfile],
                            0 if end <= 0.02 else 1,
                            lambda r: expect(Fraction(r["minimality"]["atom"]["estimate"]) == end,
                                             "atom estimate")))

        # invert -> evaluate, and extend, on grid-200 atoms
        M, W = 200, 1000
        js = sorted(rng.sample(range(1, M), 2))
        cs = [rng.randint(1, 500) for _ in js]
        grid_atoms = [(j / M, c / W) for j, c in zip(js, cs)]
        exact = [Fraction(j, M) for j in js], [Fraction(c, W) for c in cs]
        inv = _csv(d / "inv.csv", ref.atom_moments(list(zip(*exact)), 30))
        report_file, measure = str(d / "invert.json"), d / "measure.json"

        def check_invert(r):
            expect(r["fit"]["grid_size"] == 200, "grid")
            # evaluate reads a bare model, not invert's --out report (a defect
            # probed in probes.py), so the chain passes the model on as a script would
            measure.write_text(json.dumps(r["model"]))

        ops.append(self._op("invert", ["invert", "cm", inv, "--grid", "200"], 0, check_invert,
                            out_file=report_file))
        lams = [round(rng.uniform(0.1, 9.0), 4) for _ in range(2)]

        def check_values(truth):
            def check(r):
                got = [v for _, v in r["values"]]
                expect(len(got) == len(truth), "value count")
                return max(ref.rel_err(g, t) for g, t in zip(got, truth))
            return check

        truth = [ref.laplace_atoms(grid_atoms, lam) for lam in lams]
        ops.append(self._op("evaluate", ["evaluate", str(measure), "--at", ",".join(map(str, lams))], 0,
                            check_values(truth)))
        js2 = sorted(rng.sample(range(1, M), 2))
        ext_atoms = [(Fraction(j, M), Fraction(rng.randint(1, 500), W)) for j in js2]
        ext = _csv(d / "ext.csv", ref.atom_moments(ext_atoms, 30))
        lam = round(rng.uniform(0.1, 9.0), 4)
        truth_ext = [ref.laplace_atoms([(float(u), float(w)) for u, w in ext_atoms], lam)]
        ops.append(self._op("extend", ["extend", "--kind", "cm", "--at", str(lam), ext], 0,
                            check_values(truth_ext)))

        # newton eval of 1/(k + a) at a rational z
        a = Fraction(rng.randint(2, 12), rng.randint(2, 4))
        newt = _csv(d / "newton.csv", [1 / (k + a) for k in range(61)])
        z = Fraction(rng.choice([n for n in range(1, 400) if n % 100]), 100)
        ops.append(self._op("newton", ["newton", "eval", newt, "--at", f"{z.numerator}/{z.denominator}",
                                       "--terms", "60"], 0,
                            lambda r: ref.rel_err(r["value_float"], 1.0 / (float(z) + float(a)))))

        # webster at x and x + 1 (a dyadic x shares its base point)
        x = rng.randint(1, 255) / 256.0

        def check_webster(r):
            f = [s["value"] for s in r["solutions"]]
            expect(abs(f[1] - x * f[0]) <= 4 * EPS * abs(f[1]), "f(x+1) != x f(x)")
            return max(ref.rel_err(v, math.gamma(t)) for v, t in zip(f, (x, x + 1.0)))

        ops.append(self._op("webster", ["webster", "--g", "identity", "--at", f"{x!r},{x + 1.0!r}",
                                        "--terms", "100000"], 0, check_webster))

        # theta_c of x^2 is -2cx
        c, xo = round(rng.uniform(0.2, 2.0), 4), round(rng.uniform(0.5, 5.0), 4)

        def check_operator(r):
            (_, v), = r["values"]
            return ref.rel_err(v, -2.0 * c * xo)

        ops.append(self._op("operator", ["operator", "--builtin", "square", "--op", "theta",
                                         "--c", str(c), "--at", str(xo)], 0, check_operator))

        n_max = rng.randint(32, 96)

        def check_decompose(r):
            dec = r["decomposition"]
            expect(dec["q"] == 0.0 and dec["telescoping_residual"] <= 1e-12, "decomposition")

        ops.append(self._op("decompose", ["decompose", "bf", "--builtin", "one-minus-exp",
                                          "--nmax", str(n_max)], 0, check_decompose))

        alphas = [round(rng.uniform(0.3, 1.2), 4) for _ in range(2)]

        def check_lattice(r):
            entries = r["lattice"]["entries"]
            expect(all(e["certificate"]["verdict"] != "fail" for e in entries), "exp-decay failed CM")
            expect(r["lattice"]["overall_pass"] == all(e["certificate"]["verdict"] == "pass"
                                                       for e in entries), "overall pass")

        lattice_argv = ["lattice", "--kind", "cm", "--builtin", "exp-decay", "--alpha",
                        ",".join(map(str, alphas)), "--depth", "15", "--tol", "2e-3"]
        # exit 0 on overall pass, 1 otherwise; the header check ties it to the report
        ops.append(self._op("lattice", lattice_argv, None, check_lattice))

        cs_sub = round(rng.uniform(0.2, 1.0), 4)

        def check_subaffine(r):
            expect(r["subaffine"]["supremum"] == math.sqrt(cs_sub), "sup is not sqrt(c) at x = 0")

        ops.append(self._op("subaffine", ["subaffine", "--builtin", "sqrt", "--c", str(cs_sub),
                                          "--bound", "1"], 0, check_subaffine))

        def check_theta(r):
            expect(r["theta_check"]["overall_pass"], "bf-ratio failed the theta test")

        ops.append(self._op("bftheta", ["bftheta", "--builtin", "bf-ratio", "--depth",
                                        str(rng.randint(10, 18))], 0, check_theta))

        def check_sd(r):
            expect(r["selfdecomposable"]["verdict"] == "pass", "log1p is self-decomposable")

        ops.append(self._op("selfdec", ["selfdec", "--builtin", "log1p", "--tol", "0.05",
                                        "--depth", str(rng.randint(24, 34))], 0, check_sd))

        ca_js = sorted(rng.sample(range(1, M // 2), 2))
        ca_atoms = [(Fraction(j, M), Fraction(rng.randint(1, 500), W)) for j in ca_js]
        egf = _csv(d / "egf.csv", ref.ca_values(Fraction(rng.randint(0, 500), W),
                                                Fraction(rng.randint(0, 500), W), ca_atoms, 30))

        def check_egf(r):
            expect(r["fit"]["residual"] <= 1e-8, "CA fit residual")

        ops.append(self._op("egf", ["egf", egf], 0, check_egf))
        return ops

    def warmup(self):
        """Cycle 0, run in-process; its reports become the byte-identity
        reference for the timed children of cycle 0."""
        self._recording = True
        try:
            return self.cycle(0)
        finally:
            self._recording = False

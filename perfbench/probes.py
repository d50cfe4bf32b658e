"""Known-defect probes, run once per traced run.

The timed workloads hold only operations that succeed at the current
code, so each defect the benchmark has met is probed here instead, by
name, and counted in ``check.known_defects``.  A fix shows as a probe
that turns to ok; nothing is hidden by the workloads steering around it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import reference as ref
from cli_workload import run_child

#: malformed CLI inputs: each must exit 3 with one stderr line and no traceback
MALFORMED = {
    "cli-inf-in-csv": ("bad-inf.csv", "1\ninf\n1/2\n", ["certify", "--kind", "cm"]),
    "cli-webster-terms-0": (None, None, ["webster", "--terms", "0"]),
    "cli-missing-file": (None, None, ["certify", "--kind", "cm", "no-such-file.csv"]),
    "cli-zero-denominator": ("bad-zero.csv", "1\n1/0\n", ["certify", "--kind", "cm"]),
    "cli-lattice-alpha-0": (None, None, ["lattice", "--kind", "cm", "--builtin",
                                         "exp-decay", "--alpha", "0"]),
}


def _underflow():
    """Correctly rounded moments of a CM measure whose tail is subnormal
    must never be certified 'fail' (the half-ulp bound is relative)."""
    from cmtk import classify, seqcore

    values = ref.float_moments([36, 466, 605], [470, 174, 243], 1467, 1000, 1000)
    cert = classify.certify(seqcore.Sequence.from_values(values), "cm", 40)
    return cert.verdict != "fail", f"verdict {cert.verdict}"


def _newton_overflow():
    """The float partial sum of a 180-term series must stay finite."""
    from cmtk import newton, seqcore

    atoms = [(Fraction(3, 7), Fraction(2, 3)), (Fraction(5, 9), Fraction(1, 3))]
    series = newton.series_from_samples(seqcore.Sequence.from_values(ref.atom_moments(atoms, 180)))
    value = newton.eval_series(series, 2.7).value
    return math.isfinite(value), f"value {value}"


def _invert_evaluate_chain(root: Path, workdir: Path):
    """``cmtk evaluate`` must read the file ``cmtk invert --out`` wrote, as
    the README chains them."""
    seq = workdir / "chain.csv"
    seq.write_text("".join(f"1/{2**k}\n" for k in range(21)))
    report = workdir / "chain.json"
    code, _, _, _ = run_child(["invert", "cm", str(seq), "--out", str(report)], root, workdir)
    if code != 0:
        return False, f"invert exit {code}"
    code, _, stderr, _ = run_child(["evaluate", str(report), "--at", "0.5"], root, workdir)
    return code == 0, f"evaluate exit {code}{', traceback' if 'Traceback' in stderr else ''}"


def run_probes(root: Path, workdir: Path):
    """Returns {probe name: (ok, detail)}."""
    out = {"float-subnormal-bound": _underflow(), "newton-float-overflow": _newton_overflow()}
    workdir.mkdir(parents=True, exist_ok=True)
    out["cli-invert-evaluate-chain"] = _invert_evaluate_chain(root, workdir)
    for name, (fname, text, argv) in MALFORMED.items():
        argv = list(argv)
        if fname:
            (workdir / fname).write_text(text)
            argv.append(str(workdir / fname))
        code, _, stderr, _ = run_child(argv, root, workdir)
        lines = stderr.strip().splitlines()
        ok = code == 3 and len(lines) == 1 and "Traceback" not in stderr
        out[name] = (ok, f"exit {code}, {len(lines)} stderr line(s)")
    return out

"""Finite-depth certification of completely monotone / completely alternating
sequences, atom-at-zero estimation, minimality and the degeneracy dichotomy.

A sequence is certified CM when (-1)^n Delta^n a(k) >= 0 for every table
entry with n <= depth, and CA when the same quantity is <= 0 for 1 <= n <=
depth.  Verdicts are three-valued: in float mode an entry whose error bound
straddles zero is undecidable, and a table with undecidable entries but no
strict violation yields "inconclusive" rather than "pass" or "fail".
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificationError
from .scalars import EXACT, FLOAT
from .seqcore import DifferenceTable, Sequence, difference_table

CM = "cm"
CA = "ca"

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

#: In float mode deep difference rows are dominated by rounding noise; depth
#: defaults are capped here (exact mode has no cap).
FLOAT_DEPTH_CAP = 40

_OK, _VIOLATION, _UNDECIDABLE = 0, 1, 2


def _entry_status(kind, n, value, bound):
    """Classify one table entry against the sign condition of its kind.

    A zero bound (exact mode, or float entries with no accumulated error)
    decides by the sign alone; float arithmetic never touches exact values.
    """
    if bound == 0.0:
        if kind == CM:
            return _OK if value >= 0 else _VIOLATION
        return _OK if value <= 0 else _VIOLATION
    if kind == CM:
        if value - bound >= 0:
            return _OK
        if value + bound < 0:
            return _VIOLATION
        return _UNDECIDABLE
    # CA: rows n >= 1 must be <= 0
    if value + bound <= 0:
        return _OK
    if value - bound > 0:
        return _VIOLATION
    return _UNDECIDABLE


def default_depth(a: Sequence, depth=None) -> int:
    if depth is not None:
        return depth
    if a.mode == FLOAT:
        return min(a.last_index, FLOAT_DEPTH_CAP)
    return a.last_index


@dataclass(frozen=True)
class Certificate:
    """Outcome of a finite-depth CM/CA sign check.

    ``witness`` is the first entry (n, k, value) that strictly violates the
    sign condition beyond its error bound; ``min_margin`` is the smallest
    |entry| over all checked entries, the closest approach to a violation.
    """

    kind: str
    depth: int
    verdict: str
    witness: tuple | None
    min_margin: object
    mode: str = EXACT
    undecidable: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def to_dict(self):
        w = self.witness
        return {
            "kind": self.kind,
            "depth": self.depth,
            "verdict": self.verdict,
            "witness": None if w is None else {"n": w[0], "k": w[1], "value": w[2]},
            "min_margin": self.min_margin,
            "mode": self.mode,
            "undecidable_entries": self.undecidable,
        }


def certify(a: Sequence, kind: str, depth=None, table: DifferenceTable = None) -> Certificate:
    """Certify the sign condition (-1)^n Delta^n a(k) >= 0 (CM) / <= 0 (CA, n >= 1)
    over every entry with n <= depth, n + k <= K.

    Scan order is row-major (n ascending, then k), so the witness is the
    first violation in that order.  CM additionally checks the n = 0 row,
    i.e. nonnegativity of the terms themselves.
    """
    if kind not in (CM, CA):
        raise ValueError(f"kind must be {CM!r} or {CA!r}")
    depth = default_depth(a, depth)
    if table is None or table.depth < depth:
        table = difference_table(a, depth)

    witness = None
    undecidable = 0
    min_margin = None
    n_start = 0 if kind == CM else 1
    for n in range(n_start, depth + 1):
        row = table.rows[n]
        for k in range(len(row)):
            v = row[k]
            m = -v if v < 0 else v
            if min_margin is None or m < min_margin:
                min_margin = m
            status = _entry_status(kind, n, v, table.error_bound(n, k))
            if status == _VIOLATION and witness is None:
                witness = (n, k, v)
            elif status == _UNDECIDABLE:
                undecidable += 1
        if witness is not None:
            break

    if witness is not None:
        verdict = FAIL
    elif undecidable:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return Certificate(kind, depth, verdict, witness, min_margin, a.mode, undecidable)


def _certified_table(a: Sequence, kind: str, depth: int) -> DifferenceTable:
    """Build the table of ``a`` once and certify it; raise on a failed
    certification, else return the table for further reading."""
    table = difference_table(a, depth)
    cert = certify(a, kind, depth, table=table)
    if cert.failed:
        raise CertificationError(f"sequence failed {kind} certification", cert)
    return table


@dataclass(frozen=True)
class AtomEstimate:
    """Trail of k = 0 column entries converging down to the mass at zero.

    CM trail: (-1)^n Delta^n a(0), n = 0..depth.
    CA trail: -(-1)^n Delta^n a(0), n = 2..depth (the drift contaminates n = 1).
    """

    trail: tuple
    estimate: object
    monotone_ok: bool
    error_bound: float = 0.0


def atom_at_zero(a: Sequence, kind: str, depth=None) -> AtomEstimate:
    """Estimate the representing measure's point mass at zero.

    The estimate is the last trail value; for a genuinely CM/CA input the
    trail is nonincreasing and converges to nu({0}) (CM) or mu({0}) (CA).
    """
    depth = default_depth(a, depth)
    table = _certified_table(a, kind, depth)
    if kind == CM:
        ns = range(0, depth + 1)
        trail = [table.rows[n][0] for n in ns]
    else:
        if depth < 2:
            raise ValueError("depth too small: CA atom trail needs depth >= 2")
        ns = range(2, depth + 1)
        trail = [-table.rows[n][0] for n in ns]
    if table.bounds is None:
        monotone_ok = all(
            trail[i + 1] <= trail[i] for i in range(len(trail) - 1)
        )
        last_bound = 0.0
    else:
        bounds = [table.error_bound(n, 0) for n in ns]
        monotone_ok = all(
            trail[i + 1] <= trail[i] + bounds[i] + bounds[i + 1]
            for i in range(len(trail) - 1)
        )
        last_bound = bounds[-1]
    return AtomEstimate(tuple(trail), trail[-1], monotone_ok, last_bound)


@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    atom: AtomEstimate
    tol: float


def is_minimal(a: Sequence, kind: str, depth=None, tol=None) -> MinimalityReport:
    """Decide minimality to depth: atom estimate <= tol with a monotone trail.

    Default tol is 1e-6 in exact mode and max(1e-6, 10x the accumulated
    error bound of the trail end) in float mode.
    """
    atom = atom_at_zero(a, kind, depth)
    if tol is None:
        tol = 1e-6 if a.mode == EXACT else max(1e-6, 10.0 * atom.error_bound)
    minimal = bool(atom.estimate <= tol and atom.monotone_ok)
    return MinimalityReport(minimal, atom, float(tol))


STRICT = "strict"
CONSTANT_TAIL = "constant-tail"
AFFINE_TAIL = "affine-tail"


def degenerate_classify(a: Sequence, kind: str, depth=None) -> str:
    """Detect the dichotomy: strict alternation in differences versus the
    degenerate tails (constant from index 1 for CM, affine for CA).

    Any zero entry D[n][k] with n >= 1 (within its error bound) forces the
    degenerate verdict of the kind.
    """
    depth = default_depth(a, depth)
    table = _certified_table(a, kind, depth)
    degenerate = CONSTANT_TAIL if kind == CM else AFFINE_TAIL

    for n in range(1, depth + 1):
        row = table.rows[n]
        for k in range(len(row)):
            if table.bounds is None:
                if row[k] == 0:
                    return degenerate
            elif abs(row[k]) <= table.error_bound(n, k):
                return degenerate

    vals = a.values
    if kind == CM:
        if len(vals) >= 3 and all(v == vals[1] for v in vals[2:]):
            return degenerate
    else:
        if len(vals) >= 4:
            d = vals[2] - vals[1]
            if all(vals[k] == vals[1] + (k - 1) * d for k in range(3, len(vals))):
                return degenerate
    return STRICT

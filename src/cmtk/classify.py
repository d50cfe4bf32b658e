"""Finite-depth certification of completely monotone / completely alternating
sequences, atom-at-zero estimation, minimality and the degeneracy dichotomy.

A sequence is certified CM when (-1)^n Delta^n a(k) >= 0 for every table
entry with n <= depth, and CA when the same quantity is <= 0 for 1 <= n <=
depth.  The kernel (``seqcore``) gives each entry as the exact int s of the
stored values at one scale, with p, the most that inputs within their bounds
can move it (0 for exact data).  One rule decides every entry in both modes:
s >= p certifies it (its sign holds for every input in the box), -s > p
makes it violating (for every one), and otherwise it is undecidable; a table
with undecidable entries but no violation is "inconclusive".

Soundness against the float recurrence, which rounded each subtraction and
carried a bound p + r (r one term EPS |s'| per subtraction, covering
|s' - s| for its float entry s'): s' >= p + r gives s >= p, and -s' > p + r
gives -s > p.  So every entry it decided (but for the rounding of its own
bound, below 2**-970 in the default EPS |v| too) is decided the same way:
a pass stays a pass, a fail a fail whose witness may move earlier, and an
undecidable count only falls.  Entries past float range are decided too.

One scan streams the kernel's rows, stops at the first witness's row and keeps
column 0 for minimality and the atom trail.  Three readers keep a table on
purpose, and perfbench's count test needs one in every workload: with seed 7,
warm-up plus the first cycle, exact-certify builds 1 (``degenerate_classify``),
float-fit 2 (``bernstein.extract_triplet``), and series 12 and cli 2 (both
``newton.series_from_samples``).
"""

from __future__ import annotations

from itertools import islice
from operator import ge, gt, le, neg

from .errors import CertificationError
from .scalars import CA, CM, EXACT, FAIL, FLOAT, INCONCLUSIVE, PASS, Record, verdict_of
from .seqcore import Sequence, _enclosure, _scaled_rows, _unscale, difference_table

#: In float mode deep difference rows are dominated by their input bounds;
#: depth defaults are capped here (exact mode has no cap).
FLOAT_DEPTH_CAP = 40

def default_depth(a: Sequence, depth=None) -> int:
    if depth is not None:
        return depth
    if a.mode == FLOAT:
        return min(a.last_index, FLOAT_DEPTH_CAP)
    return a.last_index


class Certificate(Record):
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
        return {"kind": self.kind, "depth": self.depth, "verdict": self.verdict,
                "witness": None if w is None else {"n": w[0], "k": w[1], "value": w[2]},
                "min_margin": self.min_margin, "mode": self.mode,
                "undecidable_entries": self.undecidable}


def certify(a: Sequence, kind: str, depth=None) -> Certificate:
    """Certify the sign condition (-1)^n Delta^n a(k) >= 0 (CM) / <= 0 (CA, n >= 1)
    over every entry with n <= depth, n + k <= K.

    Scan order is row-major (n ascending, then k), so the witness is the
    first violation in that order.  CM additionally checks the n = 0 row,
    i.e. nonnegativity of the terms themselves.  Rows stream from the table
    kernel, and none past the row of the witness is built.
    """
    return _certify(a, kind, default_depth(a, depth))


def _certify(a: Sequence, kind: str, depth: int, rows=None, fail=None, column=None) -> Certificate:
    """The one sign scan.  Rows 0..depth come from a kept table's ``_scaled_rows()``
    if given, else from the kernel, at most two alive at once.  With a ``fail``
    message, failing raises CertificationError.  A ``column`` list gets the
    (scaled entry, bound, entry) at column 0 of each row scanned.  Every
    entry s with input bound p is decided by s >= p and -s > p."""
    if kind not in (CM, CA):
        raise ValueError(f"kind must be {CM!r} or {CA!r}")
    scale, pairs = rows or _scaled_rows(a, depth)
    unscale = _unscale(a.mode, scale)

    cm, witness, undecidable, margin = kind == CM, None, 0, None
    for n, (row, bounds) in islice(enumerate(pairs), 0 if cm else 1, depth + 1):
        if column is not None:
            column.append((row[0], 0 if bounds is None else bounds[0], unscale(row[0])))
        m = min(row) if cm else -max(row)  # the least |entry| of a row that holds its sign
        if not (holds := m >= 0):
            m = min(map(abs, row))
        margin = m if margin is None else min(margin, m)
        if holds and bounds is None:  # an exact row that holds its sign is decided by it
            continue
        bounds = bounds or [0] * len(row)
        signed, negated = (row, map(neg, row)) if cm else (map(neg, row), row)
        certified = sum(map(ge, signed, bounds))
        if holds:  # no entry violates a row's sign that it holds: the rest are undecidable
            undecidable += len(row) - certified
        elif certified < len(row):
            violating = list(map(gt, negated, bounds))
            undecidable += len(row) - certified - sum(violating)
            if True in violating:
                k = violating.index(True)
                witness = (n, k, unscale(row[k]))
                break

    verdict = FAIL if witness else INCONCLUSIVE if undecidable else PASS
    min_margin = None if margin is None else unscale(margin)
    cert = Certificate(kind, depth, verdict, witness, min_margin, a.mode, undecidable)
    if fail and cert.failed:
        raise CertificationError(fail, cert)
    return cert


def _check_trail(kind: str, depth: int, tol=None, minimality=True):
    """Refuse, in this order, a bad kind, a negative or NaN tol and a CM depth
    below 1 (these two for minimality only), and a CA depth below 2."""
    if kind not in (CM, CA):
        raise ValueError(f"kind must be {CM!r} or {CA!r}")
    if minimality and tol is not None and not tol >= 0:
        raise ValueError("tol must be nonnegative")
    # a_0 alone is the total mass, an upper bound on the atom at zero of any
    # sequence; like the CA trail from row 2, the decision needs row 1
    if minimality and kind == CM and depth < 1:
        raise ValueError("depth too small: CM minimality needs depth >= 1")
    if kind == CA and depth < 2:
        raise ValueError("depth too small: CA atom trail needs depth >= 2")


class AtomEstimate(Record):
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
    return _passed(*_certify_minimal(a, kind, default_depth(a, depth), None, False)).atom


class MinimalityReport(Record):
    minimal: bool
    atom: AtomEstimate
    tol: float

    @property
    def verdict(self) -> str:
        return verdict_of(self.minimal, not self.minimal)


def is_minimal(a: Sequence, kind: str, depth=None, tol=None) -> MinimalityReport:
    """Decide minimality to depth: atom estimate <= tol with a monotone trail.
    CM needs depth >= 1 and CA depth >= 2, checked before the scan with tol.

    Default tol is 1e-6 in exact mode and max(1e-6, 10x the accumulated
    error bound of the trail end) in float mode.
    """
    return _passed(*_certify_minimal(a, kind, default_depth(a, depth), tol))


def _passed(cert: Certificate, report):
    """``report``, or the CertificationError of a failed certificate."""
    if cert.failed:
        raise CertificationError(f"sequence failed {cert.kind} certification", cert)
    return report


def _certify_minimal(a: Sequence, kind: str, depth: int, tol, minimality=True):
    """The one trail scan: ``_check_trail`` (after the kernel's depth check),
    then ``_certify`` keeping column 0, and unless the certificate failed the
    atom trail off that column with its minimality decision; returns
    (certificate, MinimalityReport or None)."""
    column, rows = [], _scaled_rows(a, depth)  # checks the depth before the kind
    _check_trail(kind, depth, tol, minimality)
    cert = _certify(a, kind, depth, rows, column=column)
    if cert.failed:
        return cert, None
    error_bound = 0.0 if a.mode == EXACT else _enclosure(*column[-1][:2], rows[0])
    col = column if kind == CM else [(-v, e, -x) for v, e, x in column[1:]]
    monotone_ok = all(w <= v + e + f for (v, e, _), (w, f, _) in zip(col, col[1:]))
    trail = tuple(x for _, _, x in col)
    atom = AtomEstimate(trail, trail[-1], monotone_ok, error_bound)
    if tol is None:  # an exact trail's error bound is 0.0, so its tol is 1e-6
        tol = max(1e-6, 10.0 * error_bound)
    return cert, MinimalityReport(bool(atom.estimate <= tol and monotone_ok), atom, float(tol))


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
    table = difference_table(a, depth)
    _certify(a, kind, depth, table._scaled_rows(), f"sequence failed {kind} certification")
    degenerate = CONSTANT_TAIL if kind == CM else AFFINE_TAIL

    for row, bounds in islice(table._scaled_rows()[1], 1, None):
        if 0 in row if bounds is None else any(map(le, map(abs, row), bounds)):
            return degenerate

    vals = a.values
    if kind == CM and len(vals) >= 3 and all(v == vals[1] for v in vals[2:]):
        return degenerate
    if kind == CA and len(vals) >= 4:
        d = vals[2] - vals[1]
        if all(vals[k] == vals[1] + (k - 1) * d for k in range(3, len(vals))):
            return degenerate
    return STRICT

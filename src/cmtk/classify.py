"""Finite-depth certification of completely monotone / completely alternating
sequences, atom-at-zero estimation, minimality and the degeneracy dichotomy.

A sequence is certified CM when (-1)^n Delta^n a(k) >= 0 for every table
entry with n <= depth, and CA when the same quantity is <= 0 for 1 <= n <=
depth.  Verdicts are three-valued: in float mode an entry whose error bound
straddles zero is undecidable, and a table with undecidable entries but no
strict violation yields "inconclusive" rather than "pass" or "fail".

One scan streams the kernel's rows, stops at the first witness's row and keeps
column 0 for minimality and the atom trail.  Degeneracy and extract_triplet keep a
table on purpose: perfbench's count test needs one in its exact and float warm-ups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat

from .errors import CertificationError
from .scalars import CA, CM, EXACT, FLOAT
from .seqcore import Sequence, _scaled_rows, difference_table

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

#: In float mode deep difference rows are dominated by rounding noise; depth
#: defaults are capped here (exact mode has no cap).
FLOAT_DEPTH_CAP = 40

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
    (scaled entry, bound, entry) at column 0 of each row scanned."""
    if kind not in (CM, CA):
        raise ValueError(f"kind must be {CM!r} or {CA!r}")
    scale, pairs = rows or _scaled_rows(a, depth)
    unscale = (lambda x: Fraction(x, scale)) if a.mode == EXACT else (lambda x: x)

    witness, undecidable, margin = None, 0, None
    for n, (row, bounds) in islice(enumerate(pairs), 0 if kind == CM else 1, depth + 1):
        if column is not None:
            column.append((row[0], 0 if bounds is None else bounds[0], unscale(row[0])))
        if bounds is None:
            # an exact row that holds its sign is decided by one min or max,
            # which is also its least |entry|
            m = min(row) if kind == CM else -max(row)
            if m >= 0:
                margin = m if margin is None else min(margin, m)
                continue
            bounds = repeat(0)  # int zeros keep the scaled ints out of float arithmetic
        for k, (v, e) in enumerate(zip(row, bounds)):
            m = -v if v < 0 else v
            if margin is None or m < margin:
                margin = m
            s = -v if kind == CA else v  # rows n >= 1 must be <= 0; rounding is symmetric in sign
            if s - e >= 0:
                continue
            if s + e < 0:
                if witness is None:
                    witness = (n, k, unscale(v))
            else:
                undecidable += 1
        if witness is not None:
            break

    verdict = FAIL if witness else INCONCLUSIVE if undecidable else PASS
    min_margin = None if margin is None else unscale(margin)
    cert = Certificate(kind, depth, verdict, witness, min_margin, a.mode, undecidable)
    if fail and cert.failed:
        raise CertificationError(fail, cert)
    return cert


def _certified_column(a: Sequence, kind: str, depth: int, raise_failed=True):
    """(certificate, column) of ``_certify``; failing raises unless ``raise_failed`` is false."""
    column, rows = [], _scaled_rows(a, depth)  # checks the depth before the kind
    fail = f"sequence failed {kind} certification" if raise_failed else None
    return _certify(a, kind, depth, rows, fail, column), column


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
    return _atom(_certified_column(a, kind, depth)[1], kind, depth)


def _atom(column: list, kind: str, depth: int) -> AtomEstimate:
    """The trail off the column of a certificate that did not fail."""
    if kind == CA and depth < 2:
        raise ValueError("depth too small: CA atom trail needs depth >= 2")
    col = column if kind == CM else [(-v, e, -x) for v, e, x in column[1:]]
    # scaled entries, and int zero bounds in exact mode: no float arithmetic
    monotone_ok = all(w <= v + e + f for (v, e, _), (w, f, _) in zip(col, col[1:]))
    trail = tuple(x for _, _, x in col)
    return AtomEstimate(trail, trail[-1], monotone_ok, float(col[-1][1]))


@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    atom: AtomEstimate
    tol: float


def is_minimal(a: Sequence, kind: str, depth=None, tol=None) -> MinimalityReport:
    """Decide minimality to depth: atom estimate <= tol with a monotone trail.
    CM needs depth >= 1 and CA depth >= 2.

    Default tol is 1e-6 in exact mode and max(1e-6, 10x the accumulated
    error bound of the trail end) in float mode.
    """
    depth = default_depth(a, depth)
    return _minimality(_certified_column(a, kind, depth)[1], kind, depth, tol)


def _minimality(column: list, kind: str, depth: int, tol) -> MinimalityReport:
    if tol is not None and tol < 0:
        raise ValueError("tol must be nonnegative")
    # a_0 alone is the total mass, an upper bound on the atom at zero of any
    # sequence; like the CA trail from row 2, the decision needs row 1
    if kind == CM and depth < 1:
        raise ValueError("depth too small: CM minimality needs depth >= 1")
    atom = _atom(column, kind, depth)
    if tol is None:  # an exact trail's error bound is 0.0, so its tol is 1e-6
        tol = max(1e-6, 10.0 * atom.error_bound)
    minimal = bool(atom.estimate <= tol and atom.monotone_ok)
    return MinimalityReport(minimal, atom, float(tol))


def _certify_minimal(a: Sequence, kind: str, depth: int, tol):
    """certify, then is_minimal unless the certificate failed, from one scan;
    returns (certificate, MinimalityReport or None)."""
    cert, column = _certified_column(a, kind, depth, raise_failed=False)
    return cert, None if cert.failed else _minimality(column, kind, depth, tol)


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
        if 0 in row if bounds is None else any(map(lambda v, e: abs(v) <= e, row, bounds)):
            return degenerate

    vals = a.values
    if kind == CM and len(vals) >= 3 and all(v == vals[1] for v in vals[2:]):
        return degenerate
    if kind == CA and len(vals) >= 4:
        d = vals[2] - vals[1]
        if all(vals[k] == vals[1] + (k - 1) * d for k in range(3, len(vals))):
            return degenerate
    return STRICT

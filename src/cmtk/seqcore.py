"""Difference calculus on finite sequences, plus the binomial/Euler transforms.

The central object is the sign-folded difference table

    D[n][k] = (-1)^n Delta^n a(k),   n + k <= K,

built by the recurrence D[n][k] = D[n-1][k] - D[n-1][k+1].  Entries are
exact when the sequence is exact (the recurrence runs on Python ints: the
sequence times the lcm of its denominators); in float mode every entry
carries a running error bound (inputs within max(EPS |v|, 2**-1074) each,
twice the half ulp of correct rounding, plus one rounding per subtraction)
so that sign decisions downstream can distinguish "certified" from
"undecidable".

One kernel yields the table a row at a time and checks the depth.
``difference_table`` keeps every row, for the readers that come back to
them; the ``classify`` scan and the transforms (which read column 0 alone)
drop each row once the next one exists (O(K) memory, not O(K^2)).
"""

from __future__ import annotations

import json
import math
import operator
from functools import cached_property
from fractions import Fraction
from itertools import compress, repeat

from .scalars import EPS, EXACT, FLOAT, TINY, Record, as_count, coerce_values, parse_scalar


class Sequence(Record):
    """Finite prefix (a_0..a_K) of a real sequence.

    Float values must be finite.  ``value_bounds``, float mode only,
    carries per-entry absolute input error bounds for values that are
    noisier than correctly rounded (e.g. samples assembled from several
    function evaluations); None means max(EPS |v|, 2**-1074) each.
    """

    values: tuple
    mode: str = EXACT
    value_bounds: tuple | None = None

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("sequence must be nonempty")
        if self.mode == FLOAT and not all(map(math.isfinite, self.values)):
            k = next(k for k, v in enumerate(self.values) if not math.isfinite(v))
            raise ValueError(f"entry {k} is not finite: {self.values[k]!r}")
        if self.value_bounds is not None:
            if self.mode == EXACT:
                raise ValueError("exact sequences carry no error bounds")
            if len(self.value_bounds) != len(self.values):
                raise ValueError("value_bounds length mismatch")
            if any(not b >= 0 for b in self.value_bounds):  # NaN too
                raise ValueError("value_bounds must be nonnegative")

    @classmethod
    def from_values(cls, values, mode=None, value_bounds=None):
        vals, m = coerce_values(values, mode)
        if m == EXACT:
            value_bounds = None
        elif value_bounds is not None:
            value_bounds = tuple(float(b) for b in value_bounds)
        return cls(vals, m, value_bounds)

    @property
    def last_index(self) -> int:
        return len(self.values) - 1

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k):
        return self.values[k]

    def shift(self, j: int = 1) -> "Sequence":
        """Drop the first j terms: (a_{k+j})_k."""
        bounds = self.value_bounds[j:] if self.value_bounds else None
        return Sequence(self.values[j:], self.mode, bounds)

    def as_floats(self):
        """The values as floats; a ValueError names an entry past float range."""
        return list(coerce_values(self.values, FLOAT)[0])


def read_sequence(path, mode=None) -> Sequence:
    """Read a sequence from CSV (one value per line) or a JSON array.

    CSV cells accept "p/q" rationals and decimal literals.  A file whose
    first non-space byte is '[' is treated as JSON.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    values = []
    if stripped.startswith("["):
        for i, item in enumerate(json.loads(stripped)):
            if isinstance(item, str):
                values.append(parse_scalar(item))
            elif isinstance(item, bool):
                raise ValueError(f"entry {i}: boolean is not a scalar")
            elif isinstance(item, int):
                values.append(Fraction(item))
            elif isinstance(item, float) and math.isfinite(item):
                values.append(item)
            else:
                raise ValueError(f"entry {i}: cannot parse {item!r}")
    else:
        import csv
        for lineno, row in enumerate(csv.reader(text.splitlines()), start=1):
            cells = [c for c in row if c.strip()]
            if not cells:
                continue
            if len(cells) != 1:
                raise ValueError(f"line {lineno}: expected one value per line")
            try:
                values.append(parse_scalar(cells[0]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    if not values:
        raise ValueError("no values found in input")
    return Sequence.from_values(values, mode)


class DifferenceTable(Record):
    """Triangular array rows[n][k] = (-1)^n Delta^n a(k), n <= depth, n+k <= K.

    ``scaled`` holds the entries times ``scale``: in exact mode Python ints
    and L, the lcm of the input denominators (L > 0 keeps signs and order,
    so verdicts are read off the ints, and ``rows`` gives x / L); in float
    mode the float entries and 1, with per-entry absolute error bounds in
    ``bounds`` (None in exact mode).
    """

    scaled: tuple
    bounds: tuple | None
    mode: str
    depth: int
    last_index: int
    scale: int = 1

    @cached_property
    def rows(self):
        """The entries themselves: Fractions in exact mode, built on first use."""
        if self.mode != EXACT:
            return self.scaled
        return tuple(tuple(Fraction(x, self.scale) for x in row) for row in self.scaled)

    def error_bound(self, n: int, k: int) -> float:
        return 0.0 if self.bounds is None else self.bounds[n][k]

    def _scaled_rows(self):
        """The kernel's (scale, (row, bounds) pairs), read from the kept rows."""
        return self.scale, zip(self.scaled, self.bounds or repeat(None))


def _scaled_rows(a: Sequence, depth: int):
    """The table kernel: ``a``'s scale (the lcm of its denominators in exact
    mode, 1 in float mode) and an iterator over rows 0..depth of its table
    times that scale, each with its row of error bounds (None in exact
    mode).  Each row is built from the one before, when it is asked for.
    The depth is checked here, before any row is built."""
    depth = as_count(depth, "depth", least=0)
    if depth > a.last_index:
        raise ValueError(f"insufficient data: depth {depth} exceeds last index {a.last_index}")
    if a.mode == EXACT:
        nums, dens = zip(*[v.as_integer_ratio() for v in a.values])
        scale, cofactors = _scale_cofactors(dens)
        row = tuple(list(map(operator.mul, nums, cofactors)))
        return scale, _next_rows(row, None, depth)
    # half an ulp each, floored at 2**-1074, the ulp of a subnormal or 0.0
    bounds = a.value_bounds or tuple([max(EPS * abs(v), TINY) for v in a.values])
    return 1, _next_rows(tuple(a.values), bounds, depth)


def _scale_cofactors(dens):
    """L, the lcm of ``dens``, and L // d for each d.  When the last denominator
    is wider than a machine word, L // d_k is (L // d_{k+1}) * (d_{k+1} // d_k)
    wherever d_k divides d_{k+1}, as it does for the moments of rational atoms
    (their denominators grow as q^k): one wide division at each break, and L
    is the lcm of the last denominator and those at the breaks."""
    if dens[-1].bit_length() <= 64:
        scale = math.lcm(*dens)
        return scale, [scale // d for d in dens]
    steps = list(map(divmod, dens[1:], dens))  # (d_{k+1} // d_k, d_{k+1} % d_k)
    scale = math.lcm(*compress(dens, map(operator.itemgetter(1), steps)), dens[-1])
    f = scale // dens[-1]
    cofactors = [f]
    for d, (q, r) in zip(reversed(dens[:-1]), reversed(steps)):
        f = scale // d if r else f * q
        cofactors.append(f)
    return scale, reversed(cofactors)


def _next_rows(row, bounds, depth):
    yield row, bounds
    for _ in range(depth):  # via a list: a tuple grown from an iterator fragments the heap
        row = tuple(list(map(operator.sub, row, row[1:])))
        if bounds is not None:  # the bounds of the two operands plus one rounding
            bounds = tuple([x + y + EPS * abs(v) for x, y, v in zip(bounds, bounds[1:], row)])
        yield row, bounds


def difference_table(a: Sequence, depth: int) -> DifferenceTable:
    """Build the sign-folded difference table of ``a`` down to ``depth`` rows."""
    scale, pairs = _scaled_rows(a, depth)
    # into two lists: (row, bounds) pairs kept alive cost every GC pass
    rows, bounds = [], []
    for row, row_bounds in pairs:
        rows.append(row)
        bounds.append(row_bounds)
    bounds = None if a.mode == EXACT else tuple(bounds)
    return DifferenceTable(tuple(rows), bounds, a.mode, depth, a.last_index, scale)


def closed_form_entry(a: Sequence, n: int, k: int):
    """(-1)^n Delta^n a(k) by the direct binomial sum (no recurrence).

    Used as the independent cross-check of the table recurrence.
    """
    if n + k > a.last_index:
        raise ValueError("insufficient data")
    terms = [
        math.comb(n, i) * a.values[k + i] * (-1 if i % 2 else 1)
        for i in range(n + 1)
    ]
    if a.mode == EXACT:
        return sum(terms, Fraction(0))
    return math.fsum(terms)


def _column_zero(a: Sequence) -> tuple:
    """Column 0 of ``a``'s table, (-1)^n Delta^n a(0) for n <= K, streamed
    from the kernel: each row is dropped once the next exists."""
    scale, rows = _scaled_rows(a, a.last_index)
    if a.mode == EXACT:
        return tuple(Fraction(row[0], scale) for row, _ in rows)
    return tuple(row[0] for row, _ in rows)


def binomial_transform(a: Sequence) -> Sequence:
    """b_n = (-1)^n Delta^n a(0) = sum_i C(n,i)(-1)^i a_i.  Involutive."""
    return Sequence(_column_zero(a), a.mode)


def euler_transform(a: Sequence) -> Sequence:
    """(Delta^n a(0))_n.  One-to-one with ``a`` (inverse below)."""
    return Sequence(tuple(-v if n % 2 else v for n, v in enumerate(_column_zero(a))), a.mode)


def inverse_euler_transform(e: Sequence) -> Sequence:
    """Recover a from its Euler transform: a_n = sum_i C(n,i) e_i."""
    vals = []
    for n in range(e.last_index + 1):
        terms = [math.comb(n, i) * e.values[i] for i in range(n + 1)]
        vals.append(sum(terms, Fraction(0)) if e.mode == EXACT else math.fsum(terms))
    return Sequence(tuple(vals), e.mode)

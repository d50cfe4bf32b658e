"""Scalar layer: exact rationals when the data allows it, binary floats otherwise.

Every sequence operation in this package is generic over the two scalar
kinds.  A value parsed from "p/q" or from a decimal literal is an exact
``fractions.Fraction``; a Python float stays a float.  Exactness is decided
once, at sequence construction, and recorded as a mode flag.

The sequence kinds, the three verdicts and the parameter defaults that the
CLI reads live here too, so that it reads them without importing the
modules that compute with them; so do ``Record``, the base of every
module's value types, ``round_once``, the one rounding of an exact value to
a float, and ``as_count`` and ``as_scales``, the parameter checks.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal, InvalidOperation
from fractions import Fraction

EPS = 2.0 ** -52  # double-precision unit roundoff (1 ulp at 1.0)

EXACT = "exact"
FLOAT = "float"

CM = "cm"  # completely monotone
CA = "ca"  # completely alternating

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

DEFAULT_GRID = 200  # moment-inversion grid size M (moments)
DEFAULT_TOL = 1e-10  # NNLS fit tolerance (moments)
DEFAULT_N = 100_000  # Webster product truncation (webster)
DEFAULT_C_PAIR = (1.0, 1.0 / math.sqrt(2.0))  # probed c of decompositions and theta
DEFAULT_SD_CS = (0.25, 0.5, 0.75, 0.9)  # scales of the self-decomposability test


class Record:
    """Base of the value types: a subclass's annotated names are its fields,
    in order, and a class attribute is that field's default.  Instances bind
    arguments as a dataclass does, then run ``__post_init__`` if the class
    has one; they compare and hash by class and field values and print as
    ``Name(field=value, ...)``, and they are frozen.  The methods are
    shared, not generated per class, so defining a record costs no code
    generation at import."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = tuple(cls.__dict__[name] for name in cls._fields if name in cls.__dict__)
        cls._required = len(cls._fields) - len(cls._defaults)
        if not all(name in cls.__dict__ for name in cls._fields[cls._required:]):
            raise TypeError(f"{cls.__qualname__}: a field without a default follows a default")
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if kwargs or not cls._required <= len(args) <= len(fields):  # bind by name
            values = {**dict(zip(fields[cls._required:], cls._defaults)),
                      **dict(zip(fields, args)), **kwargs}
            if len(args) > len(fields) or kwargs.keys() & set(fields[:len(args)]) \
                    or values.keys() != set(fields):
                raise TypeError(f"{cls.__qualname__}() takes the fields {fields}, not {len(args)} "
                                f"positional and the keyword arguments {sorted(kwargs)}")
            args = tuple(values[name] for name in fields)
        else:  # the defaults fill the fields after the given ones
            args += cls._defaults[len(args) - cls._required:]
        self.__dict__.update(zip(fields, args))
        if cls._post_init:
            self.__post_init__()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


def nonnegative_fsum(terms) -> float:
    """fsum of nonnegative float terms; a sum past float range reads inf,
    its correctly rounded value, where fsum raises OverflowError."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def round_once(c, e: int = 0, divisor: int = 1, up: bool = False) -> float:
    """c 2^e / divisor (divisor > 0) rounded once, to nearest or, with ``up``,
    toward +inf, for an int, Fraction or float c: +-inf past float range, and
    c itself when it is inf or nan."""
    try:
        p, q = c.as_integer_ratio()
    except (OverflowError, ValueError):  # inf or nan
        return c
    p, q = (p << e, q * divisor) if e >= 0 else (p, (q * divisor) << -e)
    try:
        x = p / q if p else float(c)  # int division rounds once; float(c) keeps -0.0
    except OverflowError:
        return math.inf if p > 0 else -math.inf
    if up and Fraction(x) < Fraction(p, q):
        x = math.nextafter(x, math.inf)
    return x


def as_count(value, name, least=None) -> int:
    """The count ``value`` (a depth, iterate, number of terms or of cells) as
    an int; a ValueError names it when it is not an integer or is below ``least``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r:.40}") from None
    if least is not None and count < least:
        raise ValueError(f"{name} must be nonnegative" if least == 0
                         else f"{name} must be at least {least}")
    return count


def as_scales(values, name="c") -> tuple:
    """One scale (a c or an alpha), or a list of them, as a non-empty tuple of
    positive, finite floats; a ValueError names ``name`` otherwise."""
    try:
        values = tuple(values)
    except TypeError:  # one number
        values = (values,)
    try:
        scales = tuple(map(float, values))
    except OverflowError:  # an int or a Fraction past float range
        raise ValueError(f"{name} must be finite, got one past float range") from None
    if not scales:
        raise ValueError(f"{name} needs at least one value")
    for scale in scales:
        if not scale > 0:  # NaN too
            raise ValueError(f"{name} must be positive")
        if not scale < math.inf:
            raise ValueError(f"{name} must be finite, got {scale!r}")
    return scales


def _integer(text) -> int:
    """int(text), past Python's int/str digit limit too: Decimal reads a
    string of decimal digits with no limit."""
    try:
        return int(text)
    except ValueError:
        s = text.strip()
        if not (s[1:] if s[:1] in ("+", "-") else s).isdecimal():
            raise
        return int(Decimal(s))


def _digits(n: int) -> str:
    """str(n), past Python's int/str digit limit too: Decimal writes an int
    with no limit."""
    try:
        return str(n)
    except ValueError:
        return format(Decimal(n), "f")


def parse_scalar(text):
    """Parse one scalar token: "p/q", integer or decimal literal, always as
    an exact Fraction (decimal literals include exponent notation).

    Raises ValueError for anything else, "inf", "nan" and a zero
    denominator included.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty scalar token")
    if "/" in s:
        num, _, den = s.partition("/")
        den = _integer(den)
        if den == 0:
            raise ValueError(f"zero denominator: {s!r}")
        return Fraction(_integer(num), den)
    try:
        value = Decimal(s)
    except InvalidOperation:
        raise ValueError(f"not a number: {s!r}") from None
    if not value.is_finite():
        raise ValueError(f"not a finite number: {s!r}")
    return Fraction(value)


def is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def coerce_values(values, mode=None):
    """Normalize a list of scalars to one mode.

    With ``mode=None`` the mode is inferred: exact iff every entry is an
    int or Fraction.  Returns ``(tuple_of_values, mode)``.  Raises a
    ValueError naming the entry when one overflows a float; ``Sequence``
    refuses a float that is not finite.
    """
    vals = list(values)
    if not vals:
        raise ValueError("sequence must be nonempty")
    if mode is None:
        mode = EXACT if all(is_exact(v) for v in vals) else FLOAT
    if mode == EXACT:
        out = []
        for v in vals:
            if not is_exact(v):
                raise ValueError(f"exact mode requires rational entries, got {v!r}")
            out.append(Fraction(v))
        return tuple(out), EXACT
    if mode == FLOAT:
        out = []
        for k, v in enumerate(vals):
            try:
                x = float(v)
            except OverflowError:
                raise ValueError(f"entry {k} is beyond float range: {v!s:.40}") from None
            out.append(x)
        return tuple(out), FLOAT
    raise ValueError(f"unknown mode {mode!r}")


def scalar_to_json(value):
    """JSON-friendly form: Fractions as "p/q" strings, floats as floats."""
    if isinstance(value, Fraction):
        return f"{_digits(value.numerator)}/{_digits(value.denominator)}"
    if isinstance(value, int):
        return value
    return float(value)


def json_field(data, key, where, default=None, kind=float):
    """data[key] for a field of the JSON object ``data``, read as a float
    (``kind=float``) or a list (``kind=list``); ``default`` when the key is
    absent and a default is given.

    Raises a ValueError that names the field when ``data`` is not an object
    or the field is missing or of the wrong kind, or is a number that is not
    finite or overflows a float.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        if default is None:
            raise ValueError(f"{where} has no {key!r} key")
        return default
    value = data[key]
    if kind is list and isinstance(value, list):
        return value
    if kind is float:
        try:
            if math.isfinite(number := float(value)):
                return number
        except (TypeError, ValueError, OverflowError):
            pass
    what = "a list" if kind is list else "a finite number"
    raise ValueError(f"{where} field {key!r} is not {what}: {value!r:.40}")

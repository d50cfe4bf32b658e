"""Gregory-Newton interpolation machinery.

Series construction from integer samples (coefficients Delta^k f(0) / k!),
truncated evaluation with a heuristic tail estimate, and convergence
acceleration of the partial sums by Levin's u-transform.

A series is a record of what evaluation reads: Delta^k f(0) times one
scale (``deltas``, ``scale``), read off column 0 of the difference table
(ints for exact samples); its coefficients are made from them when first
read.  At an exact z the terms are walked once, forward, on ints: each
magnitude is one int division and the partial sum one int, reduced to a
Fraction once.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
from functools import cached_property
from fractions import Fraction

from ._extrapolate import LEVIN_ORDER, levin_u
from .scalars import EPS, EXACT, FLOAT, Record, is_exact
from .seqcore import Sequence, difference_table


class NewtonSeries(Record):
    """The Gregory-Newton series of the samples f(0), ..., f(N), held as
    what evaluation reads: ``deltas``, Delta^k f(0) times one scale L
    (``scale``: ints for exact samples, the floats themselves with L = 1
    for float ones), and the float table's error bounds on them
    (``bounds``, None for exact samples).  Evaluation divides by L k!
    exactly, as the rounded coefficients can underflow.  The coefficients
    c_k = Delta^k f(0) / k!, one per sample (c_0 = f(0); the partial sums
    interpolate every sample index exactly), are built on first read of
    ``coeffs`` and cached.  Build a series with ``series_from_samples``.
    """

    mode: str
    deltas: tuple
    scale: int = 1
    bounds: tuple | None = None

    def __post_init__(self):
        if self.mode not in (EXACT, FLOAT):
            raise ValueError(f"mode must be {EXACT!r} or {FLOAT!r}, not {self.mode!r:.40}")

    @cached_property
    def coeffs(self):
        """c_k = ``deltas[k]`` / (``scale`` k!): reduced Fractions for an
        exact series, rounded once for a float one."""
        factorials = itertools.accumulate(range(1, len(self.deltas)), operator.mul, initial=1)
        if self.mode == EXACT:
            return tuple(Fraction(d, self.scale * f) for d, f in zip(self.deltas, factorials))
        return tuple(_scaled(d, 0, f) for d, f in zip(self.deltas, factorials))

    def __len__(self):
        return len(self.deltas)

    def to_dict(self):
        return {
            "coefficients": self.coeffs,
            "n_samples": len(self),
            "mode": self.mode,
        }


def series_from_samples(samples: Sequence) -> NewtonSeries:
    """Build the Newton series of f from the samples (f(0), ..., f(N))."""
    table = difference_table(samples, samples.last_index)
    deltas = tuple(-row[0] if n % 2 else row[0] for n, row in enumerate(table.scaled))
    bounds = None if table.bounds is None else tuple(row[0] for row in table.bounds)
    return NewtonSeries(samples.mode, deltas, table.scale, bounds)


def _scaled(c, e: int, divisor: int = 1) -> float:
    """c 2^e / divisor rounded once, for an int, Fraction or float c: +-inf
    past float range, and c itself when it is inf or nan."""
    try:
        p, q = c.as_integer_ratio()
    except (OverflowError, ValueError):  # inf or nan
        return c
    if not p:
        return float(c)  # keeps the sign of -0.0
    q *= divisor
    try:
        return (p << e) / q if e >= 0 else p / (q << -e)
    except OverflowError:
        return math.copysign(math.inf, p)


class SeriesValue(Record):
    """Truncated evaluation: the partial sum, the heuristic tail estimate
    (magnitude of the last three included terms; not a bound), and warnings."""

    value: object
    tail_estimate: float
    n_terms: int
    warnings: tuple = ()


def _terms(series: NewtonSeries, z, n_terms: int, start: int, window, total, noise):
    """|term_k| of the terms c_k z^{falling k}, k < n_terms, in float/complex
    arithmetic.  z^{falling k} is carried as m 2^e with |m| < 1 and each term
    is c_k 2^e, rounded once from the exact c_k = ``deltas[k]`` / (``scale``
    k!), times m: so neither overflows nor underflows where z^{falling k},
    k! or c_k alone would, and a term that stays in range keeps the bits of
    c_k times z^{falling k}.  The list ``window`` receives the terms
    k >= start, and ``total`` the sum of all of them, left to right; a list
    ``noise``, for float samples, each term's bound from the table's error
    bound on Delta^k f(0), carried the same way."""
    deltas, bounds = series.deltas, series.bounds
    divisors = itertools.accumulate(range(1, n_terms), operator.mul, initial=series.scale)  # L k!
    m, e, acc = (1.0 + 0.0j if isinstance(z, complex) else 1.0), 0, 0.0
    for k, divisor in zip(range(n_terms), divisors):
        term = _scaled(deltas[k], e, divisor) * m
        acc = acc + term
        if k >= start:
            window.append(term)
        if noise is not None:
            noise.append(_scaled(bounds[k], e, divisor) * abs(m))
        yield abs(term)
        m = m * (z - k)
        s = math.frexp(max(abs(m.real), abs(m.imag)))[1]
        m, e = m * 2.0**-s, e + s
    total.append(acc)


def _exact_terms(series: NewtonSeries, z, n_terms: int, start: int, window, total):
    """``_terms`` of an exact series at an exact z = p/q, in one forward
    pass on ints.  Term k is t_k / D_k: t_k = Delta_k F_k with Delta_k =
    L Delta^k f(0) (L = ``scale``), F_{k+1} = F_k (p - kq) from F_0 = 1,
    and D_k = L k! q^k.  |t_k| / D_k is one int division, rounded once, so
    it equals float(abs(term_k)) (OverflowError past float range).  The sum
    is one int S over D_k, S <- S (k+1) q + t_{k+1}, reduced to a Fraction
    once at the end; only the window's terms become Fractions."""
    p, q, deltas = z.numerator, z.denominator, series.deltas
    num, den, s = 1, series.scale, 0  # F_k, D_k and S
    for k in range(n_terms):
        t = deltas[k] * num
        s += t
        yield abs(t) / den
        if k >= start:
            window.append(Fraction(t, den))
        step = (k + 1) * q
        num, den, s = num * (p - k * q), den * step, s * step
    total.append(Fraction(s, den))


def eval_series(series: NewtonSeries, z, n_terms: int = None) -> SeriesValue:
    """Partial sum  sum_{k < n_terms} c_k z^{falling k}.

    Exact when both the series and z are exact; otherwise float/complex.
    Emits a divergence warning when term magnitudes grow for five
    consecutive k, a half-plane warning for Re(z) <= 0 (convergence is
    only expected on Re(z) > 0 away from the sample range), and, for float
    samples, a noise warning when the table's error bounds on Delta^k f(0)
    times |C(z, k)|, summed over the terms, reach |value|.
    """
    return _partial_sum(series, z, n_terms)[0]


def _partial_sum(series: NewtonSeries, z, n_terms, last=0):
    """``eval_series``'s value and the ``last`` terms it summed."""
    try:
        n_terms = len(series) if n_terms is None else operator.index(n_terms)
    except TypeError:
        raise ValueError(f"n_terms must be an integer, not {n_terms!r:.40}") from None
    if not 1 <= n_terms <= len(series):
        raise ValueError(f"n_terms must lie in 1..{len(series)}, got {n_terms}")
    if isinstance(z, (float, complex)) and not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    warnings = []
    re_z = z.real if isinstance(z, complex) else z
    is_node = not isinstance(z, complex) and z == int(z) and 0 <= z < len(series)
    if re_z <= 0 and not is_node:
        warnings.append("outside half-plane Re(z) > 0: convergence not expected")

    start = max(0, n_terms - last)
    window, total = [], []
    noise = None if series.bounds is None else []
    if series.mode == EXACT and is_exact(z):
        magnitudes = _exact_terms(series, z, n_terms, start, window, total)
    else:
        magnitudes = _terms(series, z, n_terms, start, window, total, noise)
    mags, growth, longest = [], 0, 0  # the longest run of growing magnitudes
    try:
        for mag in magnitudes:
            growth = growth + 1 if mags and mag > mags[-1] > 0 else 0
            longest = growth if growth > longest else longest
            mags.append(mag)
    except OverflowError:
        raise ValueError(f"term {len(mags)} at z = {z!s:.40} is beyond float range") from None
    total = total[0]
    if longest >= 5:
        warnings.append("divergence suspected: term magnitudes grew for 5 consecutive k")
    if noise is not None:
        try:
            bound = math.fsum(noise)
        except OverflowError:
            bound = math.inf
        # a bound below the normal range carries only the inputs' 2**-1074
        # floor; an infinite one warns beside a NaN value too
        if bound == math.inf or bound >= max(abs(total), sys.float_info.min):
            warnings.append(f"rounding noise may swamp the value: the sample table's "
                            f"error bounds allow {bound:.3g}, at least |value|")
    tail = max(mags[-3:], default=0.0)
    return SeriesValue(total, tail, n_terms, tuple(warnings)), window


class ExtrapolatedValue(Record):
    """Accelerated evaluation: the extrapolated value, its heuristic error
    estimate (not a bound), the Levin order used (0 when the partial sum is
    returned unchanged), the plain truncated evaluation, and warnings."""

    value: object
    error_estimate: float
    order: int
    partial: SeriesValue
    warnings: tuple = ()


def extrapolate_series(series: NewtonSeries, z) -> ExtrapolatedValue:
    """Value of the Newton series at z, accelerated from all its terms by
    Levin's u-transform (Levin 1973; Weniger 1989, section 7).

    The transform models the remainder S - s_m as (m+1) a_m times a
    polynomial in 1/(m+1) and eliminates it from the last k+1 partial sums;
    it needs no exponent or other knowledge of f.  For the family
    1/(z+a) that model is exact, so exact samples give the exact value.
    Exact (Fraction) when both the series and z are exact; otherwise
    float/complex, where the order is capped lower because rounding grows
    with it.

    ``error_estimate`` = |L_k - L_{k-2}|, the spread between the chosen
    order and the one two below it.  It is a *heuristic*, not a bound.  On
    60 exact samples of 1/(1+z)^2, 1/(1+z)^3, 1/(2+z)^2 and
    1/((1+z)^2 (3+z)) at z = 0.1, 0.2, ..., 2.9 (non-nodes) the true error
    was 0.7 to 3.9 times the estimate in exact arithmetic.  In float, with
    the current term rounding (each term c_k 2^e rounded once, times the
    carried mantissa), the same factor 4 held wherever the error exceeded
    1e-10; below that, near rounding, the two orders can agree by chance,
    and the error reached 20 times the estimate.  That threshold belongs to
    this rounding, not to the estimate: rounding the terms as
    Delta^k f(0) C(z, k) instead moved the failure to z = 0.9 on
    (2+z)^-2, error 1.9e-10 against an estimate of 2.2e-11.

    Returns the partial sum unchanged (order 0) when z is a sample node
    (exact there; estimate 0), when fewer than three terms are available,
    or when a term in the window is zero (the series terminates there; the
    partial sum's tail estimate is carried).  It also does so, with a
    warning, when the transform breaks down: a float term or result is not
    finite, or the transform's denominator vanishes, to within rounding in
    float (as it does on harmonic-like terms a_m proportional to 1/(m+1)).  The partial
    evaluation's warnings, such as the Re(z) <= 0 half-plane warning, are
    carried.
    """
    exact = series.mode == EXACT and is_exact(z)
    order = LEVIN_ORDER[EXACT if exact else FLOAT]
    partial, window = _partial_sum(series, z, None, order + 1)
    n_terms = partial.n_terms
    warnings = partial.warnings
    if not isinstance(z, complex) and z == int(z) and 0 <= z < n_terms:
        return ExtrapolatedValue(partial.value, 0.0, 0, partial, warnings)

    def unchanged(note=()):
        return ExtrapolatedValue(
            partial.value, partial.tail_estimate, 0, partial, warnings + note
        )

    k = min(order, n_terms - 1)
    tail = window[-(k + 1):]
    if k < 2 or any(a == 0 for a in tail):
        return unchanged()
    eps = 0 if exact else EPS
    high = levin_u(tail, n_terms - 1 - k, partial.value, eps)
    low = levin_u(tail[2:], n_terms + 1 - k, partial.value, eps)
    if high is None or low is None:
        return unchanged(("Levin denominator vanished: extrapolation skipped",))
    if not exact and not (cmath.isfinite(high) and cmath.isfinite(low)):
        return unchanged(("non-finite terms: extrapolation skipped",))
    return ExtrapolatedValue(high, float(abs(high - low)), k, partial, warnings)

"""The extrapolation steps of the truncated computations: Richardson for
derivatives, Aitken for the Webster gamma, Levin u for Newton series."""

import math
from fractions import Fraction

from .scalars import EXACT, FLOAT


def richardson_derivative(f, x, h):
    """f'(x) by central differences at steps h and h/2 and one Richardson step
    (a step that would cross 0 is cut at 0); returns the value and the
    heuristic error estimate |D(h/2) - D(h)| / 3."""
    lo, lo_half = max(0.0, x - h), max(0.0, x - h / 2)
    d1 = (f(x + h) - f(lo)) / (x + h - lo)
    d2 = (f(x + h / 2) - f(lo_half)) / (x + h / 2 - lo_half)
    return (4.0 * d2 - d1) / 3.0, abs(d2 - d1) / 3.0


def aitken(s0, s1, s2):
    """Aitken's delta-squared limit of s0, s1, s2; s2 when their second difference is 0.0."""
    den = (s2 - s1) - (s1 - s0)
    return s2 - (s2 - s1) ** 2 / den if den != 0.0 else s2


# Highest Levin order per mode.  In exact arithmetic the order only trades
# truncation error against how far the order-to-order spread undershoots it;
# in float the transform's weights cancel more with each order, and past
# order 6 rounding outgrows the truncation error it removes.
LEVIN_ORDER = {EXACT: 10, FLOAT: 6}


def levin_u(tail, n, last_sum, eps):
    """Levin's u-transform of order k = len(tail) - 1 on the last k+1 partial
    sums, or None when its denominator vanishes (to within eps-relative
    rounding).

    ``tail`` holds the last terms a_n..a_{n+k} and ``last_sum`` is s_{n+k};
    the remainder estimate is omega_m = (m+1) a_m.
        L = sum_j w_j s_{n+j} / sum_j w_j,
        w_j = (-1)^j C(k, j) ((n+j+1) / (n+k+1))^(k-1) / omega_{n+j}."""
    k = len(tail) - 1
    s = last_sum
    num = den = size = 0
    for j in range(k, -1, -1):
        a = tail[j]
        w = (-1) ** j * math.comb(k, j) * Fraction(n + j + 1, n + k + 1) ** (k - 1)
        w = w / ((n + j + 1) * a)
        num = num + w * s
        den = den + w
        size = size + abs(w)
        s = s - a
    if abs(den) <= (k + 1) * eps * size:
        return None
    return num / den

"""Named built-in function handles for the CLI and the test corpus.

Handles return exact rationals at integer arguments where the function
value (or derivative) is rational, so that downstream difference tables
can run in exact arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .funcops import FunctionHandle
from .scalars import is_exact, parse_scalar


def _reciprocal(x):
    return Fraction(1, 1) / (1 + Fraction(x)) if is_exact(x) else 1.0 / (1.0 + x)


def _ratio_bf(x):
    if is_exact(x):
        return Fraction(x) / (1 + Fraction(x))
    return x / (1.0 + x)


def _sqrt_triplet():
    """The quadrature approximation of sqrt(lam) = (2 sqrt(pi))^{-1}
    integral (1 - e^{-lam x}) x^{-3/2} dx on a 240-cell log grid over
    [1e-4, 60]: a genuine finite triplet, hence exactly a Bernstein function."""
    from .bernstein import BernsteinTriplet  # only here: it loads moments too
    n_atoms, x_lo, x_hi = 240, 1e-4, 60.0
    ratio = (x_hi / x_lo) ** (1.0 / n_atoms)
    atoms = []
    edge = x_lo
    for _ in range(n_atoms):
        nxt = edge * ratio
        mid = math.sqrt(edge * nxt)
        # integral of x^{-3/2} over the cell, times the prefactor
        w = (2.0 / math.sqrt(edge) - 2.0 / math.sqrt(nxt)) / (2.0 * math.sqrt(math.pi))
        atoms.append((mid, w))
        edge = nxt
    # small-x remainder contributes drift ~ integral_0^{x_lo} x * x^{-3/2} dx
    d = 2.0 * math.sqrt(x_lo) / (2.0 * math.sqrt(math.pi))
    return BernsteinTriplet(0.0, d, tuple(atoms))


def sqrt_triplet_handle():
    from .bernstein import triplet_handle
    return triplet_handle(_sqrt_triplet(), "sqrt-triplet")


def exp_decay_handle():
    return FunctionHandle(
        lambda x: math.exp(-x), "exp-decay", False,
        derivative=lambda x: -math.exp(-x),
    )


def reciprocal_handle():
    return FunctionHandle(_reciprocal, "reciprocal", False)


def sqrt_handle():
    return FunctionHandle(
        lambda x: math.sqrt(x), "sqrt", False,
        derivative=lambda x: 0.5 / math.sqrt(x) if x > 0 else math.inf,
    )


def log1p_handle():
    return FunctionHandle(
        lambda x: math.log1p(x), "log1p", False,
        derivative=_reciprocal,
    )


def one_minus_exp_handle():
    return FunctionHandle(
        lambda x: -math.expm1(-x), "one-minus-exp", False,
        derivative=lambda x: math.exp(-x),
    )


def linear_handle():
    return FunctionHandle(
        lambda x: x, "linear", False, derivative=lambda x: 1 if is_exact(x) else 1.0,
    )


def square_handle():
    return FunctionHandle(
        lambda x: x * x, "square", False,
        derivative=lambda x: 2 * x,
    )


def ratio_bf_handle():
    return FunctionHandle(
        _ratio_bf, "bf-ratio", False,
        derivative=lambda x: _reciprocal(x) ** 2,
    )


def _abs_sin_pi(x):
    # float pi leaves sin(pi k) ~ 1e-16 k at the mathematical zeros; snap
    v = abs(math.sin(math.pi * x))
    return 0.0 if v < 1e-9 else v


def abs_sin_pi_handle():
    return FunctionHandle(_abs_sin_pi, "abs-sin-pi", False)


BUILTIN_HANDLES = {
    "exp-decay": exp_decay_handle,
    "reciprocal": reciprocal_handle,
    "sqrt": sqrt_handle,
    "sqrt-triplet": sqrt_triplet_handle,
    "log1p": log1p_handle,
    "one-minus-exp": one_minus_exp_handle,
    "linear": linear_handle,
    "square": square_handle,
    "bf-ratio": ratio_bf_handle,
    "abs-sin-pi": abs_sin_pi_handle,
}


def get_handle(name: str) -> FunctionHandle:
    try:
        factory = BUILTIN_HANDLES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_HANDLES))
        raise ValueError(f"unknown builtin {name!r}; known: {known}") from None
    return factory()


# Webster right-hand sides -------------------------------------------------

def webster_identity():
    """g(x) = x: the solution is the gamma function."""
    return FunctionHandle(
        lambda x: x, "g-identity", True, derivative=lambda x: 1.0
    )


def webster_constant(c):
    """g = e^c: the solution is e^{c(x-1)}."""
    try:
        c = float(c)
        g = math.exp(c)
    except OverflowError:
        raise ValueError(f"constant:{c!s:.40}: e^c is beyond float range") from None
    return FunctionHandle(
        lambda x: g, f"g-constant({c:g})", False,
        derivative=lambda x: 0.0,
    )


def webster_exp_neg_cm():
    """g(x) = exp(-e^{-x}) (log g completely monotone in reverse sign;
    lim g = 1): the solution is exp((e^{-x} - e^{-1}) / (1 - e^{-1}))."""
    return FunctionHandle(
        lambda x: math.exp(-math.exp(-x)), "g-exp-neg-cm", False,
        derivative=lambda x: math.exp(-x) * math.exp(-math.exp(-x)),
    )


WEBSTER_BUILTINS = {
    "identity": webster_identity,
    "exp-neg-cm": webster_exp_neg_cm,
}


def get_webster_g(name: str) -> FunctionHandle:
    if name.startswith("constant:"):
        return webster_constant(parse_scalar(name.partition(":")[2]))
    try:
        factory = WEBSTER_BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(WEBSTER_BUILTINS) + ["constant:<c>"])
        raise ValueError(f"unknown webster builtin {name!r}; known: {known}") from None
    return factory()

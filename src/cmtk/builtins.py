"""Named built-in function handles for the CLI and the test corpus.

Handles return exact rationals at integer arguments where the function
value (or derivative) is rational, so that downstream difference tables
can run in exact arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bernstein import BernsteinTriplet, triplet_handle
from .funcops import FunctionHandle
from .scalars import is_exact, parse_scalar


def _reciprocal(x):
    return Fraction(1, 1) / (1 + Fraction(x)) if is_exact(x) else 1.0 / (1.0 + x)


def _ratio_bf(x):
    if is_exact(x):
        return Fraction(x) / (1 + Fraction(x))
    return x / (1.0 + x)


def _sqrt_triplet(n_atoms=240, x_lo=1e-4, x_hi=60.0):
    """Quadrature approximation of sqrt(lam) = (2 sqrt(pi))^{-1}
    integral (1 - e^{-lam x}) x^{-3/2} dx on a log grid; a genuine finite
    triplet, hence exactly a Bernstein function."""
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


def exp_decay_handle(budget=None):
    return FunctionHandle(
        lambda x: math.exp(-x), "exp-decay", False,
        derivative=lambda x: -math.exp(-x), budget=budget,
    )


def reciprocal_handle(budget=None):
    return FunctionHandle(_reciprocal, "reciprocal", False, budget=budget)


def sqrt_handle(budget=None):
    return FunctionHandle(
        lambda x: math.sqrt(x), "sqrt", False,
        derivative=lambda x: 0.5 / math.sqrt(x) if x > 0 else math.inf,
        budget=budget,
    )


def sqrt_triplet_handle(budget=None):
    h = triplet_handle(_sqrt_triplet(), "sqrt-triplet", budget)
    return h


def log1p_handle(budget=None):
    return FunctionHandle(
        lambda x: math.log1p(x), "log1p", False,
        derivative=_reciprocal, budget=budget,
    )


def one_minus_exp_handle(budget=None):
    return FunctionHandle(
        lambda x: -math.expm1(-x), "one-minus-exp", False,
        derivative=lambda x: math.exp(-x), budget=budget,
    )


def linear_handle(budget=None):
    return FunctionHandle(
        lambda x: x, "linear", False, derivative=lambda x: 1 if is_exact(x) else 1.0,
        budget=budget,
    )


def square_handle(budget=None):
    return FunctionHandle(
        lambda x: x * x, "square", False,
        derivative=lambda x: 2 * x, budget=budget,
    )


def ratio_bf_handle(budget=None):
    return FunctionHandle(
        _ratio_bf, "bf-ratio", False,
        derivative=lambda x: _reciprocal(x) ** 2, budget=budget,
    )


def _abs_sin_pi(x):
    # float pi leaves sin(pi k) ~ 1e-16 k at the mathematical zeros; snap
    v = abs(math.sin(math.pi * x))
    return 0.0 if v < 1e-9 else v


def abs_sin_pi_handle(budget=None):
    return FunctionHandle(_abs_sin_pi, "abs-sin-pi", False, budget=budget)


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


def get_handle(name: str, budget=None) -> FunctionHandle:
    try:
        factory = BUILTIN_HANDLES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_HANDLES))
        raise ValueError(f"unknown builtin {name!r}; known: {known}") from None
    return factory(budget)


# Webster right-hand sides -------------------------------------------------

def webster_identity(budget=None):
    """g(x) = x: the solution is the gamma function."""
    return FunctionHandle(
        lambda x: x, "g-identity", True, derivative=lambda x: 1.0, budget=budget
    )


def webster_constant(c, budget=None):
    """g = e^c: the solution is e^{c(x-1)}."""
    try:
        c = float(c)
        g = math.exp(c)
    except OverflowError:
        raise ValueError(f"constant:{c!s:.40}: e^c is beyond float range") from None
    return FunctionHandle(
        lambda x: g, f"g-constant({c:g})", False,
        derivative=lambda x: 0.0, budget=budget,
    )


def webster_exp_neg_cm(budget=None):
    """g(x) = exp(-e^{-x}) (log g completely monotone in reverse sign;
    lim g = 1): the solution is exp((e^{-x} - e^{-1}) / (1 - e^{-1}))."""
    return FunctionHandle(
        lambda x: math.exp(-math.exp(-x)), "g-exp-neg-cm", False,
        derivative=lambda x: math.exp(-x) * math.exp(-math.exp(-x)),
        budget=budget,
    )


WEBSTER_BUILTINS = {
    "identity": webster_identity,
    "exp-neg-cm": webster_exp_neg_cm,
}


def get_webster_g(name: str, budget=None) -> FunctionHandle:
    if name.startswith("constant:"):
        return webster_constant(parse_scalar(name.partition(":")[2]), budget)
    try:
        factory = WEBSTER_BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(WEBSTER_BUILTINS) + ["constant:<c>"])
        raise ValueError(f"unknown webster builtin {name!r}; known: {known}") from None
    return factory(budget)

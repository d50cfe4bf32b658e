"""Named built-in function handles for the CLI and the test corpus.

Each name is one row of a table: BUILTIN_HANDLES for the handles that
``--builtin`` names, WEBSTER_BUILTINS for the right-hand sides g that
``webster --g`` names.  Handles return exact rationals at integer arguments
where the function value (or derivative) is rational, so that downstream
difference tables can run in exact arithmetic.
"""

from __future__ import annotations

import json
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


def _abs_sin_pi(x):
    # float pi leaves sin(pi k) ~ 1e-16 k at the mathematical zeros; snap
    v = abs(math.sin(math.pi * x))
    return 0.0 if v < 1e-9 else v


def _sqrt_triplet():
    """The quadrature approximation of sqrt(lam) = (2 sqrt(pi))^{-1}
    integral (1 - e^{-lam x}) x^{-3/2} dx on a 240-cell log grid over
    [1e-4, 60]: a genuine finite triplet, hence exactly a Bernstein function."""
    from .bernstein import BernsteinTriplet  # only here: it loads the sign scan too
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


# name -> (f, f' or None); each handle is closed at zero and named by its key
BUILTIN_HANDLES = {
    "exp-decay": (lambda x: math.exp(-x), lambda x: -math.exp(-x)),
    "reciprocal": (_reciprocal, None),
    "sqrt": (math.sqrt, lambda x: 0.5 / math.sqrt(x) if x > 0 else math.inf),
    "sqrt-triplet": None,  # a Bernstein triplet, built by get_handle
    "log1p": (math.log1p, _reciprocal),
    "one-minus-exp": (lambda x: -math.expm1(-x), lambda x: math.exp(-x)),
    "linear": (lambda x: x, lambda x: 1 if is_exact(x) else 1.0),
    "square": (lambda x: x * x, lambda x: 2 * x),
    "bf-ratio": (_ratio_bf, lambda x: _reciprocal(x) ** 2),
    "abs-sin-pi": (_abs_sin_pi, None),
}


def get_handle(spec: str) -> FunctionHandle:
    """The handle a key of BUILTIN_HANDLES names, or for ``triplet:FILE``
    the Bernstein triplet in the JSON file FILE."""
    row = BUILTIN_HANDLES.get(spec)
    if row is not None:
        return FunctionHandle(row[0], spec, False, derivative=row[1])
    if spec not in BUILTIN_HANDLES and not spec.startswith("triplet:"):
        known = ", ".join(sorted(BUILTIN_HANDLES))
        raise ValueError(f"unknown builtin {spec!r}; known: {known}")
    from . import bernstein  # only here: it loads the sign scan, its handles moments
    if spec == "sqrt-triplet":
        triplet = _sqrt_triplet()
    else:
        with open(spec.partition(":")[2], "r", encoding="utf-8") as fh:
            triplet = bernstein.BernsteinTriplet.from_dict(json.load(fh))
    return bernstein.triplet_handle(triplet, spec)


# Webster right-hand sides -------------------------------------------------

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


# name -> (handle name, g, g', open at zero)
WEBSTER_BUILTINS = {
    # g(x) = x: the solution is the gamma function
    "identity": ("g-identity", lambda x: x, lambda x: 1.0, True),
    # g(x) = exp(-e^{-x}) (log g completely monotone in reverse sign; lim g = 1):
    # the solution is exp((e^{-x} - e^{-1}) / (1 - e^{-1}))
    "exp-neg-cm": ("g-exp-neg-cm", lambda x: math.exp(-math.exp(-x)),
                   lambda x: math.exp(-x) * math.exp(-math.exp(-x)), False),
}


def get_webster_g(name: str) -> FunctionHandle:
    if name.startswith("constant:"):
        return webster_constant(parse_scalar(name.partition(":")[2]))
    try:
        handle_name, g, derivative, open_at_zero = WEBSTER_BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(WEBSTER_BUILTINS) + ["constant:<c>"])
        raise ValueError(f"unknown webster builtin {name!r}; known: {known}") from None
    return FunctionHandle(g, handle_name, open_at_zero, derivative=derivative)

"""Closed-form references for the benchmark's output checks.

Everything here is computed from how an input was built (its measure, its
perturbation or a closed form) with the standard library only.  Nothing
in this module calls cmtk, so a check can never agree with the code under
test merely because both run the same code.
"""

from __future__ import annotations

import math
from fractions import Fraction

EPS = 2.0**-52  # double-precision unit roundoff


class CheckError(Exception):
    """An operation's output disagrees with its reference."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


def rel_err(got, want) -> float:
    got, want = float(got), float(want)
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


# -- exact rational measures ------------------------------------------------

def atom_moments(atoms, K):
    """a_k = sum_j w_j u_j^k for k = 0..K, exact."""
    out = []
    powers = [Fraction(1)] * len(atoms)
    for _ in range(K + 1):
        out.append(sum(w * p for (_, w), p in zip(atoms, powers)))
        powers = [p * u for (u, _), p in zip(atoms, powers)]
    return out


def ca_values(q, d, atoms, K):
    """a_k = q + d k + sum_j w_j (1 - u_j^k), exact."""
    moments = atom_moments(atoms, K)
    mass = sum(w for _, w in atoms)
    return [q + d * k + mass - m for k, m in enumerate(moments)]


def column_zero(atoms, depth):
    """(-1)^n Delta^n a(0) = sum_j w_j (1 - u_j)^n for n = 0..depth, exact."""
    return atom_moments([(1 - u, w) for u, w in atoms], depth)


def first_signed_violation(atoms, n_start, K):
    """First row n >= n_start where sum_j w_j (1 - u_j)^n < 0.

    For a two-atom mixture with the negative weight on the smaller support
    point, every row's most negative entry is at k = 0, so this row is the
    row of the first sign violation of the whole table, at column 0.
    Returns (n, sum) or None.
    """
    col = column_zero(atoms, K)
    for n in range(n_start, K + 1):
        if col[n] < 0:
            return n, col[n]
    return None


def beta_moments(alpha, beta, K):
    """Moments of the Beta(alpha, beta) law on [0, 1]:
    a_k = prod_{i<k} (alpha + i) / (alpha + beta + i)."""
    out = [Fraction(1)]
    for i in range(K):
        out.append(out[-1] * Fraction(alpha + i, alpha + beta + i))
    return out


def beta_column_zero_end(alpha, beta, n):
    """int (1 - u)^n dBeta(alpha, beta) = prod_{i<n} (beta + i) / (alpha + beta + i)."""
    out = Fraction(1)
    for i in range(n):
        out *= Fraction(beta + i, alpha + beta + i)
    return out


def float_moments(numerators, weights, denominator, W, K):
    """Correctly rounded a_k = sum_j (c_j / W) (p_j / Q)^k for k = 0..K.

    Every support point p_j / Q shares the denominator Q and every weight
    c_j / W shares W, so a_k is one integer ratio and Python's int/int
    true division rounds it correctly (the half-ulp input model).
    """
    out = []
    powers = [1] * len(numerators)
    qk = 1
    for _ in range(K + 1):
        out.append(sum(c * p for c, p in zip(weights, powers)) / (W * qk))
        powers = [p * n for p, n in zip(powers, numerators)]
        qk *= denominator
    return out


def float_ca_moments(q_num, d_num, numerators, weights, denominator, W, K):
    """Correctly rounded a_k = (q + d k + sum_j c_j (1 - (p_j/Q)^k)) / W."""
    out = []
    powers = [1] * len(numerators)
    qk = 1
    mass = sum(weights)
    for k in range(K + 1):
        num = (q_num + d_num * k + mass) * qk - sum(c * p for c, p in zip(weights, powers))
        out.append(num / (W * qk))
        powers = [p * n for p, n in zip(powers, numerators)]
        qk *= denominator
    return out


# -- closed forms of functions -----------------------------------------------

def laplace_atoms(atoms, lam):
    """sum_j w_j u_j^lam for float atoms (u_j, w_j)."""
    return math.fsum(w * u**lam for u, w in atoms)


def bernstein_value(q, d, levy, lam):
    """q + d lam + sum_j w_j (1 - e^{-lam x_j})."""
    return q + d * lam + math.fsum(w * -math.expm1(-lam * x) for x, w in levy)


def ca_value(q, d, atoms, lam):
    """q + d lam + sum_j w_j (1 - u_j^lam) for atoms on [0, 1)."""
    return q + d * lam + math.fsum(w * (1.0 - u**lam) for u, w in atoms)


def webster_closed_form(g_name, x):
    """The log-convex solution of f(x+1) = g(x) f(x), f(1) = 1."""
    if g_name == "identity":
        return math.gamma(x)
    if g_name.startswith("constant:"):
        c = float(g_name.partition(":")[2])
        return math.exp(c * (x - 1.0))
    if g_name == "exp-neg-cm":
        e1 = math.exp(-1.0)
        return math.exp((math.exp(-x) - e1) / (1.0 - e1))
    raise ValueError(g_name)


def webster_g(g_name, x):
    if g_name == "identity":
        return x
    if g_name.startswith("constant:"):
        return math.exp(float(g_name.partition(":")[2]))
    if g_name == "exp-neg-cm":
        return math.exp(-math.exp(-x))
    raise ValueError(g_name)

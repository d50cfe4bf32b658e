"""Bernstein-function representation and tests.

A triplet (q, d, mu) with q, d >= 0 and a finite atomic Levy measure mu on
(0, inf) evaluates to Phi(lam) = q + d lam + sum w_j (1 - e^{-lam x_j}).
Extraction samples a handle on the nonnegative integers, certifies the CA
sign condition, reads q = Phi(0) and the drift from a far-field first
difference, and inverts the residual moments on the u = e^{-x} grid.

Membership and self-decomposability tests realize the theta-operator
characterization (theta_c Phi must be a bounded Bernstein function null at
zero) and the two SD criteria: (Phi(k) - Phi(ck))_k completely alternating
and minimal for probed c in (0,1), and non-parametrically (k Phi'(k))_k
completely alternating and minimal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from . import classify
from ._extrapolate import richardson_derivative
from .errors import DomainError
from .funcops import FunctionHandle, _sample, bounded_sequence, sampled_sequence
from .scalars import (DEFAULT_C_PAIR, DEFAULT_SD_CS, EPS, Record, as_count, as_scales, is_exact,
                      json_field, nonnegative_fsum, round_once, verdict_of)
from .seqcore import Sequence, difference_table

#: atoms beyond the u-grid horizon (x > ln M) are parked here: at integer
#: arguments 1 - e^{-k X_FAR} is 1 to double precision, matching the u = 0
#: kernel column they were fitted against
X_FAR = 46.0

#: depth of the scale tests (Phi(k) - Phi(ck))_k, kept moderate: float
#: sampling noise swamps deeper rows
_SCALE_DEPTH = 15
HOLOMORPHY_CAVEAT = (
    "holomorphic-extension hypotheses are not checkable numerically; "
    "verdicts are certified to depth/grid only"
)


class BernsteinTriplet(Record):
    """(q, d, levy): killing q = Phi(0), drift d = lim Phi(x)/x, and atoms
    (x_j, w_j) on (0, inf) with sum w_j (1 ^ x_j) < inf (finite here)."""

    q: float
    d: float
    levy: tuple

    def __post_init__(self):
        if self.q < 0 or self.d < 0:
            raise ValueError("q and d must be nonnegative")
        xs = [x for x, _ in self.levy]
        if any(x <= 0 for x in xs) or any(w < 0 for _, w in self.levy):
            raise ValueError("levy atoms need x > 0 and w >= 0")
        if sorted(xs) != xs:
            raise ValueError("levy atoms must be sorted by x")
        if not math.isfinite(self.integrability()):
            raise ValueError("levy atoms must have finite integral of 1 ^ x")

    def integrability(self) -> float:
        return nonnegative_fsum(w * min(1.0, x) for x, w in self.levy)

    @cached_property
    def _value(self):
        """lam -> Phi(lam) through the Levy measure, built at the first value."""
        from . import moments
        value, q, d = moments.ExponentialMeasure(self.levy).bernstein, self.q, self.d
        return lambda lam: value(float(lam), q, d)

    @property
    def total_levy_mass(self) -> float:
        return nonnegative_fsum(w for _, w in self.levy)

    def to_dict(self):
        return {
            "q": self.q,
            "d": self.d,
            "levy": [{"x": x, "w": w} for x, w in self.levy],
        }

    @classmethod
    def from_dict(cls, data):
        """Absent fields default to 0 (levy to no atoms); an object with none is rejected."""
        if isinstance(data, dict) and not {"q", "d", "levy"} & data.keys():
            raise ValueError("triplet has none of the fields 'q', 'd' and 'levy'")
        q = json_field(data, "q", "triplet", 0.0)
        d = json_field(data, "d", "triplet", 0.0)
        levy = tuple(sorted((json_field(a, "x", "levy atom"), json_field(a, "w", "levy atom"))
                            for a in json_field(data, "levy", "triplet", [], list)))
        return cls(q, d, levy)


def eval_bernstein(t: BernsteinTriplet, lam) -> float:
    """q + d lam + sum w_j (1 - e^{-lam x_j}); nondecreasing, value q at 0."""
    return t._value(lam)


def triplet_handle(t: BernsteinTriplet, name="triplet") -> FunctionHandle:
    """Function handle for the triplet, valued as eval_bernstein, with its
    exact derivative Phi'(lam) = d + sum w_j x_j e^{-lam x_j}."""

    def derivative(lam):
        lam = float(lam)
        return t.d + nonnegative_fsum(w * x * math.exp(-lam * x) for x, w in t.levy)

    return FunctionHandle(t._value, name, False, derivative)


class ExtractReport(Record):
    fit: moments.FitReport
    certificate: classify.Certificate
    nonminimal_mass: float


def extract_triplet(phi: FunctionHandle, tol: float = 1e-10):
    """Sample Phi on 0..30, certify CA, and fit a Bernstein triplet.

    q is Phi(0) exactly; d is the far-field first difference
    Phi(1e7 + 1) - Phi(1e7) clamped to >= 0; the Levy atoms come from
    nonnegative least squares against the kernel 1 - u^k on the uniform
    200-point u grid, mapped through x = -ln u.  Weight landing on
    u = 0 (mass beyond the grid horizon x = ln M, or a genuine non-minimal
    part) is parked at x = X_FAR and also reported separately.
    """
    from . import moments
    if phi.open_at_zero:
        raise DomainError("extraction needs the value at 0")
    moments._check_fit(200, tol)
    phi.reset_budget()
    seq = sampled_sequence(phi, [float(k) for k in range(31)])
    # one table serves the reported certificate and the fit's full-depth
    # one; 15 keeps conclusive verdicts for float samples, as deeper rows of
    # bounded sequences sink below the propagated noise
    table = difference_table(seq, classify.default_depth(seq))
    cert = classify._certify(seq, classify.CA, 15, table._scaled_rows(),
                             "samples are not completely alternating")

    q = float(seq.values[0])
    d = max(0.0, float(phi(1e7 + 1.0) - phi(1e7)))
    moments._certify_or_raise(seq, classify.CA, table._scaled_rows())
    moments._check_fit(200, tol, d)  # a far-field value past float range makes d inf
    triplet, fit = moments._fit_ca(seq, 200, tol, d)
    exp_measure = moments.to_exponential(triplet.measure)
    atoms = dict(exp_measure.atoms)
    if exp_measure.mass_at_infinity > 0.0:
        atoms[X_FAR] = atoms.get(X_FAR, 0.0) + exp_measure.mass_at_infinity
    out = BernsteinTriplet(q, d, tuple(sorted(atoms.items())))
    return out, ExtractReport(fit, cert, exp_measure.mass_at_infinity)


class ThetaCheckEntry(Record):
    c: float
    theta_at_zero: float
    certificate: classify.Certificate
    bounded_ok: bool
    sup_estimate: float
    last_increment: float
    passed: bool


class ThetaReport(Record):
    entries: tuple
    overall_pass: bool

    @property
    def verdict(self) -> str:
        return verdict_of(self.overall_pass, any(e.certificate.failed for e in self.entries))


def _difference_sequence(a, b, theta=False):
    """head + (a_k - b_k) for handle samples (values, magnitudes) a and b from
    ``funcops._sample``, bounded by 2 EPS (anchor + M(a_k) + M(b_k)).  For
    theta, head = b_0 - a_0 (fl(x-y) = -fl(y-x), so entry 0 is exactly 0.0)
    and anchor = M(b_0) + M(a_0), else both are 0.  Exact differences carry
    no bounds, so none is computed: exact magnitudes can pass float range."""
    (av, am), (bv, bm) = a, b
    head = bv[0] - av[0] if theta else 0
    values = [head + (x - y) for x, y in zip(av, bv)]
    if all(map(is_exact, values)):
        return Sequence.from_values(values)
    am, bm = am or [abs(x) for x in av], bm or [abs(y) for y in bv]
    anchor = bm[0] + am[0] if theta else 0
    return bounded_sequence(values, [2.0 * (anchor + x + y) for x, y in zip(am, bm)])


def check_bf_via_theta(phi: FunctionHandle, cs=DEFAULT_C_PAIR,
                       depth: int = 15) -> ThetaReport:
    """Bernstein membership via the theta operator: for each c, the samples
    of theta_c Phi at 0..depth + 10 (exactly 0 at 0) must certify
    CA, and the sequence must look bounded (sup approached: the last
    increment at most half the largest; increments of a CA sequence are
    already nonincreasing)."""
    depth = as_count(depth, "depth", least=0)
    cs = as_scales(cs)
    entries = []
    phi.reset_budget()
    points = range(depth + 11)
    at_k = _sample(phi, points)
    for c in cs:
        c_exact = Fraction(c)
        seq = _difference_sequence(at_k, _sample(phi, [k + c_exact for k in points]), theta=True)
        samples = seq.values
        try:  # exact samples and increments can pass float range
            incs = [float(y - x) for x, y in zip(samples, samples[1:])]
            theta_0, sup = float(samples[0]), float(samples[-1])
        except OverflowError:
            raise ValueError(f"the theta samples at c = {c:g} pass float range") from None
        cert = classify.certify(seq, classify.CA, depth)
        bounded = incs[-1] <= 0.5 * max(incs) + 4 * EPS * abs(sup)
        entries.append(ThetaCheckEntry(c, theta_0, cert, bounded, sup, incs[-1],
                                       cert.passed and bounded))
    return ThetaReport(tuple(entries), all(e.passed for e in entries))


class SDTestEntry(Record):
    label: str
    certificate: classify.Certificate
    minimality: classify.MinimalityReport | None
    passed: bool


class SDReport(Record):
    scale_tests: tuple          # (Phi(k) - Phi(ck))_k per probed c
    derivative_test: SDTestEntry | None   # (k Phi'(k))_k
    derivative_error: float | None
    verdict: str                # pass | fail | inconclusive
    caveats: tuple = (HOLOMORPHY_CAVEAT,)


def _default_sd_tol(depth: int, last_value) -> float:
    # atom mass resolvable at this depth: the (1-u)^n kernel has width ~ 1/n
    return max(1e-6, 2.0 / (depth + 1) * max(1.0, abs(float(last_value))))


def _derivative_samples(phi: FunctionHandle, count: int):
    """(Phi'(k))_k by the declared derivative, else central differences with
    one Richardson step (h = 1e-6 max(1, k)).

    Returns (values, per_k_error, worst_error): the per-entry error estimates
    (Richardson deltas plus rounding amplification EPS M(k)/h, M as in
    ``_difference_sequence``) feed the bounds; None for a declared derivative.
    """
    if phi.derivative is not None:
        return [phi.derivative(k) for k in range(count + 1)], None, None
    at_k, mags = _sample(phi, [float(k) for k in range(count + 1)])
    vals, errs = [], []
    for k, m in enumerate(mags or map(abs, at_k)):
        h = 1e-6 * max(1.0, float(k))
        value, spread = richardson_derivative(phi, k, h)
        vals.append(value)
        errs.append(spread + EPS * m / h)
    return vals, errs, max(errs)


def _sd_entry(label: str, seq: Sequence, depth: int, tol) -> SDTestEntry:
    """Certify ``seq`` CA to ``depth`` and, unless that fails, test it for
    minimality (default tol from the depth and the last value)."""
    if tol is None:
        tol = _default_sd_tol(depth, seq.values[-1])
    cert, minimality = classify._certify_minimal(seq, classify.CA, depth, tol)
    return SDTestEntry(label, cert, minimality,
                       cert.passed and minimality is not None and minimality.minimal)


def check_selfdecomposable(phi: FunctionHandle, cs=DEFAULT_SD_CS,
                           depth: int = 30, tol: float = None) -> SDReport:
    """Self-decomposability suite.

    Test (a), spot-checked per c in (0,1): (Phi(k) - Phi(ck))_k certified CA
    and minimal at depth 15.  Test (b), authoritative: (k Phi'(k))_k
    certified CA and minimal at full depth; with an exact derivative the
    whole test runs in exact arithmetic.  Verdict: pass iff every test
    passes; fail on any certified violation, or non-minimality of a passed
    certificate; inconclusive otherwise.  Parameters are checked before sampling.
    """
    depth = as_count(depth, "depth", least=0)
    if phi.open_at_zero:
        raise DomainError("self-decomposability tests need the value at 0")
    cs = as_scales(cs)
    if not all(c < 1.0 for c in cs):
        raise ValueError("scale factors must lie in (0, 1)")
    classify._check_trail(classify.CA, depth, tol)
    phi.reset_budget()
    points = range(_SCALE_DEPTH + 9)
    at_k = _sample(phi, points)
    entries = []
    for c in cs:
        # exact-first: a float c is an exact binary rational, so handles
        # built from plain arithmetic return exact values at these args
        c_exact = Fraction(c)
        seq = _difference_sequence(at_k, _sample(phi, [c_exact * k for k in points]))
        entries.append(_sd_entry(f"phi(k)-phi({c:g}k)", seq, _SCALE_DEPTH, tol))

    deriv_entry = deriv_err = None
    try:
        dvals, derrs, deriv_err = _derivative_samples(phi, depth + 8)
        finite = all(math.isfinite(float(v)) for v in dvals)
    except DomainError:  # also a ValueError, but a report, not a non-finite sample
        raise
    except (OverflowError, ValueError):
        finite = False
    if finite:
        bvals = [k * dvals[k] for k in range(len(dvals))]
        # its own bounds, not bounded_sequence's: the error of a Richardson
        # derivative is a heuristic plus EPS |b|, not EPS times a magnitude
        bounds = derrs and [k * derrs[k] + EPS * abs(float(bvals[k])) for k in range(len(bvals))]
        bseq = Sequence.from_values(bvals, value_bounds=bounds)
        deriv_entry = _sd_entry("k*phi'(k)", bseq, depth, tol)

    tests = entries if deriv_entry is None else [*entries, deriv_entry]
    failed = any(e.certificate.failed or (e.certificate.passed and not e.minimality.minimal)
                 for e in tests)
    passed = deriv_entry is not None and all(e.passed for e in tests)
    return SDReport(tuple(entries), deriv_entry, deriv_err, verdict_of(passed, failed))


def _egf_sum(vals, s, e):
    """fsum of 2^-e a_k s^k / k! (2^-e scales each term exactly); past k = 170,
    where k! leaves float range, each term is the correctly rounded quotient."""
    terms = (math.ldexp(v, -e) * s**k for k, v in enumerate(vals))
    return math.fsum(x / math.factorial(k) if k <= 170 else round_once(x, 0, math.factorial(k))
                     for k, x in enumerate(terms))


def egf_validate(a: Sequence, t) -> float:
    """Exponential-generating-function identity for a CA fit: compare
    e^{-s} sum_{k<=K} a_k s^k / k!  against  q + d s + sum_j w_j (1 - e^{-s(1-u_j)})
    over s = 0, 0.05, ..., 1; returns the max residual (small up to the EGF
    truncation tail and the fit residual).  The sum is taken at the data's
    binade e, as the fit is, and scaled back by 2^e: exactly, or to inf past
    float range."""
    from . import moments
    vals = a.as_floats()
    e = moments._binade(vals)
    worst = 0.0
    for s in (j / 20.0 for j in range(21)):
        lhs = math.exp(-s) * _egf_sum(vals, s, e) * 2.0**e
        rhs = float(t.q) + t.d * s + nonnegative_fsum(
            w * -math.expm1(-s * (1.0 - u)) for u, w in t.measure.atoms
        )
        worst = max(worst, abs(lhs - rhs))
    return worst

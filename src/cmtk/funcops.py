"""Operator algebra on black-box function handles, limit decompositions and
lattice membership checks.

Operators on f : [0, inf) -> R, each with parameter c > 0:

    sigma_c f(x) = f(cx)              iterates: sigma_c^n = sigma_{c^n}
    tau_c   f(x) = f(x + c)           iterates: tau_c^n   = tau_{cn}
    delta_c f(x) = f(x + c) - f(x)    iterates: binomial sum
    theta_c f(x) = f(c) - f(0) + f(x) - f(x + c)
                                      iterates: (-1)^n (delta_c^n f - delta_c^n f(0))
    rho_c   f(x) = f(x) - f(cx)       (c in (0, 1); iterates by composition)

Decompositions recover the structure theorems at desk scale: a completely
monotone function splits as its value at infinity plus a limit of
-delta_{nc} images; a Bernstein-type function splits as value at zero plus
drift plus a limit of theta_{nc} images, with the drift read off far-field
first differences.
"""

from __future__ import annotations

import math
import os

from .errors import BudgetExceededError, DomainError
from .scalars import (DEFAULT_C_PAIR, EPS, Record, as_count, as_scales, nonnegative_fsum,
                      verdict_of)

DEFAULT_BUDGET = 10**6


def _budget_from_env():
    raw = os.environ.get("CMTK_MAX_EVALS")
    if not raw:
        return DEFAULT_BUDGET
    if not raw.strip().isdecimal():
        raise ValueError(f"CMTK_MAX_EVALS must be a nonnegative integer, got {raw!r}")
    return int(raw)


class FunctionHandle:
    """Deterministic callable on [0, inf) (or (0, inf) when open at zero;
    a call or sample outside raises DomainError), with an optional known
    derivative and an evaluation budget.  The budget
    covers one library call: each operation that samples the handle resets
    it once, when it starts, so check_bf_via_theta shares it among its c.
    A call charges one evaluation; ``charge(n)`` charges n at once, before
    any is made, for a caller that then maps ``fn`` over points it knows
    lie in the domain, as ``sample`` and the Webster passes do.

    ``bounded``, set on delta, theta and rho handles, maps x to the value
    and a magnitude M(x) bounding its absolute error by EPS * M(x), both
    from one evaluation of each base value; a plain call computes the value
    alone.  None claims only the table's default bound on the value v,
    max(EPS |v|, 2**-1074), twice the half ulp of a correctly rounded v: a
    triplet handle's sum of rounded atom terms exceeds half an ulp but stays
    inside it.  A handle whose error can leave it must set ``bounded``.
    """

    def __init__(self, fn, name="f", open_at_zero=False, derivative=None,
                 budget=None, base=None, bounded=None):
        self.fn = fn
        self.name = name
        self.open_at_zero = open_at_zero
        self.derivative = derivative
        self.budget = _budget_from_env() if budget is None else budget
        self.calls = 0
        self.base = base  # composed handles charge the underlying handle
        self.bounded = bounded

    def __call__(self, x):
        if x <= 0:  # the only points the domain check can refuse
            self._check_domain(x)
        self.charge(1)
        return self.fn(x)

    def charge(self, n):
        """Count n evaluations, raising before any is made if they would
        exceed the budget; the caller then evaluates ``fn`` directly."""
        self.calls += n
        if self.base is None and self.calls > self.budget:
            raise BudgetExceededError(
                f"evaluation budget {self.budget} exhausted for {self.name}"
            )

    def reset_budget(self):
        self.calls = 0
        if self.base is not None:
            self.base.reset_budget()

    def _check_domain(self, *points):
        if points and min(points) <= 0 and (self.open_at_zero or min(points) < 0):
            bound = "x > 0" if self.open_at_zero else "x >= 0"
            raise DomainError(f"{self.name} is only defined for {bound}")

    def sample(self, points):
        self._check_domain(*points)
        self.charge(len(points))
        return list(map(self.fn, points))


#: the largest iterate of delta, theta and rho whose binomial weights are
#: floats: the central C(n, n // 2) passes float range from n = 1030
MAX_BINOMIAL_ITERATE = 1029


def _finite_shift(n, c, plus=0.0) -> bool:
    """Whether the shift n c + plus, a point a handle is evaluated at, is a float."""
    try:
        return n * c + plus < math.inf
    except OverflowError:  # an int n beyond float range
        return False


def apply_operator(f: FunctionHandle, op: str, c, iterate: int = 1) -> FunctionHandle:
    """Compose f with an operator iterate; returns a new handle charging f's
    budget.  theta and rho need f(0), so they reject open-at-zero handles;
    rho additionally requires c in (0, 1).  An iterate whose binomial weights
    (delta, theta, rho) or largest shift n c (tau, delta, theta) pass float
    range is refused; so are, at a call, a point past float range, before f
    is evaluated there, and terms that pass it or whose sum does.  A theta handle
    evaluates its anchors f(ic), i = 0..iterate, once, when it is built."""
    if op not in ("sigma", "tau", "delta", "theta", "rho"):
        raise ValueError(f"unknown operator {op!r}")
    (c,) = as_scales(c)
    if isinstance(iterate, bool):  # an int to as_count, but no count
        raise ValueError(f"iterate must be an integer, not {iterate!r}")
    n = as_count(iterate, "iterate", least=0)
    if op in ("theta", "rho") and f.open_at_zero:
        raise DomainError(f"{op} needs the value at 0; handle is open at zero")
    if op == "rho" and not c < 1:
        raise ValueError("rho requires c in (0, 1)")
    if n == 0:
        return FunctionHandle(f, f"{f.name}", f.open_at_zero, base=f)
    if op in ("delta", "theta", "rho") and n > MAX_BINOMIAL_ITERATE:
        raise ValueError(f"iterate {n} of {op} has binomial weights beyond float range "
                         f"(at most {MAX_BINOMIAL_ITERATE})")
    if op in ("tau", "delta", "theta") and not _finite_shift(n, c):
        raise ValueError(f"the shift iterate * c = {n} * {c:g} is beyond float range")

    if op == "sigma":
        try:
            ceff = c**n
        except OverflowError:
            raise ValueError(f"c^iterate = {c:g}^{n} is beyond float range") from None
    else:  # a float: the shift was checked above
        ceff = c * n

    def past(x, terms=False):
        """The ValueError for a point (c^n x, or x + n c: rho's points never
        pass x), or for the terms, at x past float range."""
        if terms:
            return ValueError(f"the terms of {op} at iterate {n} and x = {x} pass float range")
        shape = (f"c^iterate * x = {c:g}^{n} * {x}" if op == "sigma"
                 else f"x + iterate * c = {x} + {n} * {c:g}")
        return ValueError(f"the point {shape} is beyond float range")

    bounded = None
    if op in ("sigma", "tau"):
        def fn(x):
            point = ceff * x if op == "sigma" else x + ceff
            if not point < math.inf:  # refused before f is evaluated there
                raise past(x)
            return f(point)
    else:
        # sum_i coef_i (f(s_i x + o_i) - anchor_i): the points are x + ic, or
        # c^i x for rho; the anchors are f(ic) for theta and 0 otherwise
        parity = n if op == "delta" else 0
        terms = [(math.comb(n, i) * (-1 if (i + parity) % 2 else 1),
                  c**i if op == "rho" else 1, 0 if op == "rho" else i * c,
                  f(i * c) if op == "theta" else 0) for i in range(n + 1)]

        def fn(x):
            if not (op == "rho" or x + ceff < math.inf):
                raise past(x)
            try:
                value = math.fsum([k * (f(s * x + o) - a) for k, s, o, a in terms])
            except (OverflowError, ValueError):  # finite terms past float range, or inf - inf
                value = math.nan
            if not abs(value) < math.inf:  # or one term past it, which fsum returns
                raise past(x, terms=True)
            return value

        def bounded(x):
            if not (op == "rho" or x + ceff < math.inf):
                raise past(x)
            kva = [(k, f(s * x + o), a) for k, s, o, a in terms]
            try:
                value = math.fsum([k * (v - a) for k, v, a in kva])
            except (OverflowError, ValueError):
                value = math.nan
            if not abs(value) < math.inf:
                raise past(x, terms=True)
            return value, 2.0 * nonnegative_fsum([abs(k) * (abs(v) + abs(a)) for k, v, a in kva])
    name = f"{op}_{c:g}^{n}({f.name})"
    # tau moves 0 into the domain; theta and rho took closed handles only
    open_at_zero = f.open_at_zero and op != "tau"
    return FunctionHandle(fn, name, open_at_zero, base=f, bounded=bounded)


def _sample(f: FunctionHandle, points):
    """f at the points, and the magnitudes M(x) bounding each value's error by
    EPS M(x): a composed handle's, from one evaluation of each base value, or
    None for a plain one, whose M(x) is |f(x)|."""
    if f.bounded is None:
        return f.sample(points), None
    f._check_domain(*points)
    pairs = [f.bounded(x) for x in points]
    return [v for v, _ in pairs], [m for _, m in pairs]


def bounded_sequence(values, mags) -> Sequence:
    """The Sequence of handle samples ``values`` with input error bounds
    EPS * mags[k]; None keeps the table's default (exact values stay exact)."""
    from .seqcore import Sequence
    return Sequence.from_values(values, value_bounds=mags and [EPS * m for m in mags])


def sampled_sequence(f: FunctionHandle, points) -> Sequence:
    """Sample a handle into a Sequence bounded as ``_sample`` measures it."""
    return bounded_sequence(*_sample(f, points))


def default_lambda_grid(include_zero: bool = True):
    """Geometric grid of 64 points on (0, 10], optionally with 0 prepended."""
    lo, hi = 1e-3, 10.0
    ratio = (hi / lo) ** (1.0 / 63)
    grid = [lo * ratio**i for i in range(64)]
    grid[-1] = hi
    return ([0.0] if include_zero else []) + grid


def _probed_cs(c, n_max, bf=False):
    """The probed c values and n_max of a limit decomposition, each checked, and
    the far point n_max c (and n_max c + c for ``bf``) it evaluates."""
    cs = as_scales(c)
    n_max = as_count(n_max, "n_max", least=1)
    far = "n_max * c + c" if bf else "n_max * c"
    for cj in cs:
        if not _finite_shift(n_max, cj, cj if bf else 0.0):
            raise ValueError(f"the shift {far} is beyond float range for n_max = {n_max} "
                             f"and c = {cj:g}")
    return cs, n_max


def _c_discrepancy(per_c):
    """Sup gap of each later c from the first: of the leading scalar
    (Psi(inf) or the drift) and of the limit samples."""
    head0, samples0 = per_c[0]
    disc = 0.0
    for head, samples in per_c[1:]:
        disc = max(disc, abs(head - head0))
        disc = max(disc, max(abs(s - s0) for (_, s), (_, s0) in zip(samples, samples0)))
    return disc


class CMDecomposition(Record):
    """Psi(lam) ~ psi_inf + (-delta_{n_max c}) Psi(lam), per probed c."""

    psi_inf: float
    limit_samples: tuple      # (lam, value) for the first c
    residual: float           # sup over grid and cs of the reconstruction gap
    c_discrepancy: float      # sup discrepancy between the probed c's
    cs: tuple
    n_max: int


def cm_limit_decompose(psi: FunctionHandle, c=DEFAULT_C_PAIR, n_max: int = 64) -> CMDecomposition:
    """Estimate Psi(inf) and the limit of (-delta_{nc}) Psi on a grid.

    Requires Psi nonnegative and nonincreasing on the grid (checked).  The
    limit function must not depend on c; the discrepancy across the probed
    c values is reported.
    """
    cs, n_max = _probed_cs(c, n_max)
    psi.reset_budget()
    lam_grid = default_lambda_grid(include_zero=not psi.open_at_zero)
    vals = psi.sample(lam_grid)
    if any(v < 0 for v in vals):
        raise DomainError("not CM-like on grid: negative value")
    if any(b > a + 1e-12 * max(abs(a), 1.0) for a, b in zip(vals, vals[1:])):
        raise DomainError("not CM-like on grid: not nonincreasing")

    per_c = []
    residual = 0.0
    for cj in cs:
        shift = n_max * cj
        inf_j = psi(shift)
        samples = [(lam, v - psi(lam + shift)) for lam, v in zip(lam_grid, vals)]
        res_j = max(
            abs(v - (inf_j + s)) for (lam, s), v in zip(samples, vals)
        )
        residual = max(residual, res_j)
        per_c.append((inf_j, samples))
    return CMDecomposition(
        per_c[0][0], tuple(per_c[0][1]), residual, _c_discrepancy(per_c), cs, n_max
    )


class BFDecomposition(Record):
    """Phi(lam) ~ q + d lam + theta_{n_max c} Phi(lam), per probed c."""

    q: float
    d: float
    theta_samples: tuple
    residual: float
    telescoping_residual: float
    c_discrepancy: float
    cs: tuple
    n_max: int


def bf_limit_decompose(phi: FunctionHandle, c=DEFAULT_C_PAIR, n_max: int = 64) -> BFDecomposition:
    """Read off q = Phi(0), the drift d as the far first difference
    (Phi((n+1)c) - Phi(nc))/c, and theta_{nc} Phi samples; verify the
    reconstruction and the telescoping identity

        theta_{mc} Phi(lam) = sum_{k<m} [theta_c Phi(lam + kc) - theta_c Phi(kc)].
    """
    if phi.open_at_zero:
        raise DomainError("decomposition needs the value at 0")
    cs, n_max = _probed_cs(c, n_max, bf=True)
    phi.reset_budget()
    lam_grid = default_lambda_grid()
    vals = phi.sample(lam_grid)
    if any(v < 0 for v in vals):
        raise DomainError("not Bernstein-like on grid: negative value")
    q = phi(0.0)

    per_c = []
    residual = 0.0
    for cj in cs:
        shift = n_max * cj
        far = phi(shift)
        d_j = (phi(shift + cj) - far) / cj
        base = far - q
        samples = [(lam, base + v - phi(lam + shift)) for lam, v in zip(lam_grid, vals)]
        res_j = max(
            abs(v - (q + d_j * lam + s)) for (lam, s), v in zip(samples, vals)
        )
        residual = max(residual, res_j)
        per_c.append((d_j, samples))

    # telescoping identity at a small iterate count m
    tele = 0.0
    m = min(5, n_max)
    for cj in cs:
        th_m = apply_operator(phi, "theta", cj * m)
        th_1 = apply_operator(phi, "theta", cj)
        at_kc = [th_1(k * cj) for k in range(m)]
        for lam in lam_grid:
            rhs = math.fsum(th_1(lam + k * cj) - at_kc[k] for k in range(m))
            tele = max(tele, abs(th_m(lam) - rhs))

    return BFDecomposition(
        q, per_c[0][0], tuple(per_c[0][1]), residual, tele, _c_discrepancy(per_c), cs, n_max
    )


class LatticeEntry(Record):
    alpha: float
    certificate: classify.Certificate
    minimality: classify.MinimalityReport | None


class LatticeReport(Record):
    entries: tuple
    overall_pass: bool
    all_minimal: bool
    partial: bool = False  # budget ran out before all alphas were checked

    @property
    def verdict(self) -> str:
        """Fail only when a certificate failed and no alpha went unchecked."""
        failed = not self.partial and any(e.certificate.failed for e in self.entries)
        return verdict_of(self.overall_pass, failed)


def lattice_check(f: FunctionHandle, kind: str, alphas, depth: int = 20,
                  tol=None) -> LatticeReport:
    """Certify (f(alpha k))_k (shifted to (k+1)alpha for open-at-zero handles)
    for each finite alpha > 0, with minimality, on depth + 6 samples.

    Parameters are checked before sampling.  Overall pass requires every
    per-alpha certificate to pass; budget exhaustion yields a partial report.
    """
    from . import classify
    depth = as_count(depth, "depth", least=0)
    count, first = depth + 5, 1 if f.open_at_zero else 0
    alphas = as_scales(alphas, "alpha")
    for alpha in alphas:
        if not _finite_shift(count + first, alpha):
            raise ValueError(f"alpha {alpha:g} puts the lattice point {count + first} * alpha "
                             "beyond float range")
    classify._check_trail(kind, depth, tol)
    entries = []
    partial = False
    f.reset_budget()
    for alpha in alphas:
        try:
            pts = [alpha * (k + first) for k in range(count + 1)]
            vals, mags = _sample(f, pts)
            mags = mags or [abs(v) for v in vals]
            # the rounding of alpha*k shifts the sample point; budget for it
            # with the local slope estimated from the neighbours
            slopes = [abs(vals[min(i + 1, count)] - vals[max(i - 1, 0)]) / (2.0 * alpha)
                      for i in range(count + 1)]
            seq = bounded_sequence(vals, [m + s * abs(x) for m, s, x in zip(mags, slopes, pts)])
            entries.append(LatticeEntry(alpha, *classify._certify_minimal(seq, kind, depth, tol)))
        except BudgetExceededError:
            partial = True
            break
    overall = all(e.certificate.passed for e in entries) and not partial
    minimal = overall and all(e.minimality and e.minimality.minimal for e in entries)
    return LatticeReport(tuple(entries), overall, minimal, partial)


class SubaffineReport(Record):
    supremum: float
    bound: float
    ok: bool | None
    arg_sup: float

    @property
    def verdict(self) -> str:
        return verdict_of(self.ok, self.ok is False)


def subaffine_check(phi: FunctionHandle, c: float, bound: float) -> SubaffineReport:
    """Real-axis surrogate of the bounded-increment condition:
    sup over the grid of |Phi(x + c) - Phi(x)| <= bound, up to the
    rounding floor of the evaluated increments.  ``ok`` is None when the
    supremum or that floor is not finite (a NaN increment makes the supremum
    NaN): an increment past float range decides no bound."""
    (c,) = as_scales(c)
    try:
        if not math.isfinite(bound := float(bound)):
            raise ValueError(f"bound must be finite, got {bound!r}")
    except OverflowError:
        raise ValueError("bound must be finite, got one past float range") from None
    phi.reset_budget()
    sup, arg, slack = -math.inf, float("nan"), 0.0
    for x in default_lambda_grid(include_zero=not phi.open_at_zero):
        hi, lo = phi(x + c), phi(x)
        inc = abs(hi - lo)
        if inc > sup or inc != inc:  # once NaN, the supremum stays NaN
            sup, arg = inc, x
        slack = max(slack, 4.0 * EPS * max(abs(hi), abs(lo)))
    ok = sup <= bound + slack if math.isfinite(sup) and math.isfinite(slack) else None
    return SubaffineReport(sup, bound, ok, arg)

"""Operator algebra, limit decompositions, lattice and sub-affinity checks."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtk import classify
from cmtk.bernstein import (
    BernsteinTriplet,
    check_bf_via_theta,
    check_selfdecomposable,
    extract_triplet,
    triplet_handle,
)
from cmtk.builtins import (
    BUILTIN_HANDLES,
    WEBSTER_BUILTINS,
    _sqrt_triplet,
    get_handle,
    get_webster_g,
    webster_identity,
)
from cmtk.errors import BudgetExceededError, DomainError
from cmtk.funcops import (
    FunctionHandle,
    apply_operator,
    bf_limit_decompose,
    cm_limit_decompose,
    default_lambda_grid,
    lattice_check,
    sampled_sequence,
    subaffine_check,
)
from cmtk.scalars import EPS, TINY
from cmtk.seqcore import Sequence
from cmtk.webster import WebsterProblem, WebsterSolution


def handle(fn, **kw):
    return FunctionHandle(fn, **kw)


class TestOperators:
    def test_sigma(self):
        f = apply_operator(handle(lambda x: x), "sigma", 2.0)
        assert f(3.0) == 6.0

    def test_theta_direct_arithmetic(self):
        g = apply_operator(handle(lambda x: x * x), "theta", 1.0)
        # f(1) - f(0) + f(2) - f(3) = 1 + 4 - 9 = -4
        assert g(2.0) == -4.0

    def test_delta_squared_exponential(self):
        # expand (delta_1)^2 e^-x = e^-x (1 - e^-1)^2, derived by the
        # binomial sum f(x+2) - 2 f(x+1) + f(x)
        f = apply_operator(handle(lambda x: math.exp(-x)), "delta", 1.0, iterate=2)
        for x in (0.0, 0.7, 2.5):
            expected = math.exp(-x) * (1.0 - math.exp(-1.0)) ** 2
            assert f(x) == pytest.approx(expected, rel=1e-12)

    def test_theta_null_at_zero(self):
        for fn in (lambda x: x, lambda x: -math.expm1(-x), lambda x: x * x):
            g = apply_operator(handle(fn), "theta", 0.7)
            assert g(0.0) == 0.0

    def test_rho_null_at_zero(self):
        g = apply_operator(handle(lambda x: math.log1p(x)), "rho", 0.5)
        assert g(0.0) == 0.0

    def test_rho_requires_c_below_one(self):
        with pytest.raises(ValueError):
            apply_operator(handle(lambda x: x), "rho", 1.5)

    def test_fraction_c(self):
        f = get_handle("one-minus-exp")
        g = apply_operator(f, "theta", Fraction(1, 2))
        assert g.name == "theta_0.5^1(one-minus-exp)"
        assert g(1.0) == apply_operator(f, "theta", 0.5)(1.0)
        assert bf_limit_decompose(f, (Fraction(1, 2),), 8).cs == (Fraction(1, 2),)

    def test_theta_rejects_open_at_zero(self):
        f = handle(lambda x: 1.0 / x, open_at_zero=True)
        with pytest.raises(DomainError):
            apply_operator(f, "theta", 1.0)

    def test_delta_is_tau_minus_identity(self):
        f = handle(lambda x: math.sqrt(x + 1.0))
        d = apply_operator(f, "delta", 0.8)
        t = apply_operator(f, "tau", 0.8)
        for x in default_lambda_grid():
            assert d(x) == pytest.approx(t(x) - f(x), abs=1e-15)

    def test_iterate_laws(self):
        random.seed(1)
        f = handle(lambda x: math.exp(-0.3 * x) + 0.1 * x)
        grid = [random.uniform(0.0, 5.0) for _ in range(20)]
        for c in (0.6, 1.3):
            for n in (2, 3):
                sig_n = apply_operator(f, "sigma", c, iterate=n)
                sig_cn = apply_operator(f, "sigma", c**n)
                tau_n = apply_operator(f, "tau", c, iterate=n)
                tau_cn = apply_operator(f, "tau", c * n)
                for x in grid:
                    assert sig_n(x) == pytest.approx(sig_cn(x), abs=1e-12)
                    assert tau_n(x) == pytest.approx(tau_cn(x), abs=1e-12)

    def test_theta_iterate_identity(self):
        # theta_c^n f = (-1)^n (delta_c^n f - delta_c^n f(0))
        f = handle(lambda x: math.log1p(x))
        for n in (1, 2, 3):
            th = apply_operator(f, "theta", 0.9, iterate=n)
            dl = apply_operator(f, "delta", 0.9, iterate=n)
            sign = (-1.0) ** n
            for x in (0.0, 0.4, 2.2, 7.0):
                assert th(x) == pytest.approx(sign * (dl(x) - dl(0.0)), abs=1e-12)

    def test_budget_enforced(self):
        f = handle(lambda x: x, budget=5)
        with pytest.raises(BudgetExceededError):
            for _ in range(10):
                f(1.0)

    def test_charge_raises_before_any_evaluation(self):
        f = handle(lambda x: x, budget=5)
        cell = counting(f)
        f.charge(3)
        with pytest.raises(BudgetExceededError, match="evaluation budget 5 exhausted"):
            f.sample([1.0, 2.0, 3.0])
        assert cell[0] == 0
        f.reset_budget()
        assert f.sample([1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0] and cell[0] == 3

    def test_sample_checks_the_domain_before_any_evaluation(self):
        f = handle(lambda x: 1.0 / x, open_at_zero=True)
        cell = counting(f)
        with pytest.raises(DomainError):
            f.sample([1.0, 2.0, 0.0])
        assert cell[0] == 0 and f.calls == 0

    def test_budget_env_cap(self, monkeypatch):
        monkeypatch.setenv("CMTK_MAX_EVALS", "7")
        f = handle(lambda x: x)
        assert f.budget == 7

    @pytest.mark.parametrize("get, name", [
        *(pytest.param(get_handle, name, id=name) for name in BUILTIN_HANDLES),
        *(pytest.param(get_webster_g, name, id=f"webster-{name}")
          for name in (*WEBSTER_BUILTINS, "constant:1/2")),
    ])
    def test_builtin_budget_from_env(self, monkeypatch, get, name):
        """Builtins take no budget argument: CMTK_MAX_EVALS caps each one."""
        monkeypatch.setenv("CMTK_MAX_EVALS", "3")
        f = get(name)
        assert f.budget == 3
        for _ in range(3):
            f(1.0)
        with pytest.raises(BudgetExceededError):
            f(1.0)

    @pytest.mark.parametrize("raw", ["abc", "-5", "2.5"])
    def test_budget_env_must_be_a_nonnegative_integer(self, monkeypatch, raw):
        monkeypatch.setenv("CMTK_MAX_EVALS", raw)
        with pytest.raises(ValueError, match="CMTK_MAX_EVALS"):
            handle(lambda x: x)


def counting(f):
    """Wrap the callable of handle ``f``; returns a one-item list holding the
    number of base evaluations (``f.calls`` is zeroed by ``reset_budget``)."""
    fn, cell = f.fn, [0]

    def counted(x):
        cell[0] += 1
        return fn(x)

    f.fn = counted
    return cell


class TestEvaluationCounts:
    """Each base value an operation needs is evaluated once."""

    @pytest.mark.parametrize("make, run, want", [
        pytest.param(lambda: get_handle("one-minus-exp"),
                     lambda f: bf_limit_decompose(f, n_max=50), 1788, id="bf-limit-decompose"),
        pytest.param(webster_identity,
                     lambda g: WebsterSolution(WebsterProblem(g, 1000))._prepare(), 1096,
                     id="webster-prepare"),
        # one series-shaped op: prepare 1096, a new base point 1001, x1 + 1
        # its cached base plus g(x1), x = 1 the base point 1, whose shifted
        # points are read off the log table, so g(N + 1) and g(1), and x2 + 2
        # its base plus g(x2) and g(x2 + 1)
        pytest.param(webster_identity,
                     lambda g: list(map(WebsterSolution(WebsterProblem(g, 1000)).result,
                                        (0.375, 1.375, 1.0, 2.6875))), 3103,
                     id="webster-series-op"),
        pytest.param(lambda: get_handle("bf-ratio"), check_bf_via_theta, 80, id="bf-via-theta"),
        pytest.param(lambda: get_handle("log1p"), check_selfdecomposable, 120,
                     id="selfdecomposable"),
        # 2 anchors, 31 samples and 2 far-field values, 2 base values each
        pytest.param(lambda: triplet_handle(BernsteinTriplet(1.5, 0.75, ((0.5, 1), (2, 0.5)))),
                     lambda f: extract_triplet(apply_operator(f, "theta", 1), tol=1e-5), 68,
                     id="extract-triplet-theta"),
    ])
    def test_base_evaluations(self, make, run, want):
        f = make()
        cell = counting(f)
        run(f)
        assert cell[0] == want

    @pytest.mark.parametrize("op, n", [("theta", 1), ("theta", 3), ("delta", 2), ("rho", 2)])
    def test_sampled_value_and_bound_share_evaluations(self, op, n):
        f = get_handle("one-minus-exp")
        g = apply_operator(f, op, 0.5, n)
        cell = counting(f)
        seq = sampled_sequence(g, [float(k) for k in range(31)])
        assert seq.value_bounds is not None
        assert cell[0] == 31 * (n + 1)

    def test_theta_call_reuses_its_anchors(self):
        f = get_handle("square")
        cell = counting(f)
        theta = apply_operator(f, "theta", 1, 3)
        assert cell[0] == 4  # the anchors f(0), f(1), f(2), f(3)
        assert theta(0.5) == 0.0  # a third difference of a quadratic
        assert cell[0] == 8


def reference_operator(fn, op, c, n):
    """Value and error magnitude M(x) of op_c^n fn, each operator's
    binomial sum written out on its own."""
    if op == "delta":
        coef = [math.comb(n, i) * (-1 if (n - i) % 2 else 1) for i in range(n + 1)]
        value = lambda x: math.fsum(coef[i] * fn(x + i * c) for i in range(n + 1))
        noise = lambda x: 2.0 * math.fsum(abs(coef[i] * fn(x + i * c)) for i in range(n + 1))
    elif op == "theta":
        coef = [math.comb(n, i) * (-1 if i % 2 else 1) for i in range(n + 1)]
        anchors = [fn(i * c) for i in range(n + 1)]
        value = lambda x: math.fsum(
            coef[i] * (fn(x + i * c) - anchors[i]) for i in range(n + 1))
        noise = lambda x: 2.0 * math.fsum(
            abs(coef[i]) * (abs(fn(x + i * c)) + abs(anchors[i])) for i in range(n + 1))
    else:
        coef = [math.comb(n, i) * (-1 if i % 2 else 1) for i in range(n + 1)]
        value = lambda x: math.fsum(coef[i] * fn(c**i * x) for i in range(n + 1))
        noise = lambda x: 2.0 * math.fsum(abs(coef[i] * fn(c**i * x)) for i in range(n + 1))
    return value, noise


def reference_lattice_bounds(vals, pts, alpha):
    """EPS (|f(x)| + slope |x|), the slope from the neighbouring samples."""
    bounds = []
    for i, x in enumerate(pts):
        lo, hi = vals[max(0, i - 1)], vals[min(len(vals) - 1, i + 1)]
        slope = abs(hi - lo) / (2.0 * alpha)
        bounds.append(EPS * (abs(vals[i]) + slope * abs(x)))
    return bounds


class TestOperatorReference:
    """Operator values and sampled bounds, bit for bit against the
    per-operator formulas."""

    XS = [0.0, 0.25, 1.0, 2.7, 9.5, 31.0]

    @pytest.mark.parametrize("op, c", [
        *((op, c) for op in ("delta", "theta") for c in (0.3, 0.5, 1.0, 1.7)),
        *(("rho", c) for c in (0.3, 0.5, 0.9)),
    ])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_values_and_sampled_bounds(self, op, c, n):
        for name in ("one-minus-exp", "log1p", "exp-decay", "bf-ratio"):
            f = get_handle(name)
            value, noise = reference_operator(f.fn, op, c, n)
            g = apply_operator(f, op, c, n)
            seq = sampled_sequence(g, self.XS)
            want = [value(x).hex() for x in self.XS]
            assert [g(x).hex() for x in self.XS] == want, name
            assert [v.hex() for v in seq.values] == want, name
            assert [b.hex() for b in seq.value_bounds] == [
                (EPS * noise(x)).hex() for x in self.XS], name

    @pytest.mark.parametrize("name", ["exp-decay", "reciprocal", "sqrt", "log1p", "bf-ratio"])
    def test_plain_lattice_bounds(self, monkeypatch, name):
        seen, certify_minimal = [], classify._certify_minimal
        monkeypatch.setattr(classify, "_certify_minimal",
                            lambda seq, *args: seen.append(seq) or certify_minimal(seq, *args))
        f = get_handle(name)
        alphas = [1.0, 0.5, 0.37]
        lattice_check(f, "cm", alphas, depth=14)
        assert len(seen) == len(alphas)
        for alpha, seq in zip(alphas, seen):
            pts = [alpha * k for k in range(20)]
            vals = [f.fn(x) for x in pts]
            assert [v.hex() for v in seq.values] == [v.hex() for v in vals]
            assert [b.hex() for b in seq.value_bounds] == [
                b.hex() for b in reference_lattice_bounds(vals, pts, alpha)]


class TestCMDecompose:
    def test_exponential(self):
        f = handle(lambda x: math.exp(-x))
        grid = [0.1 * i for i in range(51)]
        rep = cm_limit_decompose(f, c=1.0, n_max=40, lam_grid=grid)
        assert rep.psi_inf <= 1e-17
        assert rep.residual <= 1e-15

    def test_additive_constant(self):
        f = handle(lambda x: 0.3 + math.exp(-x))
        rep = cm_limit_decompose(f, c=1.0, n_max=50)
        assert rep.psi_inf == pytest.approx(0.3, abs=1e-15)

    def test_c_independence_slow_tail(self):
        # n_max is an argument, not a loop count: the far tail of 1/(1+x)
        # at n_max c ~ 1e12 brings the two probed c's within 1e-12
        f = handle(lambda x: 1.0 / (1.0 + x))
        rep = cm_limit_decompose(f, c=(1.0, 0.7), n_max=2 * 10**12)
        assert rep.c_discrepancy <= 1e-12
        assert rep.psi_inf <= 1e-12

    def test_monotonicity_guard(self):
        f = handle(lambda x: abs(math.sin(x)))
        with pytest.raises(DomainError, match="not CM-like"):
            cm_limit_decompose(f, c=1.0, n_max=10)

    def test_residual_decreases_with_n(self):
        f = handle(lambda x: 1.0 / (1.0 + x), budget=10**7)
        residuals = [
            cm_limit_decompose(f, c=1.0, n_max=n).residual
            for n in (10, 100, 1000)
        ]
        assert residuals[0] > residuals[1] > residuals[2]


class TestBFDecompose:
    def test_triplet_readoff(self):
        f = handle(lambda x: 2.0 + 3.0 * x - math.expm1(-x))
        grid = [0.1 * i for i in range(51)]
        rep = bf_limit_decompose(f, c=1.0, n_max=50, lam_grid=grid)
        assert rep.q == 2.0
        assert rep.d == pytest.approx(3.0, abs=1e-12)
        for lam, s in rep.theta_samples:
            assert s == pytest.approx(-math.expm1(-lam), abs=1e-12)

    def test_pure_drift(self):
        rep = bf_limit_decompose(handle(lambda x: x), c=1.0, n_max=50)
        assert rep.q == 0.0
        assert rep.d == pytest.approx(1.0, rel=1e-13)
        assert all(abs(s) <= 1e-12 for _, s in rep.theta_samples)

    def test_telescoping_identity(self):
        f = handle(lambda x: -math.expm1(-x))
        rep = bf_limit_decompose(f, c=1.0, n_max=50)
        assert rep.telescoping_residual <= 1e-13

    def test_residual_decreases_with_n(self):
        f = handle(lambda x: 1.0 + 0.5 * x - math.expm1(-0.4 * x))
        residuals = [
            bf_limit_decompose(f, c=1.0, n_max=n).residual for n in (4, 8, 16, 32)
        ]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_drift_matches_cesaro_limit(self):
        # Phi(n)/n -> d for Bernstein-type handles
        f = handle(lambda x: 0.5 + 1.25 * x + 2.0 * -math.expm1(-0.7 * x))
        n = 10**4
        rep = bf_limit_decompose(f, c=1.0, n_max=n)
        cesaro = f(float(n)) / n
        assert rep.d == pytest.approx(1.25, abs=1e-9)
        assert abs(cesaro - rep.d) <= 10.0 / n


class TestLattice:
    def test_exp_decay_all_lattices(self):
        # depth 18 keeps all three lattices conclusive in float: the noise
        # amplification per row is (1+u)/(1-u), worst for small alpha
        f = handle(lambda x: math.exp(-x))
        rep = lattice_check(f, "cm", [1.0, 0.5, 1.0 / 3.0], depth=18, tol=1e-3)
        assert rep.overall_pass
        assert rep.all_minimal

    def test_bounded_bf_lattices(self):
        f = handle(lambda x: -math.expm1(-x))
        rep = lattice_check(f, "ca", [1.0, 0.5], depth=18, tol=1e-3)
        assert rep.overall_pass
        assert rep.all_minimal

    def test_sin_counterexample_needs_fine_lattice(self):
        from cmtk.builtins import abs_sin_pi_handle

        rep = lattice_check(abs_sin_pi_handle(), "cm", [1.0, 0.5], depth=10)
        by_alpha = {e.alpha: e for e in rep.entries}
        assert by_alpha[1.0].certificate.passed          # samples are all zero
        assert by_alpha[0.5].certificate.failed          # 0,1,0,1 alternation
        assert by_alpha[0.5].certificate.witness[:2] == (1, 0)
        assert not rep.overall_pass

    def test_open_at_zero_uses_shifted_lattice(self):
        f = handle(lambda x: 1.0 / x, open_at_zero=True)
        rep = lattice_check(f, "cm", [0.5], depth=12)
        assert rep.entries[0].certificate.passed

    def test_budget_partial_report(self):
        f = handle(lambda x: math.exp(-x), budget=30)
        rep = lattice_check(f, "cm", [1.0, 0.5], depth=40)
        assert rep.partial
        assert not rep.overall_pass

    def test_exact_samples_stay_exact(self):
        f = handle(lambda x: Fraction(1) / (1 + Fraction(x)))
        rep = lattice_check(f, "cm", [0.5], depth=12)
        cert = rep.entries[0].certificate
        assert (cert.mode, cert.verdict, cert.undecidable) == ("exact", "pass", 0)

    def test_composed_handle_bounds_carry_cancellation(self):
        # theta_1 Phi for Phi(x) = x + 1 - e^-x is a bounded Bernstein
        # function; at x ~ 1e3 its samples cancel values of size 1e3
        phi = handle(lambda x: x + 1.0 - math.exp(-x))
        theta = apply_operator(phi, "theta", 1.0)
        far = lattice_check(theta, "ca", [1e3], depth=20)
        assert not far.entries[0].certificate.failed
        assert lattice_check(theta, "ca", [1.0], depth=20).overall_pass

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_alpha_not_positive_and_finite(self, alpha):
        f = handle(lambda x: math.exp(-x))
        with pytest.raises(ValueError, match="alpha"):
            lattice_check(f, "cm", [1.0, alpha], depth=10)
        assert f.calls == 0  # checked before any sampling


class TestLatticeSoundnessOracle:
    """lattice_check runs in float, on the points float(alpha) * k.  The
    rational-valued builtins sampled exactly at Fraction(alpha) * k (shifted
    to k + 1 for a handle open at zero, as lattice_check shifts it) give the
    exact verdict on the same lattice: a float pass or fail must be it."""

    @given(st.sampled_from(["reciprocal", "bf-ratio", "linear", "square"]),
           st.sampled_from([classify.CM, classify.CA]),
           st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=1000),
           st.integers(min_value=2, max_value=24))
    @settings(max_examples=200, deadline=None)
    def test_float_verdict_never_contradicts_exact(self, name, kind, alpha, depth):
        f = get_handle(name)
        first = 1 if f.open_at_zero else 0
        exact = Sequence.from_values([f.fn(alpha * (k + first)) for k in range(depth + 6)])
        assert exact.mode == "exact"
        want = classify.certify(exact, kind, depth).verdict
        got = lattice_check(f, kind, [alpha], depth).entries[0].certificate.verdict
        if got != classify.INCONCLUSIVE:
            assert got == want


class TestSubaffine:
    def test_linear(self):
        rep = subaffine_check(handle(lambda x: x), 1.0, 1.0)
        assert rep.ok
        assert rep.supremum == pytest.approx(1.0)

    def test_sqrt_supremum_at_zero(self):
        rep = subaffine_check(handle(lambda x: math.sqrt(x)), 1.0, 1.0)
        assert rep.ok
        assert rep.supremum == pytest.approx(1.0)
        assert rep.arg_sup == 0.0

    def test_square_fails(self):
        # the default grid ends at 10, where (x + 1)^2 - x^2 = 21
        rep = subaffine_check(handle(lambda x: x * x), 1.0, 10.0)
        assert not rep.ok
        assert rep.supremum == pytest.approx(21.0)


def _decimal_triplet(t, lam):
    """Phi(lam) of a triplet to 50 digits, its float q, d and atoms taken
    as the exact binary numbers they are."""
    lam = Decimal(lam)
    return Decimal(t.q) + Decimal(t.d) * lam + sum(
        Decimal(w) * (1 - (-lam * Decimal(x)).exp()) for x, w in t.levy)


class TestPlainHandleError:
    """A handle without ``bounded`` claims the table's default bound on each
    value v, max(EPS |v|, 2**-1074); a 50-digit ``decimal`` oracle checks
    the claim on lattice points alpha k, k <= 30.  The sum of rounded atom
    terms of sqrt-triplet goes past half an ulp (0.72 EPS |v| here), so the
    claim is this bound, not correct rounding."""

    ALPHAS = (1.0, 0.5, 1.0 / 3.0, 2.0**-0.5)
    ORACLES = {
        "exp-decay": lambda x: (-x).exp(),
        "sqrt": lambda x: x.sqrt(),
        "log1p": lambda x: (1 + x).ln(),
        "one-minus-exp": lambda x: 1 - (-x).exp(),
        "reciprocal": lambda x: 1 / (1 + x),
        "bf-ratio": lambda x: x / (1 + x),
        "square": lambda x: x * x,
        "sqrt-triplet": lambda x: _decimal_triplet(_sqrt_triplet(), x),
    }

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_error_within_default_bound(self, name):
        f, oracle = get_handle(name), self.ORACLES[name]
        with localcontext() as ctx:
            ctx.prec = 50
            for x in (alpha * k for alpha in self.ALPHAS for k in range(31)):
                v = float(f(x))
                err = abs(Decimal(v) - oracle(Decimal(x)))
                assert err <= Decimal(max(EPS * abs(v), TINY)), (x, v)

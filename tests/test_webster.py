"""Webster product solver.

The g(x) = x instance is the gamma function: the oracle is an independent
Lanczos evaluation (math.gamma), never the product itself.  Constant g and
g = (x+1)/x have closed-form solutions that pin the plumbing exactly.
"""

import math
import tracemalloc

import numpy
import pytest

from cmtk._extrapolate import richardson_derivative
from cmtk.builtins import get_webster_g, webster_constant
from cmtk.errors import BudgetExceededError, DomainError
from cmtk.funcops import FunctionHandle
from cmtk.webster import (
    _SPAN,
    WebsterProblem,
    WebsterSolution,
    solve_webster,
    verify_functional_equation,
)


def gamma_problem(n_terms, accel="aitken"):
    return WebsterProblem(get_webster_g("identity"), n_terms=n_terms, acceleration=accel)


class TestGammaInstance:
    def test_half_integer_value(self):
        res = solve_webster(gamma_problem(10**5), 0.5)
        assert abs(res.value - math.sqrt(math.pi)) <= 1e-5

    def test_truncation_monotonicity(self):
        errors = [
            abs(solve_webster(gamma_problem(n), 0.5).value - math.sqrt(math.pi))
            for n in (10**3, 10**4, 10**5)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[1] <= 1e-4
        assert errors[2] <= 1e-5

    def test_gamma_constant_estimate(self):
        # gamma_g for g(x)=x is the Euler-Mascheroni constant
        sol = WebsterSolution(gamma_problem(10**4))
        sol.result(0.5)
        assert sol.gamma == pytest.approx(0.5772156649015329, abs=1e-8)
        # the raw partial lags by ~1/(2N)
        assert sol.gamma_raw == pytest.approx(0.5772156649015329, abs=1e-4)

    def test_matches_lanczos_on_grid(self):
        sol = WebsterSolution(gamma_problem(10**4))
        for x in (0.3, 1.0, 1.7, 3.2, 4.9):
            assert sol(x) == pytest.approx(math.gamma(x), rel=1e-4)

    def test_functional_equation_residual(self):
        sol = WebsterSolution(gamma_problem(10**5))
        g = get_webster_g("identity")
        grid = [0.1 + 0.2 * i for i in range(25)]
        assert verify_functional_equation(sol, g, grid) <= 1e-6

    def test_log_convexity(self):
        sol = WebsterSolution(gamma_problem(10**4))
        xs = [0.2 * i for i in range(1, 30)]
        for a, b in zip(xs, xs[2:]):
            mid = 0.5 * (a + b)
            lhs = math.log(sol(mid))
            rhs = 0.5 * (math.log(sol(a)) + math.log(sol(b)))
            assert lhs <= rhs + 1e-8

    def test_uniqueness_surrogate(self):
        # solutions from N and 2N agree within twice the tail estimate
        r1 = solve_webster(gamma_problem(2000), 0.5)
        r2 = solve_webster(gamma_problem(4000), 0.5)
        assert abs(r1.value - r2.value) <= 2.0 * r1.tail_estimate

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            solve_webster(gamma_problem(100), 0.0)


class TestClosedForms:
    def test_constant_g_is_exponential(self):
        c = 0.8
        problem = WebsterProblem(webster_constant(c), n_terms=500)
        sol = WebsterSolution(problem)
        for x in (0.25, 1.0, 2.5, 6.0):
            assert sol(x) == pytest.approx(math.exp(c * (x - 1.0)), rel=1e-12)

    def test_trivial_g_gives_one(self):
        problem = WebsterProblem(webster_constant(0.0), n_terms=200)
        sol = WebsterSolution(problem)
        for x in (0.1, 1.0, 3.7):
            assert sol(x) == pytest.approx(1.0, abs=1e-13)

    def test_exp_neg_cm_closed_form(self):
        # g = exp(-e^{-x}): Psi(x) = e^{-x}/(1 - e^{-1}) solves
        # Psi(x) - Psi(x+1) = e^{-x}, so f = exp(Psi(x) - Psi(1))
        problem = WebsterProblem(
            get_webster_g("exp-neg-cm"), n_terms=2000, g_limit_one=True
        )
        sol = WebsterSolution(problem)
        scale = 1.0 - math.exp(-1.0)
        for x in (0.3, 1.0, 2.4, 5.5):
            expected = math.exp((math.exp(-x) - math.exp(-1.0)) / scale)
            assert sol(x) == pytest.approx(expected, rel=1e-9)

    def test_shifted_ratio(self):
        # f(x) = x solves f(x+1) = ((x+1)/x) f(x), f(1) = 1
        g = FunctionHandle(lambda x: (x + 1.0) / x, "ratio", open_at_zero=True)
        assert verify_functional_equation(lambda x: x, g, [0.5, 1.0, 2.5]) == 0.0

    def test_power_of_two(self):
        g = webster_constant(math.log(2.0))
        assert (
            verify_functional_equation(
                lambda x: 2.0 ** (x - 1.0), g, [0.3, 1.1, 4.0]
            )
            <= 1e-15
        )


class TestHypothesisChecks:
    def test_log_concavity_warning(self):
        # log(1 + x^2) is convex near zero, so the midpoint spot-check trips
        g = FunctionHandle(lambda x: 1.0 + x * x, "logconvex")
        problem = WebsterProblem(g, n_terms=50)
        res = solve_webster(problem, 0.5)
        assert not res.log_concave_ok
        assert any("log-concavity" in w for w in res.warnings)

    def test_positivity_required(self):
        g = FunctionHandle(lambda x: x - 10.0, "signed")
        with pytest.raises(DomainError):
            solve_webster(WebsterProblem(g, n_terms=50), 0.5)


class TestProblemChecks:
    def test_unknown_acceleration_rejected(self):
        # a misspelt mode once fell through to the raw gamma, 0.57772
        with pytest.raises(ValueError, match="acceleration must be 'aitken' or 'none', got 'aitkin'"):
            WebsterProblem(get_webster_g("identity"), 1000, "aitkin")

    @pytest.mark.parametrize("n_terms", [1e3, "1000", None, True])
    def test_non_integer_truncation_rejected(self, n_terms):
        with pytest.raises(ValueError, match="n_terms must be an integer"):
            WebsterProblem(get_webster_g("identity"), n_terms)

    def test_numpy_integer_truncation_accepted(self):
        # an integer as the depth of a table is; it was refused
        problem = WebsterProblem(get_webster_g("identity"), numpy.int64(50))
        assert type(problem.n_terms) is int
        assert solve_webster(problem, 2.5) == solve_webster(gamma_problem(50), 2.5)

    def test_non_bool_limit_flag_rejected(self):
        # a truthy "no" once chose the lim g = 1 product for g(x) = x
        with pytest.raises(ValueError, match="g_limit_one must be a bool, got 'no'"):
            WebsterProblem(get_webster_g("identity"), 10, g_limit_one="no")


def reference_result(g, n_terms, x, acceleration="aitken", g_limit_one=False):
    """(value, tail_estimate, gamma, gamma_raw) as the product was first
    written: every term listed, then fsum([log g(n) - log g(n + b)]), with
    its head, the gamma partials and the Aitken step."""
    fn, N = g.fn, n_terms
    derivative = g.derivative or (
        lambda t: richardson_derivative(g, t, max(1e-6, 1e-8 * t))[0])
    log_g = {n: math.log(fn(n)) for n in range(1, N + 1)}
    gamma = gamma_raw = None
    if not g_limit_one:
        checkpoints = sorted({max(1, N // 4), max(1, N // 2), N})
        partials, run = {}, 0.0
        for n in range(1, N + 1):
            a_n = float(derivative(n) / fn(n))
            run += a_n
            if n in checkpoints:
                partials[n] = run - log_g[n]
        gamma = gamma_raw = partials[N]
        if acceleration == "aitken" and len(partials) == 3:
            s0, s1, s2 = (partials[c] for c in checkpoints)
            den = (s2 - s1) - (s1 - s0)
            gamma = s2 - (s2 - s1) ** 2 / den if den != 0.0 else s2
    m = max(0, math.ceil(x) - 1)
    b = x - m
    terms = [log_g[n] - math.log(fn(n + b)) for n in range(1, N + 1)]
    last = terms[-1]
    if g_limit_one:
        head = -math.log(fn(b))
    else:
        head = -gamma * b - math.log(fn(b)) + run * b
        last += a_n * b
    value = math.exp(head + math.fsum(terms))
    for j in range(m):
        value *= fn(b + j)
    return value, N * abs(last) * abs(value), gamma, gamma_raw


class TestBitIdentity:
    """The streamed product gives the very bits of the listed product."""

    HANDLES = {
        "identity": (lambda: get_webster_g("identity"), False),
        "constant": (lambda: webster_constant(0.8), False),
        "exp-neg-cm": (lambda: get_webster_g("exp-neg-cm"), True),
        "no-derivative": (lambda: FunctionHandle(math.sqrt, "sqrt", True), False),
        "no-derivative-limit-one": (
            lambda: FunctionHandle(lambda x: x / (1.0 + x), "ratio", True), True),
    }
    # dyadics, integers, and x + 1 of a base point already cached
    XS = (0.375, 1.0, 1.375, 2.0, 0.8125, 3.0, 2.8125, 0.5)

    @pytest.mark.parametrize("name", HANDLES)
    # _SPAN +- 1 straddle a prepare span edge, and at 4 _SPAN the checkpoint
    # N // 4 is one; 1023-1025 and 4096 put checkpoints at and beside 2**8
    # to 2**10
    @pytest.mark.parametrize("n_terms", [1, 7, _SPAN - 1, _SPAN, _SPAN + 1, 4 * _SPAN,
                                         1000, 1023, 1024, 1025, 4096])
    @pytest.mark.parametrize("acceleration", ["aitken", "none"])
    def test_matches_the_listed_product(self, name, n_terms, acceleration):
        make, limit_one = self.HANDLES[name]
        sol = WebsterSolution(WebsterProblem(make(), n_terms, acceleration, limit_one))
        for x in self.XS:
            res = sol.result(x)
            want = reference_result(make(), n_terms, x, acceleration, limit_one)
            assert (res.value, res.tail_estimate, res.gamma, res.gamma_raw) == want, x


class TestEvaluationPoints:
    @staticmethod
    def recorded(make):
        g, seen = make(), []
        fn = g.fn

        def recording(x):
            seen.append(x)
            return fn(x)
        g.fn = recording
        return g, seen

    @pytest.mark.parametrize("name", TestBitIdentity.HANDLES)
    def test_g_is_called_at_floats(self, name):
        # prepare calls g at float(n), the points the base passes use, which
        # is what lets the integer pass read g(n + 1) off the log table
        make, limit_one = TestBitIdentity.HANDLES[name]
        g, seen = self.recorded(make)
        sol = WebsterSolution(WebsterProblem(g, 1500, g_limit_one=limit_one))
        for x in TestBitIdentity.XS:
            sol.result(x)
        assert len(seen) > 3 * 1500
        assert {type(x) for x in seen} == {float}

    def test_integer_x_reads_the_table(self):
        # base point 1 calls g at N + 1 and at 1; the recursion to 3 at 1 and 2
        g, seen = self.recorded(lambda: get_webster_g("identity"))
        sol = WebsterSolution(WebsterProblem(g, 1000))
        sol._prepare()
        seen.clear()
        assert sol.result(3.0).value == reference_result(get_webster_g("identity"), 1000, 3.0)[0]
        assert seen == [1001.0, 1.0, 1.0, 2.0]
        assert g.calls == 4


class TestPastFloatRange:
    def test_base_value_past_float_range_is_inf(self):
        # Gamma(5e-324) ~ 2e323: exp of its log was an OverflowError, where
        # the product beyond the base interval already reads inf
        sol = WebsterSolution(gamma_problem(1000))
        assert sol.result(5e-324).value == math.inf
        assert sol.result(200.0).value == math.inf

    @pytest.mark.parametrize("x", [2.0**53, 2.0**53 + 2, 1e16])
    def test_huge_x_is_inf(self, x):
        # past 2**53, x - (ceil(x) - 1) rounds to 2.0, or to 0.0, which read
        # as a domain error; the base point is 1.0 for every integer x
        assert solve_webster(gamma_problem(1000), x).value == math.inf

    def test_recursion_stops_at_inf(self):
        # past x ~ 172 the product is inf, and the recursion to 1e15 once
        # made the budget's 10**6 calls
        sol = WebsterSolution(gamma_problem(1000))
        sol.result(1.0)  # prepares and caches the base point 1.0
        sol.problem.g.reset_budget()
        assert sol.result(1e15).value == math.inf
        assert sol.problem.g.calls < 400


    @pytest.mark.parametrize("x, shown", [(math.inf, "inf"), (math.nan, "nan"), (10**400, "inf")],
                             ids=["inf", "nan", "int-past-float-range"])
    def test_non_finite_x_is_refused(self, x, shown):
        # inf was an OverflowError from math.ceil, nan "cannot convert float
        # NaN to integer", and an int past float range an OverflowError
        sol = WebsterSolution(gamma_problem(1000))
        with pytest.raises(ValueError, match=f"^x must be finite, got {shown}$") as exc:
            sol.result(x)
        assert not isinstance(exc.value, DomainError)
        assert sol.problem.g.calls == 0
        with pytest.raises(DomainError, match="^x must be positive$"):
            sol.result(-math.inf)


class TestBudget:
    """Prepare charges its whole pass, 1 + 4 evaluations per n when g' is
    estimated, before it makes any evaluation."""

    @staticmethod
    def counted_sqrt():
        calls = [0]

        def fn(x):
            calls[0] += 1
            return math.sqrt(x)
        return FunctionHandle(fn, "sqrt", True, budget=10**6), calls

    def test_over_budget_raises_before_the_pass(self):
        # 96 + 5 * 2e5 > 1e6: only the concavity grid's 96 evaluations run
        g, calls = self.counted_sqrt()
        with pytest.raises(BudgetExceededError, match="evaluation budget 1000000 exhausted for sqrt"):
            solve_webster(WebsterProblem(g, n_terms=200_000), 0.5)
        assert calls[0] == 96

    def test_estimated_derivative_evaluations(self):
        g, calls = self.counted_sqrt()
        WebsterSolution(WebsterProblem(g, n_terms=1000))._prepare()
        assert calls[0] == g.calls == 96 + 5 * 1000


class TestMemory:
    def test_base_pass_holds_no_term_list(self):
        # the listed product held N floats beside the log table, ~3 MB at 1e5
        sol = WebsterSolution(gamma_problem(10**5))
        sol.result(1.0)  # prepare, outside the traced region
        tracemalloc.start()
        try:
            sol.result(0.375)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6

    def test_prepare_holds_only_the_log_table(self):
        # log g(n), n <= 1e5, is 3.2 MB of floats; N-length lists of g(n)
        # and a_n beside it would triple that
        sol = WebsterSolution(gamma_problem(10**5))
        tracemalloc.start()
        try:
            sol._prepare()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6e6

"""The iterative functional equation f(x+1) = g(x) f(x), f(1) = 1, for
log-concave g, solved by the infinite-product representation

    f(x) = e^{-gamma_g x} / g(x) * prod_{n>=1} [g(n) / g(n+x)] e^{a_n x},

with a_n = g'(n)/g(n) and gamma_g = lim (sum_{j<=n} a_j - log g(n)).
When lim g = 1 is declared the product simplifies to
f(x) = (1/g(x)) prod g(n)/g(n+x) and no gamma is needed.

With g(x) = x this is the Weierstrass product for the gamma function;
truncation at N terms carries an O(x^2 / 2N)-scale error on the base
interval.  Values for x > 1 are obtained from the base interval through
the recursion itself, so the functional equation holds to rounding.

Preparation tabulates log g(n), n = 1..N, by mapping g, log, g' and the
quotient a_n over spans of points cut at each gamma checkpoint, and folds
the a_n left to right, one rounding per addition.  g is called at the
float points n, as the base passes call it.  Each new base point b is one
streamed pass: its N terms log g(n) - log g(n + b) go straight into one
fsum, charged to the budget at once, with no term list.  Every integer x
has the base point b = 1, whose shifted points n + 1, n < N, are nodes of
the table: that pass reads them off it and calls g only at N + 1 and at b.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from itertools import chain, islice, repeat

from ._extrapolate import aitken, richardson_derivative
from .errors import DomainError
from .funcops import FunctionHandle
from .scalars import DEFAULT_N, Record, as_count

_CONCAVITY_GRID = tuple(0.25 * (i + 1) for i in range(32))
# Points per prepare span: a span's points and a_n quotients, 96 floats,
# fit CPython's free list of 100, so the log table is laid out as densely
# as one float at a time lays it out; 1024-point spans raised the series
# benchmark's peak RSS by 4.6% (CPython 3.11, x86-64 Linux).
_SPAN = 48


class WebsterProblem(Record):
    """Problem data: g (assumed log-concave, spot-checked), the product
    truncation N, the gamma acceleration mode and whether lim g = 1 was
    declared (enabling the simplified product)."""

    g: FunctionHandle
    n_terms: int = DEFAULT_N
    acceleration: str = "aitken"  # "aitken" | "none"
    g_limit_one: bool = False

    def __post_init__(self):
        if isinstance(self.n_terms, bool):  # an int to as_count, but no count
            raise ValueError(f"n_terms must be an integer, not {self.n_terms!r}")
        object.__setattr__(self, "n_terms", as_count(self.n_terms, "n_terms", least=1))
        if self.acceleration not in ("aitken", "none"):
            raise ValueError(f"acceleration must be 'aitken' or 'none', got {self.acceleration!r}")
        if not isinstance(self.g_limit_one, bool):
            raise ValueError(f"g_limit_one must be a bool, got {self.g_limit_one!r}")


class WebsterResult(Record):
    value: float
    x: float
    gamma: float | None
    gamma_raw: float | None
    last_increment: float
    tail_estimate: float
    log_concave_ok: bool
    n_terms: int
    warnings: tuple = ()


class WebsterSolution:
    """Callable solution with precomputed product data shared across x."""

    def __init__(self, problem: WebsterProblem):
        self.problem = problem
        self._base_cache = {}
        self._prepared = False
        self.gamma = None       # populated on first evaluation
        self.gamma_raw = None
        self.log_concave_ok = True

    # -- preparation ---------------------------------------------------

    def _prepare(self):
        if self._prepared:
            return
        p, g, N = self.problem, self.problem.g, self.problem.n_terms
        g.reset_budget()

        for t in _CONCAVITY_GRID:
            lo, mid, hi = g(t), g(1.5 * t), g(2.0 * t)
            if min(lo, mid, hi) <= 0:
                raise DomainError("g must be positive on the sampled points")
            slack = 1e-9 * (1.0 + abs(math.log(mid)))
            if math.log(mid) < 0.5 * (math.log(lo) + math.log(hi)) - slack:
                self.log_concave_ok = False

        derivative = g.derivative or (
            lambda x: richardson_derivative(g.fn, x, max(1e-6, 1e-8 * x))[0])
        # g.fn runs unchecked on points in every handle's domain (n >= 1 here,
        # n +- h >= 1 - 1e-6 in the derivative, n + b in _base_value), all
        # charged before any runs: 1 + 4 per n when g' is estimated
        g.charge(N if g.derivative or p.g_limit_one else 5 * N)
        self.log_g = log_g = [0.0]  # log g(n), n = 1..N
        checkpoints = sorted({max(1, N // 4), max(1, N // 2), N})
        partials = {}
        run = 0.0
        edges = sorted({*range(0, N, _SPAN), *checkpoints})
        for lo, hi in zip(edges, edges[1:]):
            points = list(map(float, range(lo + 1, hi + 1)))
            g_n = list(map(g.fn, points))
            log_g += map(math.log, g_n)
            if not p.g_limit_one:
                a_n = list(map(float, map(operator.truediv, map(derivative, points), g_n)))
                # a left fold keeps the loop's rounding; sum() compensates
                # float sums from Python 3.12 on
                run = reduce(operator.add, a_n, run)
                if hi in checkpoints:
                    partials[hi] = run - log_g[hi]

        if not p.g_limit_one:
            self.sum_a, self.a_N = run, a_n[-1]  # a_N = g'(N)/g(N) enters the last increment
            self.gamma_raw = partials[N]
            if p.acceleration == "aitken" and len(partials) == 3:
                self.gamma = aitken(*(partials[c] for c in checkpoints))
            else:
                self.gamma = self.gamma_raw
        self._prepared = True

    # -- evaluation ----------------------------------------------------

    def _base_value(self, b):
        """Truncated product at b in (0, 1]; returns (value, last_increment)."""
        if b in self._base_cache:
            return self._base_cache[b]
        p, g, N, log_g = self.problem, self.problem.g, self.problem.n_terms, self.log_g
        g.reset_budget()
        # the terms log g(n) - log g(n + b), n = 1..N, streamed into fsum
        if b == 1.0:  # n + 1 for n < N are nodes of the table
            g.charge(1)
            shifted = islice(log_g, 2, N + 1)
        else:
            g.charge(N)
            shifted = map(math.log, map(g.fn, map(operator.add, range(1, N), repeat(b))))
        last = log_g[N] - math.log(g.fn(N + b))
        total = math.fsum(chain(map(operator.sub, islice(log_g, 1, N), shifted), (last,)))
        if p.g_limit_one:
            head = -math.log(g(b))
        else:
            head = -self.gamma * b - math.log(g(b)) + self.sum_a * b
            last += self.a_N * b
        try:
            value = math.exp(head + total)
        except OverflowError:  # f(b) past float range reads inf, as a product past it does
            value = math.inf
        out = (value, abs(last))
        self._base_cache[b] = out
        return out

    def result(self, x) -> WebsterResult:
        """Evaluate at x > 0 with the full convergence report."""
        try:
            x = float(x)
        except OverflowError:  # an int or a Fraction past float range
            x = math.inf
        if x <= 0:
            raise DomainError("x must be positive")
        if not x < math.inf:  # NaN too
            raise ValueError(f"x must be finite, got {x!r}")
        self._prepare()
        p, g, N = self.problem, self.problem.g, self.problem.n_terms
        # reduce to the base interval (0, 1]: f(b + m) = f(b) prod_j g(b + j)
        # past 2**53, x - m rounds to 0.0 or 2.0; fmod is exact for every x
        m = max(0, math.ceil(x) - 1)
        b = math.fmod(x, 1.0) or 1.0
        base, last_inc = self._base_value(b)
        value = base
        for j in range(m):
            if value in (0.0, math.inf):  # no positive factor changes it
                break
            value *= g(b + j)
        # tail of sum_{n>N} ~ C/n^2 estimated as N * |last increment|
        tail = N * last_inc * abs(value)
        warnings = ()
        if not self.log_concave_ok:
            warnings = ("log-concavity spot-check failed: theorem hypotheses unmet",)
        return WebsterResult(
            value, x, self.gamma, self.gamma_raw, last_inc, tail,
            self.log_concave_ok, N, warnings,
        )

    def __call__(self, x):
        return self.result(x).value


def solve_webster(problem: WebsterProblem, x) -> WebsterResult:
    """One-shot solve; build a WebsterSolution directly to evaluate at many x."""
    return WebsterSolution(problem).result(x)


def verify_functional_equation(f, g, x_grid) -> float:
    """max over the grid of |f(x+1) - g(x) f(x)| / (1 + |f(x+1)|)."""
    worst = 0.0
    for x in x_grid:
        lhs = f(x + 1.0)
        rhs = g(x) * f(x)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst

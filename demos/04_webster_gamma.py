"""Webster's functional equation f(x+1) = g(x) f(x), f(1) = 1.

For log-concave g the unique log-convex solution is an infinite product
with an Euler-Mascheroni-type constant gamma_g.  g(x) = x recovers the
gamma function through the Weierstrass product; the truncation error at
N terms scales like x^2 / 2N on the base interval.
"""

import math

from cmtk import WebsterProblem, WebsterSolution, verify_functional_equation
from cmtk.builtins import get_webster_g, webster_constant

# Gamma(1/2) = sqrt(pi): watch the error fall with the truncation N.
target = math.sqrt(math.pi)
for n in (10**3, 10**4, 10**5):
    res = WebsterSolution(WebsterProblem(get_webster_g("identity"), n_terms=n)).result(0.5)
    print(f"N = {n:>6}: f(1/2) = {res.value:.10f}  "
          f"error {abs(res.value - target):.2e}  tail est {res.tail_estimate:.1e}")

sol = WebsterSolution(WebsterProblem(get_webster_g("identity"), n_terms=10**5))
res_half = sol.result(0.5)
print(f"gamma_g (accelerated) = {res_half.gamma:.12f}")
print(f"gamma_g (raw partial) = {res_half.gamma_raw:.12f}")
print(f"Euler-Mascheroni      = 0.577215664902")

# Values above the base interval come from the recursion itself, so the
# functional equation holds to rounding on any grid.
grid = [0.1 + 0.2 * i for i in range(25)]
res = verify_functional_equation(sol, get_webster_g("identity"), grid)
print(f"functional equation residual on [0.1, 5]: {res:.2e}")
print(f"f(4.9) = {sol(4.9):.8f}  vs Gamma(4.9) = {math.gamma(4.9):.8f}")

# Constant g = e^c telescopes exactly: f(x) = e^{c(x-1)} at any N.
c = 0.8
sol_c = WebsterSolution(WebsterProblem(webster_constant(c), n_terms=100))
print(f"constant g: f(2.5) = {sol_c(2.5):.12f}  "
      f"vs e^(0.8*1.5) = {math.exp(c * 1.5):.12f}")

# g = exp(-e^{-x}) has lim g = 1, enabling the simplified product; the
# closed-form solution exp((e^{-x} - e^{-1}) / (1 - e^{-1})) pins it.
sol_e = WebsterSolution(
    WebsterProblem(get_webster_g("exp-neg-cm"), n_terms=2000, g_limit_one=True)
)
x = 2.4
expected = math.exp((math.exp(-x) - math.exp(-1)) / (1 - math.exp(-1)))
print(f"exp-neg-cm: f({x}) = {sol_e(x):.12f}  closed form {expected:.12f}")

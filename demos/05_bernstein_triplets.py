"""Bernstein functions as (q, d, levy-measure) triplets.

Phi(lam) = q + d lam + sum w_j (1 - e^{-lam x_j}).  Sampling any handle on
the nonnegative integers, certifying the alternating sign condition and
inverting the moments recovers the triplet; the theta operator test
decides membership without any inversion.
"""

from cmtk import (
    BernsteinTriplet,
    apply_operator,
    bf_limit_decompose,
    check_bf_via_theta,
    eval_bernstein,
    extract_triplet,
    triplet_handle,
)
from cmtk.builtins import get_handle

truth = BernsteinTriplet(q=0.25, d=0.5, levy=((0.5, 1.0), (2.0, 0.75)))
phi = triplet_handle(truth)
print("Phi(0) =", eval_bernstein(truth, 0.0), " Phi(4) =", eval_bernstein(truth, 4.0))

# Roundtrip: integer samples -> certificate -> triplet.
got, rep = extract_triplet(phi, tol=1e-6)
print(f"extracted q = {got.q}, d = {got.d:.9f}")
print("heavy atoms:", [(round(x, 3), round(w, 3)) for x, w in got.levy if w > 1e-3])
print(f"fit residual {rep.fit.residual:.2e}, "
      f"certificate: {rep.certificate.verdict}")

# The limit decomposition reads the triplet off the far field instead:
# q = Phi(0), d = lim increments, theta_{nc} Phi -> the bounded part.
dec = bf_limit_decompose(phi, c=1.0, n_max=10**6)
print(f"decomposition: q = {dec.q}, d = {dec.d:.9f}, "
      f"telescoping residual {dec.telescoping_residual:.1e}")

# theta_c Phi = Phi(c) - Phi(0) + Phi(lam) - Phi(lam+c) must be a bounded
# Bernstein function vanishing at 0 -- for every c.  lam^2 fails at once.
for h in (get_handle("bf-ratio"), get_handle("one-minus-exp"), get_handle("sqrt-triplet")):
    print(f"theta test for {h.name}: pass = {check_bf_via_theta(h).overall_pass}")

bad = check_bf_via_theta(get_handle("square"), cs=(1.0,))
entry = bad.entries[0]
print("theta test for square:", entry.certificate.verdict,
      "witness", entry.certificate.witness)

# theta_1 of lam^2 is -2 lam: decreasing, so its samples violate CA at n=1.
th = apply_operator(get_handle("square"), "theta", 1.0)
print("theta_1(square) samples:", [th(float(k)) for k in range(4)])

"""Gregory-Newton interpolation from integer samples.

f(z) ~ sum_k [Delta^k f(0) / k!] z(z-1)...(z-k+1): the discrete Taylor
series.  Partial sums interpolate the samples exactly; between integers
the convergence rate depends strongly on the function, and slow partial
sums can be accelerated.
"""

from fractions import Fraction

from cmtk import Sequence, eval_series, extrapolate_series, series_from_samples

# 2^-z: forward differences (-1/2)^k, so terms shrink geometrically.
geometric = Sequence.from_values([Fraction(1, 2**k) for k in range(60)])
s_geo = series_from_samples(geometric)
print("coefficients c_0..c_3:", [str(c) for c in s_geo.coeffs[:4]])

at_node = eval_series(s_geo, 7)
print("value at the node z=7 (exact):", at_node.value)

half = eval_series(s_geo, Fraction(1, 2))
print(f"2^-z at z=1/2: {float(half.value):.12f}  "
      f"(truth {2**-0.5:.12f}, tail est {half.tail_estimate:.1e})")

# 1/(1+z): terms decay only like k^(-5/2), all one sign past k=1, so the
# 60-term partial sum still misses 2/3 by ~4e-4.  Levin's u-transform of the
# same partial sums recovers the limit (exactly, for this family).
reciprocal = Sequence.from_values([Fraction(1, k + 1) for k in range(60)])
s_rec = series_from_samples(reciprocal)
v = eval_series(s_rec, Fraction(1, 2))
print(f"1/(1+z) at z=1/2 with 60 terms: {float(v.value):.8f} "
      f"(truth {2 / 3:.8f})")
for n in (20, 40, 80):
    seq = Sequence.from_values([Fraction(1, k + 1) for k in range(n)])
    err = abs(float(eval_series(series_from_samples(seq), Fraction(1, 2)).value) - 2 / 3)
    print(f"  {n:3d} terms -> error {err:.2e}  (~0.19 n^-1.5 = {0.19 * n**-1.5:.2e})")
x = extrapolate_series(s_rec, Fraction(1, 2))
print(f"  60 terms, Levin order {x.order} -> {x.value} "
      f"(heuristic error estimate {x.error_estimate:.1e})")
squared = Sequence.from_values([Fraction(1, (k + 1) ** 2) for k in range(60)])
x = extrapolate_series(series_from_samples(squared), Fraction(1, 2))
print(f"1/(1+z)^2 at z=1/2: partial sum error {abs(float(x.partial.value) - 4 / 9):.1e}, "
      f"extrapolated error {abs(float(x.value) - 4 / 9):.1e} "
      f"(estimate {x.error_estimate:.1e})")

# Off the right half-plane the series has no business converging.
warned = eval_series(s_geo, -2.5)
print("warnings at z=-2.5:", warned.warnings)

"""Self-decomposable Bernstein functions recognized on the integers.

Phi is self-decomposable when Phi(lam) - Phi(c lam) is a Bernstein
function for every c in (0,1); equivalently lam Phi'(lam) is one.  The
desk versions: certify (Phi(k) - Phi(ck))_k completely alternating and
minimal for probed c (spot check), and (k Phi'(k))_k likewise (the
non-parametric test that settles the verdict).
"""

from cmtk import check_selfdecomposable
from cmtk.builtins import get_handle

# log(1 + lam) is the gamma-subordinator exponent, self-decomposable:
# k Phi'(k) = k/(1+k) is CA with no atom at zero.  The builtin supplies
# the derivative as exact rationals, so the test runs in exact arithmetic.
rep = check_selfdecomposable(get_handle("log1p"), depth=30, tol=0.05)
print("log1p:", rep.verdict)
b = rep.derivative_test
print("  derivative test:", b.certificate.verdict,
      "| atom estimate", b.minimality.atom.estimate,
      "| mode", b.certificate.mode)

# 1 - e^{-lam} is compound Poisson, not self-decomposable: k e^{-k} rises
# then falls, so the alternating condition breaks at k = 1 already.
rep2 = check_selfdecomposable(get_handle("one-minus-exp"), depth=30)
w = rep2.derivative_test.certificate.witness
print("one-minus-exp:", rep2.verdict, "| witness (n,k,value) =",
      (w[0], w[1], round(w[2], 4)))

# Pure drift is trivially self-decomposable (both tests see affine data).
rep3 = check_selfdecomposable(get_handle("linear"), depth=30)
print("linear:", rep3.verdict)

# sqrt is self-decomposable, but its atom trail decays like 1/sqrt(ln n):
# far too slow to certify minimality at desk depth, and the derivative
# blows up at 0.  The suite reports what it can and refuses to bluff.
rep4 = check_selfdecomposable(get_handle("sqrt"), depth=30)
print("sqrt:", rep4.verdict,
      "(scale tests:", [e.certificate.verdict for e in rep4.scale_tests], ")")

for entry in rep.scale_tests:
    print("log1p scale test", entry.label, "->",
          "pass" if entry.passed else "not certified")
print("standing caveat:", rep.caveats[0])

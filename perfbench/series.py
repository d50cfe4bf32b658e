"""series: Gregory-Newton series from exact samples and Webster products.

Newton ops build the series from N + 1 exact samples (N = 60..300) and
evaluate it at a rational or float z.  The difference table runs to full
depth but only its column 0 is read.  Webster ops build a fresh solution
at the default N = 1e5 and evaluate it at a dyadic x, at x + 1 (same base
point, so a cached base), at 1 and at a second base point.

Accuracy against the closed forms goes to the run's max_rel_err, never to
a pass/fail threshold.  The pass/fail checks are identities: Newton
partial sums reproduce the samples at the nodes exactly, f(x+1) = g(x) f(x)
to rounding, and f(1) = 1 within the documented O(1/N) truncation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import reference as ref
from harness import Op, input_key, rng_for
from reference import EPS, expect

NAME = "series"
WEBSTER_N = 100_000
#: float z stays at N <= 150: the falling factorial overflows near N = 170
#: and the float partial sum turns to nan (see probes.py)
FLOAT_Z_MAX_N = 150


class Series:
    def __init__(self, seed, workdir=None, recorder=None):
        self.seed = seed
        self.recorder = recorder
        from cmtk import builtins, newton, seqcore, webster

        self.builtins, self.newton, self.seqcore, self.webster = builtins, newton, seqcore, webster

    def _newton(self, family, N, z, rng, scale=1):
        """``scale``, an integer distinct for every op of a run, keeps the
        samples of two ops from ever coinciding."""
        if family in ("shifted-reciprocal", "half-shifted-reciprocal"):
            if family == "shifted-reciprocal":
                a = Fraction(rng.randint(2, 12), rng.randint(2, 4))
            else:  # a = j + 1/2: cost set by N alone
                a = Fraction(2 * rng.randint(1, 10) + 1, 2)
            samples = [scale / (k + a) for k in range(N + 1)]
            closed = scale / (float(z) + float(a))
        elif family == "beta-moments":
            al, be = rng.randint(1, 4), rng.randint(1, 4)
            samples = [scale * v for v in ref.beta_moments(al, be, N)]
            zf = float(z)
            closed = scale * math.exp(math.lgamma(al + zf) + math.lgamma(al + be)
                                      - math.lgamma(al) - math.lgamma(al + be + zf))
        elif family == "geometric-mixture":
            atoms = [(Fraction(rng.randint(1, q - 1), q), scale * Fraction(rng.randint(1, 20), 10))
                     for q in (rng.randint(3, 9), rng.randint(3, 9))]
            samples = ref.atom_moments(atoms, N)
            closed = ref.laplace_atoms([(float(u), float(w)) for u, w in atoms], float(z))
        else:  # the criterion-5b series: 1/(1+z) at z = 1/2 from 60 samples
            samples = [Fraction(1, k + 1) for k in range(N + 1)]
            closed = 2.0 / 3.0
        seq = self.seqcore.Sequence.from_values(samples)
        newton = self.newton
        nodes = (1, N // 2, N)

        def run():
            series = newton.series_from_samples(seq)
            return series, newton.eval_series(series, z)

        def check(out):
            series, value = out
            expect(len(series) == N + 1 and value.n_terms == N + 1, "term count")
            for j in nodes:
                expect(newton.eval_series(series, j).value == samples[j],
                       f"partial sum misses the sample at node {j}")
            return ref.rel_err(value.value, closed)

        zkind = "rational" if isinstance(z, Fraction) else "float"
        return Op(f"newton/{family}/N={N}/{zkind}", input_key("newton", samples), run, check)

    def _webster(self, g_name, rng):
        x1 = rng.randint(1, 255) / 256.0
        x2 = rng.randint(1, 255) / 256.0
        while x2 == x1:
            x2 = rng.randint(1, 255) / 256.0
        xs = (x1, x1 + 1.0, 1.0, x2 + 2.0)
        g = self.builtins.get_webster_g(g_name)
        if self.recorder is not None:
            self.recorder.count_calls(g, "webster.g_evals")
        webster = self.webster
        problem = webster.WebsterProblem(g, n_terms=WEBSTER_N, g_limit_one=g_name == "exp-neg-cm")

        def run():
            solution = webster.WebsterSolution(problem)
            return [solution.result(x) for x in xs]

        def check(results):
            f = [r.value for r in results]
            expect(abs(f[1] - ref.webster_g(g_name, x1) * f[0]) <= 4 * EPS * abs(f[1]),
                   "f(x+1) != g(x) f(x)")
            expect(abs(f[2] - 1.0) <= 1.0 / WEBSTER_N, "f(1) != 1")
            return max(ref.rel_err(v, ref.webster_closed_form(g_name, x)) for v, x in zip(f, xs))

        return Op(f"webster/{g_name.partition(':')[0]}", input_key("webster", g_name, xs), run, check)

    def _z(self, rng, N, exact):
        if exact or N > FLOAT_Z_MAX_N:
            num = rng.choice([n for n in range(1, 600) if n % 100])
            return Fraction(num, 100)
        return rng.uniform(0.05, 6.0)

    def cycle(self, index):
        rng = rng_for(NAME, self.seed, index)
        c = round(rng.uniform(-1.0, 1.0), 3) or 0.5
        # four cheap, five mid-cost ops of one stable cost, and four dear ones
        # per cycle, so the run's median falls inside the mid-cost group
        newton = [
            ("shifted-reciprocal", 60, False), ("half-shifted-reciprocal", 150, True),
            ("geometric-mixture", 60, True), ("half-shifted-reciprocal", 150, False),
            ("shifted-reciprocal", 300, True), ("beta-moments", 100, False),
            ("half-shifted-reciprocal", 150, True), ("geometric-mixture", 100, False),
            ("half-shifted-reciprocal", 150, False), ("half-shifted-reciprocal", 150, True),
        ]
        ops = [self._newton(family, N, self._z(rng, N, exact), rng, 2 + 13 * index + slot)
               for slot, (family, N, exact) in enumerate(newton)]
        ops.insert(2, self._webster("identity", rng))
        ops.insert(8, self._webster(f"constant:{c}", rng))
        ops.insert(11, self._webster("exp-neg-cm", rng))
        if index == 0:
            ops.insert(0, self._newton("reciprocal", 59, Fraction(1, 2), rng))
        return ops

    def warmup(self):
        rng = rng_for(NAME, self.seed, "warmup")
        return [
            self._newton("shifted-reciprocal", 20, Fraction(1, 3), rng),
            self._newton("geometric-mixture", 20, 0.7, rng),
            self._webster("identity", rng),
        ]

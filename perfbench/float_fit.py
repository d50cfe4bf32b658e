"""float-fit: float data and function handles.

Float certify at K = 1000 and depth 40 (shallow tables over long inputs,
with error bounds), Hausdorff inversion at grids 200 and 1000, the
interpolant of integer samples evaluated off the integers, triplet
extraction, lattice, theta and self-decomposability checks, operator
composition and the two limit decompositions on the README builtins.
Sequences are built from measures whose support lies on the fit grid, so
every fit is representable and its error against the measure's closed
form is the fit's accuracy.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from fractions import Fraction

import reference as ref
from harness import Op, input_key, rng_for
from reference import expect

NAME = "float-fit"

BF_BUILTINS = {
    "linear": lambda x: x,
    "one-minus-exp": lambda x: -math.expm1(-x),
    "bf-ratio": lambda x: x / (1.0 + x),
    "log1p": math.log1p,
    "sqrt": math.sqrt,
}
SD_EXPECTED = {"log1p": "pass", "linear": "pass", "one-minus-exp": "fail"}


def _grid_atoms(rng, count, M, j_max):
    js = sorted(rng.sample(range(1, j_max + 1), count))
    weights = [rng.randint(1, 500) for _ in js]
    return js, weights


class FloatFit:
    def __init__(self, seed, workdir=None, recorder=None):
        self.seed = seed
        self.recorder = recorder
        from cmtk import bernstein, builtins, classify, funcops, moments, seqcore

        self.bernstein, self.builtins, self.classify = bernstein, builtins, classify
        self.funcops, self.moments, self.seqcore = funcops, moments, seqcore

    def _counted(self, handle):
        if self.recorder is not None:
            self.recorder.count_calls(handle, "funcops.handle_evals")
        return handle

    def _handle(self, name):
        return self._counted(self.builtins.get_handle(name))

    def _region(self, name):
        return nullcontext() if self.recorder is None else self.recorder.region(name)

    # -- sequences ----------------------------------------------------------

    def _certify(self, rng, perturb):
        K, Q, W = 1000, rng.randint(500, 2000), 1000
        # the largest support point is at least 1/2, which keeps every a_k
        # a normal float; a subnormal input breaks the relative half-ulp
        # bound, a defect shown by the underflow probe in probes.py
        js, cs = _grid_atoms(rng, 2, Q, Q // 2 - 1)
        js.append(rng.randint(Q // 2, Q - 1))
        cs.append(rng.randint(1, 500))
        values = ref.float_moments(js, cs, Q, W, K)
        label = "moment"
        if perturb:
            delta = values[0] * rng.uniform(1e-4, 1e-2)
            values[-1] = values[-2] + delta
            label = "perturbed"
        seq = self.seqcore.Sequence.from_values(values)
        classify = self.classify

        def check(cert):
            expect(cert.depth == 40 and cert.mode == "float", "float certify depth/mode")
            if not perturb:
                expect(cert.verdict in ("pass", "inconclusive"),
                       f"float {cert.verdict} on a CM measure's moments")
                return
            expect(cert.verdict == "fail", f"verdict {cert.verdict}, want fail")
            expect(cert.witness == (1, K - 1, values[-2] - values[-1]),
                   f"witness {cert.witness and cert.witness[:2]} != (1, {K - 1})")

        return Op(f"certify-float/K=1000/{label}", input_key("certify", values),
                  lambda: classify.certify(seq, "cm", 40), check)

    def _invert(self, rng, kind, grid):
        K, W = 40, 1000
        lams = sorted(rng.uniform(0.05, 12.0) for _ in range(3))
        if kind == "cm":
            js, cs = _grid_atoms(rng, 3, grid, grid - 1)
            values = ref.float_moments(js, cs, grid, W, K)
            atoms = [(j / grid, c / W) for j, c in zip(js, cs)]
            truth = [ref.laplace_atoms(atoms, lam) for lam in lams]
        else:
            js, cs = _grid_atoms(rng, 2, grid, grid // 2)
            q_num, d_num = rng.randint(0, 500), rng.randint(0, 500)
            values = ref.float_ca_moments(q_num, d_num, js, cs, grid, W, K)
            atoms = [(j / grid, c / W) for j, c in zip(js, cs)]
            truth = [ref.ca_value(q_num / W, d_num / W, atoms, lam) for lam in lams]
        seq = self.seqcore.Sequence.from_values(values)
        moments = self.moments

        def run():
            model, fit = (moments.invert_cm if kind == "cm" else moments.invert_ca)(seq, grid)
            return model, fit, [moments.evaluate(model, lam) for lam in lams]

        def check(out):
            model, fit, got = out
            expect(fit.grid_size == grid, "grid size")
            measure = model if kind == "cm" else model.measure
            fitted = measure.moment if kind == "cm" else model.moment
            worst = max(abs(fitted(k) - values[k]) for k in range(K + 1))
            expect(worst <= 10.0 * fit.residual + 1e-12, "moments off by more than the reported residual")
            return max(ref.rel_err(g, t) for g, t in zip(got, truth))

        return Op(f"invert-{kind}/grid={grid}", input_key("invert", kind, grid, values, lams), run, check)

    def _extend(self, rng, kind):
        K, M, W = 40, 200, 1000
        lams = [k + rng.uniform(0.1, 0.9) for k in sorted(rng.sample(range(0, 30), 3))]
        if kind == "cm":
            js, cs = _grid_atoms(rng, 2, M, M - 1)
            values = ref.float_moments(js, cs, M, W, K)
            atoms = [(j / M, c / W) for j, c in zip(js, cs)]
            truth = [ref.laplace_atoms(atoms, lam) for lam in lams]
        else:
            js, cs = _grid_atoms(rng, 2, M, M // 2)
            q_num, d_num = rng.randint(0, 500), rng.randint(0, 500)
            values = ref.float_ca_moments(q_num, d_num, js, cs, M, W, K)
            atoms = [(j / M, c / W) for j, c in zip(js, cs)]
            truth = [ref.ca_value(q_num / W, d_num / W, atoms, lam) for lam in lams]
        seq = self.seqcore.Sequence.from_values(values)
        moments = self.moments
        nodes = (3, 17)

        def run():
            f = moments.extend_from_integer_samples(seq, kind)
            return [f(lam) for lam in lams], [f(k) for k in nodes]

        def check(out):
            got, at_nodes = out
            for k, v in zip(nodes, at_nodes):
                expect(abs(v - values[k]) <= 1e-7 * max(1.0, abs(values[0])),
                       f"interpolant misses its sample at k={k}")
            return max(ref.rel_err(g, t) for g, t in zip(got, truth))

        return Op(f"extend-{kind}", input_key("extend", kind, values, lams), run, check)

    def _extract(self, rng):
        # the distribution of acceptance criterion 7, with at least one atom
        # so that two ops of a run practically never share a triplet
        n_atoms = rng.randint(1, 8)
        q = Fraction(rng.randint(0, 12), rng.randint(1, 6))
        d = Fraction(rng.randint(0, 8), rng.randint(1, 4)) if rng.random() < 0.7 else Fraction(0)
        xs = {Fraction(rng.randint(10, 300), 100) for _ in range(n_atoms)}
        levy = tuple(sorted((float(x), float(Fraction(rng.randint(1, 40), 20))) for x in xs))
        truth = self.bernstein.BernsteinTriplet(float(q), float(d), levy)
        h = self._counted(self.bernstein.triplet_handle(truth))
        lams = [rng.uniform(0.1, 20.0) for _ in range(2)]
        bernstein = self.bernstein

        def check(out):
            got, rep = out
            expect(got.q == float(q), "q is not Phi(0)")
            expect(abs(got.d - float(d)) <= 1e-3, "drift off by more than 1e-3")
            sup = max(abs(ref.bernstein_value(got.q, got.d, got.levy, k)
                          - ref.bernstein_value(float(q), float(d), levy, k)) for k in range(21))
            expect(sup <= 10.0 * rep.fit.residual, "samples off by more than 10x the residual")
            return max(ref.rel_err(ref.bernstein_value(got.q, got.d, got.levy, lam),
                                   ref.bernstein_value(float(q), float(d), levy, lam))
                       for lam in lams)

        return Op("extract-triplet", input_key("extract", q, d, levy),
                  lambda: bernstein.extract_triplet(h, tol=1e-4), check)

    # -- handles ------------------------------------------------------------

    def _lattice(self, rng):
        alphas = [round(rng.uniform(0.3, 1.2), 6) for _ in range(2)]
        depth = 15
        funcops = self.funcops
        h = self._handle("exp-decay")

        def check(rep):
            expect(len(rep.entries) == 2 and not rep.partial, "lattice entries")
            for e in rep.entries:
                expect(not e.certificate.failed, f"exp-decay failed CM on the {e.alpha} lattice")
                if e.minimality is not None:
                    trail_end = (1.0 - math.exp(-e.alpha)) ** depth
                    expect(abs(e.minimality.atom.estimate - trail_end) <= 1e-9,
                           "atom estimate differs from (1 - e^-alpha)^depth")
            expect(rep.overall_pass == all(e.certificate.passed for e in rep.entries), "overall pass")

        return Op("lattice/exp-decay", input_key("lattice", alphas),
                  lambda: funcops.lattice_check(h, "cm", alphas, depth, 2e-3), check)

    def _theta(self, rng, name):
        c0 = round(rng.uniform(0.4, 1.6), 6)
        cs = (c0, round(c0 / math.sqrt(2.0), 6))
        h = self._handle(name)
        bernstein = self.bernstein

        def check(rep):
            for e in rep.entries:
                expect(e.theta_at_zero == 0.0, "theta_c Phi(0) is not exactly 0")
                if name == "square":
                    expect(e.certificate.failed, "x^2 passed the theta test")
                    expect(e.certificate.witness == (1, 0, 2 * Fraction(e.c)),
                           "x^2 witness is not (1, 0, 2c)")
                else:
                    expect(not e.certificate.failed, f"{name} failed the theta test")
            expect(rep.overall_pass == all(e.passed for e in rep.entries), "overall pass")

        return Op(f"bftheta/{name}", input_key("bftheta", name, cs),
                  lambda: bernstein.check_bf_via_theta(h, cs), check)

    def _selfdec(self, rng, name):
        # s * Phi is self-decomposable exactly when Phi is; a distinct scale
        # s in (1/2, 1] per op keeps inputs from repeating within a run
        depth = rng.randint(24, 34)
        scale = Fraction(rng.randint(5 * 10**5, 10**6), 10**6)
        base = self.builtins.get_handle(name)
        h = self._counted(self.funcops.FunctionHandle(
            lambda x: scale * base.fn(x), f"{scale}*{name}",
            derivative=lambda x: scale * base.derivative(x)))
        bernstein = self.bernstein
        want = SD_EXPECTED[name]

        def check(rep):
            expect(rep.verdict == want, f"{name}: {rep.verdict}, want {want}")
            if name == "one-minus-exp":
                cert = rep.derivative_test.certificate
                expect(cert.witness[:2] == (1, 1), "derivative-test witness")
                expect(abs(cert.witness[2] - scale * (math.exp(-1.0) - 2.0 * math.exp(-2.0))) <= 1e-12,
                       "derivative-test witness value")

        return Op(f"selfdec/{name}", input_key("selfdec", name, depth, scale),
                  lambda: bernstein.check_selfdecomposable(h, depth=depth, tol=0.05), check)

    def _operator(self, rng, op):
        n = rng.randint(1, 4)
        c = round(rng.uniform(0.3, 1.5), 6)
        xs = [rng.uniform(0.0, 5.0) for _ in range(8)]
        if op == "delta":
            name = "exp-decay"
            closed = [math.exp(-x) * (math.exp(-c) - 1.0) ** n for x in xs]
        else:
            name = "one-minus-exp"
            closed = [(-math.expm1(-c)) ** n * -math.expm1(-x) for x in xs]
        h = self._handle(name)
        funcops = self.funcops

        def run():
            with self._region("funcops.operator"):
                g = funcops.apply_operator(h, op, c, n)
                return [g(x) for x in xs]

        def check(got):
            for g, want in zip(got, closed):
                expect(abs(g - want) <= 1e-13 * 2**n, f"{op}^{n} differs from its closed form")
            return max(ref.rel_err(g, want) for g, want in zip(got, closed))

        return Op(f"operator/{op}", input_key("operator", op, c, n, xs), run, check)

    def _decompose(self, rng, variant, name):
        c0 = round(rng.uniform(0.5, 1.5), 6)
        cs = (c0, c0 / math.sqrt(2.0))
        n_max = rng.randint(32, 96)
        h = self._handle(name)
        funcops = self.funcops
        f = {"exp-decay": lambda x: math.exp(-x),
             "reciprocal": lambda x: 1.0 / (1.0 + x), **BF_BUILTINS}[name]

        def check(rep):
            shift = n_max * cs[0]
            if variant == "cm":
                expect(rep.psi_inf == f(shift), "psi_inf is not Psi(n_max c)")
                return None
            expect(rep.q == f(0.0), "q is not Phi(0)")
            expect(rep.d == (f(shift + cs[0]) - f(shift)) / cs[0], "d is not the far difference")
            expect(rep.telescoping_residual <= 1e-12, "telescoping identity broken")

        return Op(f"decompose-{variant}/{name}", input_key("decompose", variant, name, cs, n_max),
                  lambda: (funcops.cm_limit_decompose if variant == "cm"
                           else funcops.bf_limit_decompose)(h, cs, n_max), check)

    def cycle(self, index):
        rng = rng_for(NAME, self.seed, index)
        bf = sorted(BF_BUILTINS)
        return [
            self._certify(rng, False),
            self._invert(rng, "cm", 200),
            self._theta(rng, bf[index % len(bf)]),
            self._invert(rng, "ca", 1000),
            self._extend(rng, "cm"),
            self._selfdec(rng, sorted(SD_EXPECTED)[index % len(SD_EXPECTED)]),
            self._certify(rng, True),
            self._lattice(rng),
            self._invert(rng, "cm", 1000),
            self._extract(rng),
            self._decompose(rng, "cm", ("exp-decay", "reciprocal")[index % 2]),
            self._theta(rng, "square"),
            self._invert(rng, "ca", 200),
            self._operator(rng, ("delta", "theta")[index % 2]),
            self._extend(rng, "ca"),
            self._decompose(rng, "bf", ("one-minus-exp", "log1p", "bf-ratio")[index % 3]),
        ]

    def warmup(self):
        return self.cycle(-1)

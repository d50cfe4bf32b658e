"""exact-certify: exact rational sequences through certify, is_minimal,
degenerate_classify and binomial_transform at K = 60, 200 and 400.

Each cycle holds the same 22 slots.  Small K gets three support points
with denominators 40..100, K = 200 two with denominators 6..16, and
K = 400 Beta-law moments or a fifths-grid mixture, so cost spreads over
both length and denominator size.  Inputs are moment sequences of known
measures (pass to full depth), the same with the last term perturbed
(first violation at (1, K-1)), and signed two-atom mixtures whose first
violation sits at a known deep row.
"""

from __future__ import annotations

import math
from fractions import Fraction

import reference as ref
from harness import Op, input_key, rng_for
from reference import expect

NAME = "exact-certify"


def _atoms(rng, count, q_lo, q_hi):
    atoms = {}
    while len(atoms) < count:
        q = rng.randint(q_lo, q_hi)
        u = Fraction(rng.randint(1, q - 1), q)
        atoms[u] = Fraction(rng.randint(1, 60), rng.randint(1, 60))
    return sorted(atoms.items())


def _moments(rng, K, count, q_lo, q_hi):
    atoms = _atoms(rng, count, q_lo, q_hi)
    return atoms, ref.atom_moments(atoms, K)


def _signed_pair(rng, K, q_lo, q_hi):
    """Atoms (u1, w1), (u2, -w1/B), u2 < u1, whose table first goes
    negative at a row between K/3 and 2K/3 (at column 0)."""
    while True:
        q1, q2 = rng.randint(q_lo, q_hi), rng.randint(q_lo, q_hi)
        u1 = Fraction(rng.randint(math.ceil(0.3 * q1), math.floor(0.7 * q1)), q1)
        u2 = Fraction(rng.randint(1, q2 - 1), q2)
        if not 0.03 <= u1 - u2 <= 0.2:
            continue
        r = float((1 - u2) / (1 - u1))
        target = rng.randint(K // 3, 2 * K // 3)
        B = int(math.exp((target - 0.5) * math.log(r)))
        if B < 2:
            continue
        w1 = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        atoms = [(u2, -w1 / B), (u1, w1)]
        first = ref.first_signed_violation(atoms, 1, K)
        if first is not None:
            return atoms, first


class ExactCertify:
    def __init__(self, seed, workdir=None, recorder=None):
        self.seed = seed
        from cmtk import classify, errors, seqcore

        self.classify, self.errors, self.seqcore = classify, errors, seqcore

    # -- op factories -------------------------------------------------------

    def _certify(self, kind, values, label, witness=None):
        seq = self.seqcore.Sequence.from_values(values)
        K = len(values) - 1
        classify = self.classify

        def check(cert):
            expect(cert.depth == K, f"depth {cert.depth} != {K}")
            if witness is None:
                expect(cert.verdict == "pass", f"verdict {cert.verdict}, want pass")
                expect(cert.undecidable == 0, "exact table reported undecidable entries")
            else:
                expect(cert.verdict == "fail", f"verdict {cert.verdict}, want fail")
                expect(cert.witness == witness,
                       f"witness {cert.witness and cert.witness[:2]} != {witness[:2]}")

        return Op(f"certify-{kind}/K={K}/{label}", input_key("certify", kind, values),
                  lambda: classify.certify(seq, kind), check)

    def _minimal(self, kind, values, label, estimate=None, witness=None):
        seq = self.seqcore.Sequence.from_values(values)
        K = len(values) - 1
        classify = self.classify

        def check(out):
            if witness is not None:
                expect(out.certificate is not None and out.certificate.witness == witness,
                       "is_minimal on a failing input did not carry its witness")
                return
            expect(out.atom.estimate == estimate, "atom estimate differs from closed form")
            expect(out.atom.monotone_ok, "trail of a genuine measure reported non-monotone")
            expect(out.minimal == (estimate <= 1e-6), "minimality verdict at the default tol")

        raises = self.errors.CertificationError if witness is not None else None
        return Op(f"is_minimal-{kind}/K={K}/{label}", input_key("minimal", kind, values),
                  lambda: classify.is_minimal(seq, kind), check, raises)

    def _degenerate(self, kind, values, label, want):
        seq = self.seqcore.Sequence.from_values(values)
        K = len(values) - 1
        classify = self.classify

        def check(out):
            expect(out == want, f"{out} != {want}")

        return Op(f"degenerate-{kind}/K={K}/{label}", input_key("degenerate", kind, values),
                  lambda: classify.degenerate_classify(seq, kind), check)

    def _binomial(self, values, column, label):
        seq = self.seqcore.Sequence.from_values(values)
        K = len(values) - 1
        seqcore = self.seqcore

        def check(out):
            expect(out.mode == "exact", "binomial transform left exact mode")
            expect(list(out.values) == column, "binomial transform differs from closed form")

        return Op(f"binomial/K={K}/{label}", input_key("binomial", values),
                  lambda: seqcore.binomial_transform(seq), check)

    # -- inputs -------------------------------------------------------------

    def _k60(self, rng):
        K = 60
        atoms, m = _moments(rng, K, 3, 40, 100)
        delta = Fraction(1, rng.randint(10**3, 10**6))
        pert = m[:-1] + [m[-2] + delta]
        s_atoms, (n_s, v_s) = _signed_pair(rng, K, 40, 100)
        signed_ca = ref.ca_values(Fraction(1), Fraction(0), s_atoms, K)
        ca_atoms, _ = _moments(rng, K, 3, 40, 100)
        ca = ref.ca_values(Fraction(rng.randint(0, 9), 4), Fraction(rng.randint(0, 9), 7), ca_atoms, K)
        c0, c = sorted(Fraction(rng.randint(1, 10**4), rng.randint(1, 99)) for _ in range(2))[::-1]
        const_tail = [c0] + [c] * K if c0 != c else [c0 + 1] + [c] * K
        q, d = Fraction(rng.randint(1, 50), 3), Fraction(rng.randint(1, 50), 7)
        affine = [q - Fraction(1, rng.randint(2, 99))] + [q + d * k for k in range(1, K + 1)]
        atoms_m, m2 = _moments(rng, K, 3, 40, 100)
        _, m3 = _moments(rng, K, 3, 40, 100)
        return [
            self._certify("cm", m, "moment"),
            self._certify("cm", pert, "perturbed", (1, K - 1, -delta)),
            self._certify("ca", signed_ca, "signed", (n_s, 0, -v_s)),
            self._minimal("ca", ca, "moment", ref.column_zero(ca_atoms, K)[K]),
            self._degenerate("cm", m3, "moment", "strict"),
            self._degenerate("cm", const_tail, "constant-tail", "constant-tail"),
            self._degenerate("ca", affine, "affine", "affine-tail"),
            self._binomial(m2, ref.column_zero(atoms_m, K), "moment"),
        ]

    def _k200(self, rng):
        K = 200
        atoms, m = _moments(rng, K, 2, 6, 16)
        ca_atoms, _ = _moments(rng, K, 2, 6, 16)
        ca = ref.ca_values(Fraction(rng.randint(0, 9), 4), Fraction(rng.randint(0, 9), 7), ca_atoms, K)
        delta = Fraction(1, rng.randint(10**3, 10**6))
        ca_pert = ca[:-1] + [ca[-2] - delta]
        s_atoms, (n_s, v_s) = _signed_pair(rng, K, 6, 16)
        signed = ref.atom_moments(s_atoms, K)
        atoms2, m2 = _moments(rng, K, 2, 6, 16)
        pert2 = m2[:-1] + [m2[-2] + delta]
        atoms3, m3 = _moments(rng, K, 2, 6, 16)
        ca4_atoms, _ = _moments(rng, K, 2, 6, 16)
        ca4 = ref.ca_values(Fraction(rng.randint(0, 9), 4), Fraction(rng.randint(1, 9), 7), ca4_atoms, K)
        return [
            self._certify("cm", m, "moment"),
            self._certify("ca", ca, "moment"),
            self._certify("ca", ca_pert, "perturbed", (1, K - 1, delta)),
            self._certify("cm", signed, "signed", (n_s, 0, v_s)),
            self._minimal("cm", m2, "moment", ref.column_zero(atoms2, K)[K]),
            self._minimal("cm", pert2, "perturbed", witness=(1, K - 1, -delta)),
            self._degenerate("ca", ca4, "moment", "strict"),
            self._binomial(m3, ref.column_zero(atoms3, K), "moment"),
        ]

    def _k400(self, rng):
        K = 400

        def beta():
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            return a, b, ref.beta_moments(a, b, K)

        a1, b1, m1 = beta()
        _, _, m2 = beta()
        q, d = Fraction(rng.randint(0, 9), 4), Fraction(rng.randint(0, 9), 7)
        c = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        ca = [q + d * k + c * (1 - v) for k, v in enumerate(m2)]
        _, _, m3 = beta()
        delta = Fraction(1, rng.randint(10**3, 10**6))
        pert = m3[:-1] + [m3[-2] + delta]
        w1 = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        target = rng.randint(K // 3, 2 * K // 3)
        s_atoms = [(Fraction(2, 5), -w1 / int(1.5 ** (target - 0.5))), (Fraction(3, 5), w1)]
        n_s, v_s = ref.first_signed_violation(s_atoms, 1, K)
        signed_ca = ref.ca_values(Fraction(1), Fraction(0), s_atoms, K)
        a4, b4, m4 = beta()
        a5, b5, m5 = beta()
        col5 = [Fraction(1)]
        for i in range(K):
            col5.append(col5[-1] * Fraction(b5 + i, a5 + b5 + i))
        return [
            self._certify("cm", m1, "beta"),
            self._certify("ca", ca, "beta"),
            self._certify("cm", pert, "perturbed", (1, K - 1, -delta)),
            self._certify("ca", signed_ca, "signed", (n_s, 0, -v_s)),
            self._minimal("cm", m4, "beta", ref.beta_column_zero_end(a4, b4, K)),
            self._binomial(m5, col5, "beta"),
        ]

    def cycle(self, index):
        groups = [
            self._k60(rng_for(NAME, self.seed, index, 60)),
            self._k200(rng_for(NAME, self.seed, index, 200)),
            self._k400(rng_for(NAME, self.seed, index, 400)),
        ]
        # interleave the sizes so that any prefix of a cycle has the same mix
        ops = []
        for i in range(max(map(len, groups))):
            ops.extend(g[i] for g in groups if i < len(g))
        return ops

    def warmup(self):
        rng = rng_for(NAME, self.seed, "warmup")
        K = 20
        atoms, m = _moments(rng, K, 2, 6, 16)
        ca = ref.ca_values(Fraction(1), Fraction(1, 3), atoms, K)
        return [
            self._certify("cm", m, "moment"),
            self._certify("ca", ca, "moment"),
            self._minimal("cm", m, "moment", ref.column_zero(atoms, K)[K]),
            self._degenerate("cm", m, "moment", "strict"),
            self._binomial(m, ref.column_zero(atoms, K), "moment"),
        ]

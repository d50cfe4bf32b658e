"""Moment inversion, exponential mapping and reconstruction.

Ground truths are built forward: moments of explicit measures/triplets are
computed directly and the fitted objects must reproduce them, with the
solver's own KKT gap and residual asserted against their contracts.
"""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtk import moments
from cmtk.errors import CertificationError, DomainError, NotRepresentableError
from cmtk.moments import (
    CATriplet,
    DiscreteMeasure,
    evaluate,
    extend_from_integer_samples,
    invert_ca,
    invert_cm,
    to_exponential,
)
from cmtk.seqcore import Sequence


def seq_of(fn, K):
    return Sequence.from_values([fn(k) for k in range(K + 1)])


class TestInvertCM:
    def test_point_mass_recovered(self):
        a = seq_of(lambda k: Fraction(1, 2**k), 20)
        measure, fit = invert_cm(a, grid_m=200)
        assert fit.residual <= 1e-8
        assert fit.kkt_gap <= 1e-10
        near = [w for u, w in measure.atoms if abs(u - 0.5) <= 1.0 / 200 + 1e-12]
        assert sum(near) >= 0.99 * measure.total_mass

    def test_lebesgue_moments_reconstruct_function(self):
        a = seq_of(lambda k: Fraction(1, k + 1), 20)
        measure, fit = invert_cm(a, grid_m=200)
        assert evaluate(measure, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert evaluate(measure, 3.0) == pytest.approx(0.25, abs=1e-3)

    def test_all_mass_at_zero(self):
        a = seq_of(lambda k: Fraction(1) if k == 0 else Fraction(0), 15)
        measure, fit = invert_cm(a)
        assert measure.weight_at_zero == pytest.approx(1.0, abs=1e-8)
        assert fit.residual <= 1e-10

    def test_moment_consistency(self):
        a = seq_of(lambda k: Fraction(1, k + 1), 15)
        measure, fit = invert_cm(a)
        for k in range(16):
            assert measure.moment(k) == pytest.approx(1.0 / (k + 1), abs=1e-9)

    def test_rejects_non_cm(self):
        a = seq_of(lambda k: Fraction(k % 2), 8)
        with pytest.raises(CertificationError):
            invert_cm(a)

    def test_not_representable_on_coarse_grid(self):
        # a genuine moment sequence whose atom (u = 1/2) is far off a 3-point
        # grid {0, 1/2-ish...}: M = 3 grid is {0, 1/3, 2/3, 1}
        a = seq_of(lambda k: Fraction(1, 2**k), 12)
        with pytest.raises(NotRepresentableError):
            invert_cm(a, grid_m=3, tol=1e-12)

    def test_endpoints_always_present(self):
        a = seq_of(lambda k: Fraction(1, 2**k), 10)
        measure, _ = invert_cm(a)
        assert measure.atoms[0][0] == 0.0
        assert measure.atoms[-1][0] == 1.0


class TestInvertCA:
    def test_pure_drift(self):
        a = seq_of(lambda k: Fraction(k), 20)
        triplet, fit = invert_ca(a)
        assert triplet.q == 0
        assert triplet.d == pytest.approx(1.0, abs=1e-12)
        assert triplet.measure.total_mass <= 1e-8

    def test_bounded_bf_atom(self):
        # a_k = 1 - 2^-k: mu = delta_{1/2}; drift floor estimate 2^-20
        a = seq_of(lambda k: 1 - Fraction(1, 2**k), 20)
        triplet, fit = invert_ca(a, tol=1e-6)
        assert triplet.q == 0
        assert triplet.d <= 1e-6
        near = [w for u, w in triplet.measure.atoms if abs(u - 0.5) <= 1.0 / 200 + 1e-12]
        assert sum(near) == pytest.approx(1.0, abs=2e-2)

    def test_ca_example_reproduces_sequence(self):
        # The drift floor estimate Delta a(K-1) = 1/420 at K = 20 caps the
        # default-route reproduction near 1e-3 (nonnegative atoms cannot
        # absorb a negative linear trend)...
        a = seq_of(lambda k: 1 - Fraction(1, k + 1), 20)
        triplet, fit = invert_ca(a, tol=1e-4)
        assert triplet.d == pytest.approx(1.0 / 420.0, rel=1e-12)
        for k in range(21):
            assert triplet.moment(k) == pytest.approx(float(a.values[k]), abs=5e-3)
        # ...while the kernel fit itself is sharp once the true drift is known
        exact_t, exact_fit = invert_ca(a, tol=1e-6, drift=0.0)
        assert exact_fit.residual <= 1e-8
        for k in range(21):
            assert exact_t.moment(k) == pytest.approx(float(a.values[k]), abs=1e-6)

    def test_drift_gap_reported(self):
        a = seq_of(lambda k: 1 - Fraction(1, 2**k), 20)
        _, fit = invert_ca(a, tol=1e-6)
        assert fit.drift_gap is not None and fit.drift_gap >= 0

    def test_q_kept_exactly(self):
        a = seq_of(lambda k: Fraction(3, 7) + k, 10)
        triplet, _ = invert_ca(a)
        assert triplet.q == Fraction(3, 7)


class TestExponentialMap:
    def test_atom_at_one_maps_to_zero(self):
        m = DiscreteMeasure(((0.0, 0.0), (1.0, 0.75)))
        e = to_exponential(m)
        assert e.atoms == ((0.0, 0.75),)
        assert e.mass_at_infinity == 0.0

    def test_atom_at_half_maps_to_log2(self):
        m = DiscreteMeasure(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
        e = to_exponential(m)
        carried = [(x, w) for x, w in e.atoms if w > 0]
        assert carried == [(pytest.approx(math.log(2.0), rel=1e-15), 1.0)]

    def test_zero_atom_becomes_infinity_mass(self):
        m = DiscreteMeasure(((0.0, 0.25), (1.0, 0.5)))
        e = to_exponential(m)
        assert e.mass_at_infinity == 0.25
        # counts at lambda = 0 (a_0 = full mass), not at lambda > 0
        assert e.laplace(0.0) == pytest.approx(0.75)
        assert e.laplace(1.0) == pytest.approx(0.5)


class TestSumsPastFloatRange:
    """Every nonnegative atom sum past float range reads inf, its correctly
    rounded value: fsum raised OverflowError on such finite terms."""

    ATOMS = ((0.0, 1e308), (0.9, 1e308), (0.95, 1e308))

    def test_measure(self):
        m = DiscreteMeasure(self.ATOMS)
        assert m.total_mass == m.moment(0) == m.moment(1) == math.inf
        assert m.weight_at_zero == 1e308
        assert evaluate(m, 0.0) == evaluate(m, 1e-300) == math.inf
        assert evaluate(m, 50.0) < 1e307

    def test_ca_triplet(self):
        t = CATriplet(0, 0.0, DiscreteMeasure(self.ATOMS))
        assert t.moment(100) == evaluate(t, 50.0) == math.inf
        assert evaluate(t, 0.0) == 0.0

    def test_exponential_measure(self):
        e = to_exponential(DiscreteMeasure(self.ATOMS))
        assert e.laplace(0.0) == e.bernstein(50.0) == e.bernstein(50.0, 1.0, 1.0) == math.inf
        assert e.laplace(50.0) < 1e307


class TestEvaluate:
    def test_single_exponential(self):
        m = DiscreteMeasure(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
        assert evaluate(m, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_drift_only_triplet(self):
        t = CATriplet(0, 1.0, DiscreteMeasure(((0.0, 0.0),)))
        assert evaluate(t, 3.0) == pytest.approx(3.0)

    def test_negative_lambda_rejected(self):
        m = DiscreteMeasure(((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            evaluate(m, -0.5)

    def test_from_dict_names_missing_key(self):
        with pytest.raises(ValueError, match="'u'"):
            DiscreteMeasure.from_dict({"atoms": [{"w": 1}]})

    def test_negative_lambda_is_a_domain_error(self):
        m = DiscreteMeasure(((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(DomainError):
            evaluate(m, -0.5)
        with pytest.raises(DomainError):
            evaluate(CATriplet(0, 1.0, DiscreteMeasure(((0.5, 1.0),))), -0.5)

    @pytest.mark.parametrize("data, field", [
        ({"atoms": [1]}, "measure atom must be a JSON object"),
        ({"atoms": 5}, "'atoms'"),
        ({"atoms": [{"u": None, "w": 1}]}, "'u'"),
        ({"atoms": [{"u": 0.5, "w": [1]}]}, "'w'"),
        ({}, "'atoms'"),
    ])
    def test_from_dict_names_malformed_field(self, data, field):
        with pytest.raises(ValueError, match=field):
            DiscreteMeasure.from_dict(data)

    @pytest.mark.parametrize("data, field", [
        ({"q": None, "atoms": []}, "'q'"),
        ({"d": "x", "atoms": []}, "'d'"),
        ([1, 2], "CA triplet must be a JSON object"),
    ])
    def test_ca_triplet_from_dict_names_malformed_field(self, data, field):
        with pytest.raises(ValueError, match=field):
            CATriplet.from_dict(data)

    def test_inverted_harmonic_at_three(self):
        a = seq_of(lambda k: Fraction(1, k + 1), 20)
        measure, _ = invert_cm(a)
        assert evaluate(measure, 3.0) == pytest.approx(0.25, abs=1e-3)


class TestExtend:
    def test_cm_interpolant(self):
        a = seq_of(lambda k: Fraction(1, k + 1), 20)
        f = extend_from_integer_samples(a, "cm")
        assert f(0.5) == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_ca_interpolant(self):
        a = Sequence.from_values([-math.expm1(-k) for k in range(21)])
        f = extend_from_integer_samples(a, "ca", tol=1e-6)
        assert f(0.5) == pytest.approx(-math.expm1(-0.5), abs=1e-3)

    def test_constant_samples(self):
        a = seq_of(lambda k: Fraction(5, 2), 10)
        f = extend_from_integer_samples(a, "cm")
        for lam in (0.0, 0.3, 2.0, 17.5):
            assert f(lam) == pytest.approx(2.5, rel=1e-12)

    def test_failure_carries_certificate(self):
        a = seq_of(lambda k: Fraction(k % 2), 8)
        with pytest.raises(CertificationError) as err:
            extend_from_integer_samples(a, "cm")
        assert err.value.certificate is not None
        assert err.value.certificate.failed


class TestInvariants:
    def test_forward_backward_consistency(self):
        random.seed(3)
        for _ in range(10):
            atoms = sorted(
                (random.randint(0, 200) / 200.0, random.uniform(0.1, 2.0))
                for _ in range(random.randint(1, 6))
            )
            merged = {}
            for u, w in atoms:
                merged[u] = merged.get(u, 0.0) + w
            truth_atoms = tuple(sorted(merged.items()))
            truth = DiscreteMeasure(truth_atoms)
            a = Sequence.from_values([truth.moment(k) for k in range(21)])
            fitted, fit = invert_cm(a)
            for lam in range(0, 21):
                assert abs(evaluate(fitted, lam) - evaluate(truth, lam)) <= max(
                    10 * fit.residual, 1e-9
                )

    def test_cm_egf_identity(self):
        # sum a_k (-t)^k / k! = sum w e^{-t u} for the fitted measure
        a = seq_of(lambda k: Fraction(1, k + 1), 20)
        measure, fit = invert_cm(a)
        for t in (0.0, 0.25, 0.5, 1.0):
            lhs = math.fsum(
                float(v) * (-t) ** k / math.factorial(k)
                for k, v in enumerate(a.values)
            )
            rhs = math.fsum(w * math.exp(-t * u) for u, w in measure.atoms)
            trunc = t ** 21 / math.factorial(21)
            assert abs(lhs - rhs) <= trunc + 100 * fit.residual + 1e-10

    def test_uniqueness_two_grids_agree(self):
        a = seq_of(lambda k: Fraction(1, k + 1), 20)
        m1, f1 = invert_cm(a, grid_m=200)
        m2, f2 = invert_cm(a, grid_m=173)
        for lam in range(21):
            assert abs(evaluate(m1, lam) - evaluate(m2, lam)) <= max(
                10 * (f1.residual + f2.residual), 1e-9
            )

    def test_minimality_coupling(self):
        # fitted u = 0 weight matches the atom-at-zero trail estimate
        from cmtk.classify import atom_at_zero

        a = seq_of(lambda k: Fraction(2, 5) if k == 0 else Fraction(0), 25)
        measure, fit = invert_cm(a)
        est = atom_at_zero(a, "cm", 25)
        assert abs(measure.weight_at_zero - float(est.estimate)) <= max(
            1e-4, 10 * fit.residual
        )


def _fit_outcome(a, kind, grid, tol):
    """(model, fit report) of the fit of ``a``, or the NotRepresentableError
    it raised."""
    try:
        return (invert_cm if kind == "cm" else invert_ca)(a, grid, tol)
    except NotRepresentableError as exc:
        return exc


def _times(outcome, e):
    """The numbers of a fit outcome that carry the data's scale, times 2**e."""
    if isinstance(outcome, NotRepresentableError):
        return ("not representable", math.ldexp(outcome.residual, e),
                math.ldexp(outcome.threshold, e))
    model, fit = outcome
    atoms = model.atoms if isinstance(model, DiscreteMeasure) else model.measure.atoms
    scaled = [(u, math.ldexp(w, e)) for u, w in atoms]
    if isinstance(model, CATriplet):
        scaled += [Fraction(model.q) * Fraction(2)**e, math.ldexp(model.d, e),
                   math.ldexp(fit.drift_gap, e)]
    return scaled, math.ldexp(fit.residual, e), math.ldexp(fit.kkt_gap, e), fit.grid_size


class TestScale:
    """c a is CM (or CA) exactly when a is, for every c > 0, and the fits
    solve at the data's binade: the fits of 2^e a are 2^e times the fits of
    a, bit for bit, with the same verdict."""

    @pytest.mark.parametrize("e", [-60, -1, 1, 60])
    @pytest.mark.parametrize("kind", ["cm", "ca"])
    def test_scaled_data_scale_the_fit(self, kind, e):
        rng = random.Random(f"{kind}{e}")
        verdicts = set()
        for _ in range(30):
            grid = rng.choice([1, 3, 10, 200])
            # atoms on the grid fit; atoms off it need not
            us = [rng.randrange(grid) / grid if rng.random() < 0.5 else rng.random()
                  for _ in range(rng.randint(1, 3))]
            ws = [rng.uniform(0.1, 2.0) for _ in us]
            q, d = rng.uniform(0.0, 2.0), rng.choice([0.0, rng.uniform(0.0, 0.1)])
            K = rng.randint(2, 20)
            if kind == "cm":
                vals = [math.fsum(w * u**k for u, w in zip(us, ws)) for k in range(K + 1)]
            else:
                vals = [q + d * k + math.fsum(w * (1.0 - u**k) for u, w in zip(us, ws))
                        for k in range(K + 1)]
            tol = rng.choice([1e-10, 1e-6, 1e-3])
            want = _fit_outcome(Sequence.from_values(vals), kind, grid, tol)
            got = _fit_outcome(Sequence.from_values([math.ldexp(v, e) for v in vals]),
                               kind, grid, tol)
            assert _times(got, 0) == _times(want, e)
            verdicts.add(isinstance(got, NotRepresentableError))
        assert verdicts == {False, True}

    def test_weight_past_float_range_refused(self):
        # a_k = c (1 - u^k), u = 199/200, stays in float range to k = 3, but
        # its weight c = 1e310 does not, once scaled back: refused, not a fit
        # with null weights
        u = Fraction(199, 200)
        a = seq_of(lambda k: 10**310 * (1 - u**k), 3)
        with pytest.raises(ValueError, match="NNLS weight is beyond float range"):
            invert_ca(a, drift=0.0)

    def test_drift_past_float_range_at_the_data_binade_refused(self):
        # 1e10 / 2^-996 passes float range: a ValueError, not an OverflowError
        a = Sequence.from_values([0.0, 1e-300, 2e-300])
        with pytest.raises(ValueError, match=r"^drift 10000000000\.0 times k passes float range "
                                             r"once scaled by 2\^996$"):
            invert_ca(a, drift=1e10)

    @pytest.mark.parametrize("values", [[0.0, 1e-300, 2e-300], [0, 0.5, 0.75, 0.875]])
    @pytest.mark.parametrize("drift", [math.nan, math.inf, -math.inf])
    def test_non_finite_drift_refused(self, values, drift):
        # a NaN drift once passed the clamp and CATriplet's d < 0 check
        with pytest.raises(ValueError, match=f"^drift must be finite, not {drift!r}$"):
            invert_ca(Sequence.from_values(values), drift=drift)

    @pytest.mark.parametrize("values, drift, message", [
        ([0.0, 1e-300, 2e-300], 1.0, "residual 2.236e+00 > 1.493e-308"),
        ([0, 0.5, 0.75, 0.875], 1e300, "residual 3.742e+300 > 5.000e-09"),
    ])
    def test_mismatch_whose_squares_pass_float_range(self, values, drift, message):
        # a finite mismatch near float range: its norm once overflowed in
        # numpy's dot to a RuntimeWarning and a residual of inf
        with pytest.raises(NotRepresentableError, match=f"^not representable at this grid: "
                                                        f"{re.escape(message)}$"):
            invert_ca(Sequence.from_values(values), drift=drift)

    @pytest.mark.parametrize("unit, c, grid", [
        # not representable at scale 1 (residual 0.476), once a "fit" at
        # 1e-12 with a residual of 48% of the data
        pytest.param([Fraction(11, 20)**k for k in range(8)], Fraction(1, 10**12), 1,
                     id="0.55^k-at-1e-12"),
        # a fit at scale 1, once "not representable: residual 2.494e+284"
        pytest.param([Fraction(1, 2**k) for k in range(4)], Fraction(10**300), 200,
                     id="2^-k-at-1e300"),
    ])
    def test_verdict_of_the_copy_scaled_to_one(self, unit, c, grid):
        want = _fit_outcome(Sequence.from_values(unit), "cm", grid, 1e-10)
        got = _fit_outcome(Sequence.from_values([c * v for v in unit]), "cm", grid, 1e-10)
        assert type(got) is type(want)


EXTENSION = "scipy.optimize._slsqplib"


@pytest.fixture(scope="module")
def direct_routine():
    """The NNLS routine as ``moments`` finds it from its extension file, even
    when scipy.optimize, which registers the same extension, is loaded."""
    saved = sys.modules.pop(EXTENSION, None)
    moments._nnls_routine.cache_clear()
    try:
        routine = moments._nnls_routine()
    finally:
        if saved is not None:
            sys.modules[EXTENSION] = saved
        moments._nnls_routine.cache_clear()
    assert routine is not None
    return routine


@pytest.fixture
def fallback(monkeypatch):
    """Force the fallback: no extension file is found, so the fits import
    scipy.optimize.nnls."""
    import importlib.machinery

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    monkeypatch.delitem(sys.modules, EXTENSION, raising=False)
    moments._nnls_routine.cache_clear()
    assert moments._nnls_routine() is None
    yield
    moments._nnls_routine.cache_clear()


def _scaled_system(K, grid, ca, rng):
    """A fit's unit-column-scaled kernel (the CM kernel u^k on grid + 1 nodes
    or the CA kernel 1 - u^k on grid nodes) and a target: the moments of a
    few off-grid atoms plus a little noise, so that the fit is not exact."""
    import numpy as np

    u, V = moments._power_kernel(K, grid, grid if ca else grid + 1)
    if ca:
        np.subtract(1.0, V, out=V)
    scale = np.linalg.norm(V, axis=0)
    scale[scale == 0.0] = 1.0
    atoms, weights = rng.uniform(0.0, 1.0, 3), rng.uniform(0.0, 2.0, 3)
    powers = atoms[None, :] ** np.arange(K + 1)[:, None]
    target = ((1.0 - powers) if ca else powers) @ weights
    return V / scale, target + rng.normal(0.0, 1e-6, K + 1)


class TestNNLSRoutine:
    """The fits call SciPy's compiled NNLS routine loaded from its extension
    file; its x and rnorm must keep the bits of scipy.optimize.nnls, and the
    fallback to scipy.optimize.nnls must give the same reports."""

    @given(st.integers(min_value=1, max_value=40),
           st.one_of(st.sampled_from([200, 1000]), st.integers(min_value=1, max_value=60)),
           st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bits_match_scipy_optimize(self, direct_routine, K, grid, ca, seed):
        import numpy as np
        from scipy.optimize import nnls

        A, b = _scaled_system(K, grid, ca, np.random.default_rng(seed))
        x, rnorm, info = direct_routine(A, b, 3 * A.shape[1])
        want_x, want_rnorm = nnls(A, b)
        assert info != 3
        assert x.tobytes() == want_x.tobytes()
        assert rnorm == want_rnorm
        assert moments._nnls(A, b).tobytes() == want_x.tobytes()

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_nonnegative_systems(self, direct_routine, m, n, seed):
        import numpy as np
        from scipy.optimize import nnls

        rng = np.random.default_rng(seed)
        A, b = rng.uniform(0.0, 1.0, (m, n)), rng.uniform(-1.0, 1.0, m)
        x, rnorm, _ = direct_routine(A, b, 3 * n)
        want_x, want_rnorm = nnls(A, b)
        assert x.tobytes() == want_x.tobytes()
        assert rnorm == want_rnorm

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["kernel", "target"])
    def test_non_finite_raises_the_same_error(self, bad, where, monkeypatch):
        import numpy as np

        A, b = np.ones((3, 2)), np.ones(3)
        (A if where == "kernel" else b)[1] = bad
        with pytest.raises(ValueError) as direct:
            moments._nnls(A, b)
        monkeypatch.setattr(moments, "_nnls_routine", lambda: None)
        with pytest.raises(ValueError) as fell_back:
            moments._nnls(A, b)
        assert str(direct.value) == str(fell_back.value)

    @pytest.mark.parametrize("name", ["invert", "invert-ca", "invert-not-representable",
                                      "extend", "extend-ca", "egf", "egf-bf"])
    def test_fallback_keeps_golden_reports(self, name, fallback, tmp_path, monkeypatch):
        from test_cli_reports import CASES, GOLDEN, run_case

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CMTK_MAX_EVALS", raising=False)
        _, report = run_case(CASES[name], tmp_path)
        assert report == (GOLDEN / f"{name}.json").read_bytes()

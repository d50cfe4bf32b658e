"""Bernstein triplets: evaluation, extraction, theta membership, the
self-decomposability suite and the EGF identity."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmtk.bernstein import (
    _SCALE_DEPTH,
    BernsteinTriplet,
    _derivative_samples,
    check_bf_via_theta,
    check_selfdecomposable,
    egf_validate,
    eval_bernstein,
    extract_triplet,
    triplet_handle,
)
from cmtk.builtins import get_handle
from cmtk.classify import CA, INCONCLUSIVE, certify
from cmtk.errors import CertificationError, DomainError
from cmtk.funcops import FunctionHandle, apply_operator, sampled_sequence
from cmtk.moments import invert_ca
from cmtk.scalars import EPS
from cmtk.seqcore import Sequence, difference_table


def random_triplet(rng, max_atoms=8, x_range=(0.1, 3.0)):
    """Random rational triplet with atoms inside the grid-resolvable band
    (the M = 200 u-grid covers x up to ln 200 ~ 5.3)."""
    n = rng.randint(0, max_atoms)
    q = Fraction(rng.randint(0, 12), rng.randint(1, 6))
    d = Fraction(rng.randint(0, 8), rng.randint(1, 4)) if rng.random() < 0.7 else Fraction(0)
    xs = sorted(
        Fraction(rng.randint(int(x_range[0] * 100), int(x_range[1] * 100)), 100)
        for _ in range(n)
    )
    atoms = tuple(
        (float(x), float(Fraction(rng.randint(1, 40), 20))) for x in set(xs)
    )
    return BernsteinTriplet(float(q), float(d), tuple(sorted(atoms)))


class TestEval:
    def test_single_atom(self):
        t = BernsteinTriplet(0.0, 0.0, ((1.0, 1.0),))
        assert eval_bernstein(t, 1.0) == pytest.approx(-math.expm1(-1.0), rel=1e-15)

    def test_affine(self):
        t = BernsteinTriplet(2.0, 3.0, ())
        assert eval_bernstein(t, 4.0) == 14.0

    def test_bounded_saturation(self):
        t = BernsteinTriplet(0.5, 0.0, ((1.0, 0.5), (2.0, 0.25)))
        assert eval_bernstein(t, 1e9) == pytest.approx(0.5 + 0.75, rel=1e-12)

    def test_nondecreasing_and_concave_on_samples(self):
        t = BernsteinTriplet(0.25, 0.5, ((0.5, 1.0), (2.0, 0.75)))
        vals = [eval_bernstein(t, 0.1 * k) for k in range(200)]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d >= 0 for d in diffs)
        assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))

    def test_negative_lambda(self):
        from cmtk.errors import DomainError

        with pytest.raises(DomainError):
            eval_bernstein(BernsteinTriplet(0.0, 1.0, ()), -1.0)

    def test_infinite_levy_weight_rejected(self):
        # a ValueError, not an assert, so that python -O keeps the check
        with pytest.raises(ValueError, match="finite"):
            BernsteinTriplet(0.0, 0.0, ((1.0, math.inf),))

    def test_levy_integral_past_float_range_rejected(self):
        # fsum of the finite terms 1e308 * (1 ^ x) overflowed into an OverflowError
        with pytest.raises(ValueError, match="^levy atoms must have finite integral of 1 \\^ x$"):
            BernsteinTriplet(0.0, 0.0, ((1.0, 1e308), (2.0, 1e308)))

    def test_handle_sums_past_float_range_read_inf(self):
        # the integral of 1 ^ x is 1.5e308, but Phi and Phi' pass float range
        t = BernsteinTriplet(0.0, 0.0, ((0.5, 1.5e308), (2.0, 0.75e308)))
        assert t.total_levy_mass == math.inf
        h = triplet_handle(t)
        assert h(100.0) == eval_bernstein(t, 100.0) == math.inf
        assert h.derivative(0.0) == math.inf
        assert h(1e-300) < math.inf

    def test_from_dict_names_missing_key(self):
        with pytest.raises(ValueError, match="'w'"):
            BernsteinTriplet.from_dict({"levy": [{"x": 1}]})

    @pytest.mark.parametrize("data, field", [
        ([{"x": 1, "w": 1}], "triplet must be a JSON object"),
        ({"levy": [{"x": None, "w": 1}]}, "'x'"),
        ({"levy": [[1, 1]]}, "levy atom must be a JSON object"),
        ({"levy": 3}, "'levy'"),
        ({"q": None}, "'q'"),
    ])
    def test_from_dict_names_malformed_field(self, data, field):
        with pytest.raises(ValueError, match=field):
            BernsteinTriplet.from_dict(data)

    def test_handle_derivative_is_exact(self):
        t = BernsteinTriplet(0.0, 0.5, ((2.0, 1.5),))
        h = triplet_handle(t)
        for lam in (0.0, 0.3, 2.0):
            expected = 0.5 + 1.5 * 2.0 * math.exp(-2.0 * lam)
            assert h.derivative(lam) == pytest.approx(expected, rel=1e-15)


class TestExtract:
    def test_single_atom_model(self):
        phi = get_handle("one-minus-exp")
        t, rep = extract_triplet(phi, tol=1e-6)
        assert t.q == 0.0
        assert t.d <= 1e-6
        near = [w for x, w in t.levy if abs(x - 1.0) <= 0.02]
        assert sum(near) == pytest.approx(1.0, abs=2e-2)

    def test_affine(self):
        phi = FunctionHandle(lambda lam: 2.0 + 3.0 * lam, "affine")
        t, rep = extract_triplet(phi)
        assert t.q == 2.0
        assert t.d == pytest.approx(3.0, abs=1e-6)
        assert t.total_levy_mass <= 1e-8

    def test_ratio_bf_roundtrip(self):
        phi = get_handle("bf-ratio")
        t, rep = extract_triplet(phi, tol=1e-6)
        assert t.q == 0.0
        assert t.d <= 1e-6
        for k in range(21):
            assert eval_bernstein(t, k) == pytest.approx(k / (1.0 + k), abs=1e-6)

    def test_rejects_non_ca(self):
        with pytest.raises(CertificationError):
            extract_triplet(get_handle("square"))

    def test_far_field_past_float_range_is_refused(self):
        # the drift read off Phi(1e7 + 1) - Phi(1e7) is inf: the fit's drift message
        phi = FunctionHandle(lambda x: math.inf if x > 1e7 else float(x) / (1.0 + float(x)))
        with pytest.raises(ValueError, match="^drift must be finite, not inf$"):
            extract_triplet(phi)

    def test_builds_one_table(self, monkeypatch):
        # the reported depth-15 certificate and the fit's depth-30 one are
        # read from the same table
        seq = sampled_sequence(get_handle("bf-ratio"), [float(k) for k in range(31)])
        expected = certify(seq, CA, 15)
        built = []

        def counting(a, depth):
            built.append(depth)
            return difference_table(a, depth)

        for name, module in list(sys.modules.items()):
            if name.startswith("cmtk") and vars(module).get("difference_table") is difference_table:
                monkeypatch.setattr(module, "difference_table", counting)
        t, rep = extract_triplet(get_handle("bf-ratio"), tol=1e-6)
        assert built == [30]
        assert rep.certificate == expected

    def test_roundtrip_ensemble(self):
        # sample -> extract -> evaluate on the integer lattice in [0, 20]:
        # q exact, d within 1e-3, sup error within 10x the fit residual
        rng = random.Random(20250811)
        for trial in range(50):
            truth = random_triplet(rng)
            phi = triplet_handle(truth)
            got, rep = extract_triplet(phi, tol=1e-4)
            assert got.q == eval_bernstein(truth, 0.0)
            assert abs(got.d - truth.d) <= 1e-3
            floor = 64 * 2.0**-52 * max(1.0, eval_bernstein(truth, 20.0))
            allowance = max(10.0 * rep.fit.residual, floor)
            for k in range(21):
                recon = eval_bernstein(got, k)
                assert abs(recon - eval_bernstein(truth, k)) <= allowance


class TestThetaMembership:
    def test_drift_annihilated(self):
        rep = check_bf_via_theta(get_handle("linear"))
        assert rep.overall_pass
        for e in rep.entries:
            assert e.theta_at_zero == 0.0
            assert e.sup_estimate == 0.0

    def test_bounded_bf_passes(self):
        # theta_1 Phi for Phi = 1-e^-lam is (1-e^-1)(1-e^-lam): a bounded
        # Bernstein function null at zero, checked by direct algebra
        phi = get_handle("one-minus-exp")
        theta_direct = lambda lam: (1.0 - math.exp(-1.0)) * -math.expm1(-lam)
        from cmtk.funcops import apply_operator

        th = apply_operator(phi, "theta", 1.0)
        for lam in (0.0, 0.5, 2.0, 9.0):
            assert th(lam) == pytest.approx(theta_direct(lam), abs=1e-14)
        assert check_bf_via_theta(phi).overall_pass

    def test_ratio_and_sqrt_pass(self):
        assert check_bf_via_theta(get_handle("bf-ratio")).overall_pass
        assert check_bf_via_theta(get_handle("sqrt-triplet")).overall_pass

    def test_square_fails_at_depth_one(self):
        # theta_1 lam^2 = 1 + lam^2 - (lam+1)^2 = -2 lam: CA fails at n=1
        rep = check_bf_via_theta(get_handle("square"), cs=(1.0,))
        assert not rep.overall_pass
        entry = rep.entries[0]
        assert entry.certificate.failed
        assert entry.certificate.witness[0] == 1

    @pytest.mark.parametrize("cs", [(math.nan,), (1.0, math.nan)])
    def test_nan_c_refused(self, cs):
        # not Fraction's "cannot convert NaN to integer ratio"
        with pytest.raises(ValueError, match="^c must be positive$"):
            check_bf_via_theta(get_handle("bf-ratio"), cs=cs)

    def test_theta_mass_identity(self):
        # total fitted mass of theta_c Phi equals Phi(c) - Phi(0) - d c
        truth = BernsteinTriplet(1.5, 0.75, ((0.5, 1.0), (2.0, 0.5)))
        phi = triplet_handle(truth)
        from cmtk.funcops import apply_operator

        for c in (0.5, 1.0):
            th = apply_operator(phi, "theta", c)
            t, rep = extract_triplet(th, tol=1e-5)
            expected = eval_bernstein(truth, c) - truth.q - truth.d * c
            fitted = t.total_levy_mass + rep.nonminimal_mass
            assert fitted == pytest.approx(expected, abs=1e-4)


class TestExactMagnitudesPastFloatRange:
    def test_theta_check_of_exact_samples(self):
        # the bounds of exact samples, never used, were computed in float
        # from magnitudes past its range (an OverflowError)
        rep = check_bf_via_theta(get_handle("linear"), (1.7e308, 1.0), 10)
        assert rep.overall_pass


class TestThetaSoundnessOracle:
    """check_bf_via_theta samples theta_c Phi at k = 0..depth + 10 at the
    points k + Fraction(float(c)).  The rational-valued builtins sampled
    exactly there give the exact CA verdict on the same data.  Run on the
    same builtins rounded to float once per value, the check's float pass or
    fail must be that verdict."""

    @given(st.sampled_from(["reciprocal", "bf-ratio", "linear", "square"]),
           st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=1000),
           st.integers(min_value=2, max_value=24))
    @settings(max_examples=200, deadline=None)
    def test_float_verdict_never_contradicts_exact(self, name, c, depth):
        f = get_handle(name)
        point = Fraction(float(c))  # the c that check_bf_via_theta evaluates at

        def at(x):
            return f.fn(Fraction(x))

        exact = Sequence.from_values(
            [at(point) - at(0) + at(k) - at(k + point) for k in range(depth + 11)])
        assert exact.mode == "exact"
        want = certify(exact, CA, depth).verdict
        rounded = FunctionHandle(lambda x: float(at(x)), name)
        got = check_bf_via_theta(rounded, (c,), depth).entries[0].certificate
        assert got.mode == "float"
        if got.verdict != INCONCLUSIVE:
            assert got.verdict == want

    @given(st.sampled_from(["reciprocal", "bf-ratio", "linear", "square"]),
           st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=128), st.integers(min_value=1, max_value=128),
           st.integers(min_value=2, max_value=24))
    # theta_{1/2}(1000 x + x / (1 + x)) is below 1 and its magnitude thousands
    # of times k: bounds read from the values certified a violation
    @example("bf-ratio", 1000, 32, 64, 15)
    @example("bf-ratio", 1000, 32, 32, 15)
    @settings(max_examples=200, deadline=None)
    def test_composed_handle(self, name, drift, i, j, depth):
        """theta_{c0}(D x + f) built by apply_operator, its base rounded to
        float once per value.  c0 = i/64 and c = j/64 keep every point the
        handle is evaluated at a float, so the exact table is the same data."""
        f = get_handle(name)
        c0, c = Fraction(i, 64), Fraction(j, 64)

        def g(x):
            return drift * x + f.fn(Fraction(x))

        def theta(x):  # theta_{c0} g, exactly
            return g(c0) - g(0) + g(x) - g(x + c0)

        exact = Sequence.from_values(
            [theta(c) - theta(0) + theta(k) - theta(k + c) for k in range(depth + 11)])
        want = certify(exact, CA, depth).verdict
        base = FunctionHandle(lambda x: float(g(x)), f"{drift}x+{name}")
        composed = apply_operator(base, "theta", float(c0))
        got = check_bf_via_theta(composed, (float(c),), depth).entries[0].certificate
        assert got.mode == "float"
        if got.verdict != INCONCLUSIVE:
            assert got.verdict == want


class TestSelfDecSoundnessOracle:
    """check_selfdecomposable's scale tests sample Phi at k and c k, k = 0..23,
    with c read as Fraction(float(c)).  The rational-valued builtins sampled
    exactly there give the exact CA verdict at the scale tests' depth on the
    same data.  Run on the same builtins rounded to float once per value,
    each scale test's float pass or fail must be that verdict."""

    @given(st.sampled_from(["reciprocal", "bf-ratio", "linear", "square"]),
           st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000),
                        max_denominator=1000))
    @settings(max_examples=200, deadline=None)
    def test_float_verdict_never_contradicts_exact(self, name, c):
        f = get_handle(name)
        point = Fraction(float(c))  # the c that check_selfdecomposable evaluates at

        def at(x):
            return f.fn(Fraction(x))

        exact = Sequence.from_values([at(k) - at(point * k) for k in range(_SCALE_DEPTH + 9)])
        assert exact.mode == "exact"
        want = certify(exact, CA, _SCALE_DEPTH).verdict
        rounded = FunctionHandle(lambda x: float(at(x)), name)
        got = check_selfdecomposable(rounded, (c,), 2).scale_tests[0].certificate
        assert got.mode == "float"
        if got.verdict != INCONCLUSIVE:
            assert got.verdict == want

    @given(st.sampled_from(["reciprocal", "bf-ratio", "linear", "square"]),
           st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=128), st.integers(min_value=1, max_value=63))
    @settings(max_examples=200, deadline=None)
    def test_composed_handle(self, name, drift, i, j):
        """The scale tests of theta_{c0}(D x + f), built as in
        TestThetaSoundnessOracle.test_composed_handle, at c = j/64."""
        f = get_handle(name)
        c0, c = Fraction(i, 64), Fraction(j, 64)

        def g(x):
            return drift * x + f.fn(Fraction(x))

        def theta(x):  # theta_{c0} g, exactly
            return g(c0) - g(0) + g(x) - g(x + c0)

        exact = Sequence.from_values([theta(k) - theta(c * k) for k in range(_SCALE_DEPTH + 9)])
        want = certify(exact, CA, _SCALE_DEPTH).verdict
        base = FunctionHandle(lambda x: float(g(x)), f"{drift}x+{name}")
        composed = apply_operator(base, "theta", float(c0))
        got = check_selfdecomposable(composed, (float(c),), 2).scale_tests[0].certificate
        assert got.mode == "float"
        if got.verdict != INCONCLUSIVE:
            assert got.verdict == want


class TestSelfDecomposable:
    def test_log1p_passes(self):
        rep = check_selfdecomposable(get_handle("log1p"), depth=30, tol=0.05)
        assert rep.sd_pass
        b = rep.derivative_test
        assert b.certificate.passed
        assert b.minimality.minimal
        # exact path: the derivative is rational at integers
        assert b.certificate.mode == "exact"
        assert b.minimality.atom.estimate == Fraction(1, 31)

    def test_one_minus_exp_fails_with_witness(self):
        rep = check_selfdecomposable(get_handle("one-minus-exp"), depth=30)
        assert rep.verdict == "fail"
        cert = rep.derivative_test.certificate
        assert cert.failed
        n, k, value = cert.witness
        assert (n, k) == (1, 1)
        # D[1][1] = -(b_2 - b_1) = e^-1 - 2 e^-2 ~ 0.0972
        assert value == pytest.approx(math.exp(-1) - 2 * math.exp(-2), rel=1e-12)

    def test_pure_drift_passes(self):
        rep = check_selfdecomposable(get_handle("linear"), depth=30)
        assert rep.sd_pass
        assert rep.derivative_test.certificate.mode == "exact"

    def test_consistency_b_implies_a(self):
        # anything passing the derivative test passes every probed scale test
        for h in (get_handle("log1p"), get_handle("linear")):
            rep = check_selfdecomposable(h, depth=30, tol=0.05)
            if rep.derivative_test.passed:
                assert all(e.passed for e in rep.scale_tests)

    def test_caveat_always_present(self):
        rep = check_selfdecomposable(get_handle("linear"))
        assert any("holomorphic" in c for c in rep.caveats)

    def test_domain_error_of_the_derivative_propagates(self):
        # a DomainError is also a ValueError; it must not read as a
        # non-finite derivative sample that skips the derivative test
        def derivative(lam):
            raise DomainError("derivative undefined here")

        phi = FunctionHandle(math.log1p, "log1p", derivative=derivative)
        with pytest.raises(DomainError, match="derivative undefined"):
            check_selfdecomposable(phi, depth=12)

    def test_derivative_rounding_reads_the_magnitude(self):
        # theta_{1/2}(1e9 x + log1p x) is below 1 and its magnitude about 4e9 k:
        # a rounding term of EPS |Phi(k)| / h put 2 Phi'(2) = 0.095 at 0.437 +- 0.199
        phi = apply_operator(FunctionHandle(lambda x: 1e9 * x + math.log1p(x)), "theta", 0.5)
        vals, errs, worst = _derivative_samples(phi, 4)
        assert worst == max(errs)
        for k in range(5):
            assert errs[k] >= EPS * phi.bounded(float(k))[1] / (1e-6 * max(1, k))
        for k in range(1, 5):
            assert abs(vals[k] - (1 / (1 + k) - 1 / (1.5 + k))) <= errs[k]

    def test_central_difference_fallback(self):
        phi = FunctionHandle(lambda lam: math.log1p(lam), "log1p-noderiv")
        rep = check_selfdecomposable(phi, depth=12, tol=0.2)
        assert rep.derivative_test is not None
        assert rep.derivative_error is not None and rep.derivative_error < 1e-6
        assert rep.derivative_test.certificate.verdict in ("pass", "inconclusive")


class TestEGF:
    def test_pure_drift_identity(self):
        a = Sequence.from_values([Fraction(k) for k in range(21)])
        t, _ = invert_ca(a)
        assert egf_validate(a, t) <= 1e-12

    def test_geometric_identity(self):
        a = Sequence.from_values([1 - Fraction(1, 2**k) for k in range(21)])
        # default drift floor estimate 2^-20 biases the identity at ~1e-6
        t, _ = invert_ca(a, tol=1e-6)
        assert egf_validate(a, t) <= 2e-6
        # with the true drift the fitted measure is delta_{1/2} and the
        # identity closes to solver precision
        t0, _ = invert_ca(a, tol=1e-6, drift=0.0)
        assert egf_validate(a, t0) <= 1e-8

    def test_constant_identity(self):
        a = Sequence.from_values([Fraction(5, 4)] * 15)
        t, _ = invert_ca(a)
        assert egf_validate(a, t) <= 1e-12

    def test_past_factorial_range(self):
        # k! leaves float range at k = 171; a_k / k! was an OverflowError
        a = Sequence.from_values([Fraction(k) for k in range(200)])
        t, _ = invert_ca(a, grid_m=20)
        assert egf_validate(a, t) <= 1e-12

    def test_sum_past_float_range(self):
        # the partial sums of a_k s^k / k! pass float range (fsum raised);
        # e^{-s} times the sum does not
        a = Sequence.from_values([1.7e308, 1.7e308])
        t, _ = invert_ca(a)
        assert egf_validate(a, t) == pytest.approx(1.7e308 * (1.0 - 2.0 * math.exp(-1.0)))

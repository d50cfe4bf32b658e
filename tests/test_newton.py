"""Gregory-Newton machinery: series construction, evaluation and
extrapolation.

Series coefficients are checked against brute-force forward differences
computed independently.
"""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtk import newton
from cmtk.newton import (
    NewtonSeries,
    eval_series,
    extrapolate_series,
    series_from_samples,
)
from cmtk.seqcore import Sequence, euler_transform, read_sequence

HARMONIC = Path(__file__).parent / "data" / "cli" / "harmonic.csv"


def brute_forward_difference(values, n):
    return sum(math.comb(n, i) * (-1) ** (n - i) * values[i] for i in range(n + 1))


class TestSeries:
    def test_geometric_coefficients(self):
        # brute force: Delta^k f(0) = (-1/2)^k for f = 2^-z
        vals = [Fraction(1, 2**k) for k in range(8)]
        for k in range(8):
            assert brute_forward_difference(vals, k) == Fraction(-1, 2) ** k
        s = series_from_samples(Sequence.from_values(vals))
        for k in range(8):
            assert s.coeffs[k] == Fraction(-1, 2) ** k / math.factorial(k)

    def test_reciprocal_coefficients(self):
        vals = [Fraction(1, k + 1) for k in range(10)]
        s = series_from_samples(Sequence.from_values(vals))
        for k in range(10):
            assert brute_forward_difference(vals, k) == Fraction((-1) ** k, k + 1)
            assert s.coeffs[k] * math.factorial(k) == Fraction((-1) ** k, k + 1)

    def test_constant_samples(self):
        s = series_from_samples(Sequence.from_values([Fraction(7)] * 6))
        assert s.coeffs[0] == 7
        assert all(c == 0 for c in s.coeffs[1:])

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=30),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_interpolation_invariant(self, vals):
        # the partial sums reproduce every retained sample exactly
        seq = Sequence.from_values([Fraction(v) for v in vals])
        s = series_from_samples(seq)
        for n, expected in enumerate(vals):
            assert eval_series(s, n).value == expected

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=30),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_euler_consistency(self, vals):
        # coefficients times k! equal the Euler transform entrywise
        seq = Sequence.from_values([Fraction(v) for v in vals])
        s = series_from_samples(seq)
        assert tuple(c * math.factorial(k) for k, c in enumerate(s.coeffs)) == euler_transform(seq).values


class TestEvalSeries:
    def geometric_series(self, n=60):
        vals = [Fraction(1, 2**k) for k in range(n)]
        return series_from_samples(Sequence.from_values(vals))

    def reciprocal_series(self, n=60):
        vals = [Fraction(1, k + 1) for k in range(n)]
        return series_from_samples(Sequence.from_values(vals))

    def test_node_is_exact(self):
        s = self.geometric_series(20)
        assert eval_series(s, 2).value == Fraction(1, 4)

    def test_geometric_converges_fast(self):
        s = self.geometric_series(60)
        v = float(eval_series(s, Fraction(1, 2)).value)
        assert abs(v - 2 ** -0.5) <= 1e-12

    def test_reciprocal_converges_at_algebraic_rate(self):
        # the error at z = 1/2 scales like 0.19 N^{-3/2}: slow but Cauchy
        errors = {}
        for n in (20, 40, 80):
            s = self.reciprocal_series(n)
            v = float(eval_series(s, Fraction(1, 2)).value)
            errors[n] = abs(v - 2.0 / 3.0)
        assert errors[40] < errors[20]
        assert errors[80] < errors[40]
        for n, err in errors.items():
            assert err == pytest.approx(0.19 * n ** -1.5, rel=0.25)

    def test_tail_estimate_reported(self):
        s = self.reciprocal_series(60)
        out = eval_series(s, 0.5)
        assert out.tail_estimate > 0
        assert out.tail_estimate < 1e-4

    def test_divergence_warning_off_halfplane(self):
        s = self.geometric_series(40)
        out = eval_series(s, -3.5)
        assert any("half-plane" in w for w in out.warnings)

    def test_term_growth_warning(self):
        # alternating samples make the terms blow up away from the nodes
        vals = [Fraction((-2) ** k) for k in range(30)]
        s = series_from_samples(Sequence.from_values(vals))
        out = eval_series(s, Fraction(21, 2))
        assert any("divergence" in w for w in out.warnings)

    def test_complex_evaluation(self):
        s = self.geometric_series(60)
        z = 1.5 + 0.5j
        got = complex(eval_series(s, z).value)
        expected = 2 ** -(z)
        assert abs(got - expected) <= 1e-10

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(0.5, math.inf)])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(ValueError, match="finite"):
            eval_series(self.geometric_series(10), z)

    def test_too_many_terms_rejected(self):
        s = self.geometric_series(10)
        with pytest.raises(ValueError):
            eval_series(s, 0.5, n_terms=11)


class TestBeyondFactorialRange:
    """k! and z^{falling k} pass float range at k = 171; the float terms
    carry the falling factorial's exponent apart, so neither overflows."""

    def test_float_series_of_200_samples(self):
        vals = [1.0 / (k + 1) for k in range(200)]
        s = series_from_samples(Sequence.from_values(vals))
        assert s.mode == "float" and len(s) == 200
        exact = series_from_samples(Sequence.from_values([Fraction(1, k + 1) for k in range(200)]))
        # c_k = Delta^k f(0) / k!, rounded once, also where it is subnormal
        for k in (0, 21, 22, 60, 170, 171, 199):
            assert s.coeffs[k] == float(Fraction(s._deltas[k]) / math.factorial(k))
        assert eval_series(s, 0.5, 25).value == pytest.approx(
            float(eval_series(exact, Fraction(1, 2), 25).value), abs=1e-9)
        assert math.isfinite(eval_series(s, 0.5).value)

    def test_exact_series_at_float_z(self):
        # 180 terms of 2/3 (3/7)^z + 1/3 (5/9)^z: each term is finite where
        # c_k and z^{falling k} alone underflow and overflow
        vals = [Fraction(2, 3) * Fraction(3, 7) ** k + Fraction(1, 3) * Fraction(5, 9) ** k
                for k in range(180)]
        s = series_from_samples(Sequence.from_values(vals))
        got = eval_series(s, 2.7)
        assert math.isfinite(got.value)
        assert got.value == pytest.approx(
            float(eval_series(s, Fraction(27, 10)).value), rel=1e-12)


def reference_eval(series, z, n_terms=None):
    """eval_series of an exact series at an exact z as first written: one
    Fraction per term c_k z^{falling k}, each magnitude float(abs(term));
    and the terms."""
    n_terms = len(series.coeffs) if n_terms is None else n_terms
    warnings = []
    if z <= 0 and not (z == int(z) and 0 <= z < len(series.coeffs)):
        warnings.append("outside half-plane Re(z) > 0: convergence not expected")
    total, ff, mags, growth, diverging = Fraction(0), Fraction(1), [], 0, False
    terms = []
    for k in range(n_terms):
        term = series.coeffs[k] * ff
        terms.append(term)
        total += term
        mags.append(float(abs(term)))
        growth = growth + 1 if k >= 1 and mags[-1] > mags[-2] > 0 else 0
        if growth >= 5 and not diverging:
            diverging = True
            warnings.append("divergence suspected: term magnitudes grew for 5 consecutive k")
        ff *= z - k
    return (total, max(mags[-3:]), n_terms, tuple(warnings)), terms


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=40)
exact_z = st.one_of(st.fractions(min_value=-12, max_value=40, max_denominator=60),
                    st.integers(min_value=-5, max_value=40))


class TestExactKernel:
    """Exact evaluation runs on the scaled ints of Delta^k f(0); the Fraction
    loop above is its oracle, and every output must be equal."""

    @staticmethod
    def check(series, z, data):
        n_terms = data.draw(st.one_of(st.none(), st.integers(1, len(series))))
        last = data.draw(st.integers(0, len(series) + 1))
        got = eval_series(series, z, n_terms)
        reference, terms = reference_eval(series, z, n_terms)
        assert (got.value, got.tail_estimate, got.n_terms, got.warnings) == reference
        assert type(got.value) is Fraction
        # the Levin window: the last terms of the same pass, as Fractions
        window = newton._partial_sum(series, z, n_terms, last)[1]
        assert window == (terms[-last:] if last else [])
        assert all(type(t) is Fraction for t in window)

    @given(st.lists(rationals, min_size=1, max_size=30), exact_z, st.data())
    @settings(max_examples=150, deadline=None)
    def test_series_from_samples(self, vals, z, data):
        self.check(series_from_samples(Sequence.from_values(vals)), z, data)

    @given(st.lists(rationals, min_size=1, max_size=30), exact_z, st.data())
    @settings(max_examples=100, deadline=None)
    def test_series_built_from_coefficients(self, coeffs, z, data):
        self.check(NewtonSeries(tuple(coeffs)), z, data)

    def test_term_beyond_float_range(self):
        series = series_from_samples(read_sequence(HARMONIC))
        with pytest.raises(ValueError, match=f"^term 11 at z = {10**30} is beyond float range$"):
            eval_series(series, 10**30)


class TestLazyCoefficients:
    """A built series holds the differences evaluation reads; ``coeffs`` is
    built on first read and must equal the eager c_k = Delta^k f(0) / k!."""

    @given(st.one_of(st.lists(rationals, min_size=1, max_size=30),
                     st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30)),
           st.sampled_from([Fraction(237, 100), 3, 0.7, 1.5 + 0.5j]))
    @settings(max_examples=100, deadline=None)
    def test_evaluation_builds_no_coefficients(self, vals, z):
        seq = Sequence.from_values(vals)
        series = series_from_samples(seq)
        eval_series(series, z)
        extrapolate_series(series, z)
        assert len(series) == len(vals)
        assert "coeffs" not in vars(series)
        deltas = euler_transform(seq).values
        if seq.mode == "exact":
            eager = tuple(d / math.factorial(k) for k, d in enumerate(deltas))
        else:
            eager = tuple(float(Fraction(d) / math.factorial(k)) for k, d in enumerate(deltas))
        assert series.coeffs == eager
        assert series == NewtonSeries(eager, seq.mode)


class TestExtrapolateSeries:
    """Levin-accelerated evaluation, checked against closed forms of the
    sampled functions rather than against eval_series."""

    def series(self, f, n=60):
        return series_from_samples(Sequence.from_values([f(k) for k in range(n)]))

    @pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(237, 100)])
    def test_exact_on_shifted_reciprocal(self, z):
        a = Fraction(7, 3)
        out = extrapolate_series(self.series(lambda k: 1 / (k + a)), z)
        assert out.value == 1 / (z + a)
        assert out.error_estimate == 0
        assert out.partial.value != out.value

    def test_squared_reciprocal_improves_within_stated_factor(self):
        # not exact for 1/(1+z)^2; the docstring puts the true error at up
        # to 3.9x the estimate in exact arithmetic
        z = Fraction(1, 2)
        out = extrapolate_series(self.series(lambda k: Fraction(1, (k + 1) ** 2)), z)
        truth = 1 / (1 + z) ** 2
        err = float(abs(out.value - truth))
        assert err <= float(abs(out.partial.value - truth)) / 100
        assert 0 < err <= 4 * out.error_estimate

    @pytest.mark.parametrize("f, F", [
        (lambda k: Fraction(1, (k + 1) ** 2), lambda z: (1 + z) ** -2),
        (lambda k: Fraction(1, (k + 1) ** 3), lambda z: (1 + z) ** -3),
        (lambda k: Fraction(1, (k + 2) ** 2), lambda z: (2 + z) ** -2),
        (lambda k: Fraction(1, (k + 1) ** 2 * (k + 3)),
         lambda z: 1 / ((1 + z) ** 2 * (3 + z))),
    ], ids=["(1+z)^-2", "(1+z)^-3", "(2+z)^-2", "(1+z)^-2(3+z)^-1"])
    def test_error_within_stated_factor_of_estimate(self, f, F):
        # the grid and factors the docstring states: z = 0.1 .. 2.9 off the
        # nodes; within 4x the estimate exact, and in float wherever the
        # error exceeds 1e-10
        s = self.series(f)
        for i in range(1, 30):
            if i % 10 == 0:
                continue
            exact = extrapolate_series(s, Fraction(i, 10))
            err = abs(exact.value - F(Fraction(i, 10)))
            assert 0 < err <= 4 * exact.error_estimate, i
            rounded = extrapolate_series(s, i / 10)
            err = abs(rounded.value - F(i / 10))
            assert err <= 4 * rounded.error_estimate or err <= 1e-10, i

    def test_node_returns_sample(self):
        out = extrapolate_series(self.series(lambda k: Fraction(1, k + 1)), 7)
        assert out.value == Fraction(1, 8)
        assert out.error_estimate == 0
        assert out.order == 0

    def test_half_plane_warning_carried(self):
        out = extrapolate_series(self.series(lambda k: Fraction(1, 2**k), 40), -3.5)
        assert any("half-plane" in w for w in out.warnings)

    @pytest.mark.parametrize("z", [0.5, 0.1, 2.37, 1.5 + 0.5j])
    def test_float_z_on_shifted_reciprocal(self, z):
        a = Fraction(7, 3)
        out = extrapolate_series(self.series(lambda k: 1 / (k + a)), z)
        assert abs(out.value - 1 / (z + float(a))) <= 1e-8
        assert out.order > 0

    def test_terminating_series_returns_partial_sum(self):
        out = extrapolate_series(self.series(lambda k: Fraction(k * k)), Fraction(1, 2))
        assert out.value == Fraction(1, 4)
        assert out.order == 0

    def test_non_finite_terms_not_extrapolated(self):
        # built directly: Sequence.from_values rejects non-finite samples
        series = NewtonSeries((1.0,) * 20 + (math.nan,) * 20, "float")
        out = extrapolate_series(series, 0.5)
        assert out.order == 0
        assert any("non-finite" in w for w in out.warnings)

    @pytest.mark.parametrize("samples, z", [
        ([Fraction(1), Fraction(2), Fraction(1, 3)], Fraction(1, 2)),
        ([1.0, 2.0, 1 / 3], 0.5),
    ])
    def test_vanishing_denominator_falls_back(self, samples, z):
        # terms 1, 1/2, 1/3: the second difference of 1/a_m is zero
        out = extrapolate_series(series_from_samples(Sequence.from_values(samples)), z)
        assert out.value == out.partial.value
        assert any("denominator" in w for w in out.warnings)

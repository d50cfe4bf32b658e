"""Difference-table and transform tests.

Expected values for the non-trivial cases are frozen from the brute-force
binomial sum  (-1)^n Delta^n a(k) = sum_i C(n,i) (-1)^i a_{k+i},
implemented independently here.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtk.seqcore import (
    Sequence,
    binomial_transform,
    closed_form_entry,
    difference_table,
    euler_transform,
    inverse_euler_transform,
    read_sequence,
)


def brute_entry(values, n, k):
    """Independent oracle: direct alternating binomial sum."""
    return sum(math.comb(n, i) * (-1) ** i * values[k + i] for i in range(n + 1))


def rational_seq(values):
    return Sequence.from_values([Fraction(v) for v in values])


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


class TestDifferenceTable:
    def test_harmonic_column(self):
        # a_k = 1/(k+1): (-1)^n Delta^n a(0) = 1/(n+1), exactly
        a = rational_seq([Fraction(1, k + 1) for k in range(11)])
        table = difference_table(a, 10)
        for n in range(11):
            assert table.rows[n][0] == Fraction(1, n + 1)

    def test_constant_sequence_vanishes(self):
        a = rational_seq([7] * 8)
        table = difference_table(a, 7)
        for n in range(1, 8):
            assert all(v == 0 for v in table.rows[n])

    def test_geometric_closed_form(self):
        # a_k = 2^-k: brute force gives D[n][k] = 2^-(k+n)
        vals = [Fraction(1, 2**k) for k in range(12)]
        for n in (0, 3, 7):
            for k in (0, 2, 4):
                assert brute_entry(vals, n, k) == Fraction(1, 2 ** (k + n))
        a = rational_seq(vals)
        table = difference_table(a, 11)
        for n in range(12):
            for k in range(12 - n):
                assert table.rows[n][k] == Fraction(1, 2 ** (k + n))

    def test_depth_exceeds_data(self):
        a = rational_seq([1, 2, 3])
        with pytest.raises(ValueError, match="insufficient data"):
            difference_table(a, 3)

    def test_float_mode_carries_error_bounds(self):
        a = Sequence.from_values([1.0 / (k + 1) for k in range(10)])
        table = difference_table(a, 9)
        assert table.bounds is not None
        assert table.error_bound(5, 2) > 0
        # true value of the rounded data is within the bound of the computed one
        exact = brute_entry([Fraction(v) for v in a.values], 5, 2)
        assert abs(float(exact) - table.rows[5][2]) <= table.error_bound(5, 2)

    @given(st.lists(rationals, min_size=2, max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_matches_closed_form(self, vals):
        a = rational_seq(vals)
        table = difference_table(a, a.last_index)
        for n in range(len(vals)):
            for k in range(len(vals) - n):
                assert table.rows[n][k] == brute_entry(a.values, n, k)
                assert table.rows[n][k] == closed_form_entry(a, n, k)

    @given(st.lists(rationals, min_size=3, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_shift_commutation(self, vals):
        # table of (a_{k+1}) equals the table of a with column k = 0 dropped
        a = rational_seq(vals)
        shifted = difference_table(a.shift(1), a.last_index - 1)
        full = difference_table(a, a.last_index)
        for n in range(a.last_index):
            assert shifted.rows[n] == full.rows[n][1:]

    @given(
        st.lists(rationals, min_size=2, max_size=10),
        st.lists(rationals, min_size=2, max_size=10),
        rationals,
        rationals,
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, xs, ys, alpha, beta):
        size = min(len(xs), len(ys))
        xs, ys = xs[:size], ys[:size]
        combo = rational_seq([alpha * x + beta * y for x, y in zip(xs, ys)])
        tx = difference_table(rational_seq(xs), size - 1)
        ty = difference_table(rational_seq(ys), size - 1)
        tc = difference_table(combo, size - 1)
        for n in range(size):
            for k in range(size - n):
                assert tc.rows[n][k] == alpha * tx.rows[n][k] + beta * ty.rows[n][k]

    def test_float_agreement_tolerance(self):
        random.seed(5)
        vals = [random.uniform(0.5, 2.0) for _ in range(26)]
        a = Sequence.from_values(vals)
        table = difference_table(a, 25)
        for n in range(26):
            for k in range(26 - n):
                ref = float(brute_entry([Fraction(v) for v in vals], n, k))
                got = table.rows[n][k]
                if abs(ref) >= 1e-300:
                    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestTransforms:
    def test_delta_sequence(self):
        a = rational_seq([1, 0, 0, 0])
        assert binomial_transform(a).values == (1, 1, 1, 1)

    def test_harmonic_fixed_point(self):
        # brute force: sum_i C(n,i)(-1)^i /(i+1) = 1/(n+1), so a is self-inverse
        vals = [Fraction(1, k + 1) for k in range(4)]
        for n in range(4):
            assert brute_entry(vals, n, 0) == Fraction(1, n + 1)
        a = rational_seq(vals)
        assert binomial_transform(a).values == tuple(vals)

    @given(st.lists(rationals, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_involution(self, vals):
        a = rational_seq(vals)
        assert binomial_transform(binomial_transform(a)).values == a.values

    def test_euler_constant(self):
        assert euler_transform(rational_seq([1, 1, 1])).values == (1, 0, 0)

    def test_euler_linear(self):
        assert euler_transform(rational_seq([0, 1, 2, 3])).values == (0, 1, 0, 0)

    def test_euler_geometric(self):
        # Delta^n a(0) = (-1/2)^n for a_k = 2^-k, by brute force
        vals = [Fraction(1, 2**k) for k in range(8)]
        expected = tuple(Fraction(-1, 2) ** n for n in range(8))
        brute = tuple(
            (-1) ** n * brute_entry(vals, n, 0) for n in range(8)
        )
        assert brute == expected
        assert euler_transform(rational_seq(vals)).values == expected

    @given(st.lists(rationals, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_euler_is_invertible(self, vals):
        a = rational_seq(vals)
        assert inverse_euler_transform(euler_transform(a)).values == a.values


class TestIO:
    def test_reads_rational_csv(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("1\n1/2\n0.25\n")
        seq = read_sequence(p)
        assert seq.mode == "exact"
        assert seq.values == (1, Fraction(1, 2), Fraction(1, 4))

    def test_reads_json_array(self, tmp_path):
        p = tmp_path / "seq.json"
        p.write_text('[1, "1/3", "0.5"]')
        seq = read_sequence(p)
        assert seq.mode == "exact"
        assert seq.values[1] == Fraction(1, 3)

    def test_json_float_entry_forces_float_mode(self, tmp_path):
        p = tmp_path / "seq.json"
        p.write_text('[1, "1/3", 0.5]')
        seq = read_sequence(p)
        assert seq.mode == "float"
        assert seq.values[2] == 0.5

    def test_error_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1\nnot-a-number\n")
        with pytest.raises(ValueError, match="line 2"):
            read_sequence(p)

    @pytest.mark.parametrize("text", [
        "1\ninf\n", "1\n-Infinity\n", "1\nnan\n", '[1, "inf"]', "[1, NaN]", "[1.0, Infinity]",
        "[1.0, 1e999]",
    ])
    def test_non_finite_entries_rejected(self, tmp_path, text):
        p = tmp_path / "seq.txt"
        p.write_text(text)
        with pytest.raises(ValueError):
            read_sequence(p)

    def test_decimal_strings_are_exact(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("0.05\n")
        assert read_sequence(p).values[0] == Fraction(1, 20)

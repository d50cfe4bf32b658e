"""Difference-table and transform tests.

Expected values for the non-trivial cases are frozen from the brute-force
binomial sum  (-1)^n Delta^n a(k) = sum_i C(n,i) (-1)^i a_{k+i},
implemented independently here.
"""

import math
import random
import tracemalloc
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


class TestValueBounds:
    """An input bound is the width of an interval around its value, so it is
    never negative: subtracted from an entry, a negative one would make a
    violating entry look certified."""

    # a NaN bound is refused too: it would turn every entry it reaches undecidable
    @pytest.mark.parametrize("bounds", [[-5.0] * 3, [0.0, -1e-300, 0.0], [1.0, 1.0, -math.inf],
                                        [math.nan] * 3, [0.0, 1.0, math.nan]])
    def test_negative_bound_is_refused(self, bounds):
        with pytest.raises(ValueError, match="value_bounds must be nonnegative"):
            Sequence.from_values([1.0, 2.0, 3.0], mode="float", value_bounds=bounds)
        with pytest.raises(ValueError, match="value_bounds must be nonnegative"):
            Sequence((1.0, 2.0, 3.0), "float", tuple(bounds))

    def test_zero_and_positive_bounds_are_kept(self):
        a = Sequence.from_values([1.0, 2.0, 3.0], value_bounds=[0.0, -0.0, 5])
        assert a.value_bounds == (0.0, 0.0, 5.0)
        assert a.shift(1).value_bounds == (0.0, 5.0)


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

    @pytest.mark.parametrize("transform, entry", [
        (binomial_transform, "entry 1 is not finite: inf"),
        (euler_transform, "entry 1 is not finite: -inf"),
        (inverse_euler_transform, "entry 2 is not finite: -inf"),
    ])
    def test_float_transform_past_float_range_refused(self, transform, entry):
        # a Sequence holds finite floats only, and these entries overflow
        a = Sequence.from_values([1.7e308, -1.7e308, 1.7e308])
        with pytest.raises(ValueError, match=f"^{entry}$"):
            transform(a)


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


# -- the integer-scaled exact kernel against plain Fraction arithmetic ---------

def fraction_rows(values, depth):
    """Plain Fraction recurrence D[n][k] = D[n-1][k] - D[n-1][k+1]."""
    rows = [list(values)]
    for _ in range(depth):
        prev = rows[-1]
        rows.append([prev[k] - prev[k + 1] for k in range(len(prev) - 1)])
    return rows


def fraction_certify(values, kind, depth):
    """Plain Fraction sign scan: (verdict, witness, min_margin), row-major,
    stopping after the row that holds the first violation."""
    rows = fraction_rows(values, depth)
    witness, margin = None, None
    for n in range(0 if kind == "cm" else 1, depth + 1):
        for k, v in enumerate(rows[n]):
            if margin is None or abs(v) < margin:
                margin = abs(v)
            if witness is None and (v < 0 if kind == "cm" else v > 0):
                witness = (n, k, v)
        if witness is not None:
            break
    return ("fail" if witness else "pass"), witness, margin


def degenerate_tail(values, kind):
    """Constant from index 1 (CM) or affine from index 1 (CA)."""
    if kind == "cm":
        return len(values) >= 3 and all(v == values[1] for v in values[2:])
    d = values[2] - values[1] if len(values) >= 4 else None
    return d is not None and all(values[k] == values[1] + (k - 1) * d
                                 for k in range(3, len(values)))


FIRST_60_PRIMES = [p for p in range(2, 282) if all(p % d for d in range(2, p))]

big_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-50, 50).map(Fraction),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(FIRST_60_PRIMES)),
)


@st.composite
def exact_cases(draw):
    values = draw(st.lists(big_rationals, min_size=1, max_size=18))
    return values, draw(st.integers(0, len(values) - 1))


class TestIntegerScaledKernel:
    """The exact table runs on ints scaled by the lcm of the denominators;
    every entry, verdict, witness and margin it reports must be the one that
    plain Fraction arithmetic gives."""

    def check(self, values, depth):
        from cmtk.classify import CA, CM, atom_at_zero, certify, degenerate_classify
        from cmtk.errors import CertificationError
        from cmtk.newton import series_from_samples

        a = Sequence.from_values(values)
        assert a.mode == "exact"
        rows = fraction_rows(a.values, depth)
        table = difference_table(a, depth)
        assert table.scale == math.lcm(*(v.denominator for v in a.values))
        assert [list(r) for r in table.rows] == rows
        for n, row in enumerate(table.scaled):
            assert all(type(x) is int for x in row)
            assert [Fraction(x, table.scale) for x in row] == rows[n]
        for kind in (CM, CA):
            cert = certify(a, kind, depth)
            assert (cert.verdict, cert.witness, cert.min_margin) == \
                fraction_certify(a.values, kind, depth)
            assert cert.undecidable == 0
            if kind == CA and depth < 2:
                continue
            if cert.failed:
                with pytest.raises(CertificationError):
                    atom_at_zero(a, kind, depth)
                continue
            zero = any(0 in rows[n] for n in range(1, depth + 1))
            assert (degenerate_classify(a, kind, depth) != "strict") == \
                (zero or degenerate_tail(a.values, kind))
            ns = range(depth + 1) if kind == CM else range(2, depth + 1)
            trail = [rows[n][0] if kind == CM else -rows[n][0] for n in ns]
            est = atom_at_zero(a, kind, depth)
            assert est.trail == tuple(trail)
            assert est.estimate == trail[-1]
            assert est.monotone_ok == all(y <= x for x, y in zip(trail, trail[1:]))
            assert est.error_bound == 0.0
        full = fraction_rows(a.values, a.last_index)
        coeffs = [(-1) ** n * full[n][0] / math.factorial(n) for n in range(len(values))]
        series = series_from_samples(a)
        assert list(series.coeffs) == coeffs
        assert all(type(c) is Fraction for c in series.coeffs)
        assert binomial_transform(a).values == tuple(r[0] for r in full)

    @given(exact_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_arithmetic(self, case):
        self.check(*case)

    def test_first_60_prime_denominators(self):
        # L is the product of the first 60 primes, a 350-bit int
        values = [Fraction((-1) ** (k // 7) * (k + 1), p) for k, p in enumerate(FIRST_60_PRIMES)]
        assert len(values) == 60
        self.check(values, 59)
        assert difference_table(Sequence.from_values(values), 3).scale == math.prod(FIRST_60_PRIMES)

    # moments of three rational atoms: the denominators grow as (7 11 13)^k, past
    # a machine word from k = 6, and all but one divide the next
    MOMENTS = [sum(w * u**k for u, w in [(Fraction(2, 7), Fraction(3, 5)),
                                          (Fraction(5, 11), Fraction(1, 4)),
                                          (Fraction(9, 13), -Fraction(2, 9))])
               for k in range(41)]

    @pytest.mark.parametrize("values", [
        MOMENTS,
        # a middle value whose denominator divides neither neighbour's
        MOMENTS[:20] + [MOMENTS[20] + Fraction(1, 10**30 + 57)] + MOMENTS[21:],
        # negative values and zeros: a zero's denominator 1 divides the next
        [0 if k % 9 == 4 else -v if k % 3 else v for k, v in enumerate(MOMENTS)],
        MOMENTS[:-1] + [Fraction(0)],
        [MOMENTS[-1]],
        [-MOMENTS[-1]],
    ], ids=["moments", "break", "signs-and-zeros", "last-zero", "single", "single-negative"])
    def test_chained_cofactors(self, values):
        dens = [Fraction(v).denominator for v in values]
        assert max(dens).bit_length() > 64
        self.check(values, len(values) - 1)

    def test_chain_data(self):
        dens = [v.denominator for v in self.MOMENTS]
        assert dens[5].bit_length() <= 64 < dens[6].bit_length()
        assert [b % a == 0 for a, b in zip(dens, dens[1:])].count(False) == 1
        dens[20] = (self.MOMENTS[20] + Fraction(1, 10**30 + 57)).denominator
        assert dens[20] % dens[19] == 0 and dens[21] % dens[20] != 0

    def test_ca_at_depth_zero_scans_nothing(self):
        from cmtk.classify import CA, certify

        cert = certify(Sequence.from_values([Fraction(1, 3), Fraction(5, 7)]), CA, 0)
        assert (cert.verdict, cert.witness, cert.min_margin, cert.depth) == ("pass", None, None, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_values_rejects_non_finite_floats(bad):
    with pytest.raises(ValueError, match="entry 1 is not finite"):
        Sequence.from_values([1.0, bad, 0.5])


def reference_float_table(values, value_bounds, depth):
    """The float table and bounds as the per-entry loop computes them."""
    eps = 2.0 ** -52
    rows = [list(values)]
    if value_bounds is not None:
        bounds = [list(value_bounds)]
    else:
        bounds = [[max(eps * abs(v), 2.0 ** -1074) for v in rows[0]]]
    for n in range(1, depth + 1):
        prev, eprev = rows[-1], bounds[-1]
        row, erow = [], []
        for k in range(len(values) - n):
            v = prev[k] - prev[k + 1]
            row.append(v)
            erow.append(eprev[k] + eprev[k + 1] + eps * abs(v))
        rows.append(row)
        bounds.append(erow)
    return rows, bounds


def bits(rows):
    """Entries as hex strings, which tell -0.0 from 0.0 and match nan to nan."""
    return [[x.hex() for x in row] for row in rows]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("with_bounds", [False, True], ids=["ulp-bounds", "value-bounds"])
def test_float_table_is_bit_identical_to_the_loop(seed, with_bounds):
    rng = random.Random(seed)
    size = rng.randint(1, 40)
    pick = [lambda: rng.uniform(-2.0, 2.0), lambda: rng.uniform(-1e300, 1e300),
            lambda: rng.uniform(-1e-310, 1e-310), lambda: 0.0, lambda: -0.0,
            lambda: 1.0 / (rng.randint(1, 10**6))]
    values = [rng.choice(pick)() for _ in range(size)]
    bounds = [abs(rng.gauss(0.0, 1e-12)) for _ in range(size)] if with_bounds else None
    a = Sequence.from_values(values, value_bounds=bounds)
    assert a.mode == "float"
    depth = rng.randint(0, size - 1)
    table = difference_table(a, depth)
    rows, ebounds = reference_float_table(values, bounds, depth)
    assert bits(table.rows) == bits(rows)
    assert bits(table.bounds) == bits(ebounds)
    assert table.scale == 1 and table.scaled is table.rows


def bits_or_ints(values):
    """Floats as hex strings (which tell -0.0 from 0.0), anything else as it is."""
    return [x.hex() if isinstance(x, float) else x for x in values]


class TestStreamedColumnZero:
    """The transforms stream column 0 from the table kernel; it must equal
    column 0 of the full table, bit for bit."""

    float_values = st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300),
                             st.sampled_from([0.0, -0.0]))

    @staticmethod
    def check(a):
        from cmtk.seqcore import _column_zero

        streamed = _column_zero(a)
        column = [row[0] for row in difference_table(a, a.last_index).rows]
        assert [type(v) for v in streamed] == [type(x) for x in column]
        assert bits_or_ints(streamed) == bits_or_ints(column)

    @given(st.lists(rationals, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_exact(self, values):
        self.check(Sequence.from_values(values))

    @given(st.lists(float_values, min_size=1, max_size=40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_float(self, values, data):
        bounds = data.draw(st.one_of(st.none(), st.lists(
            st.floats(0.0, 1e-6), min_size=len(values), max_size=len(values))))
        self.check(Sequence.from_values(values, value_bounds=bounds))

    def test_exact_transform_holds_one_row_at_a_time(self):
        # the full 301-row table of 3/(k + 7/2) peaks at 6.0 MB; its column
        # 0 and the few rows alive at once at well under 1 MB
        seq = Sequence.from_values([3 / (k + Fraction(7, 2)) for k in range(301)])
        tracemalloc.start()
        try:
            euler_transform(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

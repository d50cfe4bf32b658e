"""Certification, atom estimation, minimality and the degeneracy dichotomy.

Soundness is checked against discrete models: sequences built from an
explicit measure (a_k = sum w u^k, or q + dk + sum w (1-u^k)) must certify
at every depth exactly, and the atom trail must recover the weight at zero.
"""

import math
import random
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmtk import classify
from cmtk.classify import (
    AFFINE_TAIL,
    CA,
    CM,
    CONSTANT_TAIL,
    AtomEstimate,
    Certificate,
    FAIL,
    INCONCLUSIVE,
    MinimalityReport,
    PASS,
    STRICT,
    atom_at_zero,
    certify,
    degenerate_classify,
    is_minimal,
)
from cmtk.bernstein import check_bf_via_theta, check_selfdecomposable
from cmtk.builtins import get_handle
from cmtk.errors import CertificationError
from cmtk.funcops import apply_operator, lattice_check
from cmtk.moments import extend_from_integer_samples, invert_ca, invert_cm
from cmtk.seqcore import Sequence, _scaled_rows, difference_table


def exact(values):
    return Sequence.from_values([Fraction(v) for v in values])


def cm_model(atoms, K):
    """a_k = sum w u^k with the 0^0 = 1 convention (a_0 counts all mass)."""
    vals = []
    for k in range(K + 1):
        vals.append(sum(w * u**k if u > 0 or k == 0 else Fraction(0) for u, w in atoms))
    return exact(vals)


def ca_model(q, d, atoms, K):
    """a_0 = q, a_k = q + dk + sum w (1 - u^k)."""
    vals = [Fraction(q)]
    for k in range(1, K + 1):
        vals.append(
            Fraction(q) + Fraction(d) * k + sum(w * (1 - u**k) for u, w in atoms)
        )
    return exact(vals)


unit_fracs = st.fractions(min_value=0, max_value=1, max_denominator=20)
weights = st.fractions(min_value=0, max_value=5, max_denominator=10)


def bumped(values, delta):
    """``values`` with ``delta`` added to the last term.  Entry (n, K - n)
    of the table moves by (-1)^n delta, so a large bump of a CM model
    violates at row 1 and a tiny one at the first row whose entry it
    outweighs, deep in the table."""
    return [*values[:-1], values[-1] + delta]


def counting_rows(drawn):
    """A stand-in for the table kernel that appends the index of every row
    it hands out to ``drawn``."""
    def kernel(a, depth):
        scale, pairs = _scaled_rows(a, depth)

        def rows():
            for n, pair in enumerate(pairs):
                drawn.append(n)
                yield pair

        return scale, rows()

    return kernel


class TestCertify:
    def test_harmonic_is_cm(self):
        a = exact([Fraction(1, k + 1) for k in range(11)])
        cert = certify(a, CM, 10)
        assert cert.verdict == PASS
        # smallest checked entry is the Beta-integral value at the middle of
        # the deepest antidiagonal: B(6,6) = 5!5!/11!
        assert cert.min_margin == Fraction(math.factorial(5) ** 2, math.factorial(11))

    def test_affine_is_ca(self):
        a = exact(list(range(8)))
        cert = certify(a, CA, 5)
        assert cert.verdict == PASS
        table_zeroes = [certify(a, CA, 5)]
        assert table_zeroes[0].min_margin == 0

    def test_alternating_fails_cm(self):
        a = exact([0, 1, 0, 1, 0])
        cert = certify(a, CM, 2)
        assert cert.verdict == FAIL
        # n = 0 row is fine; the first violation is -Delta a(0) = -1 at (1, 0)
        assert cert.witness == (1, 0, -1)

    def test_negative_term_fails_cm_on_row_zero(self):
        a = exact([1, -2, 1])
        cert = certify(a, CM, 1)
        assert cert.verdict == FAIL
        assert cert.witness == (0, 1, -2)

    @pytest.mark.parametrize("check", [
        certify, is_minimal, atom_at_zero, degenerate_classify,
        lambda a, kind, depth: difference_table(a, depth),
        # the handle checks, before their first sample
        pytest.param(lambda a, kind, d: lattice_check(get_handle("reciprocal"), kind, [1.0], d),
                     id="lattice_check"),
        pytest.param(lambda a, kind, d: check_bf_via_theta(get_handle("log1p"), depth=d),
                     id="check_bf_via_theta"),
        pytest.param(lambda a, kind, d: check_selfdecomposable(get_handle("log1p"), depth=d),
                     id="check_selfdecomposable"),
    ])
    def test_non_int_depth_is_one_value_error(self, check):
        a = exact([Fraction(1, k + 1) for k in range(6)])
        with pytest.raises(ValueError, match=r"^depth must be an integer, not 2\.0$"):
            check(a, CM, 2.0)

    def test_float_inconclusive_near_zero(self):
        # float samples of 1/(k+1) at depth 30: deep interior entries
        # (Beta-integral scale ~1e-10) drown in the propagated input bounds,
        # so the verdict degrades to inconclusive instead of a false answer
        a = Sequence.from_values([1.0 / (k + 1) for k in range(41)])
        cert = certify(a, CM, 30)
        assert cert.verdict == INCONCLUSIVE
        assert cert.undecidable > 0

    def test_float_conclusive_at_moderate_depth(self):
        a = Sequence.from_values([math.exp(-k) for k in range(26)])
        assert certify(a, CM, 12).verdict == PASS
        # fast decay keeps even depth 30 conclusive for the geometric model
        b = Sequence.from_values([math.exp(-k) for k in range(41)])
        assert certify(b, CM, 30).verdict == PASS

    @pytest.mark.parametrize("depth, message", [
        (6, "insufficient data: depth 6 exceeds last index 5"),
        (-1, "depth must be nonnegative"),
    ])
    @pytest.mark.parametrize("values", [[1, 0, 0, 0, 0, 0], [1.0, 0.5, 0.25, 0.0, 0.0, 0.0]])
    def test_depth_out_of_range(self, depth, message, values):
        # the kernel checks the depth for the streamed scan and the table alike
        a = Sequence.from_values(values)
        for kind in (CM, CA):
            with pytest.raises(ValueError) as exc:
                certify(a, kind, depth)
            assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            difference_table(a, depth)
        assert str(exc.value) == message

    @given(
        st.lists(st.tuples(unit_fracs, weights), min_size=1, max_size=5),
        st.integers(min_value=3, max_value=14),
    )
    @settings(max_examples=50, deadline=None)
    def test_cm_soundness_on_discrete_models(self, atoms, K):
        atoms = dict(atoms).items()  # dedupe support points
        a = cm_model(atoms, K)
        assert certify(a, CM, K).verdict == PASS

    @given(
        weights,
        weights,
        st.lists(st.tuples(unit_fracs.filter(lambda u: u < 1), weights),
                 min_size=0, max_size=5),
        st.integers(min_value=3, max_value=14),
    )
    @settings(max_examples=50, deadline=None)
    def test_ca_soundness_on_discrete_models(self, q, d, atoms, K):
        a = ca_model(q, d, dict(atoms).items(), K)
        assert certify(a, CA, K).verdict == PASS


class TestStreaming:
    """certify reads its rows from the kernel, never from a kept table, and
    stops at the row of its first witness."""

    def test_certify_builds_no_table(self, monkeypatch):
        inputs = [
            exact([Fraction(1, k + 1) for k in range(31)]),
            exact(bumped([Fraction(1, k + 1) for k in range(31)], Fraction(-1, 10**12))),
            ca_model(1, 2, [(Fraction(1, 3), Fraction(2))], 30),
            Sequence.from_values([math.exp(-k) for k in range(41)]),
            Sequence.from_values([1.0 / (k + 1) for k in range(41)]),
        ]
        expected = [certify(a, kind, depth) for a in inputs for kind in (CM, CA)
                    for depth in (None, 0, 1, 12)]

        def refuse(a, depth):
            raise AssertionError("certify built a difference table")

        for name, module in list(sys.modules.items()):
            if name.startswith("cmtk") and vars(module).get("difference_table") is difference_table:
                monkeypatch.setattr(module, "difference_table", refuse)
        assert [certify(a, kind, depth) for a in inputs for kind in (CM, CA)
                for depth in (None, 0, 1, 12)] == expected
        assert [c.verdict for c in expected].count(FAIL) > 0

    def test_stops_at_the_witness_row(self, monkeypatch):
        # K = 400 Beta(2,3) moments with the last term doubled: a_{K-1} - a_K < 0
        K = 400
        moments = [Fraction(24, (k + 2) * (k + 3) * (k + 4)) for k in range(K + 1)]
        a = exact(bumped(moments, moments[-1]))
        drawn = []
        monkeypatch.setattr(classify, "_scaled_rows", counting_rows(drawn))
        cert = certify(a, CM)
        assert (cert.verdict, cert.depth, cert.witness[:2]) == (FAIL, K, (1, K - 1))
        assert drawn == [0, 1]
        drawn.clear()
        assert certify(exact(moments), CM).verdict == PASS
        assert drawn == list(range(K + 1))

    def test_minimality_and_atom_build_no_table(self, monkeypatch):
        inputs = [
            exact([Fraction(1, k + 1) for k in range(31)]),
            exact([1 - Fraction(1, k + 1) for k in range(31)]),
            exact(bumped([Fraction(1, k + 1) for k in range(31)], Fraction(-1, 10**12))),
            Sequence.from_values([math.exp(-k) for k in range(41)]),
            Sequence.from_values([1.0 - 1.0 / (k + 1) for k in range(41)]),
            Sequence.from_values([1.0 / (k + 1) for k in range(41)], value_bounds=[1e-9] * 41),
        ]
        log1p = get_handle("log1p")

        def results():
            out = []
            for a in inputs:
                for kind in (CM, CA):
                    for call in (lambda: is_minimal(a, kind, None, 0.02),
                                 lambda: atom_at_zero(a, kind, 12)):
                        try:
                            out.append(call())
                        except CertificationError as exc:
                            out.append(exc.certificate)
            out.append(lattice_check(get_handle("exp-decay"), CM, [0.5, 1.0], 16))
            out.append(lattice_check(get_handle("reciprocal"), CM, [1.0], 16, 1e-3))
            out.append(lattice_check(apply_operator(log1p, "theta", 0.5), CA, [1.0], 12))
            out.append(check_selfdecomposable(log1p, depth=20))
            out.append(check_selfdecomposable(get_handle("linear"), depth=12))
            return [repr(r) for r in out]

        expected = results()

        def refuse(a, depth):
            raise AssertionError("a difference table was built")

        for name, module in list(sys.modules.items()):
            if name.startswith("cmtk") and vars(module).get("difference_table") is difference_table:
                monkeypatch.setattr(module, "difference_table", refuse)
        assert results() == expected
        assert sum("verdict='fail'" in r for r in expected) > 0

    def test_minimality_stops_at_the_witness_row(self, monkeypatch):
        # as above: the doubled last term violates at row 1, (1, K - 1)
        K = 400
        moments = [Fraction(24, (k + 2) * (k + 3) * (k + 4)) for k in range(K + 1)]
        drawn = []
        monkeypatch.setattr(classify, "_scaled_rows", counting_rows(drawn))
        with pytest.raises(CertificationError, match="sequence failed cm certification") as info:
            is_minimal(exact(bumped(moments, moments[-1])), CM)
        assert info.value.certificate.witness[:2] == (1, K - 1)
        assert drawn == [0, 1]
        drawn.clear()
        assert is_minimal(exact(moments), CM, tol=1e-4).minimal  # trail end 3/40703
        assert drawn == list(range(K + 1))


#: float data for the soundness oracle: zeros, subnormals and magnitudes up
#: to 1e300 (a table of at most 12 terms stays below 2^11 * 1e300, no overflow)
oracle_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=-2.2250738585072009e-308, max_value=2.2250738585072009e-308),
    st.floats(min_value=-1e300, max_value=1e300),
)


@st.composite
def floats_with_bounds(draw):
    """A float list and either None or nonnegative input bounds for it."""
    values = draw(st.lists(oracle_floats, min_size=1, max_size=12))
    bounds = draw(st.none() | st.lists(st.floats(min_value=0.0, max_value=1e300),
                                       min_size=len(values), max_size=len(values)))
    return values, bounds


class TestFloatSoundnessOracle:
    """Any float list is also exact data, Fraction(v) for each v.  The float
    table built by Sequence.from_values must enclose the table of that exact
    twin within its bounds, and a float pass or fail must be the exact
    verdict."""

    @given(floats_with_bounds())
    # fl(2^59 + 128 - 255) = 2^59 - 128, so the float second difference is
    # 0 where the exact one is -1 (CM) or +1 (CA): only the bound keeps the
    # float verdict from a false pass
    @example(([2.0**60, 2.0**59 + 128, 255.0], None))
    @example(([-(2.0**60), -(2.0**59 + 128), -255.0], None))
    @settings(max_examples=150, deadline=None)
    def test_float_table_and_verdicts_agree_with_exact_twin(self, case):
        values, bounds = case
        a = Sequence.from_values(values, value_bounds=bounds)
        twin = Sequence.from_values([Fraction(v) for v in values])
        assert (a.mode, twin.mode) == ("float", "exact")
        depth = a.last_index
        table, exact_table = difference_table(a, depth), difference_table(twin, depth)
        for n in range(depth + 1):
            for k, v in enumerate(table.rows[n]):
                err = abs(Fraction(v) - exact_table.rows[n][k])
                assert err <= Fraction(table.error_bound(n, k)), (n, k)
        for kind in (CM, CA):
            verdict = certify(a, kind, depth).verdict
            if verdict != INCONCLUSIVE:
                assert verdict == certify(twin, kind, depth).verdict, kind

    def test_rounded_moments_with_subnormal_tail_are_not_failed(self):
        # a_k = sum_j (c_j / 1000) (p_j / 1467)^k, each rounded once: from
        # k = 799 the floats are subnormal, from k = 840 they are 0.0, so a
        # bound relative to |a_k| alone misses their rounding error
        exact = [sum(Fraction(c, 1000) * Fraction(p, 1467) ** k
                     for p, c in ((36, 470), (466, 174), (605, 243))) for k in range(1001)]
        a, twin = Sequence.from_values([float(v) for v in exact]), Sequence.from_values(exact)
        assert certify(twin, CM, 40).verdict == PASS
        assert certify(a, CM, 40).verdict == INCONCLUSIVE
        table, exact_table = difference_table(a, 40), difference_table(twin, 40)
        scale = exact_table.scale
        for n in range(41):
            for k in range(780, 1001 - n):  # the columns the tail reaches
                err = abs(Fraction(table.rows[n][k]) * scale - exact_table.scaled[n][k])
                assert err <= Fraction(table.error_bound(n, k)) * scale, (n, k)


def _reference_status(value, bound):
    """The per-entry rule: a zero bound decides by the sign alone; otherwise
    the entry is certified, violating, or undecidable within its bound."""
    if bound == 0.0:
        return PASS if value >= 0 else FAIL
    if value - bound >= 0:
        return PASS
    if value + bound < 0:
        return FAIL
    return INCONCLUSIVE


def reference_certify(a, kind, depth):
    """certify by the per-entry rule on every entry of the unscaled table."""
    table = difference_table(a, depth)
    witness, undecidable, margin = None, 0, None
    for n in range(0 if kind == CM else 1, depth + 1):
        for k, v in enumerate(table.rows[n]):
            margin = abs(v) if margin is None else min(margin, abs(v))
            status = _reference_status(-v if kind == CA else v, table.error_bound(n, k))
            if status == FAIL and witness is None:
                witness = (n, k, v)
            elif status == INCONCLUSIVE:
                undecidable += 1
        if witness is not None:
            break
    verdict = FAIL if witness else INCONCLUSIVE if undecidable else PASS
    return Certificate(kind, depth, verdict, witness, margin, a.mode, undecidable)


def certify_counted(a, kind, depth):
    """certify, and the indices of the kernel rows it drew."""
    drawn = []
    with mock.patch.object(classify, "_scaled_rows", counting_rows(drawn)):
        return certify(a, kind, depth), drawn


def assert_matches_reference(a, depth):
    """Every Certificate field equals the reference's, and the scan drew
    rows 0..depth, or only up to the row of its witness."""
    for kind in (CM, CA):
        cert, drawn = certify_counted(a, kind, depth)
        assert cert == reference_certify(a, kind, depth), kind
        last = cert.witness[0] if cert.witness else depth
        assert drawn == list(range(last + 1)), kind


#: (values, K) cut to length K + 1; the violating inputs bump the last term
#: of a CM or CA model by +-10^-e: e = 0 violates at row 1, a large e deep down
exact_lists = st.one_of(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12),
             min_size=1, max_size=41),
    st.builds(lambda atoms, K: cm_model(dict(atoms).items(), K).values,
              st.lists(st.tuples(unit_fracs, weights), min_size=1, max_size=4),
              st.integers(min_value=0, max_value=40)),
    st.builds(lambda q, d, atoms, K: ca_model(q, d, dict(atoms).items(), K).values,
              weights, weights,
              st.lists(st.tuples(unit_fracs.filter(lambda u: u < 1), weights), max_size=4),
              st.integers(min_value=0, max_value=40)),
    st.builds(lambda values, sign, e: bumped(values, Fraction(sign, 10**e)),
              st.builds(lambda atoms, K: cm_model(dict(atoms).items(), K).values,
                        st.lists(st.tuples(unit_fracs, weights), min_size=1, max_size=4),
                        st.integers(min_value=1, max_value=40)),
              st.sampled_from([-1, 1]), st.integers(min_value=0, max_value=40)),
    st.builds(lambda values, sign, e: bumped(values, Fraction(sign, 10**e)),
              st.builds(lambda q, d, atoms, K: ca_model(q, d, dict(atoms).items(), K).values,
                        weights, weights,
                        st.lists(st.tuples(unit_fracs.filter(lambda u: u < 1), weights),
                                 max_size=4),
                        st.integers(min_value=1, max_value=40)),
              st.sampled_from([-1, 1]), st.integers(min_value=0, max_value=40)),
)

#: harmonic terms 1/(k+1), k <= 10, with a_10 lowered by 1/2000: the first
#: violation is the entry (4, 6) = 1/2310 - 1/2000, below depth 3
HARMONIC_DEEP = bumped([Fraction(1, k + 1) for k in range(11)], Fraction(-1, 2000))

#: float data past 12 terms: magnitudes up to 1e280 stay below 2^40 * 1e280
#: through 40 rows, so no entry or bound overflows
long_floats_with_bounds = st.integers(min_value=13, max_value=41).flatmap(
    lambda n: st.tuples(
        st.lists(st.one_of(st.just(0.0), st.floats(min_value=-1e280, max_value=1e280)),
                 min_size=n, max_size=n),
        st.none() | st.lists(st.floats(min_value=0.0, max_value=1e280), min_size=n, max_size=n)))

#: rows whose bound sum is not finite: entries near float range overflow to
#: inf and NaN within a few rows, and an input bound may be inf; the zeros and
#: zero bounds give signed-zero rows
overflowing_floats_with_bounds = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from([1.7e308, -1.7e308, 0.0, -0.0, 5e-324, 1.0])
                 | st.floats(min_value=-1.7e308, max_value=1.7e308), min_size=n, max_size=n),
        st.none() | st.lists(st.sampled_from([0.0, math.inf, 1.0])
                             | st.floats(min_value=0.0, max_value=1.7e308), min_size=n, max_size=n)))


class TestCertifyReference:
    """certify gives the whole Certificate (verdict, witness, min_margin,
    undecidable count) of the per-entry reference rule, and draws no kernel
    row past its depth or the row of its witness."""

    @given(exact_lists, st.integers(min_value=0, max_value=40))
    # the failing row 1 holds -2^1100 and 2^1100: scaled ints beyond float range
    @example([0, 2**1100, 0], 2)
    @example(HARMONIC_DEEP, 3)
    @settings(max_examples=150, deadline=None)
    def test_exact(self, values, depth):
        a = exact(values)
        assert_matches_reference(a, min(depth, a.last_index))

    @pytest.mark.parametrize("values", [(math.nan, 1.0, 0.5), (math.inf, -math.inf, 1.0),
                                        (1.0, math.nan, -math.inf, 2.0)])
    def test_non_finite_entries_built_directly(self, values):
        # refused as from_values refuses them: a NaN a_0 would be a NaN
        # margin, and its certificate unequal to itself
        k = next(k for k, v in enumerate(values) if not math.isfinite(v))
        with pytest.raises(ValueError, match=f"^entry {k} is not finite: {values[k]!r}$"):
            Sequence(values, "float")

    def test_violation_below_depth_is_never_built(self):
        a = exact(HARMONIC_DEEP)
        assert certify(a, CM, 10).witness == (4, 6, Fraction(1, 2310) - Fraction(1, 2000))
        cert, drawn = certify_counted(a, CM, 3)
        assert cert.verdict == PASS
        assert drawn == [0, 1, 2, 3]

    @given(st.one_of(floats_with_bounds(), long_floats_with_bounds, overflowing_floats_with_bounds,
                     st.tuples(exact_lists.map(lambda v: [float(x) for x in v]), st.none())),
           st.integers(min_value=0, max_value=40))
    # the least |entry| of a signed zero is 0.0, not -0.0
    @example(([-0.0, 0.0], None), 1)
    # CA: rows of +-inf and NaN with inf bounds, inconclusive with min_margin inf
    # and 6 undecidable
    @example(([1.7e308, -1.7e308, 1.7e308, -1.7e308], None), 3)
    # an inf input bound
    @example(([1.0, 2.0, 0.5], [0.0, math.inf, 0.0]), 2)
    # an undecidable entry after the witness, in row 0 (CM) and row 1 (CA)
    @example(([0.0, -1.0, 5.0], [0.0, 0.0, 10.0]), 2)
    # signed zeros with zero bounds
    @example(([-0.0, 0.0, -0.0, 0.0], [0.0, 0.0, 0.0, 0.0]), 3)
    # CA row 3 is (nan, -inf, 0.0): a row's min loses the entries after a
    # first NaN, and min_margin is 0.0, not row 1's 2e-300
    @example(([-1.7e308, 1e308, 1.7e308, 2e-300, 0.0, 1.7e308], [math.inf] * 6), 5)
    @settings(max_examples=150, deadline=None)
    def test_float(self, case, depth):
        values, bounds = case
        a = Sequence.from_values(values, value_bounds=bounds)
        assert_matches_reference(a, min(depth, a.last_index))


def reference_atom(table, kind, depth):
    """The atom trail read off column 0 of a kept table: scaled entries
    compared within their bounds (int zeros in exact mode), then unscaled."""
    ns = range(0 if kind == CM else 2, depth + 1)
    trail = [table.scaled[n][0] if kind == CM else -table.scaled[n][0] for n in ns]
    bounds = [table.bounds[n][0] for n in ns] if table.bounds else [0] * len(ns)
    monotone_ok = all(trail[i + 1] <= trail[i] + bounds[i] + bounds[i + 1]
                      for i in range(len(trail) - 1))
    trail = tuple(Fraction(x, table.scale) if table.mode == "exact" else x for x in trail)
    return AtomEstimate(trail, trail[-1], monotone_ok, float(bounds[-1]))


def outcome(call):
    """repr of what ``call`` returns, or the type, message and certificate
    of what it raises."""
    try:
        return repr(call())
    except (ValueError, CertificationError) as exc:
        return type(exc).__name__, str(exc), repr(getattr(exc, "certificate", None))


def reference_outcomes(a, kind, depth, tol):
    """atom_at_zero, is_minimal and _certify_minimal as a full table gives
    them, with their checks in order: the depth, the kind, tol and a depth
    too small for the trail (tol and the CM depth for minimality only), and
    then the certificate."""
    def scan(raise_failed, minimal=True):
        table = difference_table(a, depth)
        if kind not in (CM, CA):
            raise ValueError(f"kind must be {CM!r} or {CA!r}")
        if minimal and tol is not None and tol < 0:
            raise ValueError("tol must be nonnegative")
        if minimal and kind == CM and depth < 1:
            raise ValueError("depth too small: CM minimality needs depth >= 1")
        if kind == CA and depth < 2:
            raise ValueError("depth too small: CA atom trail needs depth >= 2")
        cert = reference_certify(a, kind, depth)
        if raise_failed and cert.failed:
            raise CertificationError(f"sequence failed {kind} certification", cert)
        return cert, table

    def minimality(table):
        atom = reference_atom(table, kind, depth)
        t = tol if tol is not None else 1e-6 if a.mode == "exact" else max(
            1e-6, 10.0 * atom.error_bound)
        return MinimalityReport(bool(atom.estimate <= t and atom.monotone_ok), atom, float(t))

    def certify_minimal():
        cert, table = scan(False)
        return cert, None if cert.failed else minimality(table)

    return [outcome(lambda: reference_atom(scan(True, False)[1], kind, depth)),
            outcome(lambda: minimality(scan(True)[1])),
            outcome(certify_minimal)]


#: exact, float and float-with-input-bounds sequences of 1 to 41 terms, some
#: past float range
any_sequences = st.one_of(
    exact_lists.map(exact),
    st.one_of(floats_with_bounds(), long_floats_with_bounds, overflowing_floats_with_bounds,
              st.tuples(exact_lists.map(lambda v: [float(x) for x in v]), st.none()))
    .map(lambda case: Sequence.from_values(case[0], value_bounds=case[1])),
)


class TestColumnReference:
    """atom_at_zero, is_minimal and _certify_minimal read column 0 off the
    streamed scan; every field and every error, in its order, is the one a
    full table gives."""

    @given(any_sequences, st.integers(min_value=-1, max_value=42),
           st.sampled_from([CM, CA, CM, CA, "cx"]),
           st.sampled_from([None, None, 0.0, 1e-6, 0.02, 1.0, -1.0]))
    # the tol and depth checks raise before the failed certificate
    @example(exact([0, 1, 0, 1]), 0, CM, -1.0)
    @example(exact([0, 1, 0, 1]), 1, CA, None)
    # the depth is checked before the kind
    @example(exact([1, 2]), -1, "cx", None)
    @example(exact([1, 2]), 42, "cx", None)
    @example(exact(HARMONIC_DEEP), 3, CM, None)
    @example(exact(HARMONIC_DEEP), 10, CM, None)
    # the least |entry| of a signed zero is 0.0, not -0.0
    @example(Sequence((-0.0, 0.0), "float"), 1, CM, None)
    @settings(max_examples=300, deadline=None)
    def test_matches_a_table_reference(self, a, depth, kind, tol):
        depth = min(depth, a.last_index + 1)
        got = [outcome(lambda: atom_at_zero(a, kind, depth)),
               outcome(lambda: is_minimal(a, kind, depth, tol)),
               outcome(lambda: classify._certify_minimal(a, kind, depth, tol))]
        assert got == reference_outcomes(a, kind, depth, tol)


class TestParametersBeforeRows:
    """A bad tol, trail depth, grid or drift is refused with its own message
    before the scan draws a row, so whatever the data: the alternating
    sequence fails CM and CA certification, the harmonic one passes CM."""

    ALTERNATING = [0, 1, 0, 1]
    HARMONIC = [Fraction(1, k + 1) for k in range(22)]
    TOL = "tol must be nonnegative"
    CM_DEPTH = "depth too small: CM minimality needs depth >= 1"
    CA_DEPTH = "depth too small: CA atom trail needs depth >= 2"

    @pytest.mark.parametrize("call, message", [
        (lambda a: is_minimal(a, CM, None, -1.0), TOL),
        (lambda a: is_minimal(a, CM, None, math.nan), TOL),
        (lambda a: is_minimal(a, CM, 0), CM_DEPTH),
        (lambda a: is_minimal(a, CA, 1, -1.0), TOL),  # tol before the trail depth
        (lambda a: is_minimal(a, CA, 1), CA_DEPTH),
        (lambda a: atom_at_zero(a, CA, 1), CA_DEPTH),
        (lambda a: classify._certify_minimal(a, CM, 3, math.nan), TOL),
        (lambda a: classify._certify_minimal(a, CA, 1, None), CA_DEPTH),
        (lambda a: invert_cm(a, 0, -1.0), "grid must have at least one cell"),
        (lambda a: invert_cm(a, 4, math.nan), TOL),
        (lambda a: invert_ca(a, 0, -1.0, math.nan), "grid must have at least one cell"),
        (lambda a: invert_ca(a, 200, -1.0, math.inf), "drift must be finite, not inf"),
        (lambda a: invert_ca(a, 200, math.nan), TOL),
        (lambda a: extend_from_integer_samples(a, CM, tol=-1.0), TOL),
        # a TypeError from the kernel's size, or a fit on a 10.0-cell grid
        (lambda a: invert_cm(a, 200.5), "grid must be an integer, not 200.5"),
        (lambda a: invert_ca(a, 10.0), "grid must be an integer, not 10.0"),
        (lambda a: extend_from_integer_samples(a, CA, 200.0), "grid must be an integer, not 200.0"),
    ])
    @pytest.mark.parametrize("values", [ALTERNATING, HARMONIC], ids=["fails", "passes"])
    def test_refused_before_the_first_row(self, monkeypatch, call, message, values):
        drawn = []
        monkeypatch.setattr(classify, "_scaled_rows", counting_rows(drawn))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(exact(values))
        assert drawn == []


class TestAtomAtZero:
    def test_pure_atom(self):
        a = exact([1] + [0] * 10)
        est = atom_at_zero(a, CM, 10)
        assert est.trail == tuple([1] * 11)
        assert est.estimate == 1
        assert est.monotone_ok

    def test_geometric_trail(self):
        # closed form from the (1-u)^n kernel at u = 1/2: trail_n = 2^-n
        a = exact([Fraction(1, 2**k) for k in range(31)])
        est = atom_at_zero(a, CM, 30)
        assert est.trail == tuple(Fraction(1, 2**n) for n in range(31))
        assert est.estimate == Fraction(1, 2**30)
        assert float(est.estimate) == pytest.approx(9.3e-10, rel=1e-2)

    def test_harmonic_trail(self):
        a = exact([Fraction(1, k + 1) for k in range(31)])
        est = atom_at_zero(a, CM, 30)
        assert est.trail == tuple(Fraction(1, n + 1) for n in range(31))

    def test_ca_trail_skips_drift_row(self):
        # q=0, d=3, atom (0, 1/2): trail should converge to mu({0}) = 1/2
        a = ca_model(0, 3, [(Fraction(0), Fraction(1, 2))], 20)
        est = atom_at_zero(a, CA, 20)
        assert est.trail[0] == Fraction(1, 2)  # n = 2 entry already exact here
        assert est.estimate == Fraction(1, 2)

    def test_ca_needs_depth_two(self):
        a = ca_model(0, 1, [], 5)
        with pytest.raises(ValueError, match="depth too small"):
            atom_at_zero(a, CA, 1)

    def test_refuses_failed_certification(self):
        a = exact([0, 1, 0, 1])
        with pytest.raises(CertificationError):
            atom_at_zero(a, CM, 2)

    @given(
        st.lists(st.tuples(unit_fracs, weights), min_size=1, max_size=4),
        weights,
    )
    @settings(max_examples=40, deadline=None)
    def test_atom_recovery_on_models(self, atoms, zero_mass):
        atoms = {u: w for u, w in atoms if u > 0}
        atoms[Fraction(0)] = zero_mass
        K = 25
        a = cm_model(atoms.items(), K)
        est = atom_at_zero(a, CM, K)
        assert est.monotone_ok
        assert est.estimate >= zero_mass
        # converges: the surplus is sum_{u>0} w u^0 (1-u)^K
        surplus = sum(w * (1 - u) ** K for u, w in atoms.items() if u > 0)
        assert est.estimate - zero_mass == surplus


class TestMinimality:
    def test_harmonic_minimal_at_depth_60(self):
        a = exact([Fraction(1, k + 1) for k in range(61)])
        rep = is_minimal(a, CM, 60, tol=0.02)
        assert rep.minimal
        assert rep.atom.estimate == Fraction(1, 61)

    def test_pure_atom_not_minimal(self):
        a = exact([1] + [0] * 8)
        rep = is_minimal(a, CM, 8, tol=1e-6)
        assert not rep.minimal
        assert rep.atom.estimate == 1

    def test_ca_example_minimal(self):
        a = exact([1 - Fraction(1, k + 1) for k in range(61)])
        rep = is_minimal(a, CA, 60, tol=0.02)
        assert rep.minimal

    @pytest.mark.parametrize("kind, depth, values", [
        (CM, 0, [1, Fraction(1, 2), Fraction(1, 3)]),
        (CA, 1, [0, Fraction(1, 2), Fraction(2, 3)]),
    ])
    def test_needs_a_difference_row_on_both_sides(self, kind, depth, values):
        # CM row 0 is the total mass and CA row 1 holds the drift: neither
        # alone decides minimality
        a = exact(values)
        with pytest.raises(ValueError, match="depth too small"):
            is_minimal(a, kind, depth)
        assert is_minimal(a, kind, depth + 1).atom.trail


class TestDegeneracy:
    def test_constant_tail(self):
        assert degenerate_classify(exact([5, 3, 3, 3, 3]), CM, 4) == CONSTANT_TAIL
        # depth 0 has no difference row: the tail rule on the values decides
        assert degenerate_classify(exact([5, 3, 3, 3, 3]), CM, 0) == CONSTANT_TAIL

    def test_affine_tail(self):
        a = exact([2 + 3 * k for k in range(8)])
        assert degenerate_classify(a, CA, 5) == AFFINE_TAIL
        # row 1 holds no zero: the tail rule on the values decides
        assert degenerate_classify(exact([0, 2, 3, 4, 5]), CA, 1) == AFFINE_TAIL

    def test_geometric_is_strict(self):
        a = exact([Fraction(1, 2**k) for k in range(11)])
        assert degenerate_classify(a, CM, 10) == STRICT

    def test_strict_means_no_zero_entries(self):
        random.seed(11)
        for _ in range(10):
            atoms = [
                (Fraction(random.randint(1, 19), 20), Fraction(random.randint(1, 9), 3))
                for _ in range(3)
            ]
            a = cm_model(atoms, 10)
            if degenerate_classify(a, CM, 10) == STRICT:
                from cmtk.seqcore import difference_table

                table = difference_table(a, 10)
                for n in range(1, 11):
                    assert all(v > 0 for v in table.rows[n])

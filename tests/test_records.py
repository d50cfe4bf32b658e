"""The value types' base class ``scalars.Record``: argument binding, the
``__post_init__`` checks, frozen fields, equality and hashing, ``vars``,
the report encoder's reading of a record, and the repr the types printed as
dataclasses."""

import math
from fractions import Fraction

import pytest

from cmtk.builtins import get_webster_g
from cmtk.classify import AtomEstimate, Certificate, MinimalityReport
from cmtk.cli import _to_json
from cmtk.funcops import SubaffineReport
from cmtk.moments import DiscreteMeasure, FitReport
from cmtk.newton import SeriesValue
from cmtk.scalars import Record
from cmtk.seqcore import Sequence, difference_table
from cmtk.webster import WebsterProblem, WebsterResult


class Pair(Record):
    a: int
    b: int = 0


class OtherPair(Record):
    a: int
    b: int = 0


class TestRecord:
    def test_positional_keyword_and_default_binding(self):
        plain = Certificate("cm", 3, "pass", None, 0.5)
        assert (plain.mode, plain.undecidable) == ("exact", 0)
        assert plain == Certificate(kind="cm", depth=3, verdict="pass", witness=None,
                                    min_margin=0.5)
        assert plain == Certificate("cm", 3, "pass", min_margin=0.5, witness=None, undecidable=0)
        assert plain == Certificate("cm", 3, "pass", None, 0.5, "exact", 0)
        late = Certificate("cm", 3, "pass", None, 0.5, undecidable=4)
        assert (late.mode, late.undecidable) == ("exact", 4)
        assert Pair(b=2, a=1) == Pair(1, 2)

    @pytest.mark.parametrize("args, kwargs", [
        (("cm", 3, "pass", None), {}),  # min_margin missing
        (("cm",), {"depth": 3}),
        (("cm", 3, "pass", None, 0.5, "exact", 0, "extra"), {}),
        (("cm", 3, "pass", None, 0.5), {"margin": 0.5}),  # unknown
        (("cm", 3, "pass", None, 0.5), {"kind": "ca"}),  # given twice
    ])
    def test_missing_unknown_or_repeated_argument(self, args, kwargs):
        with pytest.raises(TypeError):
            Certificate(*args, **kwargs)

    def test_default_before_a_field_without_one_is_refused(self):
        with pytest.raises(TypeError, match="without a default follows"):
            class Bad(Record):
                a: int = 0
                b: int

    @pytest.mark.parametrize("make, message", [
        (lambda: Sequence(()), "sequence must be nonempty"),
        (lambda: Sequence((1.0,), "float", (-1.0,)), "value_bounds must be nonnegative"),
        (lambda: Sequence(values=(Fraction(1),), value_bounds=(0.0,)),
         "exact sequences carry no error bounds"),
        (lambda: DiscreteMeasure(((0.5, 1.0), (0.25, 1.0))), "strictly increasing"),
        (lambda: DiscreteMeasure(atoms=((0.0, -1.0),)), "weights must be nonnegative"),
        (lambda: WebsterProblem(get_webster_g("identity"), 0), "at least 1"),
        (lambda: WebsterProblem(get_webster_g("identity"), acceleration="levin"),
         "acceleration must be"),
    ])
    def test_post_init_checks_raise(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_frozen_fields(self):
        cert = Certificate("cm", 3, "pass", None, 0.5)
        with pytest.raises(AttributeError):
            cert.depth = 4
        with pytest.raises(AttributeError):
            cert.extra = 1
        with pytest.raises(AttributeError):
            del cert.kind
        assert cert.depth == 3 and not hasattr(cert, "extra")

    def test_webster_problem_is_frozen_and_hashable(self):
        # a solution reads its problem's n_terms after prepare, so a problem
        # that took assignment could leave the solution stale
        g = get_webster_g("identity")
        problem = WebsterProblem(g)
        assert (problem.n_terms, problem.acceleration, problem.g_limit_one) == (
            100_000, "aitken", False)
        with pytest.raises(AttributeError):
            problem.n_terms = 10
        assert problem.n_terms == 100_000
        assert hash(problem) == hash(WebsterProblem(g))

    def test_equality_and_hash_by_class_and_fields(self):
        assert Pair(1) == Pair(1, 0) and hash(Pair(1)) == hash(Pair(1, 0))
        assert Pair(1) != Pair(1, 2)
        assert Pair(1) != OtherPair(1)
        assert Pair(1).__eq__(OtherPair(1)) is NotImplemented
        assert Pair(1) != (1, 0)
        assert len({Pair(1), Pair(1, 0), OtherPair(1)}) == 2
        atom = AtomEstimate((1.0, 0.5), 0.5, True)
        assert atom == AtomEstimate((1.0, 0.5), 0.5, True, 0.0)
        assert hash(atom) == hash(AtomEstimate((1.0, 0.5), 0.5, True, 0.0))

    def test_vars_and_cached_property(self):
        fit = FitReport(1.0, 2.0, 3)
        assert list(vars(fit).items()) == [("residual", 1.0), ("kkt_gap", 2.0), ("grid_size", 3),
                                           ("drift_gap", None)]
        assert fit.to_dict() == {"residual": 1.0, "kkt_gap": 2.0, "grid_size": 3}
        table = difference_table(Sequence.from_values([Fraction(1), Fraction(1, 2)]), 1)
        assert table.rows is table.rows  # built once, kept in the instance
        assert table.rows == ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2),))
        assert "rows" in vars(table)
        assert table == difference_table(Sequence.from_values([Fraction(1), Fraction(1, 2)]), 1)

    def test_to_json_reads_the_fields_of_a_record_without_to_dict(self):
        assert _to_json(SubaffineReport(2.0, 1.0, False, 0.5)) == {
            "supremum": 2.0, "bound": 1.0, "ok": False, "arg_sup": 0.5}
        rep = MinimalityReport(False, AtomEstimate((Fraction(1, 2),), Fraction(1, 2), True,
                                                   math.inf), 1e-6)
        assert _to_json(rep) == {
            "minimal": False, "tol": 1e-6,
            "atom": {"trail": ["1/2"], "estimate": "1/2", "monotone_ok": True,
                     "error_bound": None}}

    def test_repr_is_the_dataclass_format(self):
        # each string as the dataclass of the same name printed it
        assert repr(Certificate("cm", 3, "fail", (2, 1, Fraction(-1, 6)), Fraction(1, 12))) == (
            "Certificate(kind='cm', depth=3, verdict='fail', witness=(2, 1, Fraction(-1, 6)), "
            "min_margin=Fraction(1, 12), mode='exact', undecidable=0)")
        assert repr(Certificate("ca", 10, "pass", None, 0.25, "float", 2)) == (
            "Certificate(kind='ca', depth=10, verdict='pass', witness=None, min_margin=0.25, "
            "mode='float', undecidable=2)")
        assert repr(AtomEstimate((1.0, 0.5), 0.5, True)) == (
            "AtomEstimate(trail=(1.0, 0.5), estimate=0.5, monotone_ok=True, error_bound=0.0)")
        assert repr(SeriesValue(Fraction(3, 2), math.inf, 33, ("noise",))) == (
            "SeriesValue(value=Fraction(3, 2), tail_estimate=inf, n_terms=33, "
            "warnings=('noise',))")
        assert repr(WebsterResult(0.886, 0.5, 0.577, None, 1e-06, 2e-06, True, 1000)) == (
            "WebsterResult(value=0.886, x=0.5, gamma=0.577, gamma_raw=None, "
            "last_increment=1e-06, tail_estimate=2e-06, log_concave_ok=True, n_terms=1000, "
            "warnings=())")

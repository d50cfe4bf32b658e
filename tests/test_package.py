"""The package namespace: ``import cmtk`` resolves each re-exported name
from its module on first use (PEP 562), with the same names, ``__all__``
and ``dir`` as an eager import."""

import importlib
import types

import pytest

import cmtk

EXPORTS = {
    "bernstein": ["BernsteinTriplet", "check_bf_via_theta", "check_selfdecomposable",
                  "egf_validate", "eval_bernstein", "extract_triplet", "triplet_handle"],
    "classify": ["CA", "CM", "AtomEstimate", "Certificate", "atom_at_zero", "certify",
                 "degenerate_classify", "is_minimal"],
    "errors": ["BudgetExceededError", "CertificationError", "CmtkError", "DomainError",
               "NotRepresentableError"],
    "funcops": ["FunctionHandle", "apply_operator", "bf_limit_decompose", "cm_limit_decompose",
                "lattice_check", "subaffine_check"],
    "moments": ["CATriplet", "DiscreteMeasure", "FitReport", "evaluate",
                "extend_from_integer_samples", "invert_ca", "invert_cm", "to_exponential"],
    "newton": ["NewtonSeries", "ExtrapolatedValue", "eval_series", "extrapolate_series",
               "series_from_samples"],
    "seqcore": ["DifferenceTable", "Sequence", "binomial_transform", "difference_table",
                "euler_transform", "inverse_euler_transform", "read_sequence"],
    "webster": ["WebsterProblem", "WebsterSolution", "solve_webster",
                "verify_functional_equation"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_exactly_the_exports():
    assert len(NAMES) == 50
    assert sorted(cmtk.__all__) == sorted(name for _, name in NAMES)
    assert cmtk.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", NAMES)
def test_name_resolves_to_its_module(module, name):
    assert name in cmtk.__all__
    assert name in dir(cmtk)
    assert getattr(cmtk, name) is getattr(importlib.import_module(f"cmtk.{module}"), name)


@pytest.mark.parametrize("module, name", NAMES)
def test_star_import_binds(module, name):
    namespace = {}
    exec("from cmtk import *", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"cmtk.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cmtk.no_such_name


def test_from_import_of_a_submodule_gives_the_module():
    from cmtk import classify

    assert isinstance(classify, types.ModuleType)
    assert classify.__name__ == "cmtk.classify"

"""cmtk: desk-scale calculus for completely monotone and Bernstein functions.

Certify CM/CA sequences by finite difference tables, invert Hausdorff
moments into discrete representing measures, interpolate integer samples
by Gregory-Newton series, solve Webster's functional equation by its
infinite product, and test Bernstein membership and self-decomposability
through the theta and scaling operators.

``import cmtk`` loads no submodule: each name below is imported from its
module the first time it is read (PEP 562).
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "bernstein": ("BernsteinTriplet", "check_bf_via_theta", "check_selfdecomposable",
                  "egf_validate", "eval_bernstein", "extract_triplet", "triplet_handle"),
    "classify": ("CA", "CM", "AtomEstimate", "Certificate", "atom_at_zero", "certify",
                 "degenerate_classify", "is_minimal"),
    "errors": ("BudgetExceededError", "CertificationError", "CmtkError", "DomainError",
               "NotRepresentableError"),
    "funcops": ("FunctionHandle", "apply_operator", "bf_limit_decompose", "cm_limit_decompose",
                "lattice_check", "subaffine_check"),
    "moments": ("CATriplet", "DiscreteMeasure", "FitReport", "evaluate",
                "extend_from_integer_samples", "invert_ca", "invert_cm", "to_exponential"),
    "newton": ("NewtonSeries", "ExtrapolatedValue", "eval_series", "extrapolate_series",
               "series_from_samples"),
    "seqcore": ("DifferenceTable", "Sequence", "binomial_transform", "difference_table",
                "euler_transform", "inverse_euler_transform", "read_sequence"),
    "webster": ("WebsterProblem", "WebsterSolution", "verify_functional_equation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

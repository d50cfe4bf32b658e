"""cmtk: desk-scale calculus for completely monotone and Bernstein functions.

Certify CM/CA sequences by finite difference tables, invert Hausdorff
moments into discrete representing measures, interpolate integer samples
by Gregory-Newton series, solve Webster's functional equation by its
infinite product, and test Bernstein membership and self-decomposability
through the theta and scaling operators.
"""

from .bernstein import (
    BernsteinTriplet,
    check_bf_via_theta,
    check_selfdecomposable,
    egf_validate,
    eval_bernstein,
    extract_triplet,
    triplet_handle,
)
from .classify import (
    CA,
    CM,
    AtomEstimate,
    Certificate,
    atom_at_zero,
    certify,
    degenerate_classify,
    is_minimal,
)
from .errors import (
    BudgetExceededError,
    CertificationError,
    CmtkError,
    DomainError,
    NotRepresentableError,
)
from .funcops import (
    FunctionHandle,
    apply_operator,
    bf_limit_decompose,
    cm_limit_decompose,
    lattice_check,
    subaffine_check,
)
from .moments import (
    CATriplet,
    DiscreteMeasure,
    FitReport,
    evaluate,
    extend_from_integer_samples,
    invert_ca,
    invert_cm,
    to_exponential,
)
from .newton import (
    NewtonSeries,
    ExtrapolatedValue,
    eval_series,
    extrapolate_series,
    series_from_samples,
)
from .seqcore import (
    DifferenceTable,
    Sequence,
    binomial_transform,
    difference_table,
    euler_transform,
    inverse_euler_transform,
    read_sequence,
)
from .webster import (
    WebsterProblem,
    WebsterSolution,
    solve_webster,
    verify_functional_equation,
)

__version__ = "0.1.0"

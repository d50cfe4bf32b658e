"""Hausdorff moment inversion at desk scale.

Fits a discrete representing measure on the uniform grid {0, 1/M, ..., 1}
to a finite CM sequence (kernel u^k, convention a_0 = total mass including
the endpoint atoms), or a (q, d, measure) triplet to a CA sequence (kernel
1 - u^k on [0, 1), q = a_0, drift floor-estimated from the last first
difference).  The solver is nonnegative least squares with unit column
scaling; every fit reports its residual and KKT stationarity gap.

The exponential picture u = e^{-x} turns a fitted measure into a sum of
decaying exponentials (the atom at u = 0 becomes the designated infinity
atom, the obstruction to minimality), which is how reconstructed functions
are evaluated off the integers.

numpy and SciPy load only in the fits that ``invert_cm``, ``invert_ca`` and
``bernstein.extract_triplet`` run, so ``import cmtk`` loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import classify
from .errors import DomainError, NotRepresentableError
from .scalars import DEFAULT_GRID, DEFAULT_TOL, json_field, parse_scalar
from .seqcore import Sequence

#: residual > RESIDUAL_FACTOR * tol  =>  "not representable at this grid"
RESIDUAL_FACTOR = 100.0


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic measure on [0, 1]: sorted (u_j, w_j) with w_j >= 0.

    The endpoint atoms u = 0 and u = 1 are always present (possibly with
    zero weight): they carry the structural meaning of the representation,
    mass at u = 0 being the non-minimal part and mass at u = 1 the limit
    value of the reconstructed function.
    """

    atoms: tuple

    def __post_init__(self):
        us = [u for u, _ in self.atoms]
        if any(w < 0 for _, w in self.atoms):
            raise ValueError("weights must be nonnegative")
        if sorted(us) != us or len(set(us)) != len(us):
            raise ValueError("support points must be strictly increasing")
        if any(u < 0 or u > 1 for u in us):
            raise ValueError("support must lie in [0, 1]")

    @property
    def total_mass(self):
        return math.fsum(w for _, w in self.atoms)

    @property
    def weight_at_zero(self):
        return math.fsum(w for u, w in self.atoms if u == 0.0)

    def moment(self, k: int) -> float:
        """a_k = integral u^k; at k = 0 this is the total mass."""
        if k == 0:
            return self.total_mass
        return math.fsum(w * u**k for u, w in self.atoms if u > 0.0)

    def to_dict(self):
        return {"atoms": [{"u": u, "w": w} for u, w in self.atoms]}

    @classmethod
    def from_dict(cls, data):
        atoms = [(json_field(a, "u", "measure atom"), json_field(a, "w", "measure atom"))
                 for a in json_field(data, "atoms", "measure", kind=list)]
        return cls(tuple(sorted(atoms)))


@dataclass(frozen=True)
class CATriplet:
    """(q, d, mu) with mu a DiscreteMeasure on [0, 1): a_k = q + dk + sum w_j (1 - u_j^k)."""

    q: object
    d: float
    measure: DiscreteMeasure

    def __post_init__(self):
        if any(u >= 1.0 for u, _ in self.measure.atoms):
            raise ValueError("CA measure lives on [0, 1)")
        if self.d < 0:
            raise ValueError("drift must be nonnegative")

    def moment(self, k: int) -> float:
        if k == 0:
            return float(self.q)
        return float(self.q) + self.d * k + math.fsum(
            w * (1.0 - u**k) for u, w in self.measure.atoms
        )

    def to_dict(self):
        return {
            "q": self.q,
            "d": self.d,
            "atoms": [{"u": u, "w": w} for u, w in self.measure.atoms],
        }

    @classmethod
    def from_dict(cls, data):
        d = json_field(data, "d", "CA triplet", 0.0)
        q = data.get("q")
        if not isinstance(q, str):
            q = json_field(data, "q", "CA triplet", 0.0)
        else:
            try:
                float(q := parse_scalar(q))  # q stays exact; float() checks its range
            except OverflowError:
                raise ValueError(
                    f"CA triplet field 'q' is not a finite number: {data['q']!r:.40}") from None
        return cls(q, d, DiscreteMeasure.from_dict(data))


@dataclass(frozen=True)
class FitReport:
    """Solver audit: l2 moment mismatch, KKT stationarity gap of the scaled
    system, grid size, plus drift diagnostics for CA fits."""

    residual: float
    kkt_gap: float
    grid_size: int
    drift_gap: float | None = None

    def to_dict(self):
        # drift_gap is left out, not null, when the fit has none
        return {k: v for k, v in vars(self).items() if v is not None}


@dataclass(frozen=True)
class ExponentialMeasure:
    """Image of a DiscreteMeasure under x = -ln u: atoms on [0, inf) plus the
    designated infinity atom (the image of the mass at u = 0)."""

    atoms: tuple  # (x_j, w_j), x ascending
    mass_at_infinity: float = 0.0

    def laplace(self, lam: float) -> float:
        """integral e^{-lam x}; the infinity atom counts only at lam = 0."""
        if lam < 0:
            raise DomainError("lambda must be nonnegative")
        val = math.fsum(w * math.exp(-lam * x) for x, w in self.atoms)
        if lam == 0:
            val += self.mass_at_infinity
        return val

    def bernstein(self, lam: float, q=0.0, d=0.0) -> float:
        """q + d*lam + integral (1 - e^{-lam x}); infinity atom contributes
        its full mass for lam > 0 and nothing at lam = 0."""
        if lam < 0:
            raise DomainError("lambda must be nonnegative")
        val = float(q) + d * lam + math.fsum(
            w * -math.expm1(-lam * x) for x, w in self.atoms
        )
        if lam > 0:
            val += self.mass_at_infinity
        return val

    def to_measure(self) -> DiscreteMeasure:
        """Round-trip back to the u = e^{-x} picture (underflowed atoms merge
        into the mass at zero)."""
        merged = {0.0: self.mass_at_infinity}
        for x, w in self.atoms:
            u = math.exp(-x)
            merged[u] = merged.get(u, 0.0) + w
        return DiscreteMeasure(tuple(sorted(merged.items())))


def _solve_nnls(kernel, target, tol: float):
    """Column-scaled NNLS of the numpy arrays ``kernel`` and ``target``;
    returns weights, residual and scaled-system KKT gap.

    Raises NotRepresentableError when the residual exceeds
    RESIDUAL_FACTOR * tol, and ValueError when tol is negative."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    import numpy as np
    from scipy.optimize import nnls

    scale = np.linalg.norm(kernel, axis=0)
    scale[scale == 0.0] = 1.0
    scaled = kernel / scale
    w_scaled, _ = nnls(scaled, target)
    w = w_scaled / scale
    mismatch = kernel @ w - target
    grad = scaled.T @ mismatch
    active = w_scaled > 0.0
    kkt = 0.0
    if active.any():
        kkt = float(np.max(np.abs(grad[active])))
    if (~active).any():
        kkt = max(kkt, float(np.max(np.maximum(0.0, -grad[~active]))))
    residual = float(np.linalg.norm(mismatch))
    threshold = RESIDUAL_FACTOR * tol
    if residual > threshold:
        raise NotRepresentableError(f"not representable at this grid: residual "
                                    f"{residual:.3e} > {threshold:.3e}", residual, threshold)
    return w, residual, kkt


def _certify_or_raise(a: Sequence, kind: str, rows=None):
    """Raise unless ``a`` certifies ``kind`` to its default depth (read off ``rows`` if given)."""
    depth = classify.default_depth(a)
    classify._certify(a, kind, depth, rows, f"sequence is not {kind} to depth {depth}")


def _power_kernel(K: int, grid_m: int, nodes: int):
    """The first ``nodes`` points u_j = j / grid_m and V[k][j] = u_j^k, k <= K
    (0^0 = 1), one power per row: the fits' NNLS bits depend on it."""
    import numpy as np

    u = np.arange(nodes) / grid_m
    V = np.empty((K + 1, nodes))
    for k in range(K + 1):
        V[k, :] = u**k
    return u, V


def invert_cm(a: Sequence, grid_m: int = DEFAULT_GRID, tol: float = DEFAULT_TOL):
    """Fit a nonnegative measure on {0, 1/M, ..., 1} matching the moments of ``a``.

    Solves min_w ||V w - a||_2, w >= 0 with V[k][j] = u_j^k (0^0 = 1, so the
    u = 0 column feeds only the k = 0 moment, per the a_0 = nu([0,1])
    convention).

    Returns (DiscreteMeasure, FitReport).  Raises NotRepresentableError when
    the residual exceeds 100*tol, and CertificationError when the sequence
    fails the CM sign check outright.
    """
    if grid_m < 1:
        raise ValueError("grid must have at least one cell")
    _certify_or_raise(a, classify.CM)
    import numpy as np

    target = np.array(a.as_floats())
    u, V = _power_kernel(a.last_index, grid_m, grid_m + 1)
    w, residual, kkt = _solve_nnls(V, target, tol)
    atoms = [(float(u[j]), float(w[j])) for j in range(grid_m + 1)
             if w[j] > 0.0 or j in (0, grid_m)]
    return DiscreteMeasure(tuple(atoms)), FitReport(residual, kkt, grid_m)


def drift_floor_estimate(a: Sequence):
    """Floor estimate of the CA drift: the first difference at the largest
    index, which decreases to d, clamped at 0.  Returns (d_hat, gap to the
    previous difference)."""
    K = a.last_index
    if K < 1:
        raise ValueError("drift estimation needs at least two terms")
    d_hat = float(a.values[K] - a.values[K - 1])
    gap = None
    if K >= 2:
        gap = float(a.values[K - 1] - a.values[K - 2]) - d_hat
    return max(d_hat, 0.0), gap


def invert_ca(a: Sequence, grid_m: int = DEFAULT_GRID, tol: float = DEFAULT_TOL,
              drift=None):
    """Fit a CA triplet: q = a_0 as given, drift from the first-difference
    floor estimate (or ``drift`` if supplied), then NNLS on the residual
    moments a_k - q - d k against the kernel 1 - u_j^k on {0, ..., 1 - 1/M}.

    Returns (CATriplet, FitReport); the report's drift_gap records the
    difference between the last two first differences (positive bias scale).
    """
    if grid_m < 1:
        raise ValueError("grid must have at least one cell")
    _certify_or_raise(a, classify.CA)
    return _fit_ca(a, grid_m, tol, drift)


def _fit_ca(a: Sequence, grid_m: int, tol: float, drift):
    """The fit of ``invert_ca`` on a sequence already certified CA."""
    K = a.last_index
    q = a.values[0]
    if drift is None:
        d_hat, gap = drift_floor_estimate(a)
    else:
        d_hat, gap = max(float(drift), 0.0), None
    import numpy as np

    target = np.array(a.as_floats()) - float(q) - d_hat * np.arange(K + 1)
    u, B = _power_kernel(K, grid_m, grid_m)
    np.subtract(1.0, B, out=B)  # the kernel 1 - u^k over the first M nodes
    w, residual, kkt = _solve_nnls(B, target, tol)
    atoms = [
        (float(u[j]), float(w[j])) for j in range(grid_m) if w[j] > 0.0 or j == 0
    ]
    measure = DiscreteMeasure(tuple(atoms))
    return CATriplet(q, d_hat, measure), FitReport(residual, kkt, grid_m, gap)


def to_exponential(m: DiscreteMeasure) -> ExponentialMeasure:
    """Map support through x = -ln u (u = 0 becomes the infinity atom).

    Round-tripping with u = e^{-x} is the identity up to float rounding.
    """
    mass_inf = 0.0
    atoms = []
    for u, w in m.atoms:
        if u == 0.0:
            mass_inf += w
        else:
            atoms.append((0.0 if u == 1.0 else -math.log(u), w))
    atoms.sort()
    return ExponentialMeasure(tuple(atoms), mass_inf)


def evaluate(m, lam) -> float:
    """Evaluate the reconstructed function at lam >= 0.

    CM measure:  Psi(lam) = sum w_j e^{-lam x_j}  (+ infinity atom at lam = 0);
    CA triplet:  Phi(lam) = q + d lam + sum w_j (1 - e^{-lam x_j})
                 (+ infinity-atom mass for lam > 0).
    """
    lam = float(lam)  # laplace and bernstein check lam >= 0
    if isinstance(m, CATriplet):
        return to_exponential(m.measure).bernstein(lam, m.q, m.d)
    if isinstance(m, ExponentialMeasure):
        return m.laplace(lam)
    return to_exponential(m).laplace(lam)


def extend_from_integer_samples(samples: Sequence, kind: str,
                                grid_m: int = DEFAULT_GRID,
                                tol: float = DEFAULT_TOL):
    """Certify, invert and return the unique CM/BF interpolant of (f(k))_k
    as a callable.

    The returned function carries the fitted object as ``.model`` and the
    solver audit as ``.report``.  Certification failure raises
    CertificationError with the certificate attached.
    """
    if kind == classify.CM:
        model, report = invert_cm(samples, grid_m, tol)
    elif kind == classify.CA:
        model, report = invert_ca(samples, grid_m, tol)
    else:
        raise ValueError(f"kind must be {classify.CM!r} or {classify.CA!r}")

    def interpolant(lam):
        return evaluate(model, lam)

    interpolant.model = model
    interpolant.report = report
    return interpolant

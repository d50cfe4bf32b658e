"""Hausdorff moment inversion at desk scale.

Fits a discrete representing measure on the uniform grid {0, 1/M, ..., 1}
to a finite CM sequence (kernel u^k, convention a_0 = total mass including
the endpoint atoms), or a (q, d, measure) triplet to a CA sequence (kernel
1 - u^k on [0, 1), q = a_0, drift floor-estimated from the last first
difference).  The solver is nonnegative least squares with unit column
scaling, run on the data scaled exactly by 2^-e, e the binade of max |a_k|;
a fit is representable when that residual is at most 100 tol, so 2^j a gets
the verdict of a, as Hausdorff's characterization does not see scale.
Every fit reports its residual and KKT stationarity gap at the data's scale.

The exponential picture u = e^{-x} turns a fitted measure into a sum of
decaying exponentials (the atom at u = 0 becomes the designated infinity
atom, the obstruction to minimality), which is how reconstructed functions
are evaluated off the integers.

numpy and SciPy's compiled NNLS routine load only in the fits that
``invert_cm``, ``invert_ca`` and ``bernstein.extract_triplet`` run, so
``import cmtk`` loads neither.  The routine is loaded from its extension file
in SciPy's ``optimize`` directory, without importing ``scipy`` or
``scipy.optimize`` (whose import costs far more than every fit the CLI
runs); a SciPy without that file falls back to ``scipy.optimize.nnls``.
"""

from __future__ import annotations

import math
import os
import sys
from functools import cache

from .errors import DomainError, NotRepresentableError
from .scalars import (CA, CM, DEFAULT_GRID, DEFAULT_TOL, Record, as_count, json_field,
                      nonnegative_fsum, parse_scalar)

#: residual > RESIDUAL_FACTOR * tol  =>  "not representable at this grid"
RESIDUAL_FACTOR = 100.0


class DiscreteMeasure(Record):
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
        return nonnegative_fsum(w for _, w in self.atoms)

    @property
    def weight_at_zero(self):
        return nonnegative_fsum(w for u, w in self.atoms if u == 0.0)

    def moment(self, k: int) -> float:
        """a_k = integral u^k; at k = 0 this is the total mass."""
        if k == 0:
            return self.total_mass
        return nonnegative_fsum(w * u**k for u, w in self.atoms if u > 0.0)

    def to_dict(self):
        return {"atoms": [{"u": u, "w": w} for u, w in self.atoms]}

    @classmethod
    def from_dict(cls, data):
        atoms = [(json_field(a, "u", "measure atom"), json_field(a, "w", "measure atom"))
                 for a in json_field(data, "atoms", "measure", kind=list)]
        return cls(tuple(sorted(atoms)))


class CATriplet(Record):
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
        return float(self.q) + self.d * k + nonnegative_fsum(
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


class FitReport(Record):
    """Solver audit: l2 moment mismatch, KKT stationarity gap of the scaled
    system, grid size, plus drift diagnostics for CA fits."""

    residual: float
    kkt_gap: float
    grid_size: int
    drift_gap: float | None = None

    def to_dict(self):
        # drift_gap is left out, not null, when the fit has none
        return {k: v for k, v in vars(self).items() if v is not None}


class ExponentialMeasure(Record):
    """Image of a DiscreteMeasure under x = -ln u: atoms on [0, inf) plus the
    designated infinity atom (the image of the mass at u = 0)."""

    atoms: tuple  # (x_j, w_j), x ascending
    mass_at_infinity: float = 0.0

    def laplace(self, lam: float) -> float:
        """integral e^{-lam x}; the infinity atom counts only at lam = 0."""
        if lam < 0:
            raise DomainError("lambda must be nonnegative")
        val = nonnegative_fsum(w * math.exp(-lam * x) for x, w in self.atoms)
        if lam == 0:
            val += self.mass_at_infinity
        return val

    def bernstein(self, lam: float, q=0.0, d=0.0) -> float:
        """q + d*lam + integral (1 - e^{-lam x}); infinity atom contributes
        its full mass for lam > 0 and nothing at lam = 0."""
        if lam < 0:
            raise DomainError("lambda must be nonnegative")
        try:  # nonnegative_fsum inline: every triplet-handle value comes here
            val = math.fsum(w * -math.expm1(-lam * x) for x, w in self.atoms)
        except OverflowError:
            val = math.inf
        val = float(q) + d * lam + val
        if lam > 0:
            val += self.mass_at_infinity
        return val


@cache
def _nnls_routine():
    """SciPy's compiled NNLS routine, loaded once from its extension file
    ``scipy/optimize/_slsqplib`` without importing ``scipy`` or
    ``scipy.optimize``; None when this SciPy has no such routine."""
    from importlib import machinery, util

    name = "scipy.optimize._slsqplib"
    if name in sys.modules:  # scipy.optimize is loaded already
        return getattr(sys.modules[name], "nnls", None)
    spec = util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_slsqplib" + suffix)
            if os.path.isfile(path):
                ext = util.spec_from_file_location(name, path)
                module = util.module_from_spec(ext)
                ext.loader.exec_module(module)
                sys.modules.pop(name, None)  # a single-phase extension registers itself
                return getattr(module, "nnls", None)
    return None


def _nnls(A, b):
    """argmin ||A x - b||_2 over x >= 0, computed as ``scipy.optimize.nnls``
    computes it: the same checks, iteration cap and compiled routine."""
    routine = _nnls_routine()
    if routine is None:
        from scipy.optimize import nnls

        return nnls(A, b)[0]
    import numpy as np

    A = np.asarray_chkfinite(A, dtype=np.float64, order="C")
    b = np.asarray_chkfinite(b, dtype=np.float64)
    x, _, info = routine(A, b, 3 * A.shape[1])
    if info == 3:
        raise RuntimeError("Maximum number of iterations reached.")
    return x


def _binade(data) -> int:
    """The fits' one scale: e with max |a_k| in [2^e, 2^(e+1)); 0 for zero data."""
    top = max(map(abs, data), default=0.0)
    return math.frexp(top)[1] - 1 if top else 0


def _solve_nnls(kernel, data, tol: float, q=0.0, d=0.0):
    """Column-scaled NNLS of a_k - q - d k (a the floats ``data``) against the
    numpy array ``kernel``, solved on 2^-e a_k - 2^-e q - 2^-e d k, e the
    data's binade: an exact scaling, so the weights, residual and KKT gap,
    scaled back by 2^e, keep an unscaled solve's bits where it stays in range.

    Raises NotRepresentableError when the scaled residual exceeds
    RESIDUAL_FACTOR * tol, and ValueError for a target or weight past float range."""
    import numpy as np

    e = _binade(data)
    with np.errstate(over="ignore", invalid="ignore"):  # inf times k = 0 is nan
        target = np.ldexp(data, -e) - np.ldexp(q, -e) - np.ldexp(d, -e) * np.arange(len(data))
    if not np.isfinite(target).all():  # 2^-e |a_k| < 2: only a supplied drift gets here
        raise ValueError(f"drift {d!r} times k passes float range once scaled by 2^{-e}")
    scale = np.linalg.norm(kernel, axis=0)
    scale[scale == 0.0] = 1.0
    scaled = kernel / scale
    w_scaled = _nnls(scaled, target)
    w = w_scaled / scale
    mismatch = kernel @ w - target
    grad = scaled.T @ mismatch
    # stationarity |grad| on the active set, dual feasibility -grad elsewhere
    kkt = max(0.0, float(np.max(np.where(w_scaled > 0.0, np.abs(grad), -grad))))
    # the squares of a finite mismatch can pass float range, so its norm is
    # then taken on mismatch / m, m = max |mismatch|; a value scaled back
    # past float range reads inf
    with np.errstate(over="ignore"):
        residual = float(np.linalg.norm(mismatch))
        if not math.isfinite(residual) and (m := float(np.max(np.abs(mismatch)))) < math.inf:
            residual = m * float(np.linalg.norm(mismatch / m))
        w, back = np.ldexp(w, e), np.ldexp([residual, kkt, RESIDUAL_FACTOR * tol], e).tolist()
    if not np.isfinite(w).all():  # CA weights near u = 1 can pass float range
        raise ValueError("NNLS weight is beyond float range")
    if residual > RESIDUAL_FACTOR * tol:
        raise NotRepresentableError(f"not representable at this grid: residual "
                                    f"{back[0]:.3e} > {back[2]:.3e}", back[0], back[2])
    return w, back[0], back[1]


def _check_fit(grid_m: int, tol: float, drift=None) -> int:
    """The grid as an int.  Refuses, in order, a grid that is no integer or has no cell, a
    drift not finite (the clamp at 0 reads -inf as 0.0 and keeps NaN) and a tol < 0 or NaN."""
    if (grid_m := as_count(grid_m, "grid")) < 1:
        raise ValueError("grid must have at least one cell")
    if drift is not None and not math.isfinite(drift):
        raise ValueError(f"drift must be finite, not {drift!r}")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    return grid_m


def _certify_or_raise(a: Sequence, kind: str, rows=None):
    """Raise unless ``a`` certifies ``kind`` to its default depth (read off ``rows`` if given)."""
    from . import classify
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
    the residual exceeds 100*tol*2^e, e the binade of max |a_k|, and
    CertificationError when the sequence fails the CM sign check outright.
    """
    grid_m = _check_fit(grid_m, tol)
    _certify_or_raise(a, CM)
    u, V = _power_kernel(a.last_index, grid_m, grid_m + 1)
    w, residual, kkt = _solve_nnls(V, a.as_floats(), tol)
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
    d_hat = _first_difference(a, K)
    gap = _first_difference(a, K - 1) - d_hat if K >= 2 else None
    return max(d_hat, 0.0), gap


def _first_difference(a: Sequence, k: int) -> float:
    """a_k - a_{k-1} as a float; a ValueError when it passes float range."""
    try:
        diff = float(a.values[k] - a.values[k - 1])
    except OverflowError:  # an exact difference
        diff = math.inf
    if not math.isfinite(diff):
        raise ValueError(f"first difference a_{k} - a_{k - 1} is beyond float range")
    return diff


def invert_ca(a: Sequence, grid_m: int = DEFAULT_GRID, tol: float = DEFAULT_TOL,
              drift=None):
    """Fit a CA triplet: q = a_0 as given, drift from the first-difference
    floor estimate (or ``drift`` if supplied), then NNLS on the residual
    moments a_k - q - d k against the kernel 1 - u_j^k on {0, ..., 1 - 1/M}.

    Returns (CATriplet, FitReport); the report's drift_gap records the
    difference between the last two first differences (positive bias scale).
    """
    grid_m = _check_fit(grid_m, tol, drift)
    _certify_or_raise(a, CA)
    return _fit_ca(a, grid_m, tol, drift)


def _fit_ca(a: Sequence, grid_m: int, tol: float, drift):
    """The fit of ``invert_ca`` on a sequence already certified CA, checked by ``_check_fit``."""
    q = a.values[0]
    d_hat, gap = drift_floor_estimate(a) if drift is None else (max(float(drift), 0.0), None)
    import numpy as np

    u, B = _power_kernel(a.last_index, grid_m, grid_m)
    np.subtract(1.0, B, out=B)  # the kernel 1 - u^k over the first M nodes
    w, residual, kkt = _solve_nnls(B, a.as_floats(), tol, float(q), d_hat)
    atoms = [
        (float(u[j]), float(w[j])) for j in range(grid_m) if w[j] > 0.0 or j == 0
    ]
    measure = DiscreteMeasure(tuple(atoms))
    return CATriplet(q, d_hat, measure), FitReport(residual, kkt, grid_m, gap)


def to_exponential(m: DiscreteMeasure) -> ExponentialMeasure:
    """Map support through x = -ln u (u = 0 becomes the infinity atom);
    u = e^{-x} maps each atom back up to float rounding."""
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
    """Certify, invert and return as a callable the CM/BF interpolant of
    (f(k))_k fitted on the grid, unique only when the samples pin the
    measure (a boundary point of the moment space).

    The returned function carries the fitted object as ``.model`` and the
    solver audit as ``.report``.  Certification failure raises
    CertificationError with the certificate attached.
    """
    if kind not in (CM, CA):
        raise ValueError(f"kind must be {CM!r} or {CA!r}")
    model, report = (invert_cm if kind == CM else invert_ca)(samples, grid_m, tol)

    def interpolant(lam):
        return evaluate(model, lam)

    interpolant.model = model
    interpolant.report = report
    return interpolant

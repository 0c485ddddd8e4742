"""Euler and signature integrands, their orthogonal reduction, and block sums.

The Euler-characteristic and signature integrands of a star-commuting
4-dimensional curvature tensor are polynomial in the normal-form values
``l_i, m_i`` and the inverse metric expressed in the normal-form frame.

Two conventions appear side by side and are kept explicit throughout:

* *per unit frame volume* (the 4-form ``E^1 ^ E^2 ^ E^3 ^ E^4`` of the
  normal-form coframe): this is the form in which the fully expanded
  integrands are stated, and it is exact for the signature in every frame
  because ``tr(Omega ^ Omega)`` is basis independent.
* *per unit metric volume* ``dV_g``: the Pfaffian defining the Euler form is
  an orthonormal-frame expression, so the Euler density per ``dV_g`` is
  computed from the rescaled values ``lt_i, kt_i, mt_i`` of a g-orthogonal
  normal-form frame.  The two chi conventions agree exactly when the frame
  is g-orthonormal and differ otherwise; integration of the Euler
  characteristic therefore always uses the rescaled form.

The rescaled densities satisfy the pointwise identity

    chi_gvol - (3/2) tau_gvol - (1/4 pi^2) sum_i (lt_i - mt_i)(kt_i - mt_i) = 0

by the termwise factoring ``lt kt + mt^2 = (lt - mt)(kt - mt) + (lt + kt) mt``,
which generalizes the classical Euler/signature inequality for Einstein
metrics (equality analysis included: the correction integrand is the deficit).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .complex_forms import _ETA, _GRAM_L, _STAR_L, _adapted
from .curvature import CurvatureTensor, component_matrix
from .exceptions import DimensionError, GeometryError, _alone, _stacked_or_alone
from .hodge import _commutator, _metric_errors
from .normal_forms import (
    NormalForm4,
    ScaledNormalForm,
    _lambda2_blocks,
    _normal_forms,
    _off_diagonal,
)
from .zoo import _sample_chunks

__all__ = [
    "IntegrandValue",
    "chi_tau_densities",
    "IntegrationResult",
    "integrate_samples",
    "WeylSplitReport",
    "weyl_split_check",
    "BuildingBlock",
    "BUILDING_BLOCKS",
    "hypersurface_block",
    "parse_block_expression",
    "ConnectedSumResult",
    "connected_sum",
]


# ---- densities ----


@dataclass(frozen=True)
class IntegrandValue:
    """Euler and signature integrands of one normal form.

    ``chi_density`` and ``tau_density`` are the fully expanded frame-form
    integrands per unit frame volume.  ``tau_density_gvol`` converts the
    signature to metric volume (valid in every frame).  The remaining fields
    are populated only when the normal-form frame is g-orthogonal:
    ``chi_density_reduced`` is the collapsed orthogonal form of
    ``chi_density``; ``chi_density_gvol`` is the Euler density per unit
    metric volume built from the rescaled values; ``ht_correction_density``
    is ``(1/4 pi^2) sum_i (lt_i - mt_i)(kt_i - mt_i)`` per unit metric
    volume, the deficit of the Euler/signature identity.
    """

    chi_density: float
    tau_density: float
    sqrt_det_g: float
    tau_density_gvol: float
    orthogonal: bool
    chi_density_reduced: float | None = None
    chi_density_gvol: float | None = None
    ht_correction_density: float | None = None
    scaled: ScaledNormalForm | None = None


# the fields of IntegrandValue that every frame has; the others need a g-orthogonal one
_FRAME_TERMS = ("chi_density", "tau_density", "sqrt_det_g", "tau_density_gvol")


def chi_tau_densities(
    nf: NormalForm4, g_inverse_in_frame: np.ndarray, tol: float = 1e-9
) -> IntegrandValue:
    """Euler and signature integrands of a 4-dimensional normal form.

    Parameters
    ----------
    nf : NormalForm4
        Normal form whose values ``l_i, m_i`` enter the integrands.
    g_inverse_in_frame : ndarray, shape (4, 4)
        Inverse of the metric's Gram matrix in the normal-form frame.
    tol : float
        Tolerance of the inverse metric's symmetry, and the relative threshold
        (``normal_forms._off_diagonal``) deciding whether the frame counts as
        g-orthogonal, which enables the rescaled per-``dV_g`` fields.

    Returns
    -------
    IntegrandValue

    Notes
    -----
    With ``det C_ij = g^ii g^jj - (g^ij)^2``,

        chi_density = (1/16 pi^2) [ (det C13 + det C23 + det C14 + det C24)(l1^2 + m1^2)
                                  + (det C14 + det C34 + det C12 + det C23)(l2^2 + m2^2)
                                  + (det C34 + det C24 + det C12 + det C13)(l3^2 + m3^2)
                                  + 4 (g^23 g^41 - g^13 g^24) l1 m1
                                  + 4 (g^12 g^34 - g^14 g^32) l2 m2
                                  + 4 (g^24 g^13 - g^12 g^34) l3 m3 ]

        tau_density = -(1/6 pi^2) [ (g^23 g^41 - g^13 g^24)(l1^2 + m1^2)
                                  + (g^12 g^34 - g^14 g^32)(l2^2 + m2^2)
                                  + (g^24 g^13 - g^12 g^34)(l3^2 + m3^2)
                                  - (det C12 + det C34) l1 m1
                                  - (det C13 + det C24) l2 m2
                                  - (det C14 + det C23) l3 m3 ]

    both per unit frame volume.  For a g-orthonormal frame these collapse to
    ``(1/4 pi^2) sum (l_i^2 + m_i^2)`` and ``(1/3 pi^2) sum l_i m_i``.

    The inverse metric must pass ``hodge._metric_errors``.  This is the
    N = 1 call of :func:`_densities`, the stacked density that
    :func:`integrate_samples` and ``curvforms integrate`` run on the
    general-frame points of each chunk, where the chosen normal form decides g-orthogonality.
    """
    gi = np.asarray(g_inverse_in_frame, dtype=float)
    if gi.shape != (4, 4):
        raise DimensionError("g_inverse_in_frame must be 4x4")
    l, m = (np.asarray(v, dtype=float)[None] for v in (nf.lambdas, nf.mus))
    terms, scaled, (error,) = _densities(l, m, gi[None], tol)
    orthogonal = error is None and bool(_off_diagonal(gi, tol)[1])
    return _alone([error or IntegrandValue(
        **{k: float(v[0]) for k, v in terms.items() if orthogonal or k in _FRAME_TERMS},
        orthogonal=orthogonal,
        scaled=ScaledNormalForm(*(getattr(scaled, f.name)[0] for f in fields(scaled))) if orthogonal else None,
    )])


def _densities(lambdas: np.ndarray, mus: np.ndarray, gi: np.ndarray, tol: float) -> tuple:
    """:func:`chi_tau_densities` of stacked values ``lambdas``, ``mus`` (N, 3) and
    inverse metrics ``gi`` (N, 4, 4): the float fields of :class:`IntegrandValue`
    as (N,) arrays in a dict (those of a g-orthogonal frame at every point, for
    the caller to pick), the stacked :class:`ScaledNormalForm` and each point's
    error from ``hodge._metric_errors``, or None.  The terms of a point
    with an error are those of ``gi = I``, ``l = m = 0``."""
    errors = _metric_errors(gi, "inverse metric", tol)
    ok = np.array([e is None for e in errors], dtype=bool)[:, None]
    gi = np.where(ok[:, :, None], 0.5 * (gi + np.swapaxes(gi, 1, 2)), np.eye(4))
    l, m = np.where(ok, lambdas, 0.0), np.where(ok, mus, 0.0)
    (l1, l2, l3), (m1, m2, m3), (s1, s2, s3) = l.T, m.T, (l**2 + m**2).T

    d = np.diagonal(gi, axis1=1, axis2=2)
    minors = d[:, :, None] * d[:, None, :] - gi**2  # det C_ij at [:, i - 1, j - 1]
    c12, c13, c14, c23, c24, c34 = minors[:, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]].T
    x1 = gi[:, 1, 2] * gi[:, 3, 0] - gi[:, 0, 2] * gi[:, 1, 3]
    x2 = gi[:, 0, 1] * gi[:, 2, 3] - gi[:, 0, 3] * gi[:, 2, 1]
    x3 = gi[:, 1, 3] * gi[:, 0, 2] - gi[:, 0, 1] * gi[:, 2, 3]

    chi_bracket = (
        (c13 + c23 + c14 + c24) * s1 + (c14 + c34 + c12 + c23) * s2 + (c34 + c24 + c12 + c13) * s3
        + 4.0 * x1 * l1 * m1 + 4.0 * x2 * l2 * m2 + 4.0 * x3 * l3 * m3
    )
    tau_bracket = (
        x1 * s1 + x2 * s2 + x3 * s3
        - (c12 + c34) * l1 * m1 - (c13 + c24) * l2 * m2 - (c14 + c23) * l3 * m3
    )
    tau_density = -16.0 * tau_bracket / (3.0 * 2.0**5 * math.pi**2)
    # dV_g = sqrt(det g_frame) E^1234 and det g_frame = 1/det(g_inverse)
    sqrt_det_g = 1.0 / np.sqrt(np.linalg.det(gi))

    g11, g22, g33, g44 = d.T
    chi_reduced = (
        (g11 + g22) * (g33 + g44) * s1 + (g11 + g33) * (g22 + g44) * s2 + (g11 + g44) * (g22 + g33) * s3
    ) / (2.0**4 * math.pi**2)

    # c_i = 1/sqrt(g_ii) = sqrt(g^ii) for a diagonal Gram matrix
    scaled = ScaledNormalForm.rescale(np.sqrt(d), l, m)
    lt, kt, mt = scaled.lambdas_scaled, scaled.kappas_scaled, scaled.mus_scaled
    terms = {
        "chi_density": 8.0 * chi_bracket / (2.0**7 * math.pi**2),
        "tau_density": tau_density,
        "sqrt_det_g": sqrt_det_g,
        "tau_density_gvol": tau_density / sqrt_det_g,
        "chi_density_reduced": chi_reduced,
        "chi_density_gvol": (np.sum(lt * kt, axis=1) + np.sum(mt**2, axis=1)) / (4.0 * math.pi**2),
        "ht_correction_density": np.sum((lt - mt) * (kt - mt), axis=1) / (4.0 * math.pi**2),
    }
    return terms, scaled, errors


# ---- quadrature ----


@dataclass(frozen=True)
class IntegrationResult:
    """Weighted totals of the Euler and signature densities.

    ``chi_estimate`` uses the per-``dV_g`` Euler density at g-orthogonal
    points and falls back to the converted frame expansion elsewhere (such
    points are counted in ``general_frame_points``).  ``ht_identity_residual``
    is ``|chi - (3/2) tau - correction|`` accumulated over the g-orthogonal
    points, where the identity is exact.
    """

    chi_estimate: float
    tau_estimate: float
    correction_estimate: float
    ht_identity_residual: float
    total_weight: float
    points: int
    skipped_points: int
    general_frame_points: int


# V^T g V within this relative distance of s I counts as g = s h
_PROPORTIONAL_RTOL = 1e-13


@dataclass
class _Terms:
    """Weighted density terms, kept apart until the final ``math.fsum``.

    After each chunk every list is folded into a few floats with the same
    exact sum (:func:`_fold`), so it stays short however long the stream is.
    """

    chi: list = field(default_factory=list)
    tau: list = field(default_factory=list)
    corr: list = field(default_factory=list)
    orth_chi: list = field(default_factory=list)
    orth_tau: list = field(default_factory=list)
    weights: list = field(default_factory=list)
    skipped: int = 0
    general_frame: int = 0
    orthogonal: int = 0

    def fold(self) -> None:
        for name in ("chi", "tau", "corr", "orth_chi", "orth_tau", "weights"):
            setattr(self, name, _fold(getattr(self, name)))

    def result(self, points: int) -> IntegrationResult:
        """The totals, each one correctly rounded ``math.fsum``, over ``points`` points."""
        corr = math.fsum(self.corr)
        if self.orthogonal:
            residual = abs(math.fsum(self.orth_chi) - 1.5 * math.fsum(self.orth_tau) - corr)
        else:
            residual = math.nan
        return IntegrationResult(
            chi_estimate=math.fsum(self.chi),
            tau_estimate=math.fsum(self.tau),
            correction_estimate=corr,
            ht_identity_residual=residual,
            total_weight=math.fsum(self.weights),
            points=points,
            skipped_points=self.skipped,
            general_frame_points=self.general_frame,
        )


def _fold(values: list) -> list:
    """A few floats with exactly the sum of ``values``, so ``math.fsum`` of them
    equals ``math.fsum(values)`` bit for bit: each is the correctly rounded rest
    of that sum after the ones before it.  Values whose sum ``fsum`` cannot
    take (non-finite, or overflowing) are kept as they are."""
    partials = []
    try:
        while rest := math.fsum(values + [-p for p in partials]):
            if not math.isfinite(rest):
                return values
            partials.append(rest)
    except (OverflowError, ValueError):
        return values
    return partials


def integrate_samples(samples, tol: float = 1e-9) -> IntegrationResult:
    """Integrate the Euler and signature densities over weighted samples.

    Parameters
    ----------
    samples : iterable
        Point samples carrying ``rm`` (a validated ``CurvatureTensor``),
        ``g``, optional ``h`` (defaults to ``g``), and a nonnegative
        ``weight``; weights must sum to the total volume.  Any iterable
        works; it is read once, in chunks of a fixed size that run through
        the same stacked path as ``curvforms integrate`` on a file, and the
        terms are kept as exact partial sums, so memory does not grow with
        the number of samples.
    tol : float
        Tolerance for the star-commuting precondition and for the first
        Bianchi identity at each point.

    Points whose operator does not commute with the h-star have no
    normal form and are skipped (counted in ``skipped_points``).  Where
    ``g`` is a multiple ``s h`` of ``h`` the densities follow in closed form
    from the block spectra; other points go through a normal-form frame.
    Each total is one correctly rounded ``math.fsum``, so it depends neither
    on the order of the terms nor on the chunking.

    Raises
    ------
    TensorValidationError
        If a tensor breaks the first Bianchi identity beyond ``tol`` times
        its largest component.
    ValueError
        If a weight is missing, negative or not finite, or a sample is not
        4-dimensional (``DimensionError``); the first such sample raises,
        after the points before it.
    """
    return _integrate_chunks(_sample_chunks(samples), tol)


def _integrate_chunks(chunks, tol: float = 1e-9) -> IntegrationResult:
    """The totals over chunks (:class:`curvforms.zoo._Chunk`) of samples or of a
    file.  The first point that the stack cannot take (one of ``others``, or a
    weight that is negative or not finite) raises, after the points before it."""
    terms, points = _Terms(), 0
    for chunk in chunks:
        rejected = [(i, getattr(sample, "weight", None)) for i, sample in chunk.others]
        rejected += [(int(i), w) for i, w in zip(chunk.index, chunk.weights) if not 0 <= w < math.inf]
        stop = min(rejected, default=None)
        before = slice(None) if stop is None else chunk.index < stop[0]
        _integrate_stack(
            chunk.k0[before], chunk.h[before], chunk.g[before], chunk.weights[before], tol, terms
        )
        if stop is not None:
            index, weight = stop
            if weight is None:
                raise ValueError(f"sample {index} carries no quadrature weight")
            if isinstance(weight, (bool, np.bool_)):
                raise ValueError(f"sample {index} has invalid weight {weight!r}")
            if not 0 <= float(weight) < math.inf:
                raise ValueError(f"sample {index} has invalid weight {float(weight)!r}")
            raise DimensionError("Euler/signature densities are specific to dim 4")  # any other
        terms.fold()
        points += chunk.size
    return terms.result(points)


def _integrate_stack(k0, h, g, weights, tol, terms: _Terms) -> None:
    """Add the terms of stacked points: pair matrices ``k0`` (N, 6, 6), metrics
    ``h``, ``g`` and weights.  The first point whose normal form or densities
    fail raises, and no term is added."""
    if not len(k0):
        return
    blocks = _lambda2_blocks(k0, h, g)
    blocks.check_bianchi(tol)
    commuting = blocks.commuting(tol)

    # g = s h makes every normal-form frame g-orthogonal with g^ii = 1/s, so
    # lt = kt = l/s^2 and mt = m/s^2: with l + m and l - m running over the
    # self-dual and anti-self-dual spectra the sums below need no frame
    s = np.trace(blocks.gram, axis1=1, axis2=2) / 4.0
    off = np.max(np.abs(blocks.gram - s[:, None, None] * np.eye(4)), axis=(1, 2))
    proportional = commuting & (s > 0) & (off <= _PROPORTIONAL_RTOL * s)
    closed = np.flatnonzero(proportional)
    plus = np.sum(blocks.evp[closed] ** 2, axis=1)
    minus = np.sum(blocks.evm[closed] ** 2, axis=1)
    s4, w = s[closed] ** 4, weights[closed]
    chi = w * ((plus + minus) / 2.0 / s4 / (4.0 * math.pi**2))
    tau = w * ((plus - minus) / 4.0 / s4 / (3.0 * math.pi**2))
    corr = w * (minus / s4 / (4.0 * math.pi**2))

    # the other points through their normal-form frames: every Gram inverse and
    # every density at once, each error its point's own
    general = np.flatnonzero(commuting & ~proportional)
    forms = _normal_forms(blocks.take(general), h[general], g[general], tol)
    framed = [p for p, nf in enumerate(forms) if isinstance(nf, NormalForm4)]
    f = np.array([forms[p].frame for p in framed]).reshape(-1, 4, 4)
    inverses = _stacked_or_alone(np.linalg.inv, np.swapaxes(f, 1, 2) @ g[general[framed]] @ f)
    gi = np.array([np.eye(4) if isinstance(x, Exception) else x for x in inverses]).reshape(-1, 4, 4)
    lambdas, mus = (np.array([getattr(forms[p], a) for p in framed]).reshape(-1, 3) for a in ("lambdas", "mus"))
    orthogonal = np.array([forms[p].scaled is not None for p in framed], dtype=bool)  # the chosen form's verdict
    values, _, errors = _densities(lambdas, mus, gi, tol)
    for p, inverse, error in zip(framed, inverses, errors):
        forms[p] = inverse if isinstance(inverse, Exception) else error
    error = next((e for e in forms if e is not None), None)
    if error is not None:
        raise error

    w = weights[general[framed]]
    frame_chi = w * values["chi_density"] / values["sqrt_det_g"]
    chi = np.concatenate([chi, np.where(orthogonal, w * values["chi_density_gvol"], frame_chi)])
    tau = np.concatenate([tau, w * values["tau_density_gvol"]])
    corr = np.concatenate([corr, (w * values["ht_correction_density"])[orthogonal]])
    orthogonal = np.concatenate([np.ones(len(closed), dtype=bool), orthogonal])
    terms.weights.extend(weights.tolist())
    terms.chi.extend(chi.tolist())
    terms.tau.extend(tau.tolist())
    terms.corr.extend(corr.tolist())
    terms.orth_chi.extend(chi[orthogonal].tolist())
    terms.orth_tau.extend(tau[orthogonal].tolist())
    terms.skipped += int(np.count_nonzero(~commuting))
    terms.orthogonal += int(np.count_nonzero(orthogonal))
    terms.general_frame += int(np.count_nonzero(~orthogonal))


# ---- commuting Weyl split ----


@dataclass(frozen=True)
class WeylSplitReport:
    """Self-dual/anti-self-dual Weyl blocks and the Lorentz-commuting checks.

    ``relation`` holds ``w_plus + w_minus``; for an operator commuting with
    the Lorentz star this vanishes along with the scalar curvature, and the
    Lorentz trace of the tensor is proportional to the Lorentz metric.
    """

    w_plus: np.ndarray
    w_minus: np.ndarray
    relation: np.ndarray
    relation_residual: float
    commutes: bool
    commutator_residual: float
    scal: float
    f_fitted: float
    lorentz_trace_residual: float


_NOT_DIM_4 = "the Weyl split is specific to dim 4"


def weyl_split_check(
    rm: CurvatureTensor, g: np.ndarray, t: np.ndarray, tol: float = 1e-9
) -> WeylSplitReport:
    """Split the Weyl operator on Lambda^2 and test the Lorentz relations.

    The tensor is read as its component matrix ``K = [[A, B], [B^T, D]]`` in
    the adapted frame of ``(g, t)``, as in :mod:`curvforms.complex_forms`:
    ``scal = -2 tr K``, and the Weyl blocks on the self-dual and
    anti-self-dual bivectors are ``(A + D)/2 +- sym(B) + (scal/12) I``.  All
    residuals are reported (never assumed): the commutator with the Lorentz
    star, the scalar curvature, ``w_plus + w_minus``, and the deviation of
    the Lorentz trace from a multiple of the Lorentz metric.  This is
    :func:`_weyl_splits` for one point, the stacked check that
    ``curvforms einstein-check --metric lorentz`` runs on each chunk of a file.

    Raises
    ------
    TensorValidationError
        If ``rm`` breaks first Bianchi beyond ``tol`` times its largest component.
    DegenerateMetricError, NonUnitVectorError
        If ``g`` or ``t`` breaks its rule at ``tol``, as in :func:`curvforms.complex_forms.adapted_frame`.
    """
    if rm.dim != 4:
        raise DimensionError(_NOT_DIM_4)
    g, t = np.asarray(g, dtype=float), np.asarray(t, dtype=float)
    return _alone(_weyl_splits(component_matrix(rm)[None], rm.components[None], g[None], t[None], tol))


def _weyl_splits(k0: np.ndarray, r: np.ndarray, g: np.ndarray, t: np.ndarray, tol: float) -> list:
    """Per point of stacked pair matrices ``k0`` (N, 6, 6), dense components ``r``,
    metrics ``g`` and vectors ``t``: its :class:`WeylSplitReport`, or its error
    from :func:`curvforms.complex_forms._adapted` at ``tol``."""
    k, frames, errors = _adapted(k0, g, t, tol)
    scal = 0.0 - 2.0 * np.trace(k, axis1=1, axis2=2)  # +0.0, not -0.0, for a flat tensor
    a, b, d = k[:, :3, :3], k[:, :3, 3:], k[:, 3:, 3:]
    half = (a + d) / 2.0 + (scal / 12.0)[:, None, None] * np.eye(3)
    sym = (b + np.swapaxes(b, 1, 2)) / 2.0
    w_plus, w_minus = half + sym, half - sym
    relation = w_plus + w_minus

    commutator, commutes = _commutator(_GRAM_L @ k, _STAR_L.matrix, tol)

    # the Lorentz trace read in the frame; g_L^-1 = f eta f^T in input coordinates
    ft = np.swapaxes(frames, 1, 2)
    trace = ft @ np.einsum("njl,njabl->nab", frames @ _ETA @ ft, r, optimize=True) @ frames
    f = np.trace(_ETA @ trace, axis1=1, axis2=2) / 4.0
    columns = (
        np.max(np.abs(relation), axis=(1, 2)), commutes, commutator, scal, f,
        np.max(np.abs(trace - f[:, None, None] * _ETA), axis=(1, 2)),
    )
    return [
        error or WeylSplitReport(wp, wm, rel, *values)
        for error, wp, wm, rel, *values in zip(errors, w_plus, w_minus, relation, *(c.tolist() for c in columns))
    ]


# ---- connected sums ----


@dataclass(frozen=True)
class BuildingBlock:
    """Closed oriented 4-manifold with known Euler characteristic and signature."""

    name: str
    chi: int
    tau: int


BUILDING_BLOCKS = {
    "S4": BuildingBlock("S4", 2, 0),
    "CP2": BuildingBlock("CP2", 3, 1),
    "S1xS3": BuildingBlock("S1xS3", 0, 0),
    "K3": BuildingBlock("K3", 24, -16),
    "T4": BuildingBlock("T4", 0, 0),
}

_HYP_RE = re.compile(r"^HYP\((\S+)\)$")


def hypersurface_block(degree: int) -> BuildingBlock:
    """Degree-d complex hypersurface in complex projective 3-space.

    ``chi = (d^2 - 4d + 6) d`` and ``tau = (4 - d^2) d / 3``; the signature
    numerator is always divisible by 3 for integer ``d``.
    """
    d = degree
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 1:
        raise ValueError(f"hypersurface degree must be a positive integer, got {degree!r}")
    d = int(d)
    tau_num = (4 - d * d) * d
    if tau_num % 3 != 0:
        raise ValueError(f"degree {d} gives a non-integer signature {tau_num}/3")
    return BuildingBlock(f"HYP({d})", (d * d - 4 * d + 6) * d, tau_num // 3)


def parse_block_expression(expr: str) -> list[BuildingBlock]:
    """Parse a ``#``-separated list of building-block names.

    Accepts the table names (``S4``, ``CP2``, ``S1xS3``, ``K3``, ``T4``) and
    ``HYP(d)`` for a positive integer ``d`` written in the digits 0-9.
    """
    names = [part.strip() for part in expr.split("#")]
    if any(not name for name in names):
        raise ValueError(f"empty block name in {expr!r}")
    blocks = []
    for name in names:
        if name in BUILDING_BLOCKS:
            blocks.append(BUILDING_BLOCKS[name])
            continue
        match = _HYP_RE.match(name)
        if match:
            raw = match.group(1)
            if not re.fullmatch(r"-?[0-9]+", raw):
                raise ValueError(f"hypersurface degree must be a positive integer, got {raw!r}")
            blocks.append(hypersurface_block(int(raw)))
            continue
        known = ", ".join(sorted(BUILDING_BLOCKS)) + ", HYP(d)"
        raise ValueError(f"unknown building block {name!r}; known blocks: {known}")
    return blocks


@dataclass(frozen=True)
class ConnectedSumResult:
    """Euler characteristic, signature and obstruction verdict of a sum."""

    chi: int
    tau: int
    blocks: tuple[BuildingBlock, ...]
    verdict: str | None


def connected_sum(blocks) -> ConnectedSumResult:
    """Euler characteristic and signature of a connected sum of blocks.

    ``blocks`` may be a ``#``-separated expression, a list of names, or a
    list of ``BuildingBlock``; the sum of ``k`` blocks has
    ``chi = sum(chi_i) - 2 (k - 1)`` and ``tau = sum(tau_i)``, so the result
    is associative and independent of order.  Whenever ``chi = 0`` with
    ``tau != 0``, the verdict records that no metric on the sum can have a
    curvature operator commuting with a Lorentz star: commuting forces the
    self-dual and anti-self-dual Weyl blocks to have equal norms, so the
    signature integral vanishes, contradicting ``tau != 0``.
    """
    if isinstance(blocks, str):
        resolved = parse_block_expression(blocks)
    else:
        resolved = []
        for item in blocks:
            if isinstance(item, BuildingBlock):
                resolved.append(item)
            else:
                parsed = parse_block_expression(str(item))
                if len(parsed) != 1:
                    raise ValueError(f"block list entries must be single blocks, got {item!r}")
                resolved.append(parsed[0])
    if not resolved:
        raise ValueError("connected sum needs at least one building block")
    chi = sum(b.chi for b in resolved) - 2 * (len(resolved) - 1)
    tau = sum(b.tau for b in resolved)
    verdict = None
    if chi == 0 and tau != 0:
        verdict = (
            "chi = 0 with tau != 0: cannot admit a metric whose curvature "
            "operator commutes with a Lorentz star (no star-L-Einstein metric)"
        )
    return ConnectedSumResult(chi=chi, tau=tau, blocks=tuple(resolved), verdict=verdict)

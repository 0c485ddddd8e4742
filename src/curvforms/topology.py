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
from dataclasses import dataclass, field

import numpy as np

from .complex_forms import _ETA, _GRAM_L, _STAR_L, _adapted_components
from .curvature import CurvatureTensor
from .exceptions import DegenerateMetricError, DimensionError, GeometryError
from .normal_forms import (
    NormalForm4,
    ScaledNormalForm,
    _lambda2_blocks,
    _normal_forms,
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


def _det_minor(gi: np.ndarray, i: int, j: int) -> float:
    # det C_ij = g^ii g^jj - (g^ij)^2, a 2x2 principal minor of the inverse
    return float(gi[i, i] * gi[j, j] - gi[i, j] ** 2)


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
        Relative threshold deciding whether the frame counts as
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
    """
    gi = np.asarray(g_inverse_in_frame, dtype=float)
    if gi.shape != (4, 4):
        raise DimensionError("g_inverse_in_frame must be 4x4")
    if np.max(np.abs(gi - gi.T)) > tol * max(1.0, float(np.max(np.abs(gi)))):
        raise DegenerateMetricError("inverse metric must be symmetric")
    gi = 0.5 * (gi + gi.T)
    eigs = np.linalg.eigvalsh(gi)
    if eigs[0] <= 0:
        raise DegenerateMetricError("inverse metric must be positive definite")

    l = np.asarray(nf.lambdas, dtype=float)
    m = np.asarray(nf.mus, dtype=float)
    sq = l**2 + m**2

    c12, c13, c14 = (_det_minor(gi, 0, j) for j in (1, 2, 3))
    c23, c24, c34 = _det_minor(gi, 1, 2), _det_minor(gi, 1, 3), _det_minor(gi, 2, 3)
    x1 = gi[1, 2] * gi[3, 0] - gi[0, 2] * gi[1, 3]
    x2 = gi[0, 1] * gi[2, 3] - gi[0, 3] * gi[2, 1]
    x3 = gi[1, 3] * gi[0, 2] - gi[0, 1] * gi[2, 3]

    chi_bracket = (
        (c13 + c23 + c14 + c24) * sq[0]
        + (c14 + c34 + c12 + c23) * sq[1]
        + (c34 + c24 + c12 + c13) * sq[2]
        + 4.0 * x1 * l[0] * m[0]
        + 4.0 * x2 * l[1] * m[1]
        + 4.0 * x3 * l[2] * m[2]
    )
    chi_density = 8.0 * chi_bracket / (2.0**7 * math.pi**2)

    tau_bracket = (
        x1 * sq[0]
        + x2 * sq[1]
        + x3 * sq[2]
        - (c12 + c34) * l[0] * m[0]
        - (c13 + c24) * l[1] * m[1]
        - (c14 + c23) * l[2] * m[2]
    )
    tau_density = -16.0 * tau_bracket / (3.0 * 2.0**5 * math.pi**2)

    # dV_g = sqrt(det g_frame) E^1234 and det g_frame = 1/det(g_inverse)
    sqrt_det_g = 1.0 / math.sqrt(float(np.linalg.det(gi)))
    tau_density_gvol = tau_density / sqrt_det_g

    diag = np.diag(gi)
    off = float(np.max(np.abs(gi - np.diag(diag))))
    orthogonal = off <= max(tol, 1e-12) * float(np.max(diag))
    if not orthogonal:
        return IntegrandValue(
            chi_density=chi_density,
            tau_density=tau_density,
            sqrt_det_g=sqrt_det_g,
            tau_density_gvol=tau_density_gvol,
            orthogonal=False,
        )

    g11, g22, g33, g44 = diag
    chi_reduced = (
        (g11 + g22) * (g33 + g44) * sq[0]
        + (g11 + g33) * (g22 + g44) * sq[1]
        + (g11 + g44) * (g22 + g33) * sq[2]
    ) / (2.0**4 * math.pi**2)

    # c_i = 1/sqrt(g_ii) = sqrt(g^ii) for a diagonal Gram matrix
    scaled = ScaledNormalForm.rescale(np.sqrt(diag), l, m)
    lt, kt, mt = scaled.lambdas_scaled, scaled.kappas_scaled, scaled.mus_scaled

    chi_gvol = float(np.sum(lt * kt) + np.sum(mt**2)) / (4.0 * math.pi**2)
    correction = float(np.sum((lt - mt) * (kt - mt))) / (4.0 * math.pi**2)
    return IntegrandValue(
        chi_density=chi_density,
        tau_density=tau_density,
        sqrt_det_g=sqrt_det_g,
        tau_density_gvol=tau_density_gvol,
        orthogonal=True,
        chi_density_reduced=chi_reduced,
        chi_density_gvol=chi_gvol,
        ht_correction_density=correction,
        scaled=scaled,
    )


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


# points per stacked kernel call: a streamed input is never held whole
_CHUNK = 256

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
    return _integrate_chunks(_sample_chunks(samples, _CHUNK), tol)


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
            if not 0 <= float(weight) < math.inf:
                raise ValueError(f"sample {index} has invalid weight {float(weight)!r}")
            raise DimensionError("Euler/signature densities are specific to dim 4")  # any other
        terms.fold()
        points += chunk.size
    return terms.result(points)


def _integrate_stack(k0, h, g, weights, tol, terms: _Terms) -> None:
    """Add the terms of stacked points: pair matrices ``k0`` (N, 6, 6),
    metrics ``h``, ``g`` and weights."""
    if not len(k0):
        return
    blocks = _lambda2_blocks(k0, h, g)
    blocks.check_bianchi(tol)

    terms.weights.extend(weights.tolist())
    commuting = blocks.commuting(tol)
    terms.skipped += int(np.count_nonzero(~commuting))

    # g = s h makes every normal-form frame g-orthogonal with g^ii = 1/s, so
    # lt = kt = l/s^2 and mt = m/s^2: with l + m and l - m running over the
    # self-dual and anti-self-dual spectra the sums below need no frame
    s = np.trace(blocks.gram, axis1=1, axis2=2) / 4.0
    off = np.max(np.abs(blocks.gram - s[:, None, None] * np.eye(4)), axis=(1, 2))
    proportional = commuting & (s > 0) & (off <= _PROPORTIONAL_RTOL * s)
    idx = np.flatnonzero(proportional)
    terms.orthogonal += idx.size
    plus = np.sum(blocks.evp[idx] ** 2, axis=1)
    minus = np.sum(blocks.evm[idx] ** 2, axis=1)
    s4, w = s[idx] ** 4, weights[idx]
    chi = (w * ((plus + minus) / 2.0 / s4 / (4.0 * math.pi**2))).tolist()
    tau = (w * ((plus - minus) / 4.0 / s4 / (3.0 * math.pi**2))).tolist()
    terms.chi.extend(chi)
    terms.orth_chi.extend(chi)
    terms.tau.extend(tau)
    terms.orth_tau.extend(tau)
    terms.corr.extend((w * (minus / s4 / (4.0 * math.pi**2))).tolist())

    general = np.flatnonzero(commuting & ~proportional)
    for i, nf in zip(general, _normal_forms(blocks.take(general), h[general], g[general], tol)):
        if isinstance(nf, GeometryError):
            raise nf
        value = chi_tau_densities(nf, np.linalg.inv(nf.frame.T @ g[i] @ nf.frame), tol)
        weight = weights[i]
        terms.tau.append(weight * value.tau_density_gvol)
        if value.orthogonal:
            terms.orthogonal += 1
            terms.chi.append(weight * value.chi_density_gvol)
            terms.corr.append(weight * value.ht_correction_density)
            terms.orth_chi.append(weight * value.chi_density_gvol)
            terms.orth_tau.append(weight * value.tau_density_gvol)
        else:
            terms.general_frame += 1
            terms.chi.append(weight * value.chi_density / value.sqrt_det_g)


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
    the Lorentz trace from a multiple of the Lorentz metric.

    Raises
    ------
    TensorValidationError
        If ``rm`` breaks first Bianchi beyond ``tol`` times its largest component.
    """
    if rm.dim != 4:
        raise DimensionError("the Weyl split is specific to dim 4")
    r = rm.components
    frame, k = _adapted_components(rm, g, t, tol, tol)

    scal = 0.0 - 2.0 * float(np.trace(k))  # +0.0, not -0.0, for a flat tensor
    a, b, d = k[:3, :3], k[:3, 3:], k[3:, 3:]
    half, sym = (a + d) / 2.0 + (scal / 12.0) * np.eye(3), (b + b.T) / 2.0
    w_plus, w_minus = half + sym, half - sym
    relation = w_plus + w_minus

    ml, sl = _GRAM_L @ k, _STAR_L.matrix
    norm = max(float(np.linalg.norm(ml)), 1e-300)
    commutator_residual = float(np.linalg.norm(ml @ sl - sl @ ml)) / norm

    # the Lorentz trace read in the frame; g_L^-1 = f eta f^T in input coordinates
    trace = frame.T @ np.einsum("jl,jabl->ab", frame @ _ETA @ frame.T, r, optimize=True) @ frame
    f = float(np.trace(_ETA @ trace)) / 4.0
    return WeylSplitReport(
        w_plus=w_plus,
        w_minus=w_minus,
        relation=relation,
        relation_residual=float(np.max(np.abs(relation))),
        commutes=commutator_residual <= tol,
        commutator_residual=commutator_residual,
        scal=scal,
        f_fitted=f,
        lorentz_trace_residual=float(np.max(np.abs(trace - f * _ETA))),
    )


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
    ``HYP(d)`` for positive integer ``d``.
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
            try:
                degree = int(raw)
            except ValueError:
                raise ValueError(
                    f"hypersurface degree must be a positive integer, got {raw!r}"
                ) from None
            blocks.append(hypersurface_block(degree))
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

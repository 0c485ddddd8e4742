"""Complex 3x3 normal forms of Lorentz-realized curvature operators.

When a 4-dimensional curvature operator is realized against the Lorentzian
metric ``g_L = g - 2 g(T) g(T)^T`` and commutes with the Lorentz star, the
star acts as a complex structure (``*_L^2 = -1``) and the operator becomes a
complex-symmetric 3x3 matrix ``C``.  The Jordan structure of ``C`` splits
into four cases that predict the number of spacelike critical 2-planes of the
sectional-curvature functional:

    case 1: three distinct eigenvalues            -> 3 planes
    case 2: an eigenvalue of geometric mult. >= 2 -> infinitely many
    case 3: two distinct, both geometric mult. 1  -> 1 plane
    case 4: one eigenvalue, geometric mult. 1     -> 0 planes

Each analysis reads the tensor once, as its Lambda^2 component matrix
``K = (Lambda^2 f)^T K_0 (Lambda^2 f) = [[A, B], [B^T, D]]`` in the adapted
frame ``f`` (g-orthonormal, ``t`` first), with no 4-index frame change.  There
the Lorentz operator is ``G_L K`` with ``G_L = diag(-1, -1, -1, 1, 1, 1)`` and
the Lorentz star is ``[[0, I], [-I, 0]]``; they commute when ``D = -A`` and
``B = B^T``, and then ``C = -(A + iB)``.

``count_spacelike_critical`` verifies the prediction numerically with a
multi-start Levenberg-Marquardt search over the spacelike Grassmannian,
damped by ``lambda = |r|^2`` plus a small floor, with a 6-iteration stall
window.  A step is cut to the first of 1, 2^-1 .. 2^-24 whose plane stays
spacelike beyond 1e-6 (``<P, P>_L > 1e-6``), else to 2^-25; ``<P, P>_L`` is a
quartic in the step fraction, so the whole ladder is tested at once.  Every
start runs until it stops, and the planes are counted in one final tally.  At
64 starts the 400 criterion-07 instances (seeds ``700000 + 1000 case + i``)
take 2310, 1692, 4178 and 4136 iterations for cases 1-4.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bivectors import wedge_vectors
from .curvature import (
    CurvatureTensor,
    _dense,
    _first_bianchi_4,
    _first_bianchi_errors,
    component_matrix,
    curvature_from_frame_components,
    validate_curvature,
)
from .exceptions import (
    DegenerateMetricError,
    DimensionError,
    GeometryError,
    _alone,
)
from .hodge import HodgeStar, _complexify, _frobenius, _metric_errors, _unit_errors
from .normal_forms import _BASIS, _in_frame

__all__ = [
    "ComplexNormalForm",
    "CASE_DESCRIPTIONS",
    "CASE_CRITICAL_COUNTS",
    "adapted_frame",
    "classify_complex",
    "complex_case_matrix",
    "tensor_from_complex_form",
    "count_spacelike_critical",
]

CASE_DESCRIPTIONS = {
    1: "three distinct eigenvalues",
    2: "an eigenvalue of geometric multiplicity at least 2",
    3: "two distinct eigenvalues, both of geometric multiplicity 1",
    4: "a single eigenvalue of geometric multiplicity 1",
}

CASE_CRITICAL_COUNTS = {1: 3.0, 2: math.inf, 3: 1.0, 4: 0.0}

_NOT_DIM_4 = "complex classification is specific to dim 4"

# eigenvalues of a defective (Jordan) block computed in floating point smear
# by O(eps^(1/m)) relative to |C|; clusters tighter than this cannot be told
# apart from a single defective eigenvalue, so they are merged
_JORDAN_SMEAR = 50.0 * float(np.finfo(float).eps) ** (1.0 / 3.0)

# the Lorentz metric of an adapted frame, its Lambda^2 Gram and its star: the
# values of hodge_star(_ETA), written out because a LAPACK call at import
# raises the peak memory of every command by about 1 MiB
_ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
_GRAM_L_DIAG = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
_GRAM_L = np.diag(_GRAM_L_DIAG)
_STAR_L = HodgeStar(np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(3)), _GRAM_L, "lorentzian", 1)


@dataclass(frozen=True)
class ComplexNormalForm:
    """Jordan-structure summary of the complexified operator.

    ``eigenvalues`` holds one representative per cluster of numerically
    coincident eigenvalues, with matching algebraic and geometric
    multiplicities.  ``expected_spacelike_critical`` is the case prediction
    (``math.inf`` for the continuum case).
    """

    case_id: int
    eigenvalues: tuple
    algebraic_multiplicities: tuple
    geometric_multiplicities: tuple
    expected_spacelike_critical: float
    c_matrix: np.ndarray

    @property
    def description(self) -> str:
        return CASE_DESCRIPTIONS[self.case_id]


def adapted_frame(g: np.ndarray, t: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Positively-oriented g-orthonormal frame whose first vector is ``t``.

    ``g`` must meet the metric rule (``hodge._metric_errors``), or
    :class:`DegenerateMetricError` is raised, and ``t`` must be finite and
    g-unit (``hodge._unit_errors``), or :class:`NonUnitVectorError` is raised,
    both within ``tol``.  Gram-Schmidt runs over the basis vectors in order and
    takes each whose remainder has g-length squared above 1e-12, until the
    frame is complete.  This is :func:`_adapted_frames` for one point.
    """
    g, t = np.asarray(g, dtype=float), np.asarray(t, dtype=float)
    frames, errors = _adapted_frames(g[None], t[None], tol)
    return _alone([errors[0] or frames[0]])


def _adapted_frames(g: np.ndarray, t: np.ndarray, tol: float) -> tuple:
    """The adapted frames (N, n, n) of stacked metrics ``g`` (N, n, n) and vectors
    ``t`` (N, n), and each point's error, or None where it has its frame: that of
    ``hodge._metric_errors`` on ``g``, then that of ``hodge._unit_errors``,
    both at ``tol``, then a frame that cannot be completed.

    Each candidate basis vector is projected against the point's frame vectors
    so far and taken where its g-length squared exceeds 1e-12, for all points at
    once.  A column not yet filled is zero, so projecting on it changes nothing;
    a point's frame is zero where it has none.
    """
    n, dim = t.shape
    tt, units = _unit_errors(g, t, tol)
    errors = [m or u for m, u in zip(_metric_errors(g, "g", tol), units)]
    unit = np.array([e is None for e in errors], dtype=bool)
    g_u = g[unit]
    # column k of cols is frame vector e_k, eg[:, k] is e_k^T g
    cols, eg = np.zeros((len(g_u), dim, dim)), np.zeros((len(g_u), dim, 1, dim))
    cols[:, :, 0] = t[unit] / np.sqrt(tt[unit])[:, None]
    eg[:, 0] = cols[:, None, :, 0] @ g_u
    count = np.ones(len(g_u), dtype=int)
    for candidate in np.eye(dim)[:, :, None]:
        if len(g_u) == 0 or count.min() == dim:
            break
        v = candidate
        for k in range(count.max()):
            v = v - (eg[:, k] @ v) * cols[:, :, k:k + 1]
        norm2 = ((np.swapaxes(v, -1, -2) @ g_u) @ v)[:, 0, 0]
        taken = np.flatnonzero((count < dim) & (norm2 > 1e-12))
        cols[taken, :, count[taken]] = e = v[taken, :, 0] / np.sqrt(norm2[taken])[:, None]
        eg[taken, count[taken]] = e[:, None] @ g_u[taken]
        count[taken] += 1
    flip = np.linalg.det(cols) < 0
    cols[flip, :, -1] = -cols[flip, :, -1]
    frames = np.zeros((n, dim, dim))
    frames[unit] = cols
    for p in np.flatnonzero(unit)[count < dim].tolist():
        errors[p] = DegenerateMetricError("could not complete t to a g-orthonormal frame")
    return frames, errors


def _adapted(k0: np.ndarray, g: np.ndarray, t: np.ndarray, tol: float) -> tuple:
    """``K = (Lambda^2 f)^T K_0 (Lambda^2 f)`` of stacked pair matrices ``k0``
    (N, 6, 6) in the adapted frames ``f`` of ``(g, t)``, the frames, and each
    point's error, or None: a first-Bianchi break beyond ``tol`` times the largest
    component, then those of :func:`_adapted_frames`, at the same ``tol``."""
    frames, errors = _adapted_frames(g, t, tol)
    bianchi = _first_bianchi_errors(*_first_bianchi_4(k0), tol)
    return _in_frame(k0, frames), frames, [b or e for b, e in zip(bianchi, errors)]


def classify_complex(
    rm: CurvatureTensor, g: np.ndarray, t: np.ndarray, tol: float = 1e-9
) -> ComplexNormalForm:
    """Classify the complexified Lorentz operator of ``rm`` by Jordan type.

    ``C`` is ``complexify`` of ``G_L K``, with ``K`` read in the adapted frame
    of ``(g, t)`` (see the module docstring).  Its eigenvalues are clustered
    within a width that absorbs the rounding smear of a Jordan block, and each
    cluster's geometric multiplicity is a rank count of ``C - z I``; the number
    of clusters and the largest geometric multiplicity give the case.  This is
    :func:`_jordan_forms` for one point, the stacked classification that
    ``curvforms petrov`` runs on each chunk of a file.

    Parameters
    ----------
    rm : CurvatureTensor
        Non-flat 4-dimensional tensor.
    g : ndarray, shape (4, 4)
        Positive-definite metric, same coordinates as ``rm``.
    t : ndarray, shape (4,)
        g-unit timelike direction for the Lorentz metric.
    tol : float
        Relative tolerance for the star-commuting precondition and for the
        first Bianchi identity, and the tolerance of the metric rule on ``g``
        and of ``g(t, t) = 1``.

    Raises
    ------
    TensorValidationError
        If ``rm`` breaks first Bianchi beyond ``tol`` times its largest component.
    DegenerateMetricError
        If ``g`` breaks the metric rule, or ``t`` cannot be completed to a frame.
    NonUnitVectorError
        If ``t`` is not finite or not g-unit within ``tol``.
    NotCommutingError
        If the Lorentz operator does not commute with the Lorentz star.
    GeometryError
        For a flat tensor (no classification).
    """
    if rm.dim != 4:
        raise DimensionError(_NOT_DIM_4)
    g, t = np.asarray(g, dtype=float), np.asarray(t, dtype=float)
    return _alone(_jordan_forms(component_matrix(rm)[None], g[None], t[None], tol))


def _jordan_forms(k0: np.ndarray, g: np.ndarray, t: np.ndarray, tol: float) -> list:
    """Per point of stacked pair matrices ``k0`` (N, 6, 6), metrics ``g`` and
    vectors ``t``: its :class:`ComplexNormalForm`, or its first error: a flat
    tensor, those of :func:`_adapted` at ``tol`` (the metric rule on ``g``,
    ``g(t, t)`` within ``tol``), an operator that does not commute with the
    Lorentz star.

    The commuting points are classified together.  Each point's eigenvalues are
    sorted by (real, imag) and clustered greedily: a value joins the first
    cluster whose mean (sum / count) lies within the point's width
    ``_JORDAN_SMEAR |C|_F``, or starts a new one.  A cluster's geometric
    multiplicity is the count of singular values of ``C - z I`` at most that
    same width, at least 1, for its mean ``z``; all of them come from one
    ``svd``.  One tolerance thus decides both: eigenvalues closer than the
    width are one cluster, and a Jordan block whose nilpotent part is below
    the width reads as diagonalizable (case 2).  The width scales with ``C``
    (``|C|_F`` bounds every eigenvalue and the smear of a defective one), so
    ``s C`` reads as ``C`` at every scale ``s``.  Only the
    :class:`ComplexNormalForm` objects are built per point."""
    k, _, errors = _adapted(k0, g, t, tol)
    c, commuting = _complexify(_GRAM_L @ k, _STAR_L.matrix, tol)
    results = [
        GeometryError("flat tensors have no complex classification") if flat else error or not_commuting
        for flat, error, not_commuting in zip((~k0.any(axis=(1, 2))).tolist(), errors, commuting)
    ]
    ok = np.flatnonzero([r is None for r in results])
    if not ok.size:
        return results
    c = c[ok]
    vals = np.linalg.eigvals(c)
    width = _JORDAN_SMEAR * _frobenius(c.view(float))[:, None]  # the float view: real and imaginary parts
    rows = np.arange(len(c))
    sums, algs = np.zeros((len(c), 3), dtype=complex), np.zeros((len(c), 3), dtype=int)
    means = sums
    for v in np.sort(vals, axis=1, kind="stable").T:
        # clusters fill from the left: the first within the width, else the first empty
        j = ((algs == 0) | (np.abs(v[:, None] - means) <= width)).argmax(axis=1)
        sums[rows, j] += v
        algs[rows, j] += 1
        means = sums / np.maximum(algs, 1)
    p, j = np.nonzero(algs)
    sv = np.linalg.svd(c[p] - means[p, j, None, None] * np.eye(3), compute_uv=False)
    geos = np.zeros_like(algs)
    geos[p, j] = np.maximum(1, np.sum(sv <= width[p], axis=1))
    count = (algs > 0).sum(axis=1)
    case_ids = np.where(count == 3, 1, np.where(geos.max(axis=1) >= 2, 2, np.where(count == 2, 3, 4)))
    for point, cp, case_id, n, z, alg, geo in zip(
        ok.tolist(), c, case_ids.tolist(), count.tolist(), means.tolist(), algs.tolist(), geos.tolist()
    ):
        results[point] = ComplexNormalForm(
            case_id=case_id,
            eigenvalues=tuple(z[:n]),
            algebraic_multiplicities=tuple(alg[:n]),
            geometric_multiplicities=tuple(geo[:n]),
            expected_spacelike_critical=CASE_CRITICAL_COUNTS[case_id],
            c_matrix=cp,
        )
    return results


# ---- synthetic instances ----


def _exp_antisymmetric(x: np.ndarray) -> np.ndarray:
    """``exp X`` of a complex antisymmetric 3x3 ``X`` by Rodrigues' formula over C:
    with ``X v = w x v`` and ``theta^2 = w . w`` (bilinear),
    ``exp X = I + (sin theta / theta) X + ((1 - cos theta) / theta^2) X^2``.
    Both coefficients are even in theta, so the branch of the root does not
    matter; written through ``np.sinc`` they are exact at theta = 0, where an
    isotropic ``w`` (``w . w = 0``, ``w != 0``) makes X nilpotent."""
    theta = np.sqrt(x[2, 1] ** 2 + x[0, 2] ** 2 + x[1, 0] ** 2)
    return np.eye(3) + np.sinc(theta / np.pi) * x + 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2 * (x @ x)


def _random_complex_orthogonal(rng, scale=0.25) -> np.ndarray:
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return _exp_antisymmetric(scale * (a - a.T))


def _separated_eigenvalues(rng, count, min_sep=0.4):
    while True:
        vals = rng.uniform(-2.0, 2.0, size=count) + 1j * rng.uniform(-2.0, 2.0, size=count)
        if all(
            abs(vals[i] - vals[j]) >= min_sep
            for i in range(count)
            for j in range(i + 1, count)
        ):
            return vals


def complex_case_matrix(case_id: int, rng=None) -> np.ndarray:
    """Random complex-symmetric 3x3 matrix realizing the requested case.

    The trace is kept real (the image of the first Bianchi identity under
    complexification), and the matrix is conjugated by a random complex
    orthogonal transformation so that the Jordan structure is not visible
    from sparsity.
    """
    rng = np.random.default_rng(rng)
    if case_id == 1:
        z = _separated_eigenvalues(rng, 3)
        z[2] = rng.uniform(-2.0, 2.0) - 1j * (z[0].imag + z[1].imag)
        if min(abs(z[2] - z[0]), abs(z[2] - z[1])) < 0.4:
            return complex_case_matrix(1, rng)
        c0 = np.diag(z)
    elif case_id == 2:
        z = _separated_eigenvalues(rng, 2)
        z[1] = rng.uniform(-2.0, 2.0) - 2j * z[0].imag  # real total trace
        if abs(z[1] - z[0]) < 0.4:
            return complex_case_matrix(2, rng)
        c0 = np.diag([z[0], z[0], z[1]])
    elif case_id == 3:
        z = _separated_eigenvalues(rng, 2)
        z[1] = rng.uniform(-2.0, 2.0) - 2j * z[0].imag
        if abs(z[1] - z[0]) < 0.4:
            return complex_case_matrix(3, rng)
        s = rng.uniform(0.6, 1.4)
        n2 = np.array([[1.0, 1j], [1j, -1.0]])  # symmetric, nilpotent of order 2
        c0 = np.zeros((3, 3), dtype=complex)
        c0[:2, :2] = z[0] * np.eye(2) + s * n2
        c0[2, 2] = z[1]
    elif case_id == 4:
        lam = rng.uniform(-2.0, 2.0)
        s = rng.uniform(0.6, 1.4)
        q3 = np.array([[0, 1.0, 0], [1.0, 0, 1j], [0, 1j, 0]])  # symmetric, q3^3 = 0
        c0 = lam * np.eye(3) + s * q3
    else:
        raise ValueError(f"case_id must be 1..4, got {case_id}")
    q = _random_complex_orthogonal(rng)
    return q.T @ c0 @ q


def tensor_from_complex_form(c: np.ndarray, frame: np.ndarray | None = None) -> CurvatureTensor:
    """Curvature tensor whose complexified Lorentz operator equals ``c``.

    ``c`` must be complex symmetric with a real trace (first Bianchi).  The
    components are produced in the adapted orthonormal frame (timelike
    direction = first basis vector); pass ``frame`` to express them in other
    coordinates.
    """
    c = np.asarray(c, dtype=complex)
    scale = max(float(_frobenius(np.stack([c.real, c.imag])[None])[0]), 1e-300)
    if np.max(np.abs(c - c.T)) > 1e-9 * scale:
        raise GeometryError("complex form must be symmetric")
    if abs(np.trace(c).imag) > 1e-9 * scale:
        raise GeometryError("complex form needs a real trace (first Bianchi identity)")
    a = -(c.real + c.real.T) / 2.0
    b = -(c.imag + c.imag.T) / 2.0
    b = b - (np.trace(b) / 3.0) * np.eye(3)  # exact Bianchi after rounding
    k0 = np.block([[a, b], [b, -a]])[None]
    rm = validate_curvature(_dense(k0, np.ones(k0.shape, dtype=bool))[0])
    if frame is None:
        return rm
    return curvature_from_frame_components(rm.components, np.asarray(frame, dtype=float))


# ---- numerical critical-plane counter ----


# Joe & Kuo (2008) direction numbers (s, a, m_1..m_s) of Sobol dimensions 2-4;
# dimension 1 is van der Corput's (every m_k = 1)
_SOBOL_DIMS = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)))
_SOBOL_BITS = 30

# the signs of x3, x2, x1, x0 in the chart's derivative columns (see _chart_tangents)
_CHART_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])

# a converged plane's residual bound (relative to max(1, |G op|), once an op
# below norm 1 is scaled into [1, 2)), the projector distance beyond which two
# planes are distinct, the iteration cap, and the least <u ^ w, u ^ w>_L of a
# spacelike plane (the floor of its normalisation and of a backtracked step)
_RESIDUAL_TOL = 1e-7
_DEDUP_TOL = 1e-4
_MAX_ITER = 200
_Q_MIN = 1e-6

# the ladder of step fractions 1, 2^-1 .. 2^-25 a Levenberg-Marquardt step is
# cut to, the powers 0 .. 4 of each rung (one row per power), and the least
# <P, P>_L of each rung: _Q_MIN, but -inf at the last, which is taken when
# every other rung fails; all are exact
_LADDER = 0.5 ** np.arange(26)
_LADDER_POWERS = _LADDER ** np.arange(5)[:, None]
_LADDER_FLOOR = np.append(np.full(25, _Q_MIN), -np.inf)
# <P0 + s P1 + s^2 P2, same>_L = sum_ij gram_ij s^(i + j): the flattened Lorentz
# Gram matrix (3, 3) of (P0, P1, P2) times this gives the coefficients of s^0 .. s^4
_QUARTIC = (np.add.outer(np.arange(3), np.arange(3)).reshape(9, 1) == np.arange(5)).astype(float)


def _sobol_4(n: int) -> np.ndarray:
    """The first ``n`` points of the unscrambled 4-D Sobol sequence, in Gray-code
    order: the points of ``scipy.stats.qmc.Sobol(d=4, scramble=False)``."""
    v = np.empty((4, _SOBOL_BITS), dtype=np.int64)
    v[0] = 1
    for d, (s, a, m) in enumerate(_SOBOL_DIMS, start=1):
        m = list(m)
        for k in range(s, _SOBOL_BITS):
            mk = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    mk ^= m[k - i] << i
            m.append(mk)
        v[d] = m
    v <<= _SOBOL_BITS - 1 - np.arange(_SOBOL_BITS)
    i = np.arange(n)
    gray_bits = ((i ^ (i >> 1))[:, None] >> np.arange(_SOBOL_BITS)) & 1
    x = np.bitwise_xor.reduce(gray_bits[:, None, :] * v, axis=2)
    return x / float(1 << _SOBOL_BITS)


def _spacelike_starts(n_starts: int):
    """Deterministic well-spread spacelike orthonormal start pairs (u0, w0)."""
    s = _sobol_4(n_starts)
    theta = 2.0 * np.pi * s[:, 0]
    cphi = np.clip(2.0 * s[:, 1] - 1.0, -1.0, 1.0)
    sphi = np.sqrt(1.0 - cphi**2)
    u_sp = np.stack([sphi * np.cos(theta), sphi * np.sin(theta), cphi], axis=1)
    # spatial unit vector orthogonal to u_sp, rotated by psi
    helper = np.zeros_like(u_sp)
    helper[np.arange(len(s)), np.argmin(np.abs(u_sp), axis=1)] = 1.0
    p = np.cross(u_sp, helper)
    p = p / np.linalg.norm(p, axis=1, keepdims=True)
    qv = np.cross(u_sp, p)
    psi = 2.0 * np.pi * s[:, 2]
    w_sp = np.cos(psi)[:, None] * p + np.sin(psi)[:, None] * qv
    tilt = 0.8 * (2.0 * s[:, 3] - 1.0)
    u0 = np.concatenate([tilt[:, None], u_sp], axis=1)
    u0 = u0 / np.sqrt(1.0 - tilt**2)[:, None]  # unit spacelike after the tilt
    w0 = np.concatenate([np.zeros((len(s), 1)), w_sp], axis=1)
    return u0, w0


@lru_cache(maxsize=4)
def _start_chart(n_starts: int) -> np.ndarray:
    """The chart of each start, shape (n_starts, 6, 6): the bivectors
    ``(c0 .. c5) = (u0 ^ w0, n1 ^ w0, n2 ^ w0, u0 ^ n1, u0 ^ n2, n1 ^ n2)`` of the
    start pair ``(u0, w0)`` and a basis ``(n1, n2)`` of its Lorentz-orthogonal
    complement.  The plane at chart coordinates ``x`` is spanned by
    ``u = u0 + x0 n1 + x1 n2`` and ``w = w0 + x2 n1 + x3 n2``, and
    ``u ^ w = c0 + x0 c1 + x1 c2 + x2 c3 + x3 c4 + (x0 x3 - x1 x2) c5``.

    Built once per start count (the last few counts are cached) and returned
    read-only, since every caller shares it."""
    u0, w0 = _spacelike_starts(n_starts)
    _, _, vh = np.linalg.svd(np.stack([u0 @ _ETA, w0 @ _ETA], axis=1))
    n1, n2 = vh[:, 2], vh[:, 3]
    v, w = np.stack([u0, n1, n2, u0, u0, n1], axis=1), np.stack([w0, w0, w0, n1, n2, n2], axis=1)
    chart = wedge_vectors(v, w, _BASIS)
    chart.flags.writeable = False
    return chart


def _chart_planes(x, chart):
    """The unnormalised planes ``u ^ w`` (n, 6) at chart coordinates ``x`` (n, 4) of
    the n starts of ``chart``: their monomials ``(1, x0, x1, x2, x3, x0 x3 - x1 x2)``
    times the chart."""
    mono = np.empty((len(x), 1, 6))
    mono[:, 0, 0] = 1.0
    mono[:, 0, 1:5] = x
    mono[:, 0, 5] = x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2]
    return (mono @ chart)[:, 0]


def _quartic(delta, p0, tangents, c5):
    """The coefficients (n, 5) of ``s^0 .. s^4`` in ``<P, P>_L`` of the unnormalised
    planes ``P(x + s delta)``, from the plane ``p0`` (n, 6) at ``x``, its tangents
    (n, 6, 4) and the last chart bivector ``c5`` (n, 6).

    The chart is quadratic in ``x``, so ``P(x + s delta) = p0 + s T delta + s^2
    (d0 d3 - d1 d2) c5`` exactly; the coefficients are sums of the Lorentz Gram
    matrix of those three terms (see ``_QUARTIC``)."""
    w = np.empty((len(delta), 3, 6))
    w[:, 0] = p0
    w[:, 1] = (tangents @ delta[:, :, None])[:, :, 0]
    np.multiply((delta[:, 0] * delta[:, 3] - delta[:, 1] * delta[:, 2])[:, None], c5, out=w[:, 2])
    return ((w * _GRAM_L_DIAG) @ np.swapaxes(w, 1, 2)).reshape(-1, 9) @ _QUARTIC


def _backtrack(delta, p0, tangents, c5):
    """Cut each step ``delta`` (in place) to the first rung ``s delta`` of the
    ladder ``s = 1, 2^-1 .. 2^-24`` whose plane has ``<P, P>_L > _Q_MIN``, else to
    ``2^-25 delta``: a step that stays spacelike is kept.  The whole ladder is
    tested at once, as the :func:`_quartic` of each step at every rung."""
    rung = (_quartic(delta, p0, tangents, c5) @ _LADDER_POWERS > _LADDER_FLOOR).argmax(axis=1)
    delta *= _LADDER[rung][:, None]
    return delta


def _plane_fit(p_raw, sq, mmat, smat):
    """The planes ``p = p_raw / sq``, their duals ``*_L p``, ``G op p``, the fit
    ``(a, b)`` of ``op p = a p + b (*_L p)`` and its residual ``r``; rows are planes."""
    p = p_raw / sq[:, None]
    mp = p @ mmat.T
    sp = p @ smat.T
    gmp = mp * _GRAM_L_DIAG
    a = (gmp * p).sum(axis=1)
    b = -(gmp * sp).sum(axis=1)
    return p, sp, gmp, a, b, mp - a[:, None] * p - b[:, None] * sp


def _row_norms(v):
    """``np.linalg.norm(v, axis=1)`` of a real (n, k) array, bit for bit, without
    its argument handling."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


def _first_kept(projectors, tol):
    """The indices of the projectors (m, 6, 6) kept first come, first kept: each
    one farther than ``tol`` (Frobenius, as ``np.linalg.norm``) from every
    projector kept before it.  One stacked distance per kept projector drops
    it and the later ones within ``tol`` of it; the first left is the next one
    kept."""
    kept, rest = [], np.arange(len(projectors))
    while rest.size:
        kept.append(rest[0])
        rest = rest[_frobenius(projectors[rest] - projectors[rest[0]]) > tol]
    return kept


def _chart_tangents(x, chart):
    """The derivatives (n, 6, 4), C-contiguous, of the planes ``u ^ w`` at chart
    coordinates ``x`` (n, 4) in ``x``: ``(c1 + x3 c5, c2 - x2 c5, c3 - x1 c5, c4 + x0 c5)``."""
    tangents = np.empty((len(x), 6, 4))
    np.multiply(chart[:, 5, :, None], (x[:, ::-1] * _CHART_SIGNS)[:, None, :], out=tangents)
    tangents += np.swapaxes(chart[:, 1:5], 1, 2)
    return tangents


def _linearised(x, chart, mmat, smat):
    """One Gauss-Newton linearisation at chart coordinates ``x`` (n, 4) of the
    starts of ``chart``: ``[J | r]`` (n, 6, 5), the residual ``r`` of
    :func:`_plane_fit` at the plane ``p = u ^ w / sqrt(max(<u ^ w, u ^ w>_L,
    _Q_MIN))`` after its Jacobian ``J`` in ``x``; and the plane ``u ^ w`` and its
    tangents, which :func:`_backtrack` reuses.

    ``J = d(op p) - p da - (*_L p) db - a dp - b d(*_L p)`` with ``dp = (d(u ^ w)
    - p (G p)^T d(u ^ w)) / sqrt(...)``, ``da = 2 (G op p)^T dp`` and ``db =
    -(G op p)^T d(*_L p) - (G *_L p)^T d(op p)``.  One product ``V dp`` gives
    ``-(da, db)``, with the rows ``V = (-2 G op p, (G op p)^T *_L + (G *_L p)^T
    op)``, and one more ``[p, *_L p] V dp`` gives ``-p da - (*_L p) db``."""
    p_raw = _chart_planes(x, chart)
    pg = p_raw * _GRAM_L_DIAG
    sq = np.sqrt(np.maximum((pg * p_raw).sum(axis=1), _Q_MIN))
    p, sp, gmp, a, b, r = _plane_fit(p_raw, sq, mmat, smat)
    tangents = _chart_tangents(x, chart)
    dp = (tangents - p[:, :, None] * ((pg / sq[:, None])[:, None, :] @ tangents)) / sq[:, None, None]
    n = len(x)
    dmp = mmat @ dp
    dsp = smat @ dp
    u = np.empty((n, 6, 2))
    u[:, :, 0], u[:, :, 1] = p, sp
    v = np.empty((n, 2, 6))
    np.multiply(gmp, -2.0, out=v[:, 0])
    np.add(gmp @ smat, (sp * _GRAM_L_DIAG) @ mmat, out=v[:, 1])
    jac = dmp + u @ (v @ dp)
    jac -= a[:, None, None] * dp
    jac -= b[:, None, None] * dsp
    jr = np.empty((n, 6, 5))
    jr[:, :, :4] = jac
    jr[:, :, 4] = r
    return jr, p_raw, tangents


def count_spacelike_critical(
    rm: CurvatureTensor,
    g: np.ndarray,
    t: np.ndarray,
    n_starts: int = 64,
    return_planes: bool = False,
):
    """Count spacelike critical 2-planes of the Lorentz-realized operator.

    A plane ``P`` (unit spacelike bivector) is critical when
    ``op P = a P + b (*_L P)``.  The residual ``r`` of that equation is driven
    to zero by Levenberg-Marquardt from ``n_starts`` quasi-random starts in a
    local 4-parameter chart of the spacelike Grassmannian, with damping
    ``lambda = |r|^2 + 1e-10 (tr J^T J / 4 + 1)``; a step is cut to the first of
    1, 2^-1 .. 2^-24 whose plane stays spacelike beyond 1e-6, else to 2^-25
    (:func:`_backtrack`), and a start stops once its step is tiny or its best
    residual has not fallen by 3 % for 6 iterations.  Every
    start runs until it stops; the planes are then counted in one final
    tally, which deduplicates the converged planes through the projectors
    onto ``span{P, *_L P}``.  More than three distinct planes means a
    continuum (``math.inf`` is returned).
    Critical planes of ``s op`` are those of ``op`` for ``s > 0``, and so is
    the count: an operator of norm below 1 or above 2^64 is first scaled by a
    power of two into [1, 2), where the residual bound is relative, so the
    normal equations do not overflow at any finite scale.  The start chart is
    built once per start count and shared by later calls.

    With ``return_planes=True``, returns ``(count, planes)`` where planes are
    unit spacelike bivectors in the adapted frame (one per cluster).

    Raises
    ------
    ValueError
        If ``n_starts`` is not an integer of at least 1 (a bool is not).
    TensorValidationError
        If ``rm`` breaks first Bianchi beyond 1e-9 times its largest component.
    DimensionError
        If ``rm`` is not 4-dimensional.
    DegenerateMetricError, NonUnitVectorError
        If ``g`` or ``t`` breaks its rule at 1e-9, as in :func:`adapted_frame`.
    """
    if not isinstance(n_starts, (int, np.integer)) or isinstance(n_starts, bool) or n_starts < 1:
        raise ValueError(f"n_starts must be an integer >= 1, got {n_starts!r}")
    if rm.dim != 4:
        raise DimensionError("the critical-plane counter is specific to dim 4")
    g, t = np.asarray(g, dtype=float), np.asarray(t, dtype=float)
    k, _, errors = _adapted(component_matrix(rm)[None], g[None], t[None], 1e-9)
    k = _alone([errors[0] or k[0]])
    mmat, smat = _GRAM_L @ k, _STAR_L.matrix
    norm = float(_frobenius(mmat[None])[0])
    if 0.0 < norm < 1.0 or norm > 2.0**64:
        mmat = np.ldexp(mmat, 1 - np.frexp(norm)[1])
    norm_scale = max(1.0, float(np.linalg.norm(mmat)))
    chart = _start_chart(n_starts)
    x = np.zeros((n_starts, 4))
    eye4 = np.eye(4)

    # starts freeze individually once converged (tiny step) or stalled (best
    # residual not falling by 3 % for 6 iterations; under lambda = |r|^2 a start
    # that converges keeps gaining, so the window stops only the starts that
    # find no plane).  The loop keeps only the live starts (indices `live`
    # into x) in its working arrays, drops a start when it freezes, and
    # writes the live coordinates back into x at the end
    live = np.arange(n_starts)
    xa, chart_a = x.copy(), chart
    best_res = np.full(n_starts, np.inf)
    stalled_for = np.zeros(n_starts, dtype=int)

    for _ in range(_MAX_ITER):
        if live.size == 0:
            break
        jr, p_raw, tangents = _linearised(xa, chart_a, mmat, smat)
        # [J | r]^T [J | r] holds J^T J, J^T r and |r|^2
        normal = np.swapaxes(jr, 1, 2).copy() @ jr
        rn = np.sqrt(normal[:, 4, 4])
        gained = rn < 0.97 * best_res
        stalled_for = np.where(gained, 0, stalled_for + 1)
        best_res = np.minimum(best_res, rn)

        jtj = normal[:, :4, :4]
        # lambda = |r|^2 converges quadratically under a local error bound
        # even where J^T J is singular along a continuum of solutions (N.
        # Yamashita and M. Fukushima, Computing Suppl. 15 (2001) 239-249);
        # the constant term is a floor once r vanishes
        damping = normal[:, 4, 4] + 1e-10 * (jtj.trace(axis1=1, axis2=2) / 4.0 + 1.0)
        try:
            delta = np.linalg.solve(jtj + damping[:, None, None] * eye4, -normal[:, :4, 4:])[..., 0]
        except np.linalg.LinAlgError:
            break
        # Backtrack any step that would cross into the non-spacelike cone.
        delta = _backtrack(delta, p_raw, tangents, chart_a[:, 5])
        xa = xa + delta
        done = (_row_norms(delta) < 1e-13) | (stalled_for >= 6)
        if done.any():
            x[live[done]] = xa[done]
            keep = ~done
            live, xa, chart_a = live[keep], xa[keep], chart_a[keep]
            best_res, stalled_for = best_res[keep], stalled_for[keep]

    x[live] = xa
    # the planes that pass the residual gate, deduplicated through their
    # projectors onto span{P, *P}; first come, first kept
    p_raw = _chart_planes(x, chart)
    q = (p_raw * p_raw * _GRAM_L_DIAG).sum(axis=1)
    good = q > _Q_MIN
    p, sp, _, _, _, r = _plane_fit(p_raw[good], np.sqrt(q[good]), mmat, smat)
    ok = _row_norms(r) <= _RESIDUAL_TOL * norm_scale
    p, sp = p[ok], sp[ok]
    qmat = np.linalg.qr(np.stack([p, sp], axis=2))[0]
    kept = _first_kept(qmat @ np.swapaxes(qmat, 1, 2), _DEDUP_TOL)
    count = math.inf if len(kept) > 3 else len(kept)
    if return_planes:
        return count, p[kept]
    return count

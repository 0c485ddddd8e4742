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
multi-start Gauss-Newton search over the spacelike Grassmannian.
"""

import math
from dataclasses import dataclass

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
    NonUnitVectorError,
    _alone,
)
from .hodge import HodgeStar, _complexify, _frobenius
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
_GRAM_L = np.diag([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
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

    ``t`` must be a g-unit vector within ``tol``.  Gram-Schmidt runs over the
    basis vectors in order and takes each whose remainder has g-length squared
    above 1e-12, until the frame is complete.  This is :func:`_adapted_frames`
    for one point.
    """
    g, t = np.asarray(g, dtype=float), np.asarray(t, dtype=float)
    frames, errors = _adapted_frames(g[None], t[None], tol)
    return _alone([errors[0] or frames[0]])


def _adapted_frames(g: np.ndarray, t: np.ndarray, tol: float) -> tuple:
    """The adapted frames (N, n, n) of stacked metrics ``g`` (N, n, n) and vectors
    ``t`` (N, n), and each point's error, or None where it has its frame:
    ``|g(t, t) - 1| > tol``, then a frame that cannot be completed.

    Each candidate basis vector is projected against the point's frame vectors
    so far and taken where its g-length squared exceeds 1e-12, for all points at
    once.  A column not yet filled is zero, so projecting on it changes nothing;
    a point's frame is zero where it has none.
    """
    n, dim = t.shape
    tt = ((t[:, None] @ g) @ t[:, :, None])[:, 0, 0]
    unit = ~(np.abs(tt - 1.0) > tol)
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
    complete = np.ones(n, dtype=bool)
    complete[unit] = count == dim
    errors = [
        NonUnitVectorError(f"g(T, T) = {x:.12g}, expected 1") if not u
        else None if c else DegenerateMetricError("could not complete t to a g-orthonormal frame")
        for x, u, c in zip(tt.tolist(), unit.tolist(), complete.tolist())
    ]
    return frames, errors


def _adapted(k0: np.ndarray, g: np.ndarray, t: np.ndarray, tol: float, unit_tol: float = 1e-9) -> tuple:
    """``K = (Lambda^2 f)^T K_0 (Lambda^2 f)`` of stacked pair matrices ``k0``
    (N, 6, 6) in the adapted frames ``f`` of ``(g, t)``, the frames, and each
    point's error, or None: a first-Bianchi break beyond ``tol`` times the largest
    component, then those of :func:`_adapted_frames` at ``unit_tol``."""
    frames, errors = _adapted_frames(g, t, unit_tol)
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
        first Bianchi identity.

    Raises
    ------
    TensorValidationError
        If ``rm`` breaks first Bianchi beyond ``tol`` times its largest component.
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
    tensor, those of :func:`_adapted` (``g(t, t)`` within 1e-9), an operator
    that does not commute with the Lorentz star.

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
    scale = max(float(np.linalg.norm(c)), 1e-300)
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

# the step fractions 2^-1 .. 2^-24 a Gauss-Newton step backtracks through
_HALVINGS = 0.5 ** np.arange(1, 25)

# a converged plane's residual bound (relative to max(1, |G op|)), the projector
# distance beyond which two planes are distinct, and the iteration cap
_RESIDUAL_TOL = 1e-7
_DEDUP_TOL = 1e-4
_MAX_ITER = 200


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


def _start_chart(n_starts: int):
    """The starts ``(u0, w0)`` with their chart directions ``(n1, n2)``: a basis
    of the Lorentz-orthogonal complement of each start."""
    u0, w0 = _spacelike_starts(n_starts)
    _, _, vh = np.linalg.svd(np.stack([u0 @ _ETA, w0 @ _ETA], axis=1))
    return u0, w0, vh[:, 2, :], vh[:, 3, :]


def _planes_at(x, chart):
    """Spanning pairs ``(u, w)`` at chart coordinates ``x``; rows broadcast."""
    u0, w0, n1, n2 = chart
    u = u0 + x[..., 0:1] * n1 + x[..., 1:2] * n2
    w = w0 + x[..., 2:3] * n1 + x[..., 3:4] * n2
    return u, w


def _lorentz_norms(x, chart):
    """``<u ^ w, u ^ w>_L`` of the unnormalised planes at chart coordinates ``x``."""
    p_raw = wedge_vectors(*_planes_at(x, chart), _BASIS)
    return ((p_raw @ _GRAM_L) * p_raw).sum(axis=-1)


def _backtrack(x, delta, chart, q_min):
    """Cut each step ``delta`` (in place) that leaves the spacelike cone to its
    first halving ``2^-k delta``, k <= 24, with ``<P, P>_L > q_min``, else to
    ``2^-25 delta``.

    All halvings are tested in one call.  Every operation of
    :func:`_lorentz_norms` is row-wise and scaling by ``2^-k`` is exact for
    normal floats, so this equals halving and retesting one k at a time.
    """
    bad = np.flatnonzero(_lorentz_norms(x + delta, chart) <= q_min)
    if bad.size:
        trials = x[bad, None, :] + delta[bad, None, :] * _HALVINGS[:, None]
        passes = ~(_lorentz_norms(trials, [c[bad, None, :] for c in chart]) <= q_min)
        k = np.where(passes.any(axis=1), passes.argmax(axis=1) + 1, len(_HALVINGS) + 1)
        delta[bad] *= 0.5 ** k[:, None]
    return delta


def _plane_fit(p_raw, sq, mmat, smat):
    """The planes ``p = p_raw / sq``, their duals ``*_L p``, ``G op p``, the fit
    ``(a, b)`` of ``op p = a p + b (*_L p)`` and its residual ``r``; rows are planes."""
    p = p_raw / sq[:, None]
    mp = p @ mmat.T
    sp = p @ smat.T
    gmp = mp @ _GRAM_L
    a = (gmp * p).sum(axis=1)
    b = -(gmp * sp).sum(axis=1)
    return p, sp, gmp, a, b, mp - a[:, None] * p - b[:, None] * sp


def count_spacelike_critical(
    rm: CurvatureTensor,
    g: np.ndarray,
    t: np.ndarray,
    n_starts: int = 64,
    return_planes: bool = False,
):
    """Count spacelike critical 2-planes of the Lorentz-realized operator.

    A plane ``P`` (unit spacelike bivector) is critical when
    ``op P = a P + b (*_L P)``.  The residual of that equation is driven to
    zero by Gauss-Newton from ``n_starts`` quasi-random starts in a local
    4-parameter chart of the spacelike Grassmannian; converged planes are
    deduplicated through the projectors onto ``span{P, *_L P}``.  More than
    three distinct planes means a continuum (``math.inf`` is returned).

    With ``return_planes=True``, returns ``(count, planes)`` where planes are
    unit spacelike bivectors in the adapted frame (one per cluster).

    Raises
    ------
    ValueError
        If ``n_starts`` is not an integer of at least 1 (a bool is not).
    TensorValidationError
        If ``rm`` breaks first Bianchi beyond 1e-9 times its largest component.
    """
    if not isinstance(n_starts, (int, np.integer)) or isinstance(n_starts, bool) or n_starts < 1:
        raise ValueError(f"n_starts must be an integer >= 1, got {n_starts!r}")
    if rm.dim != 4:
        raise DimensionError("the critical-plane counter is specific to dim 4")
    g, t = np.asarray(g, dtype=float), np.asarray(t, dtype=float)
    k, _, errors = _adapted(component_matrix(rm)[None], g[None], t[None], 1e-9)
    k = _alone([errors[0] or k[0]])
    gram, mmat, smat = _GRAM_L, _GRAM_L @ k, _STAR_L.matrix
    chart = _start_chart(n_starts)

    norm_scale = max(1.0, float(np.linalg.norm(mmat)))
    x = np.zeros((n_starts, 4))
    q_min = 1e-6
    eye4 = np.eye(4)

    def tally(xs):
        u, w = _planes_at(xs, chart)
        p_raw = wedge_vectors(u, w, _BASIS)
        q = ((p_raw @ gram) * p_raw).sum(axis=1)
        good = q > q_min
        p, sp, _, _, _, r = _plane_fit(p_raw[good], np.sqrt(q[good]), mmat, smat)
        ok = np.linalg.norm(r, axis=1) <= _RESIDUAL_TOL * norm_scale
        p, sp = p[ok], sp[ok]
        # projectors onto span{P, *P}; first come, first kept
        qmat = np.linalg.qr(np.stack([p, sp], axis=2))[0]
        projectors = qmat @ np.swapaxes(qmat, 1, 2)
        kept = []
        for n, proj in enumerate(projectors):
            if all(np.linalg.norm(proj - projectors[j]) > _DEDUP_TOL for j in kept):
                kept.append(n)
        count = len(kept)
        return (math.inf if count > 3 else count), p[kept]

    # starts freeze individually once converged (tiny step) or stalled (best
    # residual no longer improving by 0.1%); late iterations then only touch
    # the stragglers
    active = np.ones(n_starts, dtype=bool)
    best_res = np.full(n_starts, np.inf)
    stalled_for = np.zeros(n_starts, dtype=int)

    for it in range(_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        if it and it % 16 == 0:
            # a continuum already in hand needs no further polishing
            count, planes = tally(x)
            if math.isinf(count):
                if return_planes:
                    return count, planes
                return count
        xa = x[idx]
        chart_a = [c[idx] for c in chart]
        m1, m2 = chart_a[2:]
        u, w = _planes_at(xa, chart_a)
        p_raw = wedge_vectors(u, w, _BASIS)
        pg = p_raw @ gram
        q = (pg * p_raw).sum(axis=1)
        sq = np.sqrt(np.maximum(q, q_min))
        p, sp, gmp, a, b, r = _plane_fit(p_raw, sq, mmat, smat)
        rn = np.linalg.norm(r, axis=1)
        # far from the acceptance gate, sub-3%-per-iteration decay can never
        # reach it within _MAX_ITER, so such starts count as stalled
        far = rn > 100.0 * _RESIDUAL_TOL * norm_scale
        lenient = np.minimum(
            best_res[idx] * (1.0 - 1e-3), best_res[idx] - 1e-12 * norm_scale
        )
        gained = rn < np.where(far, best_res[idx] * 0.97, lenient)
        stalled_for[idx] = np.where(gained, 0, stalled_for[idx] + 1)
        best_res[idx] = np.minimum(best_res[idx], rn)

        vfac = np.stack([m1, m2, u, u], axis=1)
        wfac = np.stack([w, w, m1, m2], axis=1)
        d_raw = np.transpose(wedge_vectors(vfac, wfac, _BASIS), (0, 2, 1))  # (starts, 6, 4)
        dq = 2.0 * np.matmul(pg[:, None, :], d_raw)[:, 0, :]
        dp = (
            d_raw / sq[:, None, None]
            - p_raw[:, :, None] * dq[:, None, :] / (2.0 * sq**3)[:, None, None]
        )
        dmp = np.matmul(mmat, dp)
        dsp = np.matmul(smat, dp)
        da = 2.0 * np.matmul(gmp[:, None, :], dp)[:, 0, :]
        db = (
            -np.matmul(gmp[:, None, :], dsp)[:, 0, :]
            - np.matmul((sp @ gram)[:, None, :], dmp)[:, 0, :]
        )
        jac = (
            dmp
            - p[:, :, None] * da[:, None, :]
            - a[:, None, None] * dp
            - sp[:, :, None] * db[:, None, :]
            - b[:, None, None] * dsp
        )
        jact = np.transpose(jac, (0, 2, 1))
        jtj = np.matmul(jact, jac)
        jtr = np.matmul(jact, r[:, :, None])[:, :, 0]
        damping = 1e-10 * (np.trace(jtj, axis1=1, axis2=2) / 4.0 + 1.0)
        jtj = jtj + damping[:, None, None] * eye4
        try:
            delta = np.linalg.solve(jtj, -jtr[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        step = np.linalg.norm(delta, axis=1)
        shrink = np.where(step > 2.0, 2.0 / np.maximum(step, 1e-300), 1.0)
        delta = delta * shrink[:, None]
        # Backtrack any step that would cross into the non-spacelike cone.
        delta = _backtrack(xa, delta, chart_a, q_min)
        x[idx] = xa + delta
        done = (np.linalg.norm(delta, axis=1) < 1e-13) | (stalled_for[idx] >= 12)
        active[idx[done]] = False

    count, planes = tally(x)
    if return_planes:
        return count, planes
    return count

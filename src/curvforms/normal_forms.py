"""Curvature normal forms in dimensions 4, 3 and n.

A 4-dimensional curvature tensor whose operator (realized against a metric
``h``) commutes with the h-Hodge star admits an h-orthonormal frame in which
the only nonzero components are

    R_1212 = R_3434 = l1,   R_1313 = R_4242 = l2,   R_1414 = R_2323 = l3,
    R_3412 = m1,            R_4213 = m2,            R_2314 = m3,

up to index symmetries.  This module tests for the commuting property,
reconstructs such frames, and provides the analogous (always available)
3-dimensional normal form plus the n-dimensional critical-frame machinery.
The 3-dimensional frame is made of the normals of the operator's
eigenplanes, so its coordinate planes are the eigenplanes, with no search.

The first Bianchi identity forces ``m1 + m2 + m3 = 0``; the triple ``(l, m)``
is recovered up to a simultaneous permutation of the three pairs (the
eigenvalues ``l +- m`` of the operator restricted to the self-dual and
anti-self-dual subspaces are the actual invariants).
"""

from dataclasses import dataclass, fields
from itertools import permutations

import numpy as np

from .bivectors import bivector_basis, induced_gram, wedge_vectors
from .curvature import (
    CurvatureTensor,
    Lambda2Operator,
    _dense,
    _pair_matrix,
    component_matrix,
    curvature_from_frame_components,
    transform_frame,
)
from .exceptions import (
    DegenerateMetricError,
    DimensionError,
    FrameReconstructionError,
    NotCommutingError,
    _alone,
)
from .hodge import HodgeStar, _scales
from .preconditions import _first_errors, _preconditions

__all__ = [
    "StarEinsteinReport",
    "Lambda2Blocks",
    "NormalForm4",
    "ScaledNormalForm",
    "NormalForm3",
    "CriticalFit",
    "RicciReport",
    "lambda2_blocks",
    "is_star_h_einstein",
    "normal_form_4",
    "orthogonal_normal_form_4",
    "preferred_normal_form_4",
    "rebuild_normal_form",
    "canonical_pairs",
    "scaled_normal_form",
    "recover_mu1",
    "critical_point_residual",
    "normal_form_3",
    "signed_curvature_3",
    "critical_frame_check_n",
    "ricci_from_critical_frame",
    "h_orthonormal_frame",
]


# ---- result containers ----


@dataclass(frozen=True)
class StarEinsteinReport:
    """Outcome of the star-commuting (equivalently trace-proportionality) test.

    Attributes
    ----------
    is_einstein : bool
        True iff the operator commutes with the h-star within tolerance.
    commutator_residual : float
        ``sqrt(|B - B^T|^2 + |A - D|^2)`` of the h-orthonormal block form,
        equal to the commutator Frobenius norm over sqrt(2).
    operator_norm : float
        Frobenius norm of the operator, for relative comparisons.
    f_fitted : float
        Best proportionality factor in ``tr_h Rm = f h``.
    trace_residual : float
        Max-norm of ``tr_h Rm - f h`` in the input frame.
    h_trace : ndarray
        The h-trace of the tensor as a bilinear form in the input frame.
    """

    is_einstein: bool
    commutator_residual: float
    operator_norm: float
    f_fitted: float
    trace_residual: float
    h_trace: np.ndarray


@dataclass(frozen=True)
class Lambda2Blocks:
    """Stacked h-orthonormal Lambda^2 data of ``N`` 4-dimensional tensors.

    Attributes
    ----------
    frames : ndarray, shape (N, 4, 4)
        h-orthonormal frames ``V`` (inverse transpose Cholesky), as columns.
    k : ndarray, shape (N, 6, 6)
        Components in the frame, ``(Lambda^2 V)^T K_0 (Lambda^2 V)``, with
        block form ``[[A, B], [B^T, D]]``.
    residual, norm : ndarray, shape (N,)
        ``sqrt(|B - B^T|^2 + |A - D|^2)`` and ``|K|_F``.
    evp, up, evm, um : ndarray, shapes (N, 3) and (N, 3, 3)
        Ascending eigenpairs of the self-dual block ``(A + D)/2 + sym(B)``
        and the anti-self-dual block ``(A + D)/2 - sym(B)``.
    scale : ndarray, shape (N,)
        ``max |K_0|`` of the input components (at least 1e-300): ``max |R_ijkl|``
        for a tensor with the pair symmetries.
    gram : ndarray, shape (N, 4, 4)
        The second metric ``g`` in the frame, ``V^T g V`` (``g`` defaults to
        ``h``, giving the identity up to rounding).

    :func:`_normal_forms` chooses the normal forms of all points from them.
    """

    frames: np.ndarray
    k: np.ndarray
    residual: np.ndarray
    norm: np.ndarray
    evp: np.ndarray
    up: np.ndarray
    evm: np.ndarray
    um: np.ndarray
    scale: np.ndarray
    gram: np.ndarray

    def commuting(self, tol: float) -> np.ndarray:
        """Per point: residual <= tol * ||K||_F."""
        return self.residual <= tol * np.maximum(self.norm, 1e-300)

    def take(self, index) -> "Lambda2Blocks":
        """The blocks of the points ``index`` (indices or a mask)."""
        return Lambda2Blocks(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass(frozen=True)
class ScaledNormalForm:
    """Normal-form values rescaled to a g-orthonormal frame.

    ``c[i] = 1 / sqrt(g(e_i, e_i))`` for the normal-form frame vectors, and

        lt_1 = c1^2 c2^2 l1,  lt_2 = c1^2 c3^2 l2,  lt_3 = c1^2 c4^2 l3,
        kt_1 = c3^2 c4^2 l1,  kt_2 = c2^2 c4^2 l2,  kt_3 = c2^2 c3^2 l3,
        mt_i = c1 c2 c3 c4 m_i.
    """

    c: np.ndarray
    lambdas_scaled: np.ndarray
    kappas_scaled: np.ndarray
    mus_scaled: np.ndarray

    @classmethod
    def rescale(cls, c, lambdas, mus) -> "ScaledNormalForm":
        """The rescaled triples of the values ``(lambdas, mus)``, shape (..., 3), for
        the lengths ``c``, shape (..., 4): one normal form, or a stack of them
        (leading axes broadcast)."""
        l, c2 = np.asarray(lambdas, dtype=float), c**2
        lt, kt = c2[..., :1] * c2[..., 1:] * l, c2[..., [2, 1, 1]] * c2[..., [3, 3, 2]] * l
        return cls(c, lt, kt, np.prod(c, axis=-1)[..., None] * np.asarray(mus, dtype=float))


@dataclass(frozen=True)
class NormalForm4:
    """Normal form of a star-commuting 4-dimensional curvature tensor.

    ``frame`` holds the h-orthonormal frame vectors as columns, in the
    coordinates of the input components; it is positively oriented.  The
    pairs ``(lambdas[i], mus[i])`` are sorted lexicographically.
    """

    frame: np.ndarray
    lambdas: np.ndarray
    mus: np.ndarray
    h: np.ndarray
    scaled: ScaledNormalForm | None = None


@dataclass(frozen=True)
class NormalForm3:
    """Eigenframe normal form of a 3-dimensional curvature tensor.

    In the orthonormal frame (columns of ``frame``) the only nonzero
    components are ``R_1212, R_1313, R_2323 = diag`` (ascending).
    """

    frame: np.ndarray
    diag: np.ndarray


@dataclass(frozen=True)
class CriticalFit:
    """Least-squares fit ``op P = a P + b (star P)`` at a 2-plane."""

    a: float
    b: float
    residual: float


@dataclass(frozen=True)
class RicciReport:
    """Ricci tensor of a critical frame, with its termwise decomposition.

    ``plane_values[k, i] = R_ikik`` is the quadratic form of the plane
    ``e_i ^ e_k``; the diagonal Ricci entry is ``-sum_i plane_values[k, i]``.
    ``off_diagonal_terms[j, a, b] = R_jabj`` are the individual contraction
    terms, each of which vanishes for a critical frame when ``a != b``.
    """

    matrix: np.ndarray
    plane_values: np.ndarray
    off_diagonal_terms: np.ndarray


# ---- shared helpers ----


def h_orthonormal_frame(h: np.ndarray) -> np.ndarray:
    """Columns form an h-orthonormal frame (inverse transpose Cholesky).

    A stack of metrics, shape ``(N, n, n)``, gives the stack of frames.
    """
    h = np.asarray(h, dtype=float)
    try:
        l = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as err:
        raise DegenerateMetricError("metric is not positive definite") from err
    return np.swapaxes(np.linalg.inv(l), -1, -2)


# ---- batched Lambda^2 kernel ----

_BASIS = bivector_basis(4)

_NOT_DIM_4 = "the star-commuting test is specific to dim 4"

# self-dual axis a is paired with anti-self-dual axis pairing[a]; the order in
# which the pairings are tried
_PAIRINGS = tuple(permutations(range(3)))


def _in_frame(k: np.ndarray, v: np.ndarray, basis=_BASIS) -> np.ndarray:
    """Lambda^2 components ``k`` in ``basis`` read in the frame ``v`` (stacks broadcast):
    ``(Lambda^2 v)^T k (Lambda^2 v)``, with the compound from :func:`induced_gram`."""
    wedge = induced_gram(v, basis)
    return np.swapaxes(wedge, -1, -2) @ k @ wedge


def lambda2_blocks(
    components: np.ndarray, h: np.ndarray, g: np.ndarray | None = None
) -> Lambda2Blocks:
    """h-orthonormal Lambda^2 blocks of stacked 4-dimensional tensors.

    ``K = (Lambda^2 V)^T K_0 (Lambda^2 V)`` reads the tensor in the frame
    without a 4-index frame change (:func:`_in_frame`).

    Parameters
    ----------
    components : ndarray, shape (N, 4, 4, 4, 4)
        Curvature components, each in the coordinates of its metric.
    h : ndarray, shape (N, 4, 4)
        Positive-definite metrics.
    g : ndarray, shape (N, 4, 4), optional
        Second metrics, whose Gram ``V^T g V`` the blocks carry; defaults to ``h``.

    Raises
    ------
    DimensionError, DegenerateMetricError
        For other shapes; at the first ``g`` or ``h`` that is not finite or not
        positive definite (:func:`_lambda2_blocks` at ``tol = inf``).
    """
    r, h = np.asarray(components, dtype=float), np.asarray(h, dtype=float)
    g = None if g is None else np.asarray(g, dtype=float)
    if r.shape[1:] != (4, 4, 4, 4) or h.shape != (len(r), 4, 4) or g is not None and g.shape != h.shape:
        raise DimensionError("lambda2_blocks needs components (N, 4, 4, 4, 4) and metrics (N, 4, 4)")
    blocks, errors = _lambda2_blocks(_pair_matrix(r), h, g, np.inf)
    error = next(filter(None, errors), None)
    if error is not None:
        raise error
    return blocks


def _lambda2_blocks(k0: np.ndarray, h: np.ndarray, g: np.ndarray | None, tol: float, name="h", weight=None) -> tuple:
    """:func:`lambda2_blocks` of the pair matrices ``k0`` (N, 6, 6), without its
    shape checks, and each point's first error, or None, over the rules
    (``preconditions._preconditions``) of ``g`` when given, ``h`` (called
    ``name``: one, or one per point), the rule ``weight`` when given, and
    ``k0``.  A point with an error is read against ``I``, with no warning and
    no LAPACK error; ``g`` None is ``h``."""
    errors = _first_errors([None] * len(k0), _preconditions(tol, g=g, h=h, name=name, weight=weight, k0=k0))
    clean = np.array([e is None for e in errors], dtype=bool)[:, None, None]
    h = np.where(clean, h, np.eye(4))
    g = h if g is None else np.where(clean, g, np.eye(4))
    v = h_orthonormal_frame(h)
    k = _in_frame(k0, v)
    a, b, d = k[:, :3, :3], k[:, :3, 3:], k[:, 3:, 3:]
    bt = np.swapaxes(b, 1, 2)
    residual = np.sqrt(np.sum((b - bt) ** 2, axis=(1, 2)) + np.sum((a - d) ** 2, axis=(1, 2)))
    norm = np.sqrt(np.sum(k**2, axis=(1, 2)))
    half, sym = (a + d) / 2.0, (b + bt) / 2.0
    evp, up = np.linalg.eigh(half + sym)
    evm, um = np.linalg.eigh(half - sym)
    gram = np.swapaxes(v, 1, 2) @ g @ v
    blocks = Lambda2Blocks(
        frames=v, k=k, residual=residual, norm=norm,
        evp=evp, up=up, evm=evm, um=um, scale=_scales(k0), gram=gram,
    )
    return blocks, errors


# ---- star-h Einstein test ----


def is_star_h_einstein(rm: CurvatureTensor, h: np.ndarray, tol: float = 1e-9) -> StarEinsteinReport:
    """Test whether the operator of ``rm`` against ``h`` commutes with the h-star.

    Equivalent characterizations, all reported: the commutator with the star
    vanishes; the h-orthonormal block form ``[[A, B], [B^T, D]]`` has
    ``B = B^T`` and ``D = A``; the h-trace of the tensor is proportional
    to ``h``.  This is :func:`_star_einstein` for one point, the stacked test
    that ``curvforms einstein-check --metric g|h`` runs on each chunk of a file.

    Parameters
    ----------
    rm : CurvatureTensor
        4-dimensional tensor, components in the same frame as ``h``.
    h : ndarray, shape (4, 4)
        Positive-definite metric.
    tol : float
        Relative tolerance: commuting means residual <= tol * ||op||_F.

    Raises
    ------
    GeometryError
        The first error of :func:`_lambda2_blocks` (the rules of ``h`` and ``rm``).
    """
    h = np.asarray(h, dtype=float)
    if rm.dim != 4 or h.shape != (4, 4):
        raise DimensionError(_NOT_DIM_4)
    r = rm.components[None]
    return _alone(_star_einstein(_pair_matrix(r), r, h[None], tol))


def _star_einstein(k0: np.ndarray, r: np.ndarray, h: np.ndarray, tol: float, name="h") -> list:
    """Per point of the pair matrices ``k0`` (N, 6, 6) and dense components ``r``
    (N, 4, 4, 4, 4) against the metrics ``h`` (N, 4, 4), called ``name``: its
    :class:`StarEinsteinReport`, or its :func:`_lambda2_blocks` error.  The h-trace
    ``h^{jl} R_{jabl}``, ``f`` and the trace residual are taken for the points without one at once."""
    blocks, errors = _lambda2_blocks(k0, h, None, tol, name)

    def reports(at):
        hinv = np.linalg.inv(h[at])
        trace = np.einsum("njl,njabl->nab", hinv, r[at], optimize=True)
        f = np.trace(hinv @ trace, axis1=1, axis2=2) / 4.0
        trace_residual = np.max(np.abs(trace - f[:, None, None] * h[at]), axis=(1, 2))
        columns = (blocks.commuting(tol)[at], blocks.residual[at], blocks.norm[at], f, trace_residual)
        return [StarEinsteinReport(*values, h_trace=hn) for *values, hn in zip(*(c.tolist() for c in columns), trace)]

    return _first_errors(errors, [reports])


# ---- 4-dimensional normal form ----


def _stacked(rows) -> np.ndarray:
    """Nested rows of equally shaped arrays as a stack of matrices."""
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def _bar_itzhack(r: np.ndarray) -> np.ndarray:
    """``4 q q^T - I`` for the unit quaternions ``q = (a, b, c, d)`` of stacked
    rotations ``r``, a matrix linear in ``r`` (Bar-Itzhack 2000)."""
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = np.moveaxis(r, (-2, -1), (0, 1))
    return _stacked([
        [r11 + r22 + r33, r32 - r23, r13 - r31, r21 - r12],
        [r32 - r23, r11 - r22 - r33, r12 + r21, r13 + r31],
        [r13 - r31, r12 + r21, r22 - r11 - r33, r23 + r32],
        [r21 - r12, r13 + r31, r23 + r32, r33 - r11 - r22],
    ])


def _quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternions of stacked rotations ``r``: the top eigenvector of :func:`_bar_itzhack`."""
    return np.linalg.eigh(_bar_itzhack(r))[1][..., -1]


def _right(q: np.ndarray) -> np.ndarray:
    """``R(q)``: right multiplication by stacked quaternions ``q``, on the basis 1, i, j, k."""
    a, b, c, d = np.moveaxis(q, -1, 0)
    return _stacked([[a, -b, -c, -d], [b, a, d, -c], [c, -d, a, b], [d, c, -b, a]])


def _proper(r: np.ndarray) -> np.ndarray:
    """Stacked orthogonal matrices with the third column negated where ``det r < 0``."""
    third = np.arange(r.shape[-1]) == 2
    return np.where((np.linalg.det(r) < 0)[..., None, None] & third, -r, r)


def _first_positive(f: np.ndarray) -> np.ndarray:
    """Stacked frames negated where e_1's first entry beyond 1e-12 is < 0 (same Lambda^2 f)."""
    e1 = f[..., :, 0]
    first = np.take_along_axis(e1, np.argmax(np.abs(e1) > 1e-12, axis=-1)[..., None], axis=-1)
    return np.where(first[..., None] < 0, -f, f)


def _pairing_turns() -> np.ndarray:
    """``R(t)^T`` of every pairing, shape (2, 6, 4, 4), for ``det um > 0`` and ``< 0``.

    ``_proper(um[:, pairing]) = _proper(um) T`` for a signed permutation ``T``
    that depends on the pairing and the sign of ``det um`` only, so its
    quaternion ``t`` turns pairing 0's frame into the pairing's.  ``4 t t^T``
    has integer entries, so ``t`` is a column of it over ``2 |t_j|``, with no
    eigensolver.
    """
    turns = []
    for sign in (1.0, -1.0):
        for pairing in _PAIRINGS:
            t = np.diag([1.0, 1.0, sign])[:, pairing]
            t[:, 2] = np.cross(t[:, 0], t[:, 1])  # made proper
            tt = np.eye(4) + _bar_itzhack(t)
            j = np.argmax(np.diag(tt))
            turns.append(_right(tt[:, j] / (2.0 * np.sqrt(tt[j, j]))).T)
    return np.array(turns).reshape(2, len(_PAIRINGS), 4, 4)


_TURNS = _pairing_turns()


def _pairing_frames(up: np.ndarray, um: np.ndarray) -> np.ndarray:
    """Frames in ``V`` of the pairings :data:`_PAIRINGS`, shape (N, 6, 4, 4),
    from the block eigenvectors ``up`` and ``um``, shape (N, 3, 3).

    A pairing's frame rotates the self-dual bivectors by ``R_+ = up`` and the
    anti-self-dual ones by ``R_- = um[:, pairing]``, each made proper.  With
    :func:`bivector_basis`'s order, left multiplication by the quaternion
    ``p`` of ``R_+`` acts as ``R_+`` on the self-dual half only and right
    multiplication by ``q`` of ``R_-`` as ``R_-^T`` on the anti-self-dual
    half only (SO(4) = (SU(2) x SU(2))/+-1), so the frame is ``L(p) R(q)^T``.
    That of pairing 0 times :data:`_TURNS` gives the other five.
    """
    a, b, c, d = np.moveaxis(_quaternion(_proper(up)), -1, 0)
    left = _stacked([[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]])
    frame = left @ np.swapaxes(_right(_quaternion(_proper(um))), -1, -2)
    return _first_positive(frame[:, None] @ _TURNS[(np.linalg.det(um) < 0).astype(int)])


def _read_off(k, f, scale, tol):
    """``k`` read once in the stacked frames ``f``, and its pairs ordered by a
    stable sort on ``(l, m)``: the frames' columns in that order, the signed
    permutations ``perm`` that take them there with the orientation kept, the
    sorted ``l`` and ``m``, the pattern residual, and whether it is at most
    ``max(tol, 1e-8) scale``.

    ``perm`` permutes the basis bivectors and keeps the star, so the reading in
    ``f @ perm`` is the signed permutation of this one that carries each pair
    ``(l_i, m_i)`` to its sorted place and keeps every residual entry's size:
    both come from this reading with no second one."""
    i = np.arange(3)
    kf = _in_frame(k, f)
    lambdas, mus = kf[:, i, i], kf[:, i + 3, i]
    residual = np.max(np.abs(_block_pattern(lambdas, mus) - kf), axis=(1, 2))
    order = np.lexsort((mus, lambdas))
    columns = np.concatenate([np.zeros_like(order[:, :1]), order + 1], axis=1)
    perm = np.swapaxes(np.eye(4)[columns], 1, 2)
    perm[:, :, 3] *= np.linalg.det(perm)[:, None]  # keep the orientation
    lambdas, mus = (np.take_along_axis(v, order, axis=1) for v in (lambdas, mus))
    return columns, perm, lambdas, mus, residual, residual <= max(tol, 1e-8) * scale


def _normal_forms(blocks: Lambda2Blocks, errors: list, h, g, tol) -> list:
    """Per point of :func:`_lambda2_blocks`'s ``blocks`` and ``errors`` for the
    stacks ``h``, ``g``: that error, else a :class:`NotCommutingError`, else its
    g-orthogonal normal form, else its plain one, else its error.

    Each point has seven frames: the six pairing frames, in :data:`_PAIRINGS`
    order, and the eigenframe of ``g``.  One verdict, :func:`_g_lengths` on the
    frames in input coordinates, judges all seven before any reading; the
    eigenframe counts only where no pairing passes.  Each frame that passes,
    and pairing 0 for the plain form, is read once (:func:`_read_off`), and the
    frame and its g-lengths take the permutation of its sorted values.  The
    first g-orthogonal frame that matches the block pattern wins; else pairing
    0 gives the plain form.  ``g=None`` asks for the plain form alone.
    """

    def commuting(at):
        residual = blocks.residual[at] / np.maximum(blocks.norm[at], 1e-300)
        return [
            None if ok else NotCommutingError("operator does not commute with the h-star; no normal form", residual=r)
            for ok, r in zip(blocks.commuting(tol)[at].tolist(), residual.tolist())
        ]

    return _first_errors(errors, [commuting, lambda at: _forms(blocks, np.arange(len(blocks.k))[at], h, g, tol)])


def _forms(blocks: Lambda2Blocks, points: np.ndarray, h, g, tol) -> list:
    """The normal form, or the :class:`FrameReconstructionError`, of each of the commuting ``points`` (see :func:`_normal_forms`)."""
    results = []
    frames = _pairing_frames(blocks.up[points], blocks.um[points])
    orthogonal, lengths = np.zeros((len(points), 1), dtype=bool), np.ones((len(points), 1, 4))
    if g is not None:
        eigenframes = _first_positive(_proper(np.linalg.eigh(blocks.gram[points])[1]))
        frames = np.concatenate([frames, eigenframes[:, None]], axis=1)
    f = blocks.frames[points, None] @ frames
    if g is not None:
        lengths, _, orthogonal = _g_lengths(f, g[points, None], tol)
        orthogonal[:, -1] &= ~orthogonal[:, :-1].any(axis=1)
    # one read per g-orthogonal frame, and pairing 0's for the plain form
    at, c = np.nonzero(orthogonal | (np.arange(orthogonal.shape[1]) == 0))
    n = points[at]
    columns, perm, lambdas, mus, residual, matched = _read_off(blocks.k[n], frames[at, c], blocks.scale[n], tol)
    f, lengths = f[at, c] @ perm, np.take_along_axis(lengths[at, c], columns, axis=1)
    orthogonal = orthogonal[at, c] & matched

    chosen = np.flatnonzero(c == 0)  # the plain form, unless a g-orthogonal one comes first
    first = np.flatnonzero(orthogonal)
    point, at_first = np.unique(at[first], return_index=True)
    chosen[point] = first[at_first]
    # every chosen form rescaled at once, with lengths of 1 where it is not
    # g-orthogonal, so that no sqrt of a non-positive length is taken
    scaled = ScaledNormalForm.rescale(
        1.0 / np.sqrt(np.where(orthogonal[chosen, None], lengths[chosen], 1.0)), lambdas[chosen], mus[chosen]
    )
    for j, (e, i) in enumerate(zip(chosen, points)):
        if matched[e]:
            rows = None
            if orthogonal[e]:
                rows = ScaledNormalForm(
                    scaled.c[j], scaled.lambdas_scaled[j], scaled.kappas_scaled[j], scaled.mus_scaled[j]
                )
            results.append(NormalForm4(f[e], lambdas[e], mus[e], h[i], rows))
        else:
            results.append(FrameReconstructionError(
                "components in the reconstructed frame do not match the normal-form "
                f"pattern (residual {residual[e]:.3e})",
                diagnostics={"lambdas": lambdas[e].tolist(), "mus": mus[e].tolist()},
            ))
    return results


def _normal_form_of(rm: CurvatureTensor, h, g, tol):
    """One tensor's :func:`_lambda2_blocks` (N = 1) and :func:`_normal_forms` result."""
    h, g = (None if m is None else np.asarray(m, dtype=float)[None] for m in (h, g))
    if rm.dim != 4 or h.shape != (1, 4, 4) or g is not None and g.shape != h.shape:
        raise DimensionError(_NOT_DIM_4)
    blocks, errors = _lambda2_blocks(component_matrix(rm)[None], h, g, tol)
    return blocks, _normal_forms(blocks, errors, h, g, tol)[0]


def normal_form_4(rm: CurvatureTensor, h: np.ndarray, tol: float = 1e-9) -> NormalForm4:
    """Reconstruct a normal-form frame for a star-commuting tensor.

    The self-dual and anti-self-dual blocks are diagonalized and their
    eigenvalues paired in ascending order; the frame that carries the two
    bases of bivectors to the paired eigenvectors comes in closed form
    (:func:`_pairing_frames`).  The values are read from the component matrix
    in that frame and checked against the normal-form pattern: the plain
    form of :func:`_normal_forms`, for one point.

    Raises
    ------
    GeometryError
        The first error of :func:`_normal_forms` (the rules of ``h`` and ``rm``,
        commuting at ``tol``, the pattern); a missed pattern carries diagnostics.
    """
    return _alone([_normal_form_of(rm, h, None, tol)[1]])


def orthogonal_normal_form_4(
    rm: CurvatureTensor, h: np.ndarray, g: np.ndarray, tol: float = 1e-9
) -> NormalForm4:
    """Normal form whose frame additionally diagonalizes a second metric.

    The normal-form frame is unique only up to relabeling and up to the
    pairing between self-dual and anti-self-dual eigendirections.  The
    g-orthogonal form of :func:`_normal_forms`, for one point, is returned
    with its rescaled values.  The eigenframe of ``g``, its fallback, is, up
    to order and signs, the only frame diagonalizing ``g`` if the eigenvalues
    are simple; else it serves space forms, not every block degeneracy.

    Raises
    ------
    GeometryError
        The first error of :func:`_normal_forms` (the rules of ``g``, ``h`` and
        ``rm`` first), or a :class:`FrameReconstructionError` if no pairing and
        no eigenframe of ``g`` yields a g-orthogonal frame.
    """
    blocks, nf = _normal_form_of(rm, h, g, tol)
    if isinstance(nf, NormalForm4) and nf.scaled is not None:
        return nf
    if isinstance(nf, (NormalForm4, FrameReconstructionError)):  # the plain form at best
        evp, evm = blocks.evp[0], blocks.evm[0]
        nf = FrameReconstructionError(
            "no pairing of the block eigendirections, nor the eigenframe of g, "
            "yields a g-orthogonal frame",
            diagnostics={"eigenvalues_plus": evp.tolist(), "eigenvalues_minus": evm.tolist()},
        )
    raise nf


def preferred_normal_form_4(
    rm: CurvatureTensor, h: np.ndarray, g: np.ndarray, tol: float = 1e-9
) -> NormalForm4:
    """The g-orthogonal normal form when a frame gives one, else :func:`normal_form_4`'s.

    Only the g-orthogonal form carries rescaled values.  This is
    :func:`_normal_forms` for one point.

    Raises
    ------
    GeometryError
        As :func:`normal_form_4` does, with the rule of ``g`` before that of ``h``.
    """
    return _alone([_normal_form_of(rm, h, g, tol)[1]])


def _block_pattern(lambdas, mus) -> np.ndarray:
    """Component matrices ``[[diag l, diag m], [diag m, diag l]]`` of normal forms (stacks broadcast)."""
    l, m = (np.asarray(v, dtype=float)[..., None] * np.eye(3) for v in (lambdas, mus))
    return np.concatenate([np.concatenate([l, m], -1), np.concatenate([m, l], -1)], -2)


def _pattern_components(lambdas, mus) -> np.ndarray:
    """Dense components, in its frame, of the normal form with values ``(lambdas, mus)``:
    the pattern entries of :func:`_block_pattern`, completed by the index symmetries."""
    return _dense(_block_pattern(lambdas, mus)[None], _block_pattern(1.0, 1.0)[None] != 0)[0]


def rebuild_normal_form(nf: NormalForm4) -> CurvatureTensor:
    """Curvature tensor (in input coordinates) defined by a normal form."""
    return curvature_from_frame_components(_pattern_components(nf.lambdas, nf.mus), nf.frame)


def canonical_pairs(lambdas, mus) -> np.ndarray:
    """Canonical representative of the pairs (l_i, m_i) for comparisons.

    Different valid normal forms of one tensor differ by re-pairing the
    self-dual spectrum ``l + m`` with the anti-self-dual spectrum ``l - m``.
    Sorting both spectra ascending and re-pairing in order is a complete
    invariant; the result is returned as a (3, 2) array of (l, m) rows.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    mus = np.asarray(mus, dtype=float)
    p = np.sort(lambdas + mus)
    m = np.sort(lambdas - mus)
    out = np.stack([(p + m) / 2.0, (p - m) / 2.0], axis=1)
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def scaled_normal_form(nf: NormalForm4, g: np.ndarray, tol: float = 1e-9) -> NormalForm4:
    """Attach the g-orthonormal rescaling of a normal form.

    Requires the normal-form frame to be g-orthogonal; ``c_i`` is the
    reciprocal g-length of the i-th frame vector.
    """
    lengths, off, passing = _g_lengths(nf.frame, np.asarray(g, dtype=float), tol)
    if np.any(lengths <= 0):
        raise DegenerateMetricError("frame vectors must have positive g-length")
    if not passing:
        raise DegenerateMetricError(
            f"normal-form frame is not g-orthogonal (off-diagonal {off:.3e})"
        )
    scaled = ScaledNormalForm.rescale(1.0 / np.sqrt(lengths), nf.lambdas, nf.mus)
    return NormalForm4(frame=nf.frame, lambdas=nf.lambdas, mus=nf.mus, h=nf.h, scaled=scaled)


def _off_diagonal(gf: np.ndarray, tol: float):
    """Largest off-diagonal |gf_ij| of stacked Grams; whether it is <= max(tol, 1e-9) max gf_ii."""
    diag = np.diagonal(gf, axis1=-2, axis2=-1)
    off = np.max(np.abs(gf - diag[..., None] * np.eye(gf.shape[-1])), axis=(-2, -1))
    return off, off <= max(tol, 1e-9) * np.max(diag, axis=-1)


def _g_lengths(f: np.ndarray, g: np.ndarray, tol: float):
    """Squared g-lengths of the columns of stacked frames ``f``, the largest
    off-diagonal of ``f^T g f``, and whether the frames are g-orthogonal
    (:func:`_off_diagonal`) with positive lengths."""
    gf = np.swapaxes(f, -1, -2) @ g @ f
    off, passing = _off_diagonal(gf, tol)
    lengths = np.diagonal(gf, axis1=-2, axis2=-1)
    return lengths, off, passing & np.all(lengths > 0, axis=-1)


def recover_mu1(values: dict) -> float:
    """Recover ``m1`` from five critical values of the quadratic form.

    ``values`` must contain ``lambda1``, ``lambda2`` (critical values of the
    coordinate planes) and ``a12``, ``a13``, ``a32`` (critical values of the
    mixed planes built from pairs of coordinate planes and their star duals):

        m1 = a12 + a13/3 - a32/3 - (2/3) lambda1 - (1/3) lambda2.

    Substituting ``a_ij = ((l_i + l_j) + (m_i - m_j))/2`` gives
    ``(2 m1 - m2 - m3)/3``, which equals ``m1`` exactly because the first
    Bianchi identity forces ``m1 + m2 + m3 = 0``.
    """
    return float(
        values["a12"]
        + values["a13"] / 3.0
        - values["a32"] / 3.0
        - 2.0 * values["lambda1"] / 3.0
        - values["lambda2"] / 3.0
    )


def critical_point_residual(
    op: Lambda2Operator, star: HodgeStar | None, p: np.ndarray
) -> CriticalFit:
    """Least-squares fit of ``op P = a P + b (star P)`` at a 2-plane ``P``.

    The plane is critical for the associated curvature functional exactly when
    the residual vanishes.  For positive-definite Grams the fit and residual
    are taken in the Gram norm; for Lorentzian Grams the Euclidean coefficient
    norm is used (the residual still vanishes exactly at critical planes).
    With ``star=None`` only ``a`` is fitted (the 3-dimensional case).
    """
    p = np.asarray(p, dtype=float)
    cols = [p]
    if star is not None:
        cols.append(star.matrix @ p)
    cols = np.stack(cols, axis=1)
    target = op.matrix @ p
    if op.kind == "via_lorentz":
        coef, *_ = np.linalg.lstsq(cols, target, rcond=None)
        resid = float(np.linalg.norm(target - cols @ coef))
    else:
        l = np.linalg.cholesky(op.gram)
        coef, *_ = np.linalg.lstsq(l.T @ cols, l.T @ target, rcond=None)
        resid = float(np.linalg.norm(l.T @ (target - cols @ coef)))
    a = float(coef[0])
    b = float(coef[1]) if star is not None else 0.0
    return CriticalFit(a=a, b=b, residual=resid)


# ---- 3 dimensions ----


def normal_form_3(rm: CurvatureTensor, tol: float = 1e-9) -> NormalForm3:
    """Eigenframe normal form of a 3-dimensional tensor (orthonormal input frame).

    The eigenplanes of the (symmetric) operator on Lambda^2 are exactly the
    critical planes of the quadratic form.  The frame holds the normals
    ``(-c23, c13, -c12)`` of the eigenplanes ``(c12, c13, c23)``, top eigenvalue
    first, so its planes (1,2), (1,3), (2,3) are the eigenplanes in ascending
    order; then column 1's first nonzero entry is made positive and det +1.
    """
    if rm.dim != 3:
        raise DimensionError("normal_form_3 needs a 3-dimensional tensor")
    basis = bivector_basis(3)
    k = component_matrix(rm, basis)
    diag, vecs = np.linalg.eigh(k)
    f = np.array([[-1.0], [1.0], [-1.0]]) * vecs[::-1, ::-1]
    # checked before the sign rules, which leave it unchanged; a NaN fails too
    resid = np.max(np.abs(_in_frame(k, f, basis) - np.diag(diag)))
    if not resid <= max(tol, 1e-8) * max(rm.scale, 1e-300):
        raise FrameReconstructionError(
            f"3-dimensional normal form residual {resid:.3e}",
            diagnostics={"diag": diag.tolist()},
        )
    first = np.flatnonzero(np.abs(f[:, 0]) > 1e-12)[0]
    if f[first, 0] < 0:
        f[:, 0] = -f[:, 0]
    if np.linalg.det(f) < 0:
        f[:, 2] = -f[:, 2]
    return NormalForm3(frame=f, diag=diag)


def signed_curvature_3(rm: CurvatureTensor, samples: int = 10000, seed: int = 0) -> dict:
    """Definite-sign report for 3-dimensional sectional curvature.

    The classical sectional curvature of any plane is a convex combination of
    the three critical values (minus the operator eigenvalues), so a definite
    sign of the spectrum is a guarantee for all planes.  A Monte Carlo sweep
    over ``samples`` random planes cross-checks the bounds.
    """
    if rm.dim != 3:
        raise DimensionError("signed_curvature_3 needs a 3-dimensional tensor")
    basis = bivector_basis(3)
    k = component_matrix(rm, basis)
    crit = -np.linalg.eigvalsh(k)[::-1]  # classical sectional values, ascending
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(samples, 3))
    w = rng.normal(size=(samples, 3))
    p = wedge_vectors(v, w, basis)
    norms = np.linalg.norm(p, axis=1)
    keep = norms > 1e-8
    p = p[keep] / norms[keep, None]
    sec = -np.einsum("si,ij,sj->s", p, k, p)
    sign = None
    if crit[0] > 0:
        sign = "positive"
    elif crit[-1] < 0:
        sign = "negative"
    return {
        "sign": sign,
        "critical_values": crit,
        "min_sampled": float(np.min(sec)),
        "max_sampled": float(np.max(sec)),
    }


# ---- n dimensions ----


def _frame_components(rm: CurvatureTensor, frame: np.ndarray | None) -> np.ndarray:
    """The components of ``rm`` (dim >= 3) in the orthonormal ``frame``, or as
    stored when ``frame`` is None."""
    if rm.dim < 3:
        raise DimensionError("critical frames need dim >= 3")
    if frame is None:
        return rm.components
    frame = np.asarray(frame, dtype=float)
    if np.max(np.abs(frame.T @ frame - np.eye(rm.dim))) > 1e-8:
        raise DegenerateMetricError("frame must be orthonormal")
    return transform_frame(rm, frame)


def critical_frame_check_n(rm: CurvatureTensor, frame: np.ndarray | None = None, tol: float = 1e-9):
    """Check the component conditions making every coordinate plane critical.

    In an orthonormal frame the planes ``e_i ^ e_j`` are all critical for the
    sectional-curvature functional iff ``R_ijkj = R_ijik = 0`` for all
    ``i < j`` and ``k`` distinct from both.  Returns ``(ok, violations)``
    where violations are ``((i, j, k, l), value)`` with 1-based indices, in
    the order of ``(i, j, k)`` and, for each, ``R_ijkj`` before ``R_ijik``.
    """
    r = _frame_components(rm, frame)
    scale = max(float(np.max(np.abs(r))), 1e-300)
    # t = 0 reads R_ijkj, t = 1 reads R_ijik
    i, j, k, t = np.indices((rm.dim,) * 3 + (2,))
    a, b = np.where(t == 0, k, i), np.where(t == 0, j, k)
    values = r[i, j, a, b]
    bad = (i < j) & (k != i) & (k != j) & (np.abs(values) > tol * scale)
    quads = np.stack([i, j, a, b], axis=-1)[bad] + 1
    violations = [(tuple(q), v) for q, v in zip(quads.tolist(), values[bad].tolist())]
    return len(violations) == 0, violations


def ricci_from_critical_frame(rm: CurvatureTensor, frame: np.ndarray | None = None, tol: float = 1e-9) -> RicciReport:
    """Ricci tensor of a critical orthonormal frame, with diagnostics.

    The frame diagonalizes Ricci: entry ``(k, k)`` is minus the sum of the
    quadratic forms of the planes through ``e_k``, and every off-diagonal
    contraction term vanishes individually (reported for inspection).
    """
    r = _frame_components(rm, frame)
    ok, violations = critical_frame_check_n(CurvatureTensor(dim=rm.dim, components=r), tol=tol)
    if not ok:
        raise FrameReconstructionError(
            f"frame is not critical ({len(violations)} component violations)",
            diagnostics={"violations": violations[:10]},
        )
    plane_values = np.einsum("ikik->ki", r).copy()  # R_ikik as [k, i]
    np.fill_diagonal(plane_values, 0.0)
    terms = np.einsum("jabj->jab", r).copy()
    matrix = np.einsum("jabj->ab", r)
    return RicciReport(matrix=matrix, plane_values=plane_values, off_diagonal_terms=terms)

"""Curvature normal forms in dimensions 4, 3 and n.

A 4-dimensional curvature tensor whose operator (realized against a metric
``h``) commutes with the h-Hodge star admits an h-orthonormal frame in which
the only nonzero components are

    R_1212 = R_3434 = l1,   R_1313 = R_4242 = l2,   R_1414 = R_2323 = l3,
    R_3412 = m1,            R_4213 = m2,            R_2314 = m3,

up to index symmetries.  This module tests for the commuting property,
reconstructs such frames, and provides the analogous (always available)
3-dimensional normal form plus the n-dimensional critical-frame machinery.

The first Bianchi identity forces ``m1 + m2 + m3 = 0``; the triple ``(l, m)``
is recovered up to a simultaneous permutation of the three pairs (the
eigenvalues ``l +- m`` of the operator restricted to the self-dual and
anti-self-dual subspaces are the actual invariants).
"""

from dataclasses import dataclass, fields
from itertools import permutations

import numpy as np

from .bivectors import bivector_basis, induced_gram, plane_matrix, plane_span
from .curvature import (
    CurvatureTensor,
    Lambda2Operator,
    check_first_bianchi_4,
    component_matrix,
    curvature_from_frame_components,
    transform_frame,
    validate_curvature,
)
from .exceptions import (
    DegenerateMetricError,
    DimensionError,
    FrameReconstructionError,
    NotCommutingError,
)
from .hodge import HodgeStar

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
    bianchi : ndarray, shape (N,)
        ``R_1234 + R_1342 + R_1423 = tr B_0`` of the input components, the
        one first-Bianchi residual the pair symmetries leave in dimension 4.
    scale : ndarray, shape (N,)
        ``max |R_ijkl|`` of the input components (at least 1e-300).
    gram : ndarray, shape (N, 4, 4)
        The second metric ``g`` in the frame, ``V^T g V`` (``g`` defaults to
        ``h``, giving the identity up to rounding).
    pairing_off : ndarray, shape (N, 6)
        For each pairing of :data:`_PAIRINGS`, the Frobenius norm of the
        off-diagonal part of ``Lambda^2(V^T g V)`` read in the pairing's six
        frame bivectors ``(zeta+_a +- zeta-_pi(a))/sqrt(2)``, over
        ``|V^T g V|_F^2``.  A frame that diagonalizes ``g`` makes that
        matrix diagonal.
    """

    frames: np.ndarray
    k: np.ndarray
    residual: np.ndarray
    norm: np.ndarray
    evp: np.ndarray
    up: np.ndarray
    evm: np.ndarray
    um: np.ndarray
    bianchi: np.ndarray
    scale: np.ndarray
    gram: np.ndarray
    pairing_off: np.ndarray

    def commuting(self, tol: float) -> np.ndarray:
        """Per point: residual <= tol * ||K||_F."""
        return self.residual <= tol * np.maximum(self.norm, 1e-300)

    def check_bianchi(self, tol: float) -> None:
        """Raise :class:`TensorValidationError` if some ``|tr B_0| > tol * scale``."""
        check_first_bianchi_4(self.bianchi, self.scale, tol)

    def g_orthogonal_pairings(self, tol: float) -> np.ndarray:
        """Per point and pairing: whether the pairing's frame can diagonalize ``g``.

        A necessary test, looser than :func:`scaled_normal_form`'s: a frame
        whose ``g`` Gram ``F`` has off-diagonal entries at most ``t max F_ii``
        (``t = max(tol, 1e-9)``) has 30 off-diagonal entries in ``Lambda^2 F``,
        24 of them at most ``(t + t^2) max F_ii^2`` and 6 at most
        ``2 t^2 max F_ii^2``, so their Frobenius norm is at most
        ``5 (t + 2 t^2) |V^T g V|_F^2``; ``1e-5`` more absorbs rounding and
        the frame assembly's own 1e-6 tolerance.
        """
        t = max(tol, 1e-9)
        return self.pairing_off <= 5.0 * t * (1.0 + 2.0 * t) + 1e-5

    def point(self, n: int) -> "Lambda2Blocks":
        """The data of point ``n`` alone (N = 1)."""
        return Lambda2Blocks(*(getattr(self, f.name)[n : n + 1] for f in fields(self)))


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
        """The rescaled triples of the values ``(lambdas, mus)`` for the lengths ``c``."""
        l, c2 = np.asarray(lambdas, dtype=float), c**2
        lt, kt = c2[0] * c2[1:] * l, c2[[2, 1, 1]] * c2[[3, 3, 2]] * l
        return cls(c, lt, kt, float(np.prod(c)) * np.asarray(mus, dtype=float))


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

# self-dual axis a is paired with anti-self-dual axis pairing[a]; the order in
# which the pairings are tried
_PAIRINGS = tuple(permutations(range(3)))


def _in_frame(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """6x6 components ``k`` read in the frame ``v`` (stacks broadcast):
    ``(Lambda^2 v)^T k (Lambda^2 v)``, with the compound from :func:`induced_gram`."""
    wedge = induced_gram(v, _BASIS)
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
        Second metrics, whose Gram ``V^T g V`` and pairing test the blocks
        carry; defaults to ``h``.
    """
    r = np.asarray(components, dtype=float)
    h = np.asarray(h, dtype=float)
    g = h if g is None else np.asarray(g, dtype=float)
    shapes_ok = r.ndim == 5 and r.shape[1:] == (4, 4, 4, 4) and h.shape == (len(r), 4, 4)
    if not shapes_ok or g.shape != h.shape:
        raise DimensionError(
            "lambda2_blocks needs components (N, 4, 4, 4, 4) and metrics (N, 4, 4)"
        )
    v = h_orthonormal_frame(h)
    i, j = _BASIS.pairs0.T
    k0 = r[:, i[:, None], j[:, None], i[None, :], j[None, :]]
    k = _in_frame(k0, v)
    a, b, d = k[:, :3, :3], k[:, :3, 3:], k[:, 3:, 3:]
    bt = np.swapaxes(b, 1, 2)
    residual = np.sqrt(np.sum((b - bt) ** 2, axis=(1, 2)) + np.sum((a - d) ** 2, axis=(1, 2)))
    norm = np.sqrt(np.sum(k**2, axis=(1, 2)))
    half, sym = (a + d) / 2.0, (b + bt) / 2.0
    evp, up = np.linalg.eigh(half + sym)
    evm, um = np.linalg.eigh(half - sym)
    bianchi = np.trace(k0[:, :3, 3:], axis1=1, axis2=2)
    scale = np.maximum(np.max(np.abs(r), axis=(1, 2, 3, 4)), 1e-300)
    gram = np.swapaxes(v, 1, 2) @ g @ v
    return Lambda2Blocks(
        frames=v, k=k, residual=residual, norm=norm,
        evp=evp, up=up, evm=evm, um=um, bianchi=bianchi, scale=scale,
        gram=gram, pairing_off=_pairing_off(up, um, gram),
    )


def _pairing_off(up, um, gram) -> np.ndarray:
    """Off-diagonal Frobenius norm of ``Lambda^2 gram`` read in each pairing's
    six frame bivectors, over ``|gram|_F^2``; shape ``(N, 6)``.

    The bivectors ``P(s)_a = (zeta+_a + s zeta-_pi(a))/sqrt(2)`` are
    orthonormal, so that norm squared is ``|Lambda^2 gram|_F^2`` less the
    squared diagonal ``<P(s)_a, P(s)_a> = (x_a + 2 s y_a,pi(a) + z_pi(a))/2``,
    where ``x``, ``y`` and ``z`` read ``Lambda^2 gram`` in the self-dual and
    anti-self-dual eigenvectors (``x``, ``z`` on the diagonal only).
    """
    c = induced_gram(gram, _BASIS)
    c11, c12, c21, c22 = c[:, :3, :3], c[:, :3, 3:], c[:, 3:, :3], c[:, 3:, 3:]
    # blocks in the bases (b_i + b_{i+3})/sqrt(2) and (b_i - b_{i+3})/sqrt(2)
    x = np.sum(up * (((c11 + c12 + c21 + c22) / 2.0) @ up), axis=1)
    z = np.sum(um * (((c11 - c12 - c21 + c22) / 2.0) @ um), axis=1)
    y = np.swapaxes(up, 1, 2) @ ((c11 - c12 + c21 - c22) / 2.0) @ um
    pi = np.array(_PAIRINGS)
    p, q = x[:, None, :] + z[:, pi], y[:, np.arange(3), pi]  # (N, pairing, a)
    diagonal = np.sum(p**2 + 4.0 * q**2, axis=2) / 2.0
    off = np.sqrt(np.maximum(np.sum(c**2, axis=(1, 2))[:, None] - diagonal, 0.0))
    return off / np.maximum(np.sum(gram**2, axis=(1, 2)), 1e-300)[:, None]


# ---- star-h Einstein test ----


def is_star_h_einstein(rm: CurvatureTensor, h: np.ndarray, tol: float = 1e-9) -> StarEinsteinReport:
    """Test whether the operator of ``rm`` against ``h`` commutes with the h-star.

    Equivalent characterizations, all reported: the commutator with the star
    vanishes; the h-orthonormal block form ``[[A, B], [B^T, D]]`` has
    ``B = B^T`` and ``D = A``; the h-trace of the tensor is proportional
    to ``h``.

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
    TensorValidationError
        If ``rm`` breaks first Bianchi beyond ``tol`` times its largest component.
    """
    if rm.dim != 4:
        raise DimensionError("the star-commuting test is specific to dim 4")
    h = np.asarray(h, dtype=float)
    blocks = lambda2_blocks(rm.components[None], h[None])
    blocks.check_bianchi(tol)
    hinv = np.linalg.inv(h)
    trace = np.einsum("jl,jabl->ab", hinv, rm.components, optimize=True)
    f = float(np.trace(hinv @ trace)) / 4.0
    trace_residual = float(np.max(np.abs(trace - f * h)))
    return StarEinsteinReport(
        is_einstein=bool(blocks.commuting(tol)[0]),
        commutator_residual=float(blocks.residual[0]),
        operator_norm=float(blocks.norm[0]),
        f_fitted=f,
        trace_residual=trace_residual,
        h_trace=trace,
    )


# ---- 4-dimensional normal form ----


def _pair_bivector(up: np.ndarray, um: np.ndarray, sign: float) -> np.ndarray:
    """Bivector (zeta_plus + sign * zeta_minus)/sqrt(2) from 3-vector coords.

    ``up``/``um`` are coordinates in the self-dual / anti-self-dual bases
    ``(b_i + b_{i+3})/sqrt(2)`` and ``(b_i - b_{i+3})/sqrt(2)``.
    """
    return np.concatenate([(up + sign * um) / 2.0, (up - sign * um) / 2.0])


def _vector_in_plane(vec: np.ndarray, xi: np.ndarray, basis) -> bool:
    """Whether ``vec`` lies in the 2-plane of the decomposable unit bivector ``xi``."""
    x = plane_matrix(xi, basis)
    proj = -x @ (x @ vec)  # projector onto the plane, for unit xi
    return bool(np.linalg.norm(proj - vec) <= 1e-6 * max(np.linalg.norm(vec), 1e-300))


def _shared_unit_vector(xi1: np.ndarray, xi2: np.ndarray, basis) -> np.ndarray:
    u1, w1 = plane_span(xi1, basis)
    u2, w2 = plane_span(xi2, basis)
    m = np.stack([u1, w1, -u2, -w2], axis=1)
    _, sv, vt = np.linalg.svd(m)
    if sv[-1] > 1e-6:
        raise FrameReconstructionError(
            "paired eigenplanes do not intersect",
            diagnostics={"singular_values": sv.tolist()},
        )
    coef = vt[-1]
    e = coef[0] * u1 + coef[1] * w1
    n = np.linalg.norm(e)
    if n < 1e-8:
        raise FrameReconstructionError("degenerate plane intersection")
    return e / n


def normal_form_4(
    rm: CurvatureTensor, h: np.ndarray, tol: float = 1e-9, blocks: Lambda2Blocks | None = None
) -> NormalForm4:
    """Reconstruct a normal-form frame for a star-commuting tensor.

    The operator restricted to the self-dual and anti-self-dual subspaces is
    diagonalized; eigenvalues are paired in ascending order, each matched pair
    of eigenvectors sums to a decomposable 2-plane, and the three planes are
    rebuilt into a common frame through their shared vector.  The values are
    read from the component matrix in that frame and verified against the
    normal-form pattern.  ``blocks`` is this point's
    :func:`lambda2_blocks` output (N = 1), when the caller already has it.

    Raises
    ------
    TensorValidationError
        If ``rm`` breaks first Bianchi beyond ``tol`` times its largest component.
    NotCommutingError
        If ``rm`` fails :func:`is_star_h_einstein` at ``tol``.
    FrameReconstructionError
        If pairing or frame assembly fails; carries diagnostics.
    """
    blocks = _split_blocks(rm, h, tol, blocks)
    f = _assemble_frame(blocks, (0, 1, 2))
    return _read_off_normal_form(blocks, f, h, tol)


def _split_blocks(rm, h, tol, blocks=None, g=None) -> Lambda2Blocks:
    """Kernel output (N = 1) of a valid commuting tensor, else the error that stops it."""
    if rm.dim != 4:
        raise DimensionError("the star-commuting test is specific to dim 4")
    if blocks is None:
        g = None if g is None else np.asarray(g, dtype=float)[None]
        blocks = lambda2_blocks(rm.components[None], np.asarray(h, dtype=float)[None], g)
    blocks.check_bianchi(tol)
    if not blocks.commuting(tol)[0]:
        raise NotCommutingError(
            "operator does not commute with the h-star; no normal form",
            residual=float(blocks.residual[0] / max(blocks.norm[0], 1e-300)),
        )
    return blocks


def _assemble_frame(blocks, pairing):
    """Frame from pairing the i-th self-dual with the pairing[i]-th anti-self-dual axis."""
    up, um, evp, evm = blocks.up[0], blocks.um[0], blocks.evp[0], blocks.evm[0]
    p1 = _pair_bivector(up[:, 0], um[:, pairing[0]], 1.0)
    p2 = _pair_bivector(up[:, 1], um[:, pairing[1]], 1.0)
    e1 = _shared_unit_vector(p1, p2, _BASIS)
    e2 = -plane_matrix(p1, _BASIS) @ e1
    e3 = -plane_matrix(p2, _BASIS) @ e1
    e4 = None
    for sign in (1.0, -1.0):
        p3 = _pair_bivector(up[:, 2], um[:, pairing[2]], sign)
        if _vector_in_plane(e1, p3, _BASIS):
            e4 = -plane_matrix(p3, _BASIS) @ e1
            break
    if e4 is None:
        raise FrameReconstructionError(
            "third eigenplane contains the shared vector for neither sign",
            diagnostics={"eigenvalues_plus": evp.tolist(), "eigenvalues_minus": evm.tolist()},
        )

    f = np.stack([e1, e2, e3, e4], axis=1)
    if np.max(np.abs(f.T @ f - np.eye(4))) > 1e-6:
        raise FrameReconstructionError(
            "reconstructed frame is not orthonormal",
            diagnostics={"gram": (f.T @ f).tolist()},
        )
    # orthogonalize away rounding, then apply the sign/orientation conventions
    uq, _, vq = np.linalg.svd(f)
    f = uq @ vq
    first = np.flatnonzero(np.abs(f[:, 0]) > 1e-12)[0]
    if f[first, 0] < 0:
        f[:, 0] = -f[:, 0]
    if np.linalg.det(f) < 0:
        f[:, [2, 3]] = f[:, [3, 2]]
    return f


def orthogonal_normal_form_4(
    rm: CurvatureTensor,
    h: np.ndarray,
    g: np.ndarray,
    tol: float = 1e-9,
    blocks: Lambda2Blocks | None = None,
) -> NormalForm4:
    """Normal form whose frame additionally diagonalizes a second metric.

    The normal-form frame is unique only up to relabeling and up to the
    pairing between self-dual and anti-self-dual eigendirections; whether the
    frame diagonalizes ``g`` depends on that pairing.  The six pairings are
    taken in a fixed order (complete whenever the block spectra are simple;
    degenerate blocks are covered when they are diagonal in the original
    coordinates) and the first g-orthogonal frame is returned with its
    rescaled values attached.  A pairing whose frame bivectors do not
    diagonalize ``Lambda^2 g`` (:meth:`Lambda2Blocks.g_orthogonal_pairings`)
    cannot give one and is skipped before its frame is assembled.
    ``blocks`` is this point's :func:`lambda2_blocks` output for ``h`` and
    ``g`` (N = 1), when the caller already has it.

    Raises
    ------
    TensorValidationError
        If ``rm`` breaks first Bianchi beyond ``tol`` times its largest component.
    NotCommutingError
        If ``rm`` fails :func:`is_star_h_einstein` at ``tol``.
    FrameReconstructionError
        If no pairing yields a g-orthogonal frame.
    """
    blocks = _split_blocks(rm, h, tol, blocks, g)
    for pairing, candidate in zip(_PAIRINGS, blocks.g_orthogonal_pairings(tol)[0]):
        if not candidate:
            continue
        try:
            f = _assemble_frame(blocks, pairing)
        except FrameReconstructionError:
            continue
        nf = _read_off_normal_form(blocks, f, h, tol)
        try:
            return scaled_normal_form(nf, g, tol)
        except DegenerateMetricError:
            continue
    evp, evm = blocks.evp[0], blocks.evm[0]
    raise FrameReconstructionError(
        "no pairing of the block eigendirections yields a g-orthogonal frame",
        diagnostics={"eigenvalues_plus": evp.tolist(), "eigenvalues_minus": evm.tolist()},
    )


def preferred_normal_form_4(
    rm: CurvatureTensor,
    h: np.ndarray,
    g: np.ndarray,
    tol: float = 1e-9,
    blocks: Lambda2Blocks | None = None,
) -> NormalForm4:
    """The g-orthogonal normal form when a pairing gives one, else :func:`normal_form_4`'s.

    Only the g-orthogonal form carries rescaled values.  The kernel runs at
    most once; ``blocks`` is as in :func:`orthogonal_normal_form_4`, and the
    errors are those of :func:`normal_form_4`.
    """
    blocks = _split_blocks(rm, h, tol, blocks, g)
    try:
        return orthogonal_normal_form_4(rm, h, g, tol, blocks=blocks)
    except FrameReconstructionError:
        return normal_form_4(rm, h, tol, blocks=blocks)


def _read_off_normal_form(blocks, f, h, tol) -> NormalForm4:
    """Read (l, m) from the component matrix in the frame ``f`` (given in the
    h-orthonormal frame of ``blocks``), canonicalize the pair order, and check
    the normal-form block pattern."""
    k = blocks.k[0]
    kf = _in_frame(k, f)
    order = sorted(range(3), key=lambda i: (kf[i, i], kf[i + 3, i]))
    if order != [0, 1, 2]:
        perm = np.eye(4)[:, [0] + [i + 1 for i in order]]
        if np.linalg.det(perm) < 0:
            perm[:, 3] = -perm[:, 3]
        f = f @ perm
        kf = _in_frame(k, f)
    lambdas, mus = np.diag(kf)[:3].copy(), np.diag(kf[3:, :3]).copy()

    pattern_residual = np.max(np.abs(_block_pattern(lambdas, mus) - kf))
    if pattern_residual > max(tol, 1e-8) * blocks.scale[0]:
        raise FrameReconstructionError(
            "components in the reconstructed frame do not match the normal-form "
            f"pattern (residual {pattern_residual:.3e})",
            diagnostics={"lambdas": lambdas.tolist(), "mus": mus.tolist()},
        )
    return NormalForm4(
        frame=blocks.frames[0] @ f, lambdas=lambdas, mus=mus, h=np.asarray(h, dtype=float)
    )


def _block_pattern(lambdas, mus) -> np.ndarray:
    """Component matrix ``[[diag l, diag m], [diag m, diag l]]`` of the normal form."""
    l, m = np.diag(lambdas), np.diag(mus)
    return np.block([[l, m], [m, l]])


def rebuild_normal_form(nf: NormalForm4) -> CurvatureTensor:
    """Curvature tensor (in input coordinates) defined by a normal form."""
    k, pairs = _block_pattern(nf.lambdas, nf.mus), _BASIS.pairs
    rows = [[*p, *q, k[a, b]] for a, p in enumerate(pairs) for b, q in enumerate(pairs)]
    # completion only: curvature_from_frame_components validates the result
    return curvature_from_frame_components(validate_curvature(rows, 4, np.inf).components, nf.frame)


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
    g = np.asarray(g, dtype=float)
    gf = nf.frame.T @ g @ nf.frame
    diag = np.diag(gf)
    if np.any(diag <= 0):
        raise DegenerateMetricError("frame vectors must have positive g-length")
    off = np.max(np.abs(gf - np.diag(diag)))
    if off > max(tol, 1e-9) * np.max(diag):
        raise DegenerateMetricError(
            f"normal-form frame is not g-orthogonal (off-diagonal {off:.3e})"
        )
    scaled = ScaledNormalForm.rescale(1.0 / np.sqrt(diag), nf.lambdas, nf.mus)
    return NormalForm4(frame=nf.frame, lambdas=nf.lambdas, mus=nf.mus, h=nf.h, scaled=scaled)


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

    Every 3-dimensional curvature operator is symmetric on Lambda^2 and its
    eigenplanes share vectors pairwise; the frame is rebuilt from them.  The
    critical planes of the quadratic form are exactly the eigenplanes.
    """
    if rm.dim != 3:
        raise DimensionError("normal_form_3 needs a 3-dimensional tensor")
    basis = bivector_basis(3)
    k = component_matrix(rm, basis)
    vals, vecs = np.linalg.eigh(k)

    # dual (axis) vectors of the eigenplanes: plane of (c12, c13, c23) is the
    # orthogonal complement of (c23, -c13, c12)
    def axis(c):
        return np.array([c[2], -c[1], c[0]])

    n1, n2 = axis(vecs[:, 0]), axis(vecs[:, 1])
    e1 = np.cross(n1, n2)
    norm = np.linalg.norm(e1)
    if norm < 1e-10:
        raise FrameReconstructionError("eigenplanes are parallel; degenerate input")
    e1 = e1 / norm
    e2 = -plane_matrix(vecs[:, 0], basis) @ e1
    e3 = -plane_matrix(vecs[:, 1], basis) @ e1
    f = np.stack([e1, e2, e3], axis=1)
    uq, _, vq = np.linalg.svd(f)
    f = uq @ vq
    first = np.flatnonzero(np.abs(f[:, 0]) > 1e-12)[0]
    if f[first, 0] < 0:
        f[:, 0] = -f[:, 0]
    if np.linalg.det(f) < 0:
        f[:, 2] = -f[:, 2]

    def in_frame(f):
        return component_matrix(CurvatureTensor(dim=3, components=transform_frame(rm, f)), basis)

    kf = in_frame(f)
    order = np.argsort(np.diag(kf))
    if not np.array_equal(order, [0, 1, 2]):
        # plane q of the new frame, (1,2), (1,3) or (2,3), is the complement of
        # axis 2 - q; it must be old plane order[q], the complement of 2 - order[q]
        f = f[:, 2 - order[::-1]]
        if np.linalg.det(f) < 0:
            f[:, 2] = -f[:, 2]
        kf = in_frame(f)
    diag = np.diag(kf).copy()
    resid = np.max(np.abs(kf - np.diag(diag)))
    if resid > max(tol, 1e-8) * max(rm.scale, 1e-300):
        raise FrameReconstructionError(
            f"3-dimensional normal form residual {resid:.3e}",
            diagnostics={"diag": diag.tolist()},
        )
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
    crit = np.sort(crit)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(samples, 3))
    w = rng.normal(size=(samples, 3))
    p = np.stack(
        [v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0],
         v[:, 0] * w[:, 2] - v[:, 2] * w[:, 0],
         v[:, 1] * w[:, 2] - v[:, 2] * w[:, 1]],
        axis=1,
    )
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


def critical_frame_check_n(rm: CurvatureTensor, frame: np.ndarray | None = None, tol: float = 1e-9):
    """Check the component conditions making every coordinate plane critical.

    In an orthonormal frame the planes ``e_i ^ e_j`` are all critical for the
    sectional-curvature functional iff ``R_ijkj = R_ijik = 0`` for all
    ``i < j`` and ``k`` distinct from both.  Returns ``(ok, violations)``
    where violations are ``((i, j, k, l), value)`` with 1-based indices.
    """
    if rm.dim < 3:
        raise DimensionError("critical frames need dim >= 3")
    if frame is not None:
        frame = np.asarray(frame, dtype=float)
        if np.max(np.abs(frame.T @ frame - np.eye(rm.dim))) > 1e-8:
            raise DegenerateMetricError("frame must be orthonormal")
    r = rm.components if frame is None else transform_frame(rm, frame)
    n = rm.dim
    scale = max(float(np.max(np.abs(r))), 1e-300)
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k in (i, j):
                    continue
                v1 = r[i, j, k, j]
                if abs(v1) > tol * scale:
                    violations.append(((i + 1, j + 1, k + 1, j + 1), float(v1)))
                v2 = r[i, j, i, k]
                if abs(v2) > tol * scale:
                    violations.append(((i + 1, j + 1, i + 1, k + 1), float(v2)))
    return len(violations) == 0, violations


def ricci_from_critical_frame(rm: CurvatureTensor, frame: np.ndarray | None = None, tol: float = 1e-9) -> RicciReport:
    """Ricci tensor of a critical orthonormal frame, with diagnostics.

    The frame diagonalizes Ricci: entry ``(k, k)`` is minus the sum of the
    quadratic forms of the planes through ``e_k``, and every off-diagonal
    contraction term vanishes individually (reported for inspection).
    """
    ok, violations = critical_frame_check_n(rm, frame, tol=tol)
    if not ok:
        raise FrameReconstructionError(
            f"frame is not critical ({len(violations)} component violations)",
            diagnostics={"violations": violations[:10]},
        )
    r = rm.components if frame is None else transform_frame(rm, np.asarray(frame, dtype=float))
    n = rm.dim
    plane_values = np.einsum("ikik->ki", r).copy()  # R_ikik as [k, i]
    np.fill_diagonal(plane_values, 0.0)
    terms = np.einsum("jabj->jab", r).copy()
    matrix = np.einsum("jabj->ab", r)
    return RicciReport(matrix=matrix, plane_values=plane_values, off_diagonal_terms=terms)

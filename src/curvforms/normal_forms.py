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

from dataclasses import dataclass, fields, replace
from itertools import permutations

import numpy as np

from .bivectors import bivector_basis, induced_gram, plane_matrix
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
    pairings : ndarray, shape (N, 6, 4, 4), optional
        Frames of :func:`_pairing_frames`; only :meth:`with_pairing_frames` sets them.
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
    pairings: np.ndarray | None = None

    def commuting(self, tol: float) -> np.ndarray:
        """Per point: residual <= tol * ||K||_F."""
        return self.residual <= tol * np.maximum(self.norm, 1e-300)

    def check_bianchi(self, tol: float) -> None:
        """Raise :class:`TensorValidationError` if some ``|tr B_0| > tol * scale``."""
        check_first_bianchi_4(self.bianchi, self.scale, tol)

    def with_pairing_frames(self, where) -> "Lambda2Blocks":
        """These blocks with :attr:`pairings` at the points of the mask ``where``, NaN elsewhere."""
        pairings = np.full((len(self.k), len(_PAIRINGS), 4, 4), np.nan)
        pairings[where] = _pairing_frames(self.up[where], self.um[where])
        return replace(self, pairings=pairings)

    def point(self, n: int) -> "Lambda2Blocks":
        """The data of point ``n`` alone (N = 1)."""
        values = (getattr(self, f.name) for f in fields(self))
        return Lambda2Blocks(*(None if v is None else v[n : n + 1] for v in values))


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
        evp=evp, up=up, evm=evm, um=um, bianchi=bianchi, scale=scale, gram=gram,
    )


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


def _stacked(rows) -> np.ndarray:
    """Nested rows of equally shaped arrays as a stack of matrices."""
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def _quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternions ``q = (a, b, c, d)`` of stacked rotations ``r``: the top
    eigenvector of ``4 q q^T - I``, a matrix linear in ``r`` (Bar-Itzhack 2000)."""
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = np.moveaxis(r, (-2, -1), (0, 1))
    return np.linalg.eigh(_stacked([
        [r11 + r22 + r33, r32 - r23, r13 - r31, r21 - r12],
        [r32 - r23, r11 - r22 - r33, r12 + r21, r13 + r31],
        [r13 - r31, r12 + r21, r22 - r11 - r33, r23 + r32],
        [r21 - r12, r13 + r31, r23 + r32, r33 - r11 - r22],
    ]))[1][..., -1]


def _proper(r: np.ndarray) -> np.ndarray:
    """Stacked orthogonal matrices with the third column negated where ``det r < 0``."""
    third = np.arange(r.shape[-1]) == 2
    return np.where((np.linalg.det(r) < 0)[..., None, None] & third, -r, r)


def _first_positive(f: np.ndarray) -> np.ndarray:
    """Stacked frames negated where e_1's first entry beyond 1e-12 is < 0 (same Lambda^2 f)."""
    e1 = f[..., :, 0]
    first = np.take_along_axis(e1, np.argmax(np.abs(e1) > 1e-12, axis=-1)[..., None], axis=-1)
    return np.where(first[..., None] < 0, -f, f)


def _pairing_frames(up: np.ndarray, um: np.ndarray) -> np.ndarray:
    """Frames in ``V`` of the pairings :data:`_PAIRINGS`, shape (N, 6, 4, 4),
    from the block eigenvectors ``up`` and ``um``, shape (N, 3, 3).

    A pairing's frame rotates the self-dual bivectors by ``R_+ = up`` and the
    anti-self-dual ones by ``R_- = um[:, pairing]``, each made proper.  With
    :func:`bivector_basis`'s order, left multiplication by the quaternion
    ``p`` of ``R_+`` acts as ``R_+`` on the self-dual half only and right
    multiplication by ``q`` of ``R_-`` as ``R_-^T`` on the anti-self-dual
    half only (SO(4) = (SU(2) x SU(2))/+-1), so the frame is ``L(p) R(q)^T``.
    """
    a, b, c, d = np.moveaxis(_quaternion(_proper(up)), -1, 0)
    left = _stacked([[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]])
    paired = np.moveaxis(um[:, :, np.array(_PAIRINGS)], 2, 1)  # (N, pairing, 3, 3)
    a, b, c, d = np.moveaxis(_quaternion(_proper(paired)), -1, 0)
    right = _stacked([[a, -b, -c, -d], [b, a, d, -c], [c, -d, a, b], [d, c, -b, a]])
    return _first_positive(left[:, None] @ np.swapaxes(right, -1, -2))


def normal_form_4(
    rm: CurvatureTensor, h: np.ndarray, tol: float = 1e-9, blocks: Lambda2Blocks | None = None
) -> NormalForm4:
    """Reconstruct a normal-form frame for a star-commuting tensor.

    The self-dual and anti-self-dual blocks are diagonalized and their
    eigenvalues paired in ascending order; the frame that carries the two
    bases of bivectors to the paired eigenvectors comes in closed form
    (:func:`_pairing_frames`).  The values are read from the component matrix
    in that frame and checked against the normal-form pattern.  ``blocks`` is
    this point's :func:`lambda2_blocks` output (N = 1), if at hand.

    Raises
    ------
    TensorValidationError
        If ``rm`` breaks first Bianchi beyond ``tol`` times its largest component.
    NotCommutingError
        If ``rm`` fails :func:`is_star_h_einstein` at ``tol``.
    FrameReconstructionError
        If the components in the frame miss the pattern; carries diagnostics.
    """
    blocks = _split_blocks(rm, h, tol, blocks)
    return _read_off_normal_form(blocks, blocks.pairings[0, 0], h, tol)


def _split_blocks(rm, h, tol, blocks=None, g=None) -> Lambda2Blocks:
    """Kernel output and pairing frames (N = 1) of a valid commuting tensor, else its error."""
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
    return blocks if blocks.pairings is not None else blocks.with_pairing_frames([True])


def orthogonal_normal_form_4(
    rm: CurvatureTensor,
    h: np.ndarray,
    g: np.ndarray,
    tol: float = 1e-9,
    blocks: Lambda2Blocks | None = None,
) -> NormalForm4:
    """Normal form whose frame additionally diagonalizes a second metric.

    The normal-form frame is unique only up to relabeling and up to the
    pairing between self-dual and anti-self-dual eigendirections.  The first
    of the six pairing frames, in a fixed order, that passes
    :func:`scaled_normal_form`'s check is returned with its rescaled values.
    If none does (degenerate block spectra leave the eigenvectors free), an
    eigenframe of ``g`` is tried, and the pattern check decides.  It is, up
    to order and signs, the only frame diagonalizing ``g`` if the eigenvalues
    are simple; else it serves space forms, not every block degeneracy.
    ``blocks`` is this point's :func:`lambda2_blocks` output for ``h`` and
    ``g`` (N = 1), if at hand.

    Raises
    ------
    TensorValidationError
        If ``rm`` breaks first Bianchi beyond ``tol`` times its largest component.
    NotCommutingError
        If ``rm`` fails :func:`is_star_h_einstein` at ``tol``.
    FrameReconstructionError
        If no pairing and no eigenframe of ``g`` yields a g-orthogonal frame.
    """
    blocks = _split_blocks(rm, h, tol, blocks, g)
    pairings, gram = blocks.pairings[0], blocks.gram[0]
    _, passing = _off_diagonal(np.swapaxes(pairings, 1, 2) @ gram @ pairings, tol)
    candidates = list(pairings[passing]) or [_first_positive(_proper(np.linalg.eigh(gram)[1]))]
    for f in candidates:
        try:
            return scaled_normal_form(_read_off_normal_form(blocks, f, h, tol), g, tol)
        except (FrameReconstructionError, DegenerateMetricError):
            continue
    evp, evm = blocks.evp[0], blocks.evm[0]
    raise FrameReconstructionError(
        "no pairing of the block eigendirections, nor the eigenframe of g, "
        "yields a g-orthogonal frame",
        diagnostics={"eigenvalues_plus": evp.tolist(), "eigenvalues_minus": evm.tolist()},
    )


def preferred_normal_form_4(
    rm: CurvatureTensor,
    h: np.ndarray,
    g: np.ndarray,
    tol: float = 1e-9,
    blocks: Lambda2Blocks | None = None,
) -> NormalForm4:
    """The g-orthogonal normal form when a frame gives one, else :func:`normal_form_4`'s.

    Only the g-orthogonal form carries rescaled values.  The kernel and the
    pairing frames run at most once; ``blocks`` is as in
    :func:`orthogonal_normal_form_4`, and the errors are those of
    :func:`normal_form_4`.
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
    off, passing = _off_diagonal(gf, tol)
    if not passing:
        raise DegenerateMetricError(
            f"normal-form frame is not g-orthogonal (off-diagonal {off:.3e})"
        )
    scaled = ScaledNormalForm.rescale(1.0 / np.sqrt(diag), nf.lambdas, nf.mus)
    return NormalForm4(frame=nf.frame, lambdas=nf.lambdas, mus=nf.mus, h=nf.h, scaled=scaled)


def _off_diagonal(gf: np.ndarray, tol: float):
    """Largest off-diagonal |gf_ij| of stacked Grams; whether it is <= max(tol, 1e-9) max gf_ii."""
    diag = np.diagonal(gf, axis1=-2, axis2=-1)
    off = np.max(np.abs(gf - diag[..., None] * np.eye(gf.shape[-1])), axis=(-2, -1))
    return off, off <= max(tol, 1e-9) * np.max(diag, axis=-1)


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

    kf = _in_frame(k, f, basis)
    order = np.argsort(np.diag(kf))
    if not np.array_equal(order, [0, 1, 2]):
        # plane q of the new frame, (1,2), (1,3) or (2,3), is the complement of
        # axis 2 - q; it must be old plane order[q], the complement of 2 - order[q]
        f = f[:, 2 - order[::-1]]
        if np.linalg.det(f) < 0:
            f[:, 2] = -f[:, 2]
        kf = _in_frame(k, f, basis)
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

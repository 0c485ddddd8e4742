"""Algebraic curvature tensors and their realizations as operators on Lambda^2.

Components follow the convention in which the quadratic form
``<R_hat(v^w), v^w>`` on unit decomposable bivectors is minus the classical
sectional curvature; a round sphere of curvature ``kappa`` has
``R_1212 = -kappa`` and operator ``-kappa I``.

A curvature tensor can be realized against the metric that produced it, a
second metric sharing Levi-Civita connection, or a Lorentzian metric, simply
by changing the Gram matrix used to raise the last index pair.
"""

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .bivectors import BivectorBasis, bivector_basis, induced_gram, is_decomposable
from .exceptions import (
    DegenerateMetricError,
    DimensionError,
    LightlikePlaneError,
    TensorValidationError,
    _alone,
)
from .hodge import _scales, _signature_of, hodge_star

__all__ = [
    "CurvatureTensor",
    "Lambda2Operator",
    "validate_curvature",
    "space_form",
    "operator_from",
    "component_matrix",
    "quadratic_form",
    "weyl_operator",
    "scalar_curvature",
    "ricci_contraction",
    "transform_frame",
    "curvature_from_frame_components",
]


@dataclass(frozen=True)
class CurvatureTensor:
    """Validated algebraic curvature tensor.

    Attributes
    ----------
    dim : int
        Ambient dimension (>= 3).
    components : ndarray, shape (dim,) * 4
        Dense component table ``R[i, j, k, l]`` (0-based indices).
    """

    dim: int
    components: np.ndarray

    def __post_init__(self):
        self.components.setflags(write=False)

    def component(self, i, j, k, l) -> float:
        """Component with 1-based indices, matching written formulas."""
        return float(self.components[i - 1, j - 1, k - 1, l - 1])

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.components)))

    def to_sparse(self):
        """Nonzero canonical representatives as ``[i, j, k, l, value]`` (1-based).

        Canonical means ``i < j``, ``k < l`` and ``(i, j) <= (k, l)``
        lexicographically; rows come in that order.
        """
        index, rows = _canonical_positions(self.dim)
        values = np.asarray(self.components[index], dtype=float)
        kept = np.flatnonzero(values != 0.0)
        return [[*rows[p], v] for p, v in zip(kept.tolist(), values[kept].tolist())]


@cache
def _canonical_positions(dim: int):
    """The canonical component positions of dimension ``dim``, in order: as an index
    tuple of four arrays (0-based) and as rows ``(i, j, k, l)`` (1-based); built once."""
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rows = [(i + 1, j + 1, k + 1, l + 1) for a, (i, j) in enumerate(pairs) for k, l in pairs[a:]]
    return tuple(np.array(rows, dtype=int).reshape(-1, 4).T - 1), rows


@dataclass(frozen=True)
class Lambda2Operator:
    """Curvature operator on Lambda^2 realized against a chosen metric.

    ``gram @ matrix`` is symmetric (the operator is gram-self-adjoint).
    """

    matrix: np.ndarray
    gram: np.ndarray
    kind: str
    basis: BivectorBasis

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.gram.setflags(write=False)


# ---- validation ----


# sparse rows: a repeated-index row may differ from zero, and duplicate rows
# from each other, by this times max(largest |value|, 1)
_SPARSE_SLACK = 1e-12


@cache
def _pair_tables(dim: int) -> tuple:
    """The pair layout of dimension ``dim``: the basis position and orientation
    sign of every ordered index pair (0-based), so that ``R_ijkl = sign[i, j]
    sign[k, l] K_0[position[i, j], position[k, l]]`` for the pair matrix ``K_0``
    over :func:`bivector_basis`; the sign is 0 where the indices repeat.  Below
    dimension 3 (no basis) the pairs are lexicographic, so rows can be checked."""
    pairs = bivector_basis(dim).pairs0 if dim >= 3 else np.argwhere(np.triu(np.ones((dim, dim)), 1))
    (i, j), position, sign = pairs.T, np.zeros((dim, dim), dtype=int), np.zeros((dim, dim))
    position[i, j] = position[j, i] = np.arange(len(pairs))
    sign[i, j], sign[j, i] = 1.0, -1.0
    position.flags.writeable = sign.flags.writeable = False  # shared by every caller
    return position, sign


@cache
def _bianchi_tables(dim: int) -> tuple:
    """The first-Bianchi layout of dimension ``dim``: every sorted quadruple
    ``i < j < k < l`` (Q, 4), 1-based, and the flat positions in ``K_0`` and
    signs (3, Q) of its terms ``R_ijkl``, ``R_iklj``, ``R_iljk`` (:func:`_pair_tables`).
    Dimension 4 has one quadruple, whose terms are the diagonal of ``K_0[:3, 3:]``."""
    (position, sign), m = _pair_tables(dim), dim * (dim - 1) // 2
    quads = np.array(list(combinations(range(dim), 4)), dtype=int).reshape(-1, 4)
    a, b, c, d = quads.T[[[0, 0, 0], [1, 2, 3], [2, 3, 1], [3, 1, 2]]]
    quads, flat, signs = quads + 1, position[a, b] * m + position[c, d], sign[a, b] * sign[c, d]
    quads.flags.writeable = flat.flags.writeable = signs.flags.writeable = False  # shared by every caller
    return quads, flat, signs


def _pair_matrix(components: np.ndarray, basis: BivectorBasis | None = None) -> np.ndarray:
    """Pair matrices ``K_0[a, b] = R_{p_a p_b}`` over the pairs ``p`` of ``basis``
    (default :func:`bivector_basis`) of components (..., n, n, n, n)."""
    if basis is None:
        basis = bivector_basis(components.shape[-1])
    i, j = basis.pairs0.T
    return components[..., i[:, None], j[:, None], i, j]


def _scatter_rows(rows: np.ndarray, counts: list, n: int, dim: int) -> tuple:
    """Pair matrices (n, m, m) of ``n`` tensors of dimension ``dim`` from their
    ``[i, j, k, l, value]`` rows (1-based indices), ``counts[p]`` rows for tensor
    ``p`` in order, and the mask of the entries that the rows give.

    A row needs its indices in ``1..dim``; a row with a repeated index must be
    zero and duplicate rows must agree, both to ``_SPARSE_SLACK`` times the
    tensor's largest ``|value|`` (at least 1); of agreeing duplicates the last
    counts.  The first row that breaks a rule raises its
    :class:`TensorValidationError`.
    """
    position, sign = (table.ravel() for table in _pair_tables(dim))
    m = dim * (dim - 1) // 2
    point, index, value = np.repeat(np.arange(n), counts), rows[:, :4], rows[:, 4]
    in_range = np.ones(len(rows), dtype=bool)
    if not (index.min(initial=1.0) >= 1 and index.max(initial=1.0) < dim + 1):  # NaN included
        in_range = np.all((index >= 1) & (index < dim + 1), axis=1)
        index = np.where(in_range[:, None], index, 1)
    i, j, k, l = index.T.astype(int) - 1
    scale = np.zeros(n)
    np.fmax.at(scale, point, np.abs(value))
    slack = _SPARSE_SLACK * np.maximum(scale, 1.0)[point]
    repeated = in_range & ((i == j) | (k == l))

    kept = np.flatnonzero(in_range & ~repeated)
    first, second = i[kept] * dim + j[kept], k[kept] * dim + l[kept]
    a, b = position[first], position[second]
    # duplicates share a key; a stable sort keeps them in row order
    key = (point[kept] * m + np.minimum(a, b)) * m + np.maximum(a, b)
    order = np.argsort(key, kind="stable")
    kept, key, a, b = kept[order], key[order], a[order], b[order]
    v = (sign[first] * sign[second])[order] * value[kept]
    same = key[1:] == key[:-1]
    gap = np.abs(v[:-1] - v[1:])
    disagree = same & (gap > slack[kept[1:]])
    nonzero = repeated & (np.abs(value) > slack)
    if not in_range.all() or nonzero.any() or disagree.any():
        first = min(np.flatnonzero(~in_range | nonzero).tolist() + kept[1:][disagree].tolist())
        indices, residual = tuple(int(x) for x in rows[first, :4]), abs(float(value[first]))
        if not in_range[first]:
            raise TensorValidationError("index range", indices, residual)
        if nonzero[first]:
            raise TensorValidationError("antisymmetry (repeated index)", indices, residual)
        ij, kl = sorted(indices[:2]), sorted(indices[2:])
        residual = float(gap[np.flatnonzero(kept[1:] == first)[0]])
        raise TensorValidationError("duplicate entries disagree", tuple(min(ij, kl) + max(ij, kl)), residual)

    last = np.ones(len(kept), dtype=bool)
    last[:-1] = ~same
    # flat positions of K_0[p, a, b] and K_0[p, b, a]
    at, a, b = point[kept[last]] * m * m, a[last], b[last]
    k0, listed = np.zeros(n * m * m), np.zeros(n * m * m, dtype=bool)
    k0[at + a * m + b] = k0[at + b * m + a] = v[last]
    listed[at + a * m + b] = listed[at + b * m + a] = True
    return k0.reshape(n, m, m), listed.reshape(n, m, m)


def _dense(k0: np.ndarray, listed: np.ndarray) -> np.ndarray:
    """Dense components (N, n, n, n, n) of pair matrices ``k0`` (N, m, m) of a
    dimension ``n >= 3``, bit for bit the completion of the rows they came from:
    an entry the rows did not give (``listed`` False) is ``+0.0``, and a listed
    zero keeps its sign in every position."""
    position, sign = _pair_tables((1 + math.isqrt(1 + 8 * k0.shape[-1])) // 2)
    a, b = position[:, :, None, None], position[None, None]
    s = sign[:, :, None, None] * sign[None, None]
    given = listed[:, a, b] & (s != 0)
    return np.multiply(s, k0[:, a, b], out=np.zeros(given.shape), where=given)


# the index symmetries as residuals of stacked tensors (N, n, n, n, n), in the order checked
_IDENTITIES = (
    ("antisymmetry in first pair", lambda r: r + np.swapaxes(r, 1, 2)),
    ("antisymmetry in second pair", lambda r: r + np.swapaxes(r, 3, 4)),
    ("pair symmetry", lambda r: r - np.transpose(r, (0, 3, 4, 1, 2))),
)


def _worst(name: str, residual: np.ndarray, bound: np.ndarray, indices) -> list:
    """Per tensor of a stack (N >= 1): a :class:`TensorValidationError` ``name`` at the
    first largest ``|residual|``, its flat position ``p`` read as ``indices(p)``,
    where that exceeds the tensor's ``bound``, else None."""
    flat_residual = np.abs(residual).reshape(len(residual), -1)
    flat = np.argmax(flat_residual, axis=1)
    worst = flat_residual[np.arange(len(flat)), flat]
    return [
        TensorValidationError(name, indices(p), w) if w > b else None
        for p, w, b in zip(flat.tolist(), worst.tolist(), bound.tolist())
    ]


def _first_bianchi_errors(k0: np.ndarray, tol: float) -> list:
    """The one first-Bianchi rule, per pair matrix of a stack ``k0`` (N >= 1, m, m):
    a :class:`TensorValidationError` at the first largest ``|R_ijkl + R_iklj +
    R_iljk|`` (summed in that order; ``tr B_0`` in dimension 4) over the
    quadruples of :func:`_bianchi_tables`, where it exceeds ``tol max |K_0|``,
    else None.  Dimension 3 has no quadruple: its index symmetries imply the identity."""
    quads, flat, signs = _bianchi_tables((1 + math.isqrt(1 + 8 * k0.shape[-1])) // 2)
    if not len(quads):
        return [None] * len(k0)
    terms = signs * k0.reshape(len(k0), -1)[:, flat]
    bianchi = terms[:, 0] + terms[:, 1] + terms[:, 2]
    return _worst("first Bianchi identity", bianchi, tol * _scales(k0), lambda q: tuple(quads[q].tolist()))


def _identity_rules(r: np.ndarray, tol: float) -> list:
    """The rules (``preconditions._first_errors``) of dense tensors ``r`` (N >= 1,
    n, n, n, n), in order, each breaking as a :class:`TensorValidationError`: a
    component that is not finite (every comparison with NaN is False, so no
    identity could fail), then each index symmetry, where its worst residual
    exceeds ``tol`` times the tensor's ``max |R_ijkl|``, then first Bianchi
    (:func:`_first_bianchi_errors`) on the tensors' pair matrices."""

    def indices(p):
        return tuple(int(x) + 1 for x in np.unravel_index(p, r.shape[1:]))

    def finite(at):
        values = r[at]
        values = values.reshape(len(values), -1)
        ok = np.isfinite(values)
        return [
            None if ok[p, f] else TensorValidationError("finite components", indices(f), float(abs(values[p, f])))
            for p, f in enumerate(np.argmin(ok, axis=1).tolist())
        ]

    def identity(name, residual):
        return lambda at: _worst(name, residual(r[at]), tol * _scales(r[at]), indices)

    rules = [finite, *(identity(name, residual) for name, residual in _IDENTITIES)]
    return rules + [lambda at: _first_bianchi_errors(_pair_matrix(r[at]), tol)]


def _check_shape(shape: tuple, dim: int) -> None:
    """Raise :class:`DimensionError` unless ``shape`` is that of a dense tensor of dimension ``dim >= 3``."""
    if shape != (dim,) * 4:
        raise DimensionError(f"expected shape {(dim,) * 4}, got {shape}")
    if dim < 3:
        raise DimensionError("curvature tensors need dim >= 3")


def validate_curvature(components, dim: int | None = None, tol: float = 1e-9) -> CurvatureTensor:
    """Validate (and, for sparse input, complete) a curvature component table.

    Parameters
    ----------
    components : ndarray or iterable
        Either a dense ``(dim,)*4`` array, or sparse rows ``[i, j, k, l, value]``
        with 1-based indices.  Sparse rows are completed by the index
        symmetries through the pair matrix ``K_0`` over :func:`bivector_basis`
        (:func:`_scatter_rows` for one tensor, the completion of the stacked
        file reader): indices must lie in ``1..dim``, a row with a repeated
        index must be zero and duplicate rows must agree, the last of them
        counting.
    dim : int, optional
        Required for sparse input; inferred from dense input.
    tol : float
        Identity tolerance, absolute on the unit-scaled tensor
        (scale = max |R_ijkl|).  With ``inf`` no identity can fail, so none
        is computed: sparse rows are only completed.  Otherwise the rules of
        :func:`_identity_rules` run in order: finite components, the two
        antisymmetries and pair symmetry on the dense tensor, then the one
        first-Bianchi rule (:func:`_first_bianchi_errors`) on its pair
        matrix, over the sorted quadruples ``i < j < k < l``.

    Returns
    -------
    CurvatureTensor

    Raises
    ------
    TensorValidationError
        Reporting the first rejected sparse row, a component that is not
        finite, or the first rule broken at its worst residual, with its
        1-based indices and the absolute residual.
    """
    arr = np.asarray(components, dtype=float)
    if arr.ndim == 4:
        if dim is None:
            dim = arr.shape[0]
        _check_shape(arr.shape, dim)
        r = arr.astype(float)
    elif arr.ndim == 2 and arr.shape[1] == 5 or arr.size == 0:
        if dim is None:
            raise DimensionError("dim is required for sparse component input")
        rows = arr.reshape(-1, 5)
        k0, listed = _scatter_rows(rows, [len(rows)], 1, dim)
        _check_shape((dim,) * 4, dim)
        r = _dense(k0, listed)[0]
    else:
        raise DimensionError(
            "components must be a dense (dim,)*4 array or rows [i, j, k, l, value]"
        )
    if tol == np.inf:
        return CurvatureTensor(dim=dim, components=r)

    for rule in _identity_rules(r[None], tol):
        _alone(rule(slice(None)))
    return CurvatureTensor(dim=dim, components=r)


# ---- constructions ----


def space_form(dim: int, kappa: float) -> CurvatureTensor:
    """Constant-curvature tensor ``R_ijkl = kappa (g_il g_jk - g_ik g_jl)``.

    In an orthonormal frame every 2-plane has classical sectional curvature
    ``kappa`` and quadratic form ``-kappa``; e.g. ``space_form(4, 1)`` has
    ``R_1212 = -1`` and operator ``-I`` on Lambda^2.
    """
    if dim < 3:
        raise DimensionError("space forms need dim >= 3")
    eye = np.eye(dim)
    r = kappa * (
        np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    )
    return CurvatureTensor(dim=dim, components=r)


def transform_frame(rm: CurvatureTensor, frame: np.ndarray) -> np.ndarray:
    """Components of ``rm`` in the frame whose vectors are the columns of ``frame``."""
    f = np.asarray(frame, dtype=float)
    return np.einsum("abcd,ai,bj,ck,dl->ijkl", rm.components, f, f, f, f, optimize=True)


def curvature_from_frame_components(pattern: np.ndarray, frame: np.ndarray) -> CurvatureTensor:
    """Curvature tensor whose components in the given frame equal ``pattern``.

    ``frame`` holds the frame vectors as columns in ambient coordinates; the
    returned tensor is expressed in ambient coordinates and validated.
    """
    finv = np.linalg.inv(np.asarray(frame, dtype=float))
    r = np.einsum("ia,jb,kc,ld,ijkl->abcd", finv, finv, finv, finv, pattern, optimize=True)
    return validate_curvature(r)


# ---- operator realizations ----

_KINDS = ("via_g", "via_h", "via_lorentz")


def component_matrix(rm: CurvatureTensor, basis: BivectorBasis | None = None) -> np.ndarray:
    """Symmetric matrix ``K[a, b] = R(pair_a; pair_b)`` in the canonical basis."""
    return _pair_matrix(rm.components, basis)


def operator_from(rm: CurvatureTensor, metric: np.ndarray, kind: str) -> Lambda2Operator:
    """Realize ``rm`` as the Gram-self-adjoint operator ``M`` on Lambda^2 with
    ``<M(e_i ^ e_j), e_k ^ e_l> = R_ijkl`` for the chosen metric's Gram.

    Parameters
    ----------
    rm : CurvatureTensor
    metric : ndarray
        Metric in the same frame as the components; positive definite for
        ``via_g``/``via_h``, Lorentzian for ``via_lorentz``.
    kind : str
        One of ``"via_g"``, ``"via_h"``, ``"via_lorentz"``.

    Notes
    -----
    In an orthonormal frame the ``via_g`` matrix has the block form
    ``[[A, B], [B^T, D]]``; with the Lorentzian metric of a unit time direction
    ``e1`` the ``via_lorentz`` matrix becomes ``[[-A, -B], [B^T, D]]``.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    g = np.asarray(metric, dtype=float)
    if g.shape != (rm.dim, rm.dim):
        raise DimensionError(f"metric shape {g.shape} does not match dim {rm.dim}")
    signature = _signature_of(g)
    if kind == "via_lorentz" and signature != "lorentzian":
        raise DegenerateMetricError("via_lorentz needs a Lorentzian metric")
    if kind in ("via_g", "via_h") and signature != "riemannian":
        raise DegenerateMetricError(f"{kind} needs a positive-definite metric")
    basis = bivector_basis(rm.dim)
    gram = induced_gram(g, basis)
    k = component_matrix(rm, basis)
    matrix = np.linalg.solve(gram, k)
    return Lambda2Operator(matrix=matrix, gram=gram, kind=kind, basis=basis)


def quadratic_form(op: Lambda2Operator, p: np.ndarray, tol: float = 1e-9) -> float:
    """Normalized quadratic form of the operator on a decomposable bivector.

    For ``via_g``/``via_h`` this is ``<M p, p> / <p, p>`` (minus the classical
    sectional curvature of the plane).  For ``via_lorentz`` the plane must be
    nondegenerate; the value is ``eps <M p, p>`` after normalizing
    ``|<p, p>| = 1``, with ``eps`` the sign of ``<p, p>`` (+1 spacelike,
    -1 timelike).

    Raises
    ------
    LightlikePlaneError
        For ``via_lorentz`` when ``|<p, p>| <= tol * |p|^2``.
    """
    p = np.asarray(p, dtype=float)
    if not is_decomposable(p, op.basis, tol=max(tol, 1e-9)):
        raise LightlikePlaneError("bivector is not decomposable (not a 2-plane)")
    pp = float(p @ op.gram @ p)
    if op.kind == "via_lorentz":
        if abs(pp) <= tol * float(p @ p):
            raise LightlikePlaneError("2-plane is lightlike for the Lorentzian metric")
        eps = 1.0 if pp > 0 else -1.0
        phat = p / np.sqrt(abs(pp))
        return float(eps * (phat @ op.gram @ (op.matrix @ phat)))
    if pp <= 0:
        raise DegenerateMetricError("2-plane has nonpositive Gram length; bad metric?")
    phat = p / np.sqrt(pp)
    return float(phat @ op.gram @ (op.matrix @ phat))


# ---- derived operators and traces ----


def scalar_curvature(rm: CurvatureTensor, g: np.ndarray) -> float:
    """Double trace of ``rm`` against ``g``.

    Equals ``-2 trace(R_hat)`` in an orthonormal frame; ``space_form(4, 1)``
    gives 12, the scalar curvature of the unit round 4-sphere.  ``g`` must be
    finite, symmetric and not numerically singular (``hodge._signature_of``).
    """
    _signature_of(g)
    ginv = np.linalg.inv(np.asarray(g, dtype=float))
    return float(np.einsum("ab,jl,jabl->", ginv, ginv, rm.components, optimize=True))


def ricci_contraction(rm: CurvatureTensor, g: np.ndarray) -> np.ndarray:
    """Ricci tensor ``Ric_ab = g^jl R_jabl`` (classical sign: spheres positive), for a
    ``g`` that :func:`scalar_curvature` accepts."""
    _signature_of(g)
    ginv = np.linalg.inv(np.asarray(g, dtype=float))
    return np.einsum("jl,jabl->ab", ginv, rm.components, optimize=True)


def weyl_operator(rm: CurvatureTensor, g: np.ndarray, tol: float = 1e-9) -> Lambda2Operator:
    """Weyl part ``W_hat = (R_hat + * R_hat *)/2 + (scal/12) I`` on Lambda^2.

    Requires a 4-dimensional orthonormal frame.  Vanishes for constant
    curvature and commutes with the star, hence preserves the self-dual and
    anti-self-dual subspaces.
    """
    if rm.dim != 4:
        raise DimensionError("the Weyl operator on Lambda^2 is specific to dim 4")
    g = np.asarray(g, dtype=float)
    if np.max(np.abs(g - np.eye(4))) > tol:
        raise DegenerateMetricError("weyl_operator expects an orthonormal frame (g = I)")
    op = operator_from(rm, g, "via_g")
    s = hodge_star(g).matrix
    scal = scalar_curvature(rm, g)
    w = 0.5 * (op.matrix + s @ op.matrix @ s) + (scal / 12.0) * np.eye(6)
    return Lambda2Operator(matrix=w, gram=op.gram.copy(), kind="via_g", basis=op.basis)

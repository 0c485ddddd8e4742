"""Algebraic curvature tensors and their realizations as operators on Lambda^2.

Components follow the convention in which the quadratic form
``<R_hat(v^w), v^w>`` on unit decomposable bivectors is minus the classical
sectional curvature; a round sphere of curvature ``kappa`` has
``R_1212 = -kappa`` and operator ``-kappa I``.

A curvature tensor can be realized against the metric that produced it, a
second metric sharing Levi-Civita connection, or a Lorentzian metric, simply
by changing the Gram matrix used to raise the last index pair.
"""

from dataclasses import dataclass

import numpy as np

from .bivectors import BivectorBasis, bivector_basis, induced_gram, is_decomposable
from .exceptions import (
    DegenerateMetricError,
    DimensionError,
    LightlikePlaneError,
    TensorValidationError,
)
from .hodge import hodge_star

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
    "check_first_bianchi_4",
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


_CANONICAL = {}


def _canonical_positions(dim: int):
    """The canonical component positions of dimension ``dim``, in order: as an index
    tuple of four arrays (0-based) and as rows ``(i, j, k, l)`` (1-based); built once."""
    if dim not in _CANONICAL:
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        rows = [(i + 1, j + 1, k + 1, l + 1) for a, (i, j) in enumerate(pairs) for k, l in pairs[a:]]
        _CANONICAL[dim] = tuple(np.array(rows, dtype=int).reshape(-1, 4).T - 1), rows
    return _CANONICAL[dim]


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


def _canonicalize_index(i, j, k, l):
    """Canonical representative and sign of a component index (0-based)."""
    sign = 1
    if i == j or k == l:
        return None, 0
    if i > j:
        i, j, sign = j, i, -sign
    if k > l:
        k, l, sign = l, k, -sign
    if (i, j) > (k, l):
        i, j, k, l = k, l, i, j
    return (i, j, k, l), sign


# sparse rows: a repeated-index row may differ from zero, and duplicate rows
# from each other, by this times max(largest |value|, 1)
_SPARSE_SLACK = 1e-12


def _complete_sparse(entries, dim: int) -> np.ndarray:
    """Dense table from sparse ``[i, j, k, l, value]`` rows (1-based indices).

    Entries are canonicalized first; a nonzero row with a repeated index and
    duplicates that disagree are rejected, both beyond ``_SPARSE_SLACK``.
    """
    canonical = {}
    scale = max((abs(float(e[4])) for e in entries), default=0.0)
    for e in entries:
        i, j, k, l = (int(x) - 1 for x in e[:4])
        v = float(e[4])
        for idx in (i, j, k, l):
            if not 0 <= idx < dim:
                raise TensorValidationError("index range", (i + 1, j + 1, k + 1, l + 1), abs(v))
        key, sign = _canonicalize_index(i, j, k, l)
        if sign == 0:
            if abs(v) > _SPARSE_SLACK * max(scale, 1.0):
                raise TensorValidationError(
                    "antisymmetry (repeated index)", (i + 1, j + 1, k + 1, l + 1), abs(v)
                )
            continue
        v = sign * v
        if key in canonical and abs(canonical[key] - v) > _SPARSE_SLACK * max(scale, 1.0):
            raise TensorValidationError(
                "duplicate entries disagree",
                tuple(x + 1 for x in key),
                abs(canonical[key] - v),
            )
        canonical[key] = v
    r = np.zeros((dim,) * 4)
    for (i, j, k, l), v in canonical.items():
        r[i, j, k, l] = v
        r[j, i, k, l] = -v
        r[i, j, l, k] = -v
        r[j, i, l, k] = v
        r[k, l, i, j] = v
        r[l, k, i, j] = -v
        r[k, l, j, i] = -v
        r[l, k, j, i] = v
    return r


# the four identities as residuals of stacked tensors (N, n, n, n, n), in the order checked
_IDENTITIES = (
    ("antisymmetry in first pair", lambda r: r + np.swapaxes(r, 1, 2)),
    ("antisymmetry in second pair", lambda r: r + np.swapaxes(r, 3, 4)),
    ("pair symmetry", lambda r: r - np.transpose(r, (0, 3, 4, 1, 2))),
    (
        "first Bianchi identity",
        lambda r: r + np.transpose(r, (0, 1, 3, 4, 2)) + np.transpose(r, (0, 1, 4, 2, 3)),
    ),
)


def _worst(residual: np.ndarray):
    """Per tensor of a stack (N >= 1): the flat position of its first largest ``|residual|``, and that value."""
    flat_residual = np.abs(residual).reshape(len(residual), -1)
    flat = np.argmax(flat_residual, axis=1)
    return flat, flat_residual[np.arange(len(flat)), flat]


def _identity_violations(r: np.ndarray, tol: float):
    """The checks of the four identities on dense tensors ``r`` (N >= 1, n, n, n, n), in
    order: per identity the mask of the tensors whose worst residual exceeds ``tol``
    times their ``max |R_ijkl|``, and the :class:`TensorValidationError` of tensor ``p``."""
    threshold = tol * np.maximum(np.max(np.abs(r).reshape(len(r), -1), axis=1), 1e-300)
    for name, residual in _IDENTITIES:
        flat, worst = _worst(residual(r))

        def error(p, name=name, flat=flat, worst=worst):
            indices = np.unravel_index(flat[p], r.shape[1:])
            return TensorValidationError(name, tuple(int(x) + 1 for x in indices), float(worst[p]))

        yield worst > threshold, error


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
        with 1-based indices; sparse rows are completed by the index symmetries.
    dim : int, optional
        Required for sparse input; inferred from dense input.
    tol : float
        Identity tolerance, absolute on the unit-scaled tensor
        (scale = max |R_ijkl|).  With ``inf`` no identity can fail, so none
        is computed: sparse rows are only completed.

    Returns
    -------
    CurvatureTensor

    Raises
    ------
    TensorValidationError
        Reporting the worst-violated identity, its 1-based indices and the
        absolute residual.
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
        r = _complete_sparse(arr.reshape(-1, 5).tolist(), dim)
        _check_shape(r.shape, dim)
    else:
        raise DimensionError(
            "components must be a dense (dim,)*4 array or rows [i, j, k, l, value]"
        )
    if tol == np.inf:
        return CurvatureTensor(dim=dim, components=r)

    for broken, error in _identity_violations(r[None], tol):
        if broken[0]:
            raise error(0)
    return CurvatureTensor(dim=dim, components=r)


def check_first_bianchi_4(residual, scale, tol: float) -> None:
    """Raise :class:`TensorValidationError` at the first ``|residual| > tol * scale``.

    ``residual`` holds ``R_1234 + R_1342 + R_1423`` of 4-dimensional tensors,
    the one first-Bianchi residual their pair symmetries leave, and ``scale``
    their ``max |R_ijkl|`` (both scalars or arrays of one length).
    """
    residual = np.atleast_1d(residual)
    broken = np.flatnonzero(np.abs(residual) > tol * np.asarray(scale))
    if broken.size:
        raise TensorValidationError(
            "first Bianchi identity", (1, 2, 3, 4), float(abs(residual[broken[0]]))
        )


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
    if basis is None:
        basis = bivector_basis(rm.dim)
    p = basis.pairs0
    i, j = p[:, 0], p[:, 1]
    return rm.components[i[:, None], j[:, None], i[None, :], j[None, :]]


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
    vals = np.linalg.eigvalsh(g)
    if np.min(np.abs(vals)) <= np.max(np.abs(vals)) / 1e12:
        raise DegenerateMetricError("metric is numerically singular")
    negatives = int(np.sum(vals < 0))
    if kind == "via_lorentz" and negatives != 1:
        raise DegenerateMetricError("via_lorentz needs a Lorentzian metric")
    if kind in ("via_g", "via_h") and negatives != 0:
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
    gives 12, the scalar curvature of the unit round 4-sphere.
    """
    ginv = np.linalg.inv(np.asarray(g, dtype=float))
    return float(np.einsum("ab,jl,jabl->", ginv, ginv, rm.components, optimize=True))


def ricci_contraction(rm: CurvatureTensor, g: np.ndarray) -> np.ndarray:
    """Ricci tensor ``Ric_ab = g^jl R_jabl`` (classical sign: spheres positive)."""
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

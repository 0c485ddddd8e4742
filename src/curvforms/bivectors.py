"""Bivector spaces Lambda^2(R^n): canonical bases, induced inner products, wedge
pairings, and decomposability tests.

A bivector is represented by its coefficient vector in the canonical ordered
basis of ``Lambda^2``.  In dimension 4 the canonical order is

    e1^e2, e1^e3, e1^e4, e3^e4, e4^e2, e2^e3

(chosen so that the Hodge star of a Riemannian orthonormal frame swaps the
first and last three basis vectors without signs); in every other dimension it
is lexicographic ``i < j``.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .exceptions import DimensionError

__all__ = [
    "BivectorBasis",
    "bivector_basis",
    "induced_gram",
    "wedge_to_volume",
    "wedge_matrix",
    "wedge_vectors",
    "is_decomposable",
    "plane_matrix",
    "plane_span",
]

# canonical pair order for n = 4 (1-based); note the (4, 2) pair
_PAIRS_4 = ((1, 2), (1, 3), (1, 4), (3, 4), (4, 2), (2, 3))


@dataclass(frozen=True)
class BivectorBasis:
    """Ordered basis of Lambda^2(R^n), as 1-based index pairs."""

    dim: int
    pairs: tuple

    def __len__(self):
        return len(self.pairs)

    @property
    def pairs0(self):
        """Pairs with 0-based indices, as a read-only integer array of shape (m, 2)."""
        return _pairs0(self.pairs)


@cache
def _pairs0(pairs: tuple) -> np.ndarray:
    """One shared read-only array per pair tuple (one per dimension in use)."""
    p = np.asarray(pairs, dtype=int) - 1
    p.flags.writeable = False
    return p


def bivector_basis(dim: int) -> BivectorBasis:
    """Canonical ordered basis of Lambda^2(R^dim).

    Parameters
    ----------
    dim : int
        Ambient dimension, at least 3.

    Returns
    -------
    BivectorBasis
        ``dim * (dim - 1) / 2`` ordered index pairs (1-based).
    """
    if dim < 3:
        raise DimensionError(f"bivector basis needs dim >= 3, got {dim}")
    if dim == 4:
        pairs = _PAIRS_4
    else:
        pairs = tuple((i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1))
    return BivectorBasis(dim=dim, pairs=pairs)


def induced_gram(g: np.ndarray, basis: BivectorBasis) -> np.ndarray:
    """Inner product on Lambda^2 induced by the metric ``g``.

    The entry for basis bivectors ``v^w`` and ``x^y`` is
    ``det [[g(v,x), g(v,y)], [g(w,x), g(w,y)]]``.

    Parameters
    ----------
    g : ndarray, shape (..., dim, dim)
        Symmetric nondegenerate metric in the frame underlying ``basis``.
        Any square matrix ``v`` gives its compound ``Lambda^2 v``, whose
        column ``(k, l)`` holds the coefficients of ``v_k ^ v_l``.
    basis : BivectorBasis

    Returns
    -------
    ndarray, shape (..., m, m)
        Symmetric Gram matrix in the canonical order.
    """
    g = np.asarray(g, dtype=float)
    i, j = basis.pairs0[:, :1], basis.pairs0[:, 1:]
    return g[..., i, i.T] * g[..., j, j.T] - g[..., i, j.T] * g[..., j, i.T]


def _perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of distinct integers."""
    sign = 1
    seen = list(perm)
    for a in range(len(seen)):
        for b in range(a + 1, len(seen)):
            if seen[a] > seen[b]:
                sign = -sign
    return sign


def wedge_matrix(basis: BivectorBasis) -> np.ndarray:
    """Matrix of the wedge pairing into Lambda^4, for ``dim == 4`` only.

    Entry ``(a, b)`` is the coefficient of ``e1^e2^e3^e4`` in the wedge of
    basis bivectors ``a`` and ``b``.  The matrix is symmetric.
    """
    if basis.dim != 4:
        raise DimensionError("wedge pairing into a single volume form needs dim == 4")
    m = len(basis)
    w = np.zeros((m, m))
    for a, (i, j) in enumerate(basis.pairs):
        for b, (k, l) in enumerate(basis.pairs):
            idx = (i, j, k, l)
            if len(set(idx)) == 4:
                w[a, b] = _perm_sign(idx)
    return w


def wedge_to_volume(xi: np.ndarray, eta: np.ndarray, basis: BivectorBasis) -> float:
    """Coefficient of ``e1^e2^e3^e4`` in ``xi ^ eta`` (dim 4 only).

    Symmetric in its two arguments since both factors are 2-forms.
    """
    w = wedge_matrix(basis)
    return float(np.asarray(xi, dtype=float) @ w @ np.asarray(eta, dtype=float))


def wedge_vectors(v: np.ndarray, w: np.ndarray, basis: BivectorBasis) -> np.ndarray:
    """Bivector coefficients of ``v ^ w`` in the canonical basis.

    Supports batched input: ``v`` and ``w`` may have shape ``(..., dim)``; the
    result then has shape ``(..., m)``.
    """
    p = basis.pairs0
    i, j = p[:, 0], p[:, 1]
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return v[..., i] * w[..., j] - v[..., j] * w[..., i]


def is_decomposable(xi: np.ndarray, basis: BivectorBasis, tol: float = 1e-9) -> bool:
    """Whether ``xi`` is (numerically) a wedge of two vectors.

    In dimension 3 every bivector is decomposable.  In dimension 4 the test is
    ``|xi ^ xi| <= tol * |xi|^2`` with Euclidean coefficient norms.  In higher
    dimensions the rank of the associated antisymmetric matrix is used.
    """
    xi = np.asarray(xi, dtype=float)
    if basis.dim == 3:
        return True
    if basis.dim == 4:
        self_wedge = abs(wedge_to_volume(xi, xi, basis))
        return self_wedge <= tol * float(xi @ xi)
    sv = np.linalg.svd(plane_matrix(xi, basis), compute_uv=False)
    return sv[2] <= tol * max(sv[0], 1e-300)


def plane_matrix(xi: np.ndarray, basis: BivectorBasis) -> np.ndarray:
    """Antisymmetric dim x dim matrix with the coefficients of ``xi``.

    For a decomposable unit bivector ``u ^ w`` this is ``u w^T - w u^T``.
    """
    xi = np.asarray(xi, dtype=float)
    x = np.zeros((basis.dim, basis.dim))
    for a, (i, j) in enumerate(basis.pairs0):
        x[i, j] += xi[a]
        x[j, i] -= xi[a]
    return x


def plane_span(xi: np.ndarray, basis: BivectorBasis):
    """Spanning pair ``(u, w)`` of the 2-plane of a decomposable bivector.

    ``u`` is a Euclidean unit vector in the plane and ``w = -X u`` for the
    antisymmetric matrix ``X`` of ``xi``, so that ``u ^ w == xi`` up to
    rounding.  For a unit decomposable ``xi`` the pair is orthonormal.
    """
    x = plane_matrix(xi, basis)
    # -x @ x is |xi|^2 times the Euclidean projector onto the plane
    _, vecs = np.linalg.eigh(-x @ x)
    u = vecs[:, -1]
    w = -x @ u
    if np.linalg.norm(w) < 1e-12:
        raise DimensionError("bivector is numerically zero or not decomposable")
    return u, w

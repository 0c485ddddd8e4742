"""Bivector spaces Lambda^2(R^n): canonical bases, induced inner products, wedge
pairings, and decomposability tests.

A bivector is represented by its coefficient vector in the canonical ordered
basis of ``Lambda^2``.  In dimension 4 the canonical order is

    e1^e2, e1^e3, e1^e4, e3^e4, e4^e2, e2^e3

(chosen so that the Hodge star of a Riemannian orthonormal frame swaps the
first and last three basis vectors without signs); in every other dimension it
is lexicographic ``i < j``.  In this order the dimension-4 wedge pairing
``Lambda^2 x Lambda^2 -> Lambda^4`` is the constant ``[[0, I], [I, 0]]``, which
is also the Hodge star of an orthonormal Riemannian frame.
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
]

# canonical pair order for n = 4 (1-based); note the (4, 2) pair
_PAIRS_4 = ((1, 2), (1, 3), (1, 4), (3, 4), (4, 2), (2, 3))

# the wedge pairing into e1^e2^e3^e4 over _PAIRS_4: each pair wedges to +1
# with its complement three places on, and to 0 with every other pair
_WEDGE_4 = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(3))
_WEDGE_4.flags.writeable = False


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


def _bivector(xi, basis: BivectorBasis) -> np.ndarray:
    """``xi`` as a float coefficient vector, which must have one entry per basis pair."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (len(basis),):
        raise DimensionError(f"a bivector in dim {basis.dim} has {len(basis)} coefficients, got shape {xi.shape}")
    return xi


def _check_dim_4(basis: BivectorBasis) -> None:
    if basis.dim != 4:
        raise DimensionError("wedge pairing into a single volume form needs dim == 4")


def wedge_matrix(basis: BivectorBasis) -> np.ndarray:
    """Matrix of the wedge pairing into Lambda^4, for ``dim == 4`` only.

    Entry ``(a, b)`` is the coefficient of ``e1^e2^e3^e4`` in the wedge of
    basis bivectors ``a`` and ``b``.  In the canonical order this is the
    symmetric ``[[0, I], [I, 0]]``, also the Hodge star of an orthonormal
    Riemannian frame; a fresh copy is returned.
    """
    _check_dim_4(basis)
    return _WEDGE_4.copy()


def wedge_to_volume(xi: np.ndarray, eta: np.ndarray, basis: BivectorBasis) -> float:
    """Coefficient of ``e1^e2^e3^e4`` in ``xi ^ eta`` (dim 4 only).

    Symmetric in its two arguments since both factors are 2-forms.
    """
    _check_dim_4(basis)
    return float(_bivector(xi, basis) @ _WEDGE_4 @ _bivector(eta, basis))


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
    xi = _bivector(xi, basis)
    if basis.dim == 3:
        return True
    if basis.dim == 4:
        return abs(wedge_to_volume(xi, xi, basis)) <= tol * float(xi @ xi)
    sv = np.linalg.svd(plane_matrix(xi, basis), compute_uv=False)
    return sv[2] <= tol * max(sv[0], 1e-300)


def plane_matrix(xi: np.ndarray, basis: BivectorBasis) -> np.ndarray:
    """Antisymmetric dim x dim matrix with the coefficients of ``xi``.

    For a decomposable unit bivector ``u ^ w`` this is ``u w^T - w u^T``.
    """
    xi = _bivector(xi, basis)
    i, j = basis.pairs0.T
    x = np.zeros((basis.dim, basis.dim))
    x[i, j] += xi
    x[j, i] -= xi
    return x


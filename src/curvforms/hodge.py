"""Hodge star operators on 2-forms in dimension 4, Riemannian and Lorentzian.

The star of a metric ``g`` is the unique endomorphism ``S`` of Lambda^2 with

    xi ^ (S eta) = <xi, eta>_g  dV_g       for all bivectors xi, eta,

where ``dV_g`` is the g-unit volume element of the oriented frame.  In frame
coefficients this reads ``wedge_to_volume(xi, S eta) = Gram(xi, eta) *
orientation_sign / sqrt(|det g|)``.  Squaring gives ``+I`` for Riemannian
metrics and ``-I`` for Lorentzian ones, which turns the Lorentzian star into a
complex structure on Lambda^2.
"""

from dataclasses import dataclass

import numpy as np

from .bivectors import _WEDGE_4, bivector_basis, induced_gram
from .exceptions import (
    DegenerateMetricError,
    DimensionError,
    NonUnitVectorError,
    NotCommutingError,
    _alone,
    _stacked_or_alone,
)

__all__ = [
    "HodgeStar",
    "SdAsdBasis",
    "hodge_star",
    "lorentz_metric_from_unit",
    "sd_asd_basis",
    "complexify",
]

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class HodgeStar:
    """Hodge star on Lambda^2 together with its inducing data.

    Attributes
    ----------
    matrix : ndarray, shape (6, 6)
        Star in the canonical bivector basis.
    gram : ndarray, shape (6, 6)
        Inner product on Lambda^2 induced by the metric.
    signature : str
        ``"riemannian"`` or ``"lorentzian"``.
    orientation_sign : int
        +1 for the frame orientation as given, -1 for the reversed one.
    """

    matrix: np.ndarray
    gram: np.ndarray
    signature: str
    orientation_sign: int


@dataclass(frozen=True)
class SdAsdBasis:
    """Gram-orthonormal eigenbasis of a Riemannian star, split by eigenvalue.

    ``plus`` and ``minus`` hold the self-dual (+1) and anti-self-dual (-1)
    eigenvectors as rows, three of each.
    """

    plus: np.ndarray
    minus: np.ndarray


def _signature_of(g: np.ndarray) -> str:
    """The signature of a metric ``g`` (n, n) that is finite and symmetric (the
    first two parts of :func:`_metric_errors`, at the library default 1e-9)
    and not numerically singular: ``"riemannian"`` or ``"lorentzian"``."""
    _alone(_metric_errors(np.asarray(g, dtype=float)[None], "g", 1e-9, definite=False))
    vals = np.linalg.eigvalsh(g)
    if np.min(np.abs(vals)) <= np.max(np.abs(vals)) / _COND_LIMIT:
        raise DegenerateMetricError("metric is numerically singular")
    negatives = int(np.sum(vals < 0))
    if negatives == 0:
        return "riemannian"
    if negatives == 1:
        return "lorentzian"
    raise DegenerateMetricError(
        f"unsupported metric signature with {negatives} negative directions"
    )


def hodge_star(g: np.ndarray, orientation_sign: int = 1) -> HodgeStar:
    """Hodge star on Lambda^2(R^4) of a (possibly non-orthonormal) frame metric.

    Parameters
    ----------
    g : ndarray, shape (4, 4)
        Symmetric nondegenerate metric, positive definite or of Lorentzian
        signature (-, +, +, +).
    orientation_sign : int
        +1 if the frame is positively oriented, -1 otherwise; flips the star.

    Returns
    -------
    HodgeStar
        For an orthonormal Riemannian frame the matrix is ``[[0, I], [I, 0]]``
        in the canonical basis; for the orthonormal Lorentzian frame with the
        time direction first it is ``[[0, I], [-I, 0]]``.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (4, 4):
        raise DimensionError(f"hodge_star needs a 4x4 metric, got shape {g.shape}")
    if orientation_sign not in (1, -1):
        raise ValueError("orientation_sign must be +1 or -1")
    signature = _signature_of(g)
    gram = induced_gram(g, bivector_basis(4))
    scale = orientation_sign / np.sqrt(abs(np.linalg.det(g)))
    matrix = scale * np.linalg.solve(_WEDGE_4, gram)
    return HodgeStar(
        matrix=matrix, gram=gram, signature=signature, orientation_sign=orientation_sign
    )


def lorentz_metric_from_unit(g: np.ndarray, t: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Lorentzian metric ``g - 2 (g t)(g t)^T`` from a g-unit timelike-to-be ``t``.

    The result has signature (-, +, +, +), agrees with ``g`` on the
    orthogonal complement of ``t`` and gives ``t`` squared length -1.  ``g``
    (4x4) and then ``t`` (4 components) must pass their rules
    (``preconditions._preconditions``) at ``tol``, or their error is raised.
    """
    from .preconditions import _first_errors, _preconditions  # it imports this module

    rules = _preconditions(tol, g=np.array([g], dtype=float), t=np.array([t], dtype=float), dim=4)
    _alone(_first_errors([None], rules))
    return _deformed(g, t, -2.0, tol)


def _metric_errors(m: np.ndarray, name, tol: float, definite: bool = True) -> list:
    """Per metric of a stack ``m`` (N, n, n): the first rule it breaks, as a
    :class:`DegenerateMetricError` that calls it ``name`` (one name, or one per
    metric), or None.  The one metric rule: finite, symmetric within ``tol max|m|``,
    and, where ``definite``, positive definite by the Cholesky factorisation of
    ``normal_forms.h_orthonormal_frame``; a metric that is not finite is the
    identity for the other two, so it raises no warning."""
    finite = np.isfinite(m).all(axis=(1, 2))
    m = np.where(finite[:, None, None], m, np.eye(m.shape[-1]))
    asymmetric = np.max(np.abs(m - np.swapaxes(m, 1, 2)), axis=(1, 2)) > tol * _scales(m)
    factored = _stacked_or_alone(lambda s: [True] * len(np.linalg.cholesky(s)), m) if definite else [True] * len(m)
    broken = [
        "finite" if not f else "symmetric" if a else None if d is True else "positive definite"
        for f, a, d in zip(finite.tolist(), asymmetric.tolist(), factored)
    ]
    names = np.broadcast_to(name, len(broken)).tolist()
    return [DegenerateMetricError(f"{n} must be {b}") if b else None for n, b in zip(names, broken)]


def _scales(x: np.ndarray) -> np.ndarray:
    """``max |x|`` (at least 1e-300) of each array of a stack ``x`` (N, ...)."""
    return np.maximum(np.max(np.abs(x), axis=tuple(range(1, x.ndim))), 1e-300)


def _unit_errors(g: np.ndarray, t: np.ndarray, tol: float) -> tuple:
    """``g(t, t)`` of stacked metrics ``g`` (N, n, n) and vectors ``t`` (N, n), and each
    point's :class:`NonUnitVectorError`, or None where ``t`` is finite with
    ``|g(t, t) - 1| <= tol``: the one unit rule (a non-finite ``t`` counts as 0, with no warning)."""
    finite = np.isfinite(t).all(axis=1)
    t = np.where(finite[:, None], t, 0.0)
    tt = ((t[:, None] @ g) @ t[:, :, None])[:, 0, 0]
    errors = [
        NonUnitVectorError("T must be finite") if not f
        else None if abs(x - 1.0) <= tol else NonUnitVectorError(f"g(T, T) = {x:.12g}, expected 1")
        for f, x in zip(finite.tolist(), tt.tolist())
    ]
    return tt, errors


def _deformed(g, t, f: float, tol: float) -> np.ndarray:
    """``g + f (g t)(g t)^T`` for a ``t`` that is g-unit within ``tol`` (:func:`_unit_errors`):
    :func:`lorentz_metric_from_unit` at ``f = -2`` and ``curvforms.zoo.deformed_metric``."""
    g, t = np.asarray(g, dtype=float), np.asarray(t, dtype=float)
    _alone(_unit_errors(g[None], t[None], tol)[1])
    gt = g @ t
    return g + f * np.outer(gt, gt)


# the closed-form eigenbasis of the canonical orthonormal-frame star _WEDGE_4
_CANONICAL_PLUS = (np.eye(6) + _WEDGE_4)[:3] / np.sqrt(2.0)
_CANONICAL_MINUS = (np.eye(6) - _WEDGE_4)[:3] / np.sqrt(2.0)


def sd_asd_basis(star: HodgeStar, tol: float = 1e-12) -> SdAsdBasis:
    """Split of Lambda^2 into +/-1 eigenspaces of a Riemannian star.

    For the orthonormal-frame star this returns the six closed-form vectors
    ``(e1^e2 +- e3^e4)/sqrt(2)``, ``(e1^e3 +- e4^e2)/sqrt(2)``,
    ``(e1^e4 +- e2^e3)/sqrt(2)``; otherwise a Gram-orthonormal eigenbasis is
    computed, split by eigenvalue sign.
    """
    if star.signature != "riemannian":
        raise DegenerateMetricError(
            "self-dual/anti-self-dual split needs a Riemannian star (star^2 = +I)"
        )
    if (
        np.max(np.abs(star.matrix - _WEDGE_4)) <= tol
        and np.max(np.abs(star.gram - np.eye(6))) <= tol
    ):
        return SdAsdBasis(plus=_CANONICAL_PLUS.copy(), minus=_CANONICAL_MINUS.copy())
    # star is gram-self-adjoint, so with gram = L L^T the eigenvectors y of the
    # symmetric L^-1 (gram @ star) L^-T give gram-orthonormal ones, L^-T y
    chol = np.linalg.cholesky(star.gram)
    vals, y = np.linalg.eigh(np.linalg.solve(chol, np.linalg.solve(chol, star.gram @ star.matrix).T))
    vecs = np.linalg.solve(chol.T, y)
    order = np.argsort(vals)
    vecs = vecs[:, order]
    vals = vals[order]
    if not (np.all(np.abs(vals[:3] + 1) < 1e-6) and np.all(np.abs(vals[3:] - 1) < 1e-6)):
        raise DegenerateMetricError("star eigenvalues are not +-1; metric degenerate?")
    return SdAsdBasis(plus=vecs[:, 3:].T.copy(), minus=vecs[:, :3].T.copy())


def complexify(op_matrix: np.ndarray, star_l: HodgeStar, tol: float = 1e-9) -> np.ndarray:
    """Complex 3x3 matrix of an operator commuting with a Lorentzian star.

    The star squares to ``-I`` and so defines multiplication by ``i`` on
    Lambda^2, making it a complex 3-space with basis ``e1^e2, e1^e3, e1^e4``.
    A real endomorphism commuting with the star is complex linear; its complex
    matrix is returned.  For the canonical orthonormal-frame star an operator
    ``[[P, Q], [-Q, P]]`` maps to ``P + iQ``; in particular the star itself
    maps to ``i I``.

    Parameters
    ----------
    op_matrix : ndarray, shape (6, 6)
        Operator in the canonical bivector basis.
    star_l : HodgeStar
        Lorentzian star in the same basis.
    tol : float
        Relative commutator tolerance (Frobenius), default 1e-9.

    Raises
    ------
    NotCommutingError
        If ``[op, star] != 0`` beyond ``tol * ||op||_F``.
    """
    if star_l.signature != "lorentzian":
        raise DegenerateMetricError("complexification needs a Lorentzian star")
    c, errors = _complexify(np.asarray(op_matrix, dtype=float)[None], star_l.matrix, tol)
    _alone(errors)
    return c[0]


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norms of stacked real matrices, each as ``np.linalg.norm``
    takes it for one matrix: the square root of the dot product of its raveled
    entries.  Each matrix is first scaled by the power of two of its largest
    entry, which is exact, so a huge but finite matrix does not overflow and
    the result is bit-identical wherever no square over- or underflows."""
    x = x.reshape(len(x), -1)
    _, e = np.frexp(np.max(np.abs(x), axis=1))
    x = np.ldexp(x, -e[:, None])
    return np.ldexp(np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0]), e)


def _commutator(m: np.ndarray, j: np.ndarray, tol: float) -> tuple:
    """The relative commutator ``|[m, j]|_F / |m|_F`` of stacked operators ``m`` (N, 6, 6)
    with the star ``j``, and whether it is at most ``tol``: the one commuting rule."""
    residual = _frobenius(m @ j - j @ m) / np.maximum(_frobenius(m), 1e-300)
    return residual, residual <= tol


def _complexify(m: np.ndarray, j: np.ndarray, tol: float) -> tuple:
    """:func:`complexify` of stacked operators ``m`` (N, 6, 6) and the Lorentzian
    star ``j``: the complex matrices, and each operator's
    :class:`NotCommutingError` (:func:`_commutator`), or None where it commutes."""
    residual, commuting = _commutator(m, j, tol)
    errors = [
        None if ok else NotCommutingError(
            f"operator does not commute with the star: relative residual {r:.3e} > {tol:g}", residual=r
        )
        for r, ok in zip(residual.tolist(), commuting.tolist())
    ]
    # real basis of Lambda^2 as a complex 3-space: b1, b2, b3, j b1, j b2, j b3
    b = np.eye(6)[:, :3]
    t_mat = np.hstack([b, j @ b])
    if None in errors and np.linalg.cond(t_mat) > _COND_LIMIT:
        raise DegenerateMetricError(
            "e1^e2, e1^e3, e1^e4 do not span Lambda^2 over C for this star"
        )
    coords = np.linalg.solve(t_mat, m @ b)
    return coords[:, :3] + 1j * coords[:, 3:], errors

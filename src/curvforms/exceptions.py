"""Exception types shared across the package, and the per-point errors of stacked kernels.

All errors derive from :class:`GeometryError` (a ``ValueError``), so callers
that do not care about the distinction can catch a single class.  A stacked
kernel returns one result per point, an error where the point has one.
"""

import numpy as np

__all__ = [
    "GeometryError",
    "DimensionError",
    "DegenerateMetricError",
    "NonUnitVectorError",
    "LightlikePlaneError",
    "NotCommutingError",
    "TensorValidationError",
    "FrameReconstructionError",
    "SampleFormatError",
]


class GeometryError(ValueError):
    """Base class for all geometric/algebraic input errors."""


class DimensionError(GeometryError):
    """An operation received data of an unsupported dimension."""


class DegenerateMetricError(GeometryError):
    """A metric (or induced Gram matrix) is singular or has the wrong signature."""


class NonUnitVectorError(GeometryError):
    """A vector required to be unit length is not, beyond tolerance."""


class LightlikePlaneError(GeometryError):
    """A 2-plane is degenerate (lightlike) for the Lorentzian inner product."""


class NotCommutingError(GeometryError):
    """An operator fails a required commutation property beyond tolerance.

    Carries the offending relative residual in :attr:`residual`.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TensorValidationError(GeometryError):
    """A curvature component table violates a required identity.

    Attributes
    ----------
    identity : str
        Name of the worst-violated identity.
    indices : tuple
        1-based index tuple where the worst violation occurs.
    residual : float
        Absolute size of the worst violation.
    """

    def __init__(self, identity, indices, residual):
        self.identity = identity
        self.indices = indices
        self.residual = residual
        super().__init__(
            f"{identity} violated at indices {indices} with residual {residual:.6g}"
        )


class FrameReconstructionError(GeometryError):
    """Normal-form frame reconstruction failed; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SampleFormatError(ValueError):
    """A point-sample file or line is structurally malformed.

    Deliberately *not* a :class:`GeometryError`: format problems are usage
    errors, while geometry errors are analysis results.  Carries the 1-based
    ``line`` number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---- per-point results of stacked kernels ----


def _stacked_or_alone(fn, *stacks):
    """``fn(*stacks)``, one result per point of the stacks (N, ...).

    The stack runs with floating-point overflow, division by zero and invalid
    operations raising.  Where one does, or a LAPACK call fails, each point runs
    alone (N = 1) with the caller's floating-point handling, when its result is
    read: a failed stacked attempt shows no warnings and each point read shows
    its own, as when it runs alone; a point whose LAPACK call fails alone gets
    that :class:`numpy.linalg.LinAlgError` as its result.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return fn(*stacks)
    except (FloatingPointError, np.linalg.LinAlgError) as err:
        if len(stacks[0]) > 1:
            return (r for p in range(len(stacks[0])) for r in _stacked_or_alone(fn, *(s[p:p + 1] for s in stacks)))
        if isinstance(err, np.linalg.LinAlgError):
            return [err]
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError as err:
        return [err]


def _chunk_results(chunk, other, fn, fields, given=None, missing=None):
    """The result of every point of a chunk (``curvforms.zoo._Chunk``), in point order.

    A point the stack cannot take, ``(index, sample)`` of ``chunk.others``, gets
    ``other(index, sample)``; a stacked point whose field ``given`` is False
    gets ``missing``; the others get ``fn`` of their rows of the chunk's
    ``fields`` (names), run by :func:`_stacked_or_alone`.  The results are
    yielded one by one, so where the points run alone a caller that stops
    reading runs no point after it.
    """
    others = dict(chunk.others)
    at = np.ones(len(chunk.index), dtype=bool) if given is None else getattr(chunk, given)
    stacked = iter(_stacked_or_alone(fn, *(getattr(chunk, f)[at] for f in fields)) if at.any() else ())
    runs = iter(at.tolist())
    for index in range(chunk.start, chunk.start + chunk.size):
        if index in others:
            yield other(index, others[index])
        else:
            yield next(stacked) if next(runs) else missing


def _alone(results: list):
    """The result of an N = 1 call of a stacked kernel, raised if it is an error."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result

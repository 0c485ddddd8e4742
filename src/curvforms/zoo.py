"""Sample points with analytic curvature, and the line-oriented sample format.

A :class:`PointSample` packages everything the analyses need at one manifold
point: the metric(s), the curvature components, an optional unit vector field
value, and a quadrature weight.  Generators produce streams of samples whose
weights are exact antiderivative differences, so weighted sums reproduce
closed-form volumes to rounding.  The file format is one JSON object per
line; numbers are written with 17 significant digits so a written file reads
back bit-identically.
"""

import gzip
import json
import math
import warnings
import zlib
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice, product, repeat

import numpy as np

from .complex_forms import tensor_from_complex_form
from .curvature import (
    CurvatureTensor,
    _check_shape,
    _dense,
    _identity_rules,
    _pair_matrix,
    _scatter_rows,
    curvature_from_frame_components,
    space_form,
    validate_curvature,
)
from .exceptions import (
    DegenerateMetricError,
    DimensionError,
    GeometryError,
    SampleFormatError,
    TensorValidationError,
    _alone,
)
from .hodge import _deformed, _metric_errors
from .normal_forms import _pattern_components, h_orthonormal_frame
from .preconditions import _first_errors, _preconditions

__all__ = [
    "PointSample",
    "validate_sample",
    "sample_to_json",
    "sample_from_json",
    "read_samples",
    "write_samples",
    "gen_space_form",
    "gen_product_spheres",
    "gen_synthetic_star_h",
    "gen_synthetic_star_L",
    "deformed_metric",
]


# ---- sample container ----


@dataclass(frozen=True)
class PointSample:
    """One manifold point: metrics, curvature, and a quadrature weight.

    ``g`` is the Riemannian metric in the same coordinates as ``rm``; ``h``
    is an optional second metric; ``t`` an optional g-unit vector (the
    timelike direction of the derived Lorentz metric); ``coords`` are chart
    coordinates kept as metadata only.  Generators may share ``g``/``h``/
    ``rm`` objects between samples of a constant-curvature stream.
    """

    dim: int
    g: np.ndarray
    rm: CurvatureTensor
    weight: float
    h: np.ndarray | None = None
    t: np.ndarray | None = None
    coords: np.ndarray | None = None


def validate_sample(sample: PointSample, tol: float = 1e-9) -> None:
    """Check every invariant of a sample; raise on the first violation.

    The rules are ``preconditions._preconditions`` on ``g``, ``h``, ``t`` and
    the weight (:func:`_weight_rule`), then those of :func:`validate_curvature`
    at ``tol``.  ``curvforms validate`` runs the same chain on each chunk of a
    file with first Bianchi on ``K_0`` alone: the reader's completion makes
    every index symmetry exact and rejects every number that is not finite.
    """
    _alone([_sample_error(sample, tol)])


def _sample_error(sample: PointSample, tol: float):
    """The first violation of :func:`validate_sample`, or None."""
    g = np.asarray(sample.g, dtype=float)[None]
    h = None if sample.h is None else np.asarray(sample.h, dtype=float)[None]
    t = None if sample.t is None else np.asarray(sample.t, dtype=float)[None]
    r = np.asarray(sample.rm.components, dtype=float)[None]
    return _stack_errors(sample.dim, g, h, t, [sample.weight], sample.rm.dim, r, tol)[0]


def _weight_rule(weights: list):
    """The weight rule (``preconditions._first_errors``) of :func:`validate_sample` on
    ``weights`` (a list): a real number, not a ``bool``, that is finite and nonnegative."""
    return lambda at: [
        None if 0 <= _real(w, math.nan) < math.inf
        else ValueError(f"weight must be a finite nonnegative number, got {w!r}")
        for w in map(weights.__getitem__, np.arange(len(weights))[at].tolist())
    ]


def _stack_errors(dim: int, g, h, t, weights, rm_dim: int, r, tol: float, has_t=None) -> list:
    """The first violation of :func:`validate_sample` of every point of a stack, or
    None: ``g``, ``h`` (None when no point has one), ``t`` (None, or given where
    ``has_t``; other rows, NaN in a :class:`_Chunk`, pass), ``weights`` (a list)
    and dense components ``r`` of dimension ``rm_dim``."""
    rules = _preconditions(tol, g=g, h=h, t=t, given=has_t, weight=_weight_rule(weights), dim=dim)
    try:
        if rm_dim != dim:
            raise DimensionError("curvature dimension does not match the sample")
        _check_shape(r.shape[1:], dim)
        rules += _identity_rules(r, tol)
    except DimensionError as err:
        rules.append(lambda at: repeat(err))
    return _first_errors([None] * len(weights), rules)


# ---- line format ----

# fixed key order: dim, g, h, T, rm, weight, coords (optional keys omitted)


def _fmt(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise SampleFormatError("sample numbers must be finite")
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text  # JSON reads "-0" as the integer 0


def _fmt_list(values) -> str:
    return "[" + ", ".join(_fmt(v) for v in values) + "]"


@cache
def _triangle(n: int) -> tuple:
    """Row and column indices of an n x n metric's lower triangle in sample-line
    (row-major) order; read-only, shared by every caller."""
    rows, cols = np.tril_indices(n)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def sample_to_json(sample: PointSample) -> str:
    """One-line JSON object for a sample (no trailing newline).

    Metrics are stored as the row-major lower triangle; curvature as the
    canonical sparse rows of :meth:`CurvatureTensor.to_sparse`.  Key order
    and number formatting are fixed, so equal samples serialize to equal
    bytes.  The weight must be a number as :func:`sample_from_json` reads it
    (not a ``bool``), or :class:`SampleFormatError` is raised.
    """
    n = int(sample.dim)
    g = np.asarray(sample.g, dtype=float)
    parts = [f'"dim": {n}', f'"g": {_fmt_list(g[_triangle(n)])}']
    if sample.h is not None:
        parts.append(f'"h": {_fmt_list(np.asarray(sample.h, dtype=float)[_triangle(n)])}')
    if sample.t is not None:
        parts.append(f'"T": {_fmt_list(np.asarray(sample.t, dtype=float))}')
    rows = ", ".join(
        f"[{i}, {j}, {k}, {l}, {_fmt(v)}]" for i, j, k, l, v in sample.rm.to_sparse()
    )
    parts.append(f'"rm": [{rows}]')
    parts.append(f'"weight": {_fmt(_require_number(sample.weight, "weight", None))}')
    if sample.coords is not None:
        parts.append(f'"coords": {_fmt_list(np.asarray(sample.coords, dtype=float))}')
    return "{" + ", ".join(parts) + "}"


_KNOWN_KEYS = frozenset(("dim", "g", "h", "T", "rm", "weight", "coords"))


def _real(x, default=None):
    """``float(x)`` of a real number that is not a ``bool`` (inf for an integer beyond
    the float range); ``default`` for anything else."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        return default
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _require_number(x, what: str, line) -> float:
    value = _real(x)
    if value is None:
        raise SampleFormatError(f"{what} must be a number, got {x!r}", line=line)
    if not math.isfinite(value):  # 1e999 decodes to inf
        raise SampleFormatError(f"{what} must be a finite number, got {x!r}", line=line)
    return value


def _triangle_to_metric(values, n: int, what: str, line) -> np.ndarray:
    expected = n * (n + 1) // 2
    if not isinstance(values, list) or len(values) != expected:
        raise SampleFormatError(
            f"{what} must list the {expected} lower-triangle entries", line=line
        )
    rows, cols = _triangle(n)
    m = np.zeros((n, n))
    m[rows, cols] = m[cols, rows] = [_require_number(x, what, line) for x in values]
    return m


def sample_from_json(line: str, line_number: int | None = None) -> PointSample:
    """Parse one sample line; structural errors raise :class:`SampleFormatError`.

    Only structure is checked here (keys, shapes, finite numbers, index
    ranges); geometric invariants are :func:`validate_sample`'s job.
    """

    def reject_constant(name):
        raise SampleFormatError(f"non-finite number {name}", line=line_number)

    try:
        obj = json.loads(line, parse_constant=reject_constant)
    except SampleFormatError:
        raise
    except ValueError as err:
        raise SampleFormatError(f"invalid JSON ({err})", line=line_number) from None
    if not isinstance(obj, dict):
        raise SampleFormatError("each line must be a JSON object", line=line_number)
    for key in obj:
        if key not in _KNOWN_KEYS:
            raise SampleFormatError(f"unknown key {key!r}", line=line_number)
    for key in ("dim", "g", "rm", "weight"):
        if key not in obj:
            raise SampleFormatError(f"missing required key {key!r}", line=line_number)

    n = obj["dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SampleFormatError(f"dim must be a positive integer, got {n!r}", line=line_number)
    g = _triangle_to_metric(obj["g"], n, "g", line_number)
    h = _triangle_to_metric(obj["h"], n, "h", line_number) if "h" in obj else None

    t = None
    if "T" in obj:
        raw = obj["T"]
        if not isinstance(raw, list) or len(raw) != n:
            raise SampleFormatError(f"T must list {n} components", line=line_number)
        t = np.array([_require_number(x, "T", line_number) for x in raw])

    rows = obj["rm"]
    if not isinstance(rows, list):
        raise SampleFormatError("rm must be a list of [i, j, k, l, value] rows", line=line_number)
    for row in rows:
        if not isinstance(row, list) or len(row) != 5:
            raise SampleFormatError(
                "rm rows must be [i, j, k, l, value]", line=line_number
            )
        for idx in row[:4]:
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise SampleFormatError(
                    f"rm indices must be integers, got {idx!r}", line=line_number
                )
        _require_number(row[4], "rm value", line_number)
    try:
        # complete by index symmetries only; identities are checked later
        rm = validate_curvature(rows, dim=n, tol=math.inf)
    except (TensorValidationError, DimensionError, OverflowError) as err:
        raise SampleFormatError(f"rm rows rejected ({err})", line=line_number) from None

    weight = _require_number(obj["weight"], "weight", line_number)
    coords = None
    if "coords" in obj:
        raw = obj["coords"]
        if not isinstance(raw, list):
            raise SampleFormatError("coords must be a list of numbers", line=line_number)
        coords = np.array([_require_number(x, "coords", line_number) for x in raw])
    return PointSample(dim=n, g=g, rm=rm, weight=weight, h=h, t=t, coords=coords)


def _opener(path):
    # gzip variant selected by extension sniffing
    return gzip.open if str(path).endswith(".gz") else open


def _line_chunks(path, size: int):
    """The lines of a sample file, ``size`` at a time; a file that cannot be
    read (a truncated or corrupt ``.gz`` included) or holds no line raises
    :class:`SampleFormatError`."""
    empty = True
    try:
        with _opener(path)(path, "rt", encoding="utf-8") as fh:
            while lines := list(islice(fh, size)):
                empty = False
                yield lines
    except (OSError, UnicodeDecodeError, EOFError, zlib.error) as err:
        raise SampleFormatError(f"cannot read {path}: {err}") from None
    if empty:
        raise SampleFormatError(f"{path} contains no samples")


def _parse_line(line: str, number: int) -> PointSample:
    if not line.strip():
        raise SampleFormatError("blank line", line=number)
    return sample_from_json(line, line_number=number)


def read_samples(path) -> list:
    """Read a sample file (``.gz`` accepted); at least one sample required.

    The file is decoded by the stacked reader of the file commands; every
    sample is bit-identical to :func:`sample_from_json` of its line, and every
    :class:`SampleFormatError` is the one that function raises.
    """
    return [sample for chunk in _read_chunks(path) for sample in _chunk_samples(chunk)]


def _chunk_samples(chunk) -> list:
    """The :class:`PointSample` of every point of ``chunk``, in order."""
    samples = dict(chunk.others)
    rm = _dense(chunk.k0, chunk.listed)
    for p, (index, weight, has_h, has_t, coords) in enumerate(
        zip(chunk.index.tolist(), chunk.weights.tolist(), chunk.has_h.tolist(), chunk.has_t.tolist(), chunk.coords)
    ):
        samples[index] = PointSample(
            dim=4,
            g=chunk.g[p],
            rm=CurvatureTensor(dim=4, components=rm[p]),
            weight=weight,
            h=chunk.h[p] if has_h else None,
            t=chunk.t[p] if has_t else None,
            coords=None if coords is None else np.array(coords, dtype=float),
        )
    return [samples[index] for index in range(chunk.start, chunk.start + chunk.size)]


# ---- stacked dimension-4 reading ----

# points per chunk of every stacked reader: a streamed file is never held whole
_CHUNK = 256

_REQUIRED_KEYS = frozenset(("dim", "g", "rm", "weight"))


@dataclass(frozen=True)
class _Chunk:
    """``size`` consecutive points of a sample file or stream, the first being point ``start``.

    The dimension-4 points are stacked, in order: ``index`` (N,) holds
    their point indices (line number - 1), ``k0`` (N, 6, 6) their pair
    matrices ``K_0[a, b] = R_{p_a p_b}`` over the pairs of the dimension-4
    bivector basis, ``listed`` (N, 6, 6) which entries of ``k0`` the input
    gives (all, for a dense tensor); ``curvature._dense`` expands the two
    into the components that ``validate_curvature`` completes from the same
    rows, bit for bit.  ``g`` and ``h`` (N, 4, 4) are their metrics
    (``h`` defaults to ``g``; ``has_h`` (N,) says where it was given), ``t``
    (N, 4) their ``T`` (NaN where absent; ``has_t`` (N,) says where it was
    given), ``weights`` (N,) and ``coords``
    (a list of N, None where absent).  The points of other dimensions are
    ``others``, as ``(index, PointSample)`` (:func:`_sample_chunks` adds the
    samples without a valid weight).
    """

    start: int
    size: int
    index: np.ndarray
    k0: np.ndarray
    listed: np.ndarray
    g: np.ndarray
    h: np.ndarray
    has_h: np.ndarray
    t: np.ndarray
    has_t: np.ndarray
    weights: np.ndarray
    coords: list
    others: list


def _read_chunks(path):
    """The points of a sample file, :data:`_CHUNK` lines per :class:`_Chunk`.

    Each line is decoded once and the dimension-4 rows of the chunk are
    scattered straight into ``K_0`` by ``curvature._scatter_rows``, the
    sparse completion of :func:`validate_curvature`, with no dense tensor and
    no :class:`PointSample`.  The stacked path accepts exactly the lines
    :func:`sample_from_json` accepts; a chunk it declines is read again
    through :func:`sample_from_json`, so every :class:`SampleFormatError`
    (message and line number) is the one that function raises for the first
    bad line.
    """
    start = 0
    for lines in _line_chunks(path, _CHUNK):
        try:
            chunk = _decode_chunk(lines, start)
        except (ValueError, TypeError, OverflowError):
            for n, line in enumerate(lines):
                _parse_line(line, start + n + 1)
            raise  # reached only if the two paths disagree on a line
        yield chunk
        start += len(lines)


def _sample_chunks(samples):
    """The points of ``samples`` (any iterable), :data:`_CHUNK` per :class:`_Chunk`; a sample
    of another dimension than 4, or whose weight is not a real number (a ``bool`` is
    not), is one of ``others``."""
    samples, start = iter(samples), 0
    while batch := list(islice(samples, _CHUNK)):
        four, weights, others = [], [], []
        for n, sample in enumerate(batch, start):
            weight = _real(getattr(sample, "weight", None))
            if weight is None or sample.rm.dim != 4:
                others.append((n, sample))
            else:
                four.append((n, sample))
                weights.append(weight)
        g = [np.asarray(s.g, dtype=float) for _, s in four]
        has_h = [getattr(s, "h", None) is not None for _, s in four]
        h = [np.asarray(s.h, dtype=float) if given else gs for (_, s), gs, given in zip(four, g, has_h)]
        has_t = [getattr(s, "t", None) is not None for _, s in four]
        t = [np.asarray(s.t, dtype=float) if given else np.full(4, np.nan) for (_, s), given in zip(four, has_t)]
        k0 = _pair_matrix(_stack([s.rm.components for _, s in four], (4, 4, 4, 4)))
        yield _Chunk(
            start, len(batch), np.array([n for n, _ in four], dtype=int), k0, np.ones(k0.shape, dtype=bool),
            _stack(g, (4, 4)), _stack(h, (4, 4)), np.array(has_h, dtype=bool), _stack(t, (4,)),
            np.array(has_t, dtype=bool), np.array(weights), [getattr(s, "coords", None) for _, s in four], others,
        )
        start += len(batch)


def _stack(arrays: list, shape: tuple) -> np.ndarray:
    """``np.stack`` of ``arrays`` of ``shape``, also when there are none."""
    return np.stack(arrays) if arrays else np.zeros((0, *shape))


def _decode_chunk(lines, start: int) -> _Chunk:
    """The chunk of ``lines``; a ``ValueError``, ``TypeError`` or
    ``OverflowError`` where a line is not plainly well formed."""
    positions, four, others = [], [], []
    for n, obj in enumerate(map(json.loads, lines)):
        if type(obj) is not dict or obj.keys() - _KNOWN_KEYS or _REQUIRED_KEYS - obj.keys():
            raise ValueError("not a sample object")
        if type(obj["dim"]) is int and obj["dim"] == 4:
            positions.append(start + n)
            four.append(obj)
        else:
            others.append((start + n, _parse_line(lines[n], start + n + 1)))

    g = [obj["g"] for obj in four]
    has_h = np.array(["h" in obj for obj in four], dtype=bool)
    h = [obj.get("h", gi) for obj, gi in zip(four, g)]
    has_t = np.array(["T" in obj for obj in four], dtype=bool)
    t = [obj["T"] for obj in four if "T" in obj]
    coords = [obj["coords"] for obj in four if "coords" in obj]
    rm = [obj["rm"] for obj in four]
    weights = [obj["weight"] for obj in four]
    rows = list(chain.from_iterable(rm))
    if (
        set(map(type, chain(g, h, t, coords, rm, rows))) - {list}
        or set(map(len, g + h)) - {10}
        or set(map(len, t)) - {4}
        or set(map(len, rows)) - {5}
    ):
        raise ValueError("not the dimension-4 layout")
    flat = list(chain.from_iterable(rows))
    indices = chain(*(flat[c::5] for c in range(4)))
    numbers = chain(chain.from_iterable(g + h + t + coords), weights, flat[4::5])
    if set(map(type, indices)) - {int} or set(map(type, numbers)) - {int, float}:
        raise ValueError("not the dimension-4 types")

    n4 = len(four)
    triangles = np.array(g + h, dtype=float).reshape(2, n4, 10)
    t_values = np.array(t, dtype=float).reshape(-1, 4)
    weights = np.array(weights, dtype=float)
    rows = np.array(flat, dtype=float).reshape(-1, 5)
    finite = (triangles, t_values, weights, rows[:, 4], np.array(list(chain.from_iterable(coords)), dtype=float))
    if not all(np.isfinite(x).all() for x in finite):
        raise ValueError("a number that is not finite")

    i, j = _triangle(4)
    metrics = np.zeros((2, n4, 4, 4))
    metrics[:, :, i, j] = metrics[:, :, j, i] = triangles
    t_all = np.full((n4, 4), np.nan)
    t_all[has_t] = t_values
    k0, listed = _scatter_rows(rows, list(map(len, rm)), n4, 4)
    index = np.array(positions, dtype=int)
    return _Chunk(
        start, len(lines), index, k0, listed, metrics[0], metrics[1], has_h, t_all, has_t, weights,
        [obj.get("coords") for obj in four], others,
    )


def write_samples(path, samples) -> int:
    """Write samples one per line; returns the number written.  A ``.gz`` file is
    compressed at level 6, the default of zlib and gzip(1)."""
    count = 0
    level = {"compresslevel": 6} if _opener(path) is gzip.open else {}
    with _opener(path)(path, "wt", encoding="utf-8", newline="\n", **level) as fh:
        for sample in samples:
            fh.write(sample_to_json(sample))
            fh.write("\n")
            count += 1
    return count


# ---- analytic grids ----


def _axis_counts(grid_spec, axes: int) -> tuple:
    if isinstance(grid_spec, bool):
        raise ValueError("grid_spec must be an int or a sequence of ints")
    if isinstance(grid_spec, (int, np.integer)):
        counts = (int(grid_spec),) * axes
    else:
        try:
            counts = tuple(grid_spec)
        except TypeError:
            raise ValueError("grid_spec must be an int or a sequence of ints") from None
    if len(counts) != axes:
        raise ValueError(f"grid needs {axes} axis counts, got {len(counts)}")
    for c in counts:
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or c < 1:
            raise ValueError(f"axis counts must be positive integers, got {c!r}")
    return tuple(int(c) for c in counts)


def _sin_power_antideriv(power: int, theta: np.ndarray) -> np.ndarray:
    """Antiderivative of sin^power, by the standard reduction formula."""
    theta = np.asarray(theta, dtype=float)
    if power == 0:
        return theta.copy()
    f_prev, f = theta.copy(), -np.cos(theta)
    for k in range(2, power + 1):
        f_prev, f = f, (-np.cos(theta) * np.sin(theta) ** (k - 1) + (k - 1) * f_prev) / k
    return f


def _axis_cells(count: int, power: int) -> tuple:
    """Centers and exact ``sin^power`` weights of ``count`` equal cells: of a
    polar angle over (0, pi), or of an azimuth over (0, 2 pi) for power 0."""
    edges = np.linspace(0.0, math.pi if power else 2.0 * math.pi, count + 1)
    values = _sin_power_antideriv(power, edges)
    return 0.5 * (edges[:-1] + edges[1:]), values[1:] - values[:-1]


def _grid_stream(dim, g, h, rm, scale, cells):
    centers, diffs = zip(*cells)
    for idx in product(*(range(len(c)) for c in centers)):
        w = scale
        for ax, i in enumerate(idx):
            w *= diffs[ax][i]
        coords = np.array([centers[ax][i] for ax, i in enumerate(idx)])
        yield PointSample(dim=dim, g=g, rm=rm, weight=float(w), h=h, coords=coords)


def gen_space_form(dim: int, kappa: float, grid_spec):
    """Stream of constant-curvature samples with exact-antiderivative weights.

    ``kappa > 0`` covers the round sphere of radius ``1/sqrt(kappa)`` in a
    latitude-longitude product chart (``dim`` axes: ``dim - 1`` polar angles
    over (0, pi), one azimuth over (0, 2 pi)); ``kappa = 0`` covers the flat
    square torus with period ``2 pi`` per axis.  Components are emitted in an
    orthonormal frame (``g`` is the identity), so the chart lives entirely in
    the weights: each cell weight is a product of antiderivative differences
    and the weights sum to the closed-form volume exactly up to rounding.

    Parameters
    ----------
    dim : int
        Manifold dimension, at least 3.
    kappa : float
        Constant sectional curvature; negative values have no compact chart
        here and are rejected.
    grid_spec : int or sequence of int
        Cells per axis (an int applies to every axis).

    Yields
    ------
    PointSample
        ``g``, ``rm`` are shared objects across the stream.
    """
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 3:
        raise DimensionError("gen_space_form needs an integer dim >= 3")
    dim = int(dim)
    if not math.isfinite(kappa):
        raise ValueError("kappa must be finite")
    if kappa < 0:
        raise ValueError("no compact chart for kappa < 0; use kappa >= 0")
    counts = _axis_counts(grid_spec, dim)
    g = np.eye(dim)
    rm = space_form(dim, float(kappa))

    # the sphere's polar angles carry sin^(dim-1) .. sin^1, its azimuth and every torus axis sin^0
    powers = [0] * dim if kappa == 0 else range(dim - 1, -1, -1)
    scale = 1.0 if kappa == 0 else (1.0 / math.sqrt(kappa)) ** dim
    return _grid_stream(dim, g, None, rm, scale, [_axis_cells(c, p) for c, p in zip(counts, powers)])


def gen_product_spheres(a: float, b: float, grid_spec, h_scales=None):
    """Stream of samples of a product of two round 2-spheres.

    In the orthonormal product frame the only nonzero curvature components
    are ``R_1212 = -1/a^2`` and ``R_3434 = -1/b^2``; the chart is a
    latitude-longitude pair per factor (axes ``theta_1, phi_1, theta_2,
    phi_2``), so the weights sum to ``16 pi^2 a^2 b^2``.

    ``h_scales = (s1, s2)`` attaches the block-scaled second metric
    ``h = diag(s1, s1, s2, s2)``; the induced star commutes with the
    curvature operator exactly when ``s1 / s2 = b / a`` (the more curved
    factor carries the larger scale); its scales must be finite and positive.
    """
    if not (a > 0 and b > 0):
        raise ValueError("radii must be positive")
    counts = _axis_counts(grid_spec, 4)
    g = np.eye(4)
    h = None
    if h_scales is not None:
        s1, s2 = (float(s) for s in h_scales)
        h = np.diag([s1, s1, s2, s2])
        _alone(_metric_errors(h[None], "h", 0.0))
    rm = validate_curvature(
        [[1, 2, 1, 2, -1.0 / a**2], [3, 4, 3, 4, -1.0 / b**2]], dim=4
    )

    cells = [_axis_cells(c, 1 - ax % 2) for ax, c in enumerate(counts)]  # (polar, azimuth) per factor
    return _grid_stream(4, g, h, rm, float(a**2 * b**2), cells)


# ---- synthetic builders ----


def gen_synthetic_star_h(
    lambdas, mus, h_diag, g_diag, frame_rotation=None, weight: float = 1.0
) -> PointSample:
    """Sample whose curvature is the normal-form pattern in a chosen frame.

    The pattern ``R_1212 = R_3434 = l1``, ``R_1313 = R_4242 = l2``,
    ``R_1414 = R_2323 = l3``, ``R_3412 = m1``, ``R_4213 = m2``,
    ``R_2314 = m3`` (all others zero) is laid down in an h-orthonormal frame
    — the diagonal-``h`` frame rotated by ``frame_rotation`` — which makes
    the result star-h-Einstein by construction.  First Bianchi requires
    ``m1 + m2 + m3 = 0``.

    Parameters
    ----------
    lambdas, mus : array_like, shape (3,)
        Normal-form values (any order; extraction sorts canonically).
    h_diag, g_diag : array_like, shape (4,)
        Finite positive diagonals of the two metrics, in ambient coordinates.
    frame_rotation : ndarray, optional
        Orthogonal 4x4 matrix rotating the frame inside the h-orthonormal
        model; the identity keeps the frame g-orthogonal for diagonal ``g``.
    weight : float
        Quadrature weight to attach.
    """
    lambdas = np.asarray(lambdas, dtype=float).reshape(3)
    mus = np.asarray(mus, dtype=float).reshape(3)
    bianchi = float(abs(mus.sum()))
    if bianchi > 1e-12 * max(1.0, float(np.max(np.abs(mus)))):
        raise TensorValidationError("first Bianchi identity", (1, 2, 3, 4), bianchi)
    h_diag = np.asarray(h_diag, dtype=float).reshape(4)
    g_diag = np.asarray(g_diag, dtype=float).reshape(4)
    for name, diag in (("h", h_diag), ("g", g_diag)):
        _alone(_metric_errors(np.diag(diag)[None], name, 0.0))
    if frame_rotation is None:
        q = np.eye(4)
    else:
        q = np.asarray(frame_rotation, dtype=float)
        if q.shape != (4, 4) or np.max(np.abs(q.T @ q - np.eye(4))) > 1e-9:
            raise GeometryError("frame_rotation must be an orthogonal 4x4 matrix")
        if np.linalg.det(q) < 0:
            # a reflection relabels the orientation and negates every mu
            raise GeometryError("frame_rotation must be a proper rotation (det +1)")

    frame = h_orthonormal_frame(np.diag(h_diag)) @ q
    rm = curvature_from_frame_components(_pattern_components(lambdas, mus), frame)
    return PointSample(
        dim=4, g=np.diag(g_diag), rm=rm, weight=float(weight), h=np.diag(h_diag)
    )


def gen_synthetic_star_L(a_traceless, b, frame=None, weight: float = 1.0) -> PointSample:
    """Sample whose operator matrix is ``[[A, B], [B, -A]]`` (Lorentz-commuting).

    ``A`` and ``B`` are symmetric 3x3 blocks; first Bianchi constrains only
    ``trace(B)``, so ``B`` is projected onto its trace-free part and a
    warning is issued when the projection moves it by more than 1e-12.  (The
    trace of ``A`` merely shifts every complexified eigenvalue by a real
    constant, leaving the classification unchanged.)  The sample carries
    ``T`` equal to the first frame vector and a metric making the frame
    orthonormal, so the scalar curvature vanishes and the induced Lorentz
    star commutes with the operator by construction.
    """
    a = np.asarray(a_traceless, dtype=float)
    b = np.asarray(b, dtype=float)
    for name, blk in (("A", a), ("B", b)):
        if blk.shape != (3, 3):
            raise DimensionError(f"{name} must be 3x3")
        if np.max(np.abs(blk - blk.T)) > 1e-9 * max(1.0, float(np.max(np.abs(blk)))):
            raise GeometryError(f"{name} must be symmetric")
    bp = b - (np.trace(b) / 3.0) * np.eye(3)
    moved = float(np.max(np.abs(bp - b)))
    if moved > 1e-12 * max(1.0, float(np.max(np.abs(b)))):
        warnings.warn(
            f"Bianchi projection changed B by {moved:.3e} (trace removed)",
            stacklevel=2,
        )

    if frame is None:
        f = np.eye(4)
        g = np.eye(4)
    else:
        f = np.asarray(frame, dtype=float)
        if f.shape != (4, 4):
            raise DimensionError("frame must be 4x4")
        try:
            g = np.linalg.inv(f @ f.T)
        except np.linalg.LinAlgError as err:
            raise DegenerateMetricError("frame must be invertible") from err
        g = 0.5 * (g + g.T)  # exact symmetry; the inverse carries rounding skew
    rm = tensor_from_complex_form(-(a + 1j * bp), None if frame is None else f)
    return PointSample(dim=4, g=g, rm=rm, weight=float(weight), t=f[:, 0].copy())


def deformed_metric(g, t, f: float) -> np.ndarray:
    """Rank-one deformation ``g + f (g t)(g t)^T`` along a g-unit vector.

    ``f = -2`` is ``hodge.lorentz_metric_from_unit``, whose unit rule ``t`` must pass at 1e-9;
    ``f = -1`` is degenerate and rejected; other values stay metrics (positive definite for ``f > -1``).
    """
    deformed = _deformed(g, t, float(f), 1e-9)
    if abs(1.0 + f) <= 1e-12:
        raise DegenerateMetricError("f = -1 collapses the T direction")
    return deformed

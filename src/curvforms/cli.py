"""Batch front end: validate sample files, run every analysis, and report.

Commands
--------
validate         container invariants of every sample in a file
einstein-check   star-commuting test against g, h, or the derived Lorentz star
normal-form      normal-form values, rescaled values when the frame is g-orthogonal
petrov           complex normal-form case histogram
integrate        weighted Euler/signature totals and the identity residual
sums             connected-sum bookkeeping and the obstruction verdict

Reports are deterministic: the same input file and flags produce
byte-identical output.  Point analyses run on one thread in index order.
Exit codes: 0 analysis complete, 1 analysis-level failure, 2 usage or format
error.
Reports are built as JSON values, each float that can be non-finite through
``_num``, so a non-finite value is ``null`` in JSON and ``-`` in text.

The reader checks structure only and completes each tensor by its index
symmetries.  ``validate`` checks every identity; ``einstein-check``,
``normal-form`` and ``petrov`` give a point that breaks the first Bianchi
identity an ``error`` field and exit 1, and ``integrate`` stops with exit 1
on it.  Every file command streams the file in chunks (``zoo._read_chunks``):
each line's dimension-4 rows go straight into a stacked 6x6 pair matrix, and
each analysis runs once per chunk, for all of its dimension-4 points, in the
stacked kernel whose one-point call is the library function (``validate_sample``,
``is_star_h_einstein``, ``weyl_split_check``, ``preferred_normal_form_4``,
``classify_complex``); ``integrate`` runs the chunk driver of
``integrate_samples``.  Where a LAPACK call fails on a chunk, its points run
one at a time, so the failure is the error of its point only.  ``integrate``
reads the whole file before it reports an analysis error, so a format error
anywhere still exits 2.  ``--tol`` must be a finite non-negative number.
"""

import argparse
import json
import math
import sys
from collections import Counter

import numpy as np

from . import __version__, complex_forms, hodge, normal_forms, topology, zoo
from .curvature import _dense
from .exceptions import (
    DegenerateMetricError,
    DimensionError,
    GeometryError,
    NotCommutingError,
    SampleFormatError,
    TensorValidationError,
    _stacked_or_alone,
)
from .zoo import _read_chunks

__all__ = ["build_parser", "main"]


# ---- shared plumbing ----


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError("must be a finite non-negative number")
    return value


def _base_report(args, **extra) -> dict:
    report = {
        "command": args.command,
        "version": __version__,
        "tolerances": {"tol": args.tol},
    }
    report.update(extra)
    return report


def _num(x):
    """``x`` as a float where it is finite, else ``None`` (``null`` in JSON, ``-`` in text)."""
    return float(x) if math.isfinite(x) else None


def _floats(values) -> list:
    return [_num(v) for v in np.asarray(values, dtype=float).ravel().tolist()]


# ---- commands ----

# the per-point errors of a missing field or metric, as the library raises them
_NO_H = GeometryError("sample has no h metric")
_NO_T = GeometryError("sample has no T vector")
_INDEFINITE = DegenerateMetricError(normal_forms._NOT_POSITIVE_DEFINITE)  # h_orthonormal_frame's error


def _chunk_entries(args, entry, other, stack) -> list:
    """The report entries of every point of the file, in order, read chunk by
    chunk: ``entry(index, result)`` of each point's result, which is
    ``other(sample)`` for a point of another dimension than 4 and comes from
    ``stack(chunk)``, a list in point order, for the dimension-4 points."""
    points = []
    for chunk in _read_chunks(args.file):
        results = {index: other(sample) for index, sample in chunk.others}
        if len(chunk.index):
            results.update(zip(chunk.index.tolist(), stack(chunk)))
        points += [entry(index, results[index]) for index in range(chunk.start, chunk.start + chunk.size)]
    return points


def _where(results: list, fn, *stacks) -> list:
    """``results`` with each None replaced by ``fn`` of its point's stacks, which
    runs them one at a time where a LAPACK call fails on them (``_stacked_or_alone``)."""
    mask = np.array([r is None for r in results], dtype=bool)
    if mask.any():
        for p, result in zip(np.flatnonzero(mask).tolist(), _stacked_or_alone(fn, *(s[mask] for s in stacks))):
            results[p] = result
    return results


def _points_report(args, points: list, **aggregate) -> dict:
    """The report of a command that reports every point of its file."""
    return _base_report(args, file=str(args.file), points=points, aggregate={"points": len(points), **aggregate})


def _validate_entry(index, error) -> dict:
    """The report entry of point ``index``: ok, or its first violation."""
    if error is None:
        return {"index": index, "ok": True}
    entry = {"index": index, "ok": False, "error": str(error)}
    if isinstance(error, TensorValidationError):
        entry.update(identity=error.identity, indices=list(error.indices), residual=_num(error.residual))
    return entry


def _cmd_validate(args):
    points = _chunk_entries(
        args, _validate_entry, lambda sample: zoo._sample_error(sample, args.tol),
        lambda chunk: zoo._chunk_errors(chunk, args.tol),
    )
    failures = sum(1 for p in points if not p["ok"])
    return (0 if failures == 0 else 1), _points_report(args, points, failures=failures), ["index", "ok", "error"]


def _einstein_entry(index, rep) -> dict:
    """The report entry of point ``index``: its star-commuting test, or its error."""
    if isinstance(rep, Exception):
        return {"index": index, "error": str(rep)}
    if isinstance(rep, topology.WeylSplitReport):
        return {
            "index": index,
            "einstein": rep.commutes,
            "residual": _num(rep.commutator_residual),
            "scal": _num(rep.scal),
            "f": _num(rep.f_fitted),
            "trace_residual": _num(rep.lorentz_trace_residual),
        }
    return {
        "index": index,
        "einstein": rep.is_einstein,
        "residual": _num(rep.commutator_residual / max(rep.operator_norm, 1e-300)),
        "f": _num(rep.f_fitted),
        "trace_residual": _num(rep.trace_residual),
    }


def _cmd_einstein_check(args):
    metric, tol = args.metric, args.tol

    def other(sample):
        if metric == "lorentz":
            return _NO_T if sample.t is None else DimensionError(topology._NOT_DIM_4)
        return _NO_H if metric == "h" and sample.h is None else DimensionError(normal_forms._NOT_DIM_4)

    def split(k0, listed, g, t):
        return topology._weyl_splits(k0, _dense(k0, listed), g, t, tol)

    def check(k0, listed, h):
        return normal_forms._star_einstein(normal_forms._lambda2_blocks(k0, h), _dense(k0, listed), h, tol)

    def stack(chunk):
        if metric == "lorentz":
            missing = [None if has else _NO_T for has in chunk.has_t.tolist()]
            return _where(missing, split, chunk.k0, chunk.listed, chunk.g, chunk.t)
        h, given = (chunk.h, chunk.has_h.tolist()) if metric == "h" else (chunk.g, [True] * len(chunk.g))
        errors = hodge._metric_errors(h, "metric", tol)
        missing = [_NO_H if not has else _INDEFINITE if e else None for has, e in zip(given, errors)]
        return _where(missing, check, chunk.k0, chunk.listed, h)

    points = _chunk_entries(args, _einstein_entry, other, stack)
    verdicts = Counter("error" if "error" in p else str(p["einstein"]).lower() for p in points)
    report = _points_report(args, points, histogram={"true": 0, "false": 0, "error": 0} | verdicts)
    report["flags"] = {"metric": metric}
    columns = ["index", "einstein", "residual", "f", "trace_residual", "scal", "error"]
    return (0 if verdicts["error"] == 0 else 1), report, columns


def _normal_form_entry(index, nf) -> dict:
    """The report entry of point ``index``: its normal form, or its note or error."""
    if isinstance(nf, NotCommutingError):
        return {"index": index, "available": False, "note": f"no normal form: {nf}"}
    if isinstance(nf, TensorValidationError):
        return {"index": index, "available": False, "error": str(nf)}
    if isinstance(nf, (GeometryError, ValueError)):
        return {"index": index, "available": False, "note": str(nf)}
    entry = {
        "index": index,
        "available": True,
        "lambdas": _floats(nf.lambdas),
        "mus": _floats(nf.mus),
    }
    if nf.scaled is not None:
        entry["lambdas_scaled"] = _floats(nf.scaled.lambdas_scaled)
        entry["kappas_scaled"] = _floats(nf.scaled.kappas_scaled)
        entry["mus_scaled"] = _floats(nf.scaled.mus_scaled)
    return entry


def _cmd_normal_form(args):
    def forms(k0, h, g):
        return normal_forms._normal_forms(normal_forms._lambda2_blocks(k0, h, g), h, g, args.tol)

    def stack(chunk):
        # one kernel call and frame choice per chunk, over the points whose h meets the metric rule
        indefinite = [_INDEFINITE if e else None for e in hodge._metric_errors(chunk.h, "metric", args.tol)]
        return _where(indefinite, forms, chunk.k0, chunk.h, chunk.g)

    points = _chunk_entries(args, _normal_form_entry, lambda sample: DimensionError(normal_forms._NOT_DIM_4), stack)
    report = _points_report(args, points, available=sum(1 for p in points if p["available"]))
    columns = [
        "index", "available", "lambdas", "mus",
        "lambdas_scaled", "kappas_scaled", "mus_scaled", "note", "error",
    ]
    return (1 if any("error" in p for p in points) else 0), report, columns


def _cmd_petrov(args):
    def classify(k0, g, t):
        return complex_forms._jordan_forms(k0, g, t, args.tol)

    def stack(chunk):
        return _where([None if has else _NO_T for has in chunk.has_t.tolist()], classify, chunk.k0, chunk.g, chunk.t)

    def entry(index, form):
        return {"index": index, **({"error": str(form)} if isinstance(form, Exception) else {"case": form.case_id})}

    def other(sample):
        return _NO_T if sample.t is None else DimensionError(complex_forms._NOT_DIM_4)

    points = _chunk_entries(args, entry, other, stack)
    histogram = Counter("error" if "error" in p else f"case {p['case']}" for p in points)
    report = _points_report(args, points, histogram=dict(histogram))
    return (0 if histogram["error"] == 0 else 1), report, ["index", "case", "error"]


def _cmd_integrate(args):
    chunks = _read_chunks(args.file)
    try:
        result = topology._integrate_chunks(chunks, tol=args.tol)
    except (GeometryError, ValueError):
        for _ in chunks:  # read on: a format error anywhere in the file comes first
            pass
        raise
    aggregate = {
        "points": result.points,
        "skipped_points": result.skipped_points,
        "general_frame_points": result.general_frame_points,
        "total_weight": _num(result.total_weight),
    }
    if args.quantity in ("chi", "ht"):
        aggregate["chi"] = _num(result.chi_estimate)
    if args.quantity in ("tau", "ht"):
        aggregate["tau"] = _num(result.tau_estimate)
    if args.quantity == "ht":
        aggregate["correction"] = _num(result.correction_estimate)
        aggregate["ht_identity_residual"] = _num(result.ht_identity_residual)
    report = _base_report(
        args,
        file=str(args.file),
        flags={"quantity": args.quantity},
        aggregate=aggregate,
    )
    return 0, report, []


def _cmd_sums(args):
    try:
        result = topology.connected_sum(args.expression)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2, None, None
    aggregate = {
        "chi": result.chi,
        "tau": result.tau,
        "blocks": [
            {"name": b.name, "chi": b.chi, "tau": b.tau} for b in result.blocks
        ],
        "verdict": result.verdict,
    }
    report = _base_report(args, expression=args.expression, aggregate=aggregate)
    return 0, report, []


# ---- rendering ----


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _text_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, list):
        sep = "; " if any(isinstance(v, dict) for v in value) else ", "
        return "[" + sep.join(_text_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return ", ".join(f"{k}: {_text_value(value[k])}" for k in sorted(value))
    return str(value)


def render_text(report: dict, columns) -> str:
    lines = [f"curvforms {report['command']} (version {report['version']})"]
    for key in ("file", "expression"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    settings = dict(report.get("tolerances", {}))
    settings.update(report.get("flags", {}))
    for key in sorted(settings):
        lines.append(f"{key} = {_text_value(settings[key])}")

    points = report.get("points")
    if points:
        present = [c for c in columns if any(c in p for p in points)]
        rows = [[_text_value(p.get(c)) for c in present] for p in points]
        widths = [
            max(len(header), *(len(row[i]) for row in rows))
            for i, header in enumerate(present)
        ]
        lines.append("")
        lines.append("  ".join(h.ljust(w) for h, w in zip(present, widths)).rstrip())
        for row in rows:
            cells = [row[0].rjust(widths[0])]  # index column right-aligned
            cells += [cell.ljust(w) for cell, w in zip(row[1:], widths[1:])]
            lines.append("  ".join(cells).rstrip())

    lines.append("")
    lines.append("aggregate:")
    for key in sorted(report.get("aggregate", {})):
        lines.append(f"  {key} = {_text_value(report['aggregate'][key])}")
    return "\n".join(lines) + "\n"


# ---- entry point ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvforms",
        description="Batch analyses of curvature point-sample files.",
    )
    parser.add_argument(
        "--version", action="version", version=f"curvforms {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=1e-9, help="analysis tolerance")
    common.add_argument(
        "--format", choices=("json", "text"), default="text", help="report format"
    )
    common.add_argument(
        "-o", "--output", metavar="FILE", default=None, help="write the report to FILE"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check sample invariants")
    p.add_argument("file", help="sample file (.jsonl or .jsonl.gz)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "einstein-check", parents=[common], help="star-commuting Einstein test"
    )
    p.add_argument("file")
    p.add_argument(
        "--metric",
        choices=("g", "h", "lorentz"),
        default="g",
        help="metric whose star must commute with the operator",
    )
    p.set_defaults(func=_cmd_einstein_check)

    p = sub.add_parser("normal-form", parents=[common], help="normal-form values")
    p.add_argument("file")
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("petrov", parents=[common], help="complex case histogram")
    p.add_argument("file")
    p.set_defaults(func=_cmd_petrov)

    p = sub.add_parser(
        "integrate", parents=[common], help="Euler/signature quadrature totals"
    )
    p.add_argument("file")
    p.add_argument(
        "--quantity",
        choices=("chi", "tau", "ht"),
        default="ht",
        help="totals to report (ht adds the identity residual)",
    )
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser(
        "sums", parents=[common], help="connected-sum invariants and verdict"
    )
    p.add_argument("expression", help="'#'-separated building blocks, e.g. 'K3 # CP2'")
    p.set_defaults(func=_cmd_sums)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report, columns = args.func(args)
    except SampleFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (GeometryError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if report is None:
        return code
    text = render_json(report) if args.format == "json" else render_text(report, columns)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: cannot write {args.output}: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

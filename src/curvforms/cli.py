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
symmetries, which makes them exact.  ``validate`` runs the kernels' chain,
every rule of ``preconditions._preconditions`` with the weight rule and first
Bianchi on the pair matrix; the other commands check the rules they need, in
the same order and with the same messages.  A point that fails one gets an
``error`` field and exit 1 (a ``note`` for a metric in ``normal-form``).
Every file command streams the file in chunks (``zoo._read_chunks``): each
line's dimension-4 rows go straight into a stacked 6x6 pair matrix, and each
chunk runs through ``exceptions._chunk_results`` in the stacked kernel whose
one-point call is the library function (``validate_sample``,
``is_star_h_einstein``, ``weyl_split_check``, ``preferred_normal_form_4``,
``classify_complex``); ``integrate`` runs the chunk path of
``integrate_samples`` and exits 1 on the first error in point order once it
has read the whole file, so a format error anywhere still exits 2.  ``--tol``
must be a finite non-negative number.
"""

import argparse
import json
import math
import sys
from collections import Counter

import numpy as np

from . import __version__, complex_forms, normal_forms, topology, zoo
from .curvature import _dense
from .exceptions import (
    DimensionError,
    GeometryError,
    NotCommutingError,
    SampleFormatError,
    TensorValidationError,
    _chunk_results,
)
from .preconditions import _first_errors, _preconditions
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

# the per-point errors of a missing field
_NO_H = GeometryError("sample has no h metric")
_NO_T = GeometryError("sample has no T vector")


def _chunk_entries(args, entry, other, fn, fields, given=None, missing=None) -> list:
    """The report entries of every point of the file, in order, read chunk by
    chunk: ``entry(index, result)`` of each point's result of
    ``exceptions._chunk_results`` with the other arguments."""
    return [
        entry(index, result)
        for chunk in _read_chunks(args.file)
        for index, result in enumerate(_chunk_results(chunk, other, fn, fields, given, missing), chunk.start)
    ]


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
    def errors(k0, g, h, t, has_t, weights):
        # h defaults to g, so checking it where it is absent repeats g's verdict
        weight = zoo._weight_rule(weights.tolist())
        rules = _preconditions(args.tol, g=g, h=h, t=t, given=has_t, weight=weight, k0=k0)
        return _first_errors([None] * len(k0), rules)

    points = _chunk_entries(
        args, _validate_entry, lambda index, sample: zoo._sample_error(sample, args.tol), errors,
        ("k0", "g", "h", "t", "has_t", "weights"),
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

    def other(index, sample):
        if metric == "lorentz":
            return _NO_T if sample.t is None else DimensionError(topology._NOT_DIM_4)
        return _NO_H if metric == "h" and sample.h is None else DimensionError(normal_forms._NOT_DIM_4)

    def split(k0, listed, g, t):
        return topology._weyl_splits(k0, _dense(k0, listed), g, t, tol)

    def check(k0, listed, h):
        return normal_forms._star_einstein(k0, _dense(k0, listed), h, tol, metric)

    if metric == "lorentz":
        points = _chunk_entries(args, _einstein_entry, other, split, ("k0", "listed", "g", "t"), "has_t", _NO_T)
    else:
        given = "has_h" if metric == "h" else None
        points = _chunk_entries(args, _einstein_entry, other, check, ("k0", "listed", metric), given, _NO_H)
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
    def forms(k0, h, g, has_h):
        # one kernel call and frame choice per chunk; h is named as validate names it
        blocks, errors = normal_forms._lambda2_blocks(k0, h, g, args.tol, np.where(has_h, "h", "g"))
        return normal_forms._normal_forms(blocks, errors, h, g, args.tol)

    def other(index, sample):
        return DimensionError(normal_forms._NOT_DIM_4)

    points = _chunk_entries(args, _normal_form_entry, other, forms, ("k0", "h", "g", "has_h"))
    report = _points_report(args, points, available=sum(1 for p in points if p["available"]))
    columns = [
        "index", "available", "lambdas", "mus",
        "lambdas_scaled", "kappas_scaled", "mus_scaled", "note", "error",
    ]
    return (1 if any("error" in p for p in points) else 0), report, columns


def _cmd_petrov(args):
    def classify(k0, g, t):
        return complex_forms._jordan_forms(k0, g, t, args.tol)

    def entry(index, form):
        return {"index": index, **({"error": str(form)} if isinstance(form, Exception) else {"case": form.case_id})}

    def other(index, sample):
        return _NO_T if sample.t is None else DimensionError(complex_forms._NOT_DIM_4)

    points = _chunk_entries(args, entry, other, classify, ("k0", "g", "t"), "has_t", _NO_T)
    histogram = Counter("error" if "error" in p else f"case {p['case']}" for p in points)
    report = _points_report(args, points, histogram=dict(histogram))
    return (0 if histogram["error"] == 0 else 1), report, ["index", "case", "error"]


def _cmd_integrate(args):
    result = topology._integrate_chunks(_read_chunks(args.file), tol=args.tol)
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

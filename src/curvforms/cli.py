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
byte-identical output.  Point analyses run on one thread in index order;
``--threads`` is still accepted and validated but changes nothing.  Exit codes:
0 analysis complete, 1 analysis-level failure, 2 usage or format error.
Non-finite report values serialize as ``null`` in JSON and ``-`` in text.

The reader checks structure only and completes each tensor by its index
symmetries.  ``validate`` checks every identity; ``einstein-check``,
``normal-form`` and ``petrov`` give a point that breaks the first Bianchi
identity an ``error`` field and exit 1, and ``integrate`` stops with exit 1
on it.  ``normal-form`` and ``integrate`` stream the file in chunks: each
line's dimension-4 rows go straight into a stacked 6x6 pair matrix, with no
dense tensor per point, and the Lambda^2 kernel and the normal-form frame
choice run once per chunk, for every point of the chunk; ``integrate`` runs
the chunk driver of ``integrate_samples``.  ``integrate`` reads the whole
file before it reports an analysis error, so a format error anywhere still
exits 2.  ``--tol`` must be a finite non-negative number.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, normal_forms
from .complex_forms import classify_complex
from .exceptions import (
    DegenerateMetricError,
    DimensionError,
    GeometryError,
    NotCommutingError,
    SampleFormatError,
    TensorValidationError,
)
from .normal_forms import is_star_h_einstein
from .topology import _CHUNK, _integrate_chunks, connected_sum, weyl_split_check
from .zoo import _read_chunks, read_samples, validate_sample

__all__ = ["build_parser", "main"]


# ---- shared plumbing ----


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


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


def _floats(values) -> list:
    return [float(v) for v in np.asarray(values).ravel()]


# ---- commands ----


def _cmd_validate(args):
    samples = read_samples(args.file)

    def check(index, sample):
        try:
            validate_sample(sample, tol=args.tol)
        except TensorValidationError as err:
            return {
                "index": index,
                "ok": False,
                "error": str(err),
                "identity": err.identity,
                "indices": list(err.indices),
                "residual": err.residual,
            }
        except (GeometryError, ValueError) as err:
            return {"index": index, "ok": False, "error": str(err)}
        return {"index": index, "ok": True}

    points = [check(i, s) for i, s in enumerate(samples)]
    failures = sum(1 for p in points if not p["ok"])
    report = _base_report(
        args,
        file=str(args.file),
        points=points,
        aggregate={"points": len(points), "failures": failures},
    )
    return (0 if failures == 0 else 1), report, ["index", "ok", "error"]


def _cmd_einstein_check(args):
    samples = read_samples(args.file)
    metric = args.metric

    def check(index, sample):
        try:
            g = np.asarray(sample.g, dtype=float)
            if metric == "lorentz":
                if sample.t is None:
                    raise GeometryError("sample has no T vector")
                rep = weyl_split_check(
                    sample.rm, g, np.asarray(sample.t, dtype=float), tol=args.tol
                )
                return {
                    "index": index,
                    "einstein": bool(rep.commutes),
                    "residual": rep.commutator_residual,
                    "scal": rep.scal,
                    "f": rep.f_fitted,
                    "trace_residual": rep.lorentz_trace_residual,
                }
            if metric == "h":
                if sample.h is None:
                    raise GeometryError("sample has no h metric")
                hm = np.asarray(sample.h, dtype=float)
            else:
                hm = g
            rep = is_star_h_einstein(sample.rm, hm, tol=args.tol)
            return {
                "index": index,
                "einstein": bool(rep.is_einstein),
                "residual": rep.commutator_residual / max(rep.operator_norm, 1e-300),
                "f": rep.f_fitted,
                "trace_residual": rep.trace_residual,
            }
        except (GeometryError, ValueError) as err:
            return {"index": index, "error": str(err)}

    points = [check(i, s) for i, s in enumerate(samples)]
    histogram = {"true": 0, "false": 0, "error": 0}
    for p in points:
        histogram["error" if "error" in p else str(p["einstein"]).lower()] += 1
    report = _base_report(
        args,
        file=str(args.file),
        flags={"metric": metric},
        points=points,
        aggregate={"points": len(points), "histogram": histogram},
    )
    code = 0 if histogram["error"] == 0 else 1
    columns = ["index", "einstein", "residual", "f", "trace_residual", "scal", "error"]
    return code, report, columns


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
    indefinite = DegenerateMetricError("metric is not positive definite")  # h_orthonormal_frame's error
    points = []
    for chunk in _read_chunks(args.file, _CHUNK):
        # one kernel call and frame choice per chunk, over the points whose h Cholesky takes
        ok = normal_forms._positive_definite(chunk.h)
        forms = {index: DimensionError(normal_forms._NOT_DIM_4) for index, _ in chunk.others}
        forms.update((index, indefinite) for index in chunk.index[~ok])
        if ok.any():
            k0, h, g = chunk.k0[ok], chunk.h[ok], chunk.g[ok]
            blocks = normal_forms._lambda2_blocks(k0, h, g)
            forms.update(zip(chunk.index[ok], normal_forms._normal_forms(blocks, h, g, args.tol)))
        points += [_normal_form_entry(i, forms[i]) for i in range(chunk.start, chunk.start + chunk.size)]
    available = sum(1 for p in points if p["available"])
    report = _base_report(
        args,
        file=str(args.file),
        points=points,
        aggregate={"points": len(points), "available": available},
    )
    columns = [
        "index", "available", "lambdas", "mus",
        "lambdas_scaled", "kappas_scaled", "mus_scaled", "note", "error",
    ]
    return (1 if any("error" in p for p in points) else 0), report, columns


def _cmd_petrov(args):
    samples = read_samples(args.file)

    def run(index, sample):
        try:
            if sample.t is None:
                raise GeometryError("sample has no T vector")
            form = classify_complex(
                sample.rm,
                np.asarray(sample.g, dtype=float),
                np.asarray(sample.t, dtype=float),
                tol=args.tol,
            )
            return {"index": index, "case": form.case_id}
        except (GeometryError, ValueError) as err:
            return {"index": index, "error": str(err)}

    points = [run(i, s) for i, s in enumerate(samples)]
    histogram = {}
    for p in points:
        key = "error" if "error" in p else f"case {p['case']}"
        histogram[key] = histogram.get(key, 0) + 1
    report = _base_report(
        args,
        file=str(args.file),
        points=points,
        aggregate={"points": len(points), "histogram": histogram},
    )
    code = 0 if histogram.get("error", 0) == 0 else 1
    return code, report, ["index", "case", "error"]


def _cmd_integrate(args):
    chunks = _read_chunks(args.file, _CHUNK)
    try:
        result = _integrate_chunks(chunks, tol=args.tol)
    except (GeometryError, ValueError):
        for _ in chunks:  # read on: a format error anywhere in the file comes first
            pass
        raise
    aggregate = {
        "points": result.points,
        "skipped_points": result.skipped_points,
        "general_frame_points": result.general_frame_points,
        "total_weight": result.total_weight,
    }
    if args.quantity in ("chi", "ht"):
        aggregate["chi"] = result.chi_estimate
    if args.quantity in ("tau", "ht"):
        aggregate["tau"] = result.tau_estimate
    if args.quantity == "ht":
        aggregate["correction"] = result.correction_estimate
        aggregate["ht_identity_residual"] = result.ht_identity_residual
    report = _base_report(
        args,
        file=str(args.file),
        flags={"quantity": args.quantity},
        aggregate=aggregate,
    )
    return 0, report, []


def _cmd_sums(args):
    try:
        result = connected_sum(args.expression)
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


def _jsonable(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def render_json(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _text_value(value) -> str:
    value = _jsonable(value)
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
        "--threads",
        type=_positive_int,
        default=None,
        help="accepted for compatibility; has no effect (analyses run on one thread)",
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

"""Checks of each workload's outputs against values known from its inputs.

Every function returns a list of problems (empty when the output is right).
The expected values come from ``workloads.py``: closed forms, seeded spectra
and case ids, never from the analyses under test.
"""

import gzip
import math

from workloads import STAR_L_COUNTS


def _close(a, b, tol):
    return a is not None and abs(a - b) <= tol


def check_s4(report, expected):
    """Gauss-Bonnet and the volume of the unit S^4 on an aggregate report."""
    agg = report.get("aggregate", {})
    problems = []
    if agg.get("points") != expected["points"]:
        problems.append(f"points {agg.get('points')} != {expected['points']}")
    if not _close(agg.get("chi"), expected["chi"], 1e-6 * abs(expected["chi"])):
        problems.append(f"chi {agg.get('chi')} != {expected['chi']} to 1e-6 relative")
    if not _close(agg.get("tau"), expected["tau"], 1e-9):
        problems.append(f"tau {agg.get('tau')} != 0 to 1e-9")
    if not _close(agg.get("total_weight"), expected["total_weight"], 1e-12 * expected["total_weight"]):
        problems.append(f"total_weight {agg.get('total_weight')} != 8 pi^2 / 3 to 1e-12 relative")
    for key in ("skipped_points", "general_frame_points"):
        if agg.get(key) != 0:
            problems.append(f"{key} = {agg.get(key)}, expected 0")
    if not _close(agg.get("ht_identity_residual"), 0.0, 1e-9):
        problems.append(f"ht_identity_residual {agg.get('ht_identity_residual')} > 1e-9")
    return problems


def _spectra_match(values, expected, tol=1e-9):
    return len(values) == len(expected) and all(abs(a - b) <= tol for a, b in zip(values, expected))


def check_star_h(report, expected):
    """Spectra, scaled values and availability of each normal-form point."""
    points = report.get("points", [])
    want = expected["points"]
    if len(points) != len(want):
        return [f"{len(points)} points reported, {len(want)} expected"]
    problems = []
    for index, (p, e) in enumerate(zip(points, want)):
        where = f"point {index} ({e['kind']})"
        if p.get("index") != index:
            problems.append(f"{where}: reported index {p.get('index')}")
            continue
        if e["kind"] == "generic":
            if p.get("available") is not False:
                problems.append(f"{where}: a non-commuting tensor got a normal form")
            continue
        if not p.get("available"):
            problems.append(f"{where}: no normal form ({p.get('note')})")
            continue
        lambdas, mus = p["lambdas"], p["mus"]
        plus = sorted(l + m for l, m in zip(lambdas, mus))
        minus = sorted(l - m for l, m in zip(lambdas, mus))
        if not (_spectra_match(plus, e["plus"]) and _spectra_match(minus, e["minus"])):
            problems.append(f"{where}: spectra {plus} / {minus} != seeded {e['plus']} / {e['minus']}")
        scaled = "lambdas_scaled" in p
        if scaled != (e["kind"] != "rotated"):
            problems.append(f"{where}: scaled values {'present' if scaled else 'absent'}")
        if e["kind"] == "proportional" and scaled:
            if not _spectra_match(p["lambdas_scaled"], p["kappas_scaled"], 1e-10):
                problems.append(f"{where}: lambdas_scaled != kappas_scaled with h proportional to g")
    return problems


def check_star_l(results, expected):
    """Classify each instance's result; returns ``(failed, problems)``.

    A wrong case id is a problem.  A count that misses the case's prediction
    after every retry is a failed operation, as acceptance criterion 07
    flags it.
    """
    instances = expected["instances"]
    if len(results) != len(instances):
        return [], [f"{len(results)} results for {len(instances)} instances"]
    failed, problems = [], []
    for (case, i), (case_id, count) in zip(instances, results):
        if case_id != case:
            problems.append(f"case {case} instance {i}: classified as case {case_id}")
            continue
        if (math.inf if count is None else count) != STAR_L_COUNTS[case]:
            failed.append((case, i, count))
    return failed, problems


def check_roundtrip(original, copy, report, expected):
    """write -> read -> write is byte-identical and validate passes every point.

    ``original`` and ``copy`` are the gzip bytes of the input file and of its
    rewrite; the comparison is on their decompressed content (gzip headers
    carry a time stamp).
    """
    problems = []
    if gzip.decompress(original) != gzip.decompress(copy):
        problems.append("rewritten file differs from the input")
    points = report.get("points", [])
    if len(points) != expected["points"]:
        problems.append(f"validate reported {len(points)} points, {expected['points']} expected")
    bad = [p.get("index") for p in points if p.get("ok") is not True]
    if bad:
        problems.append(f"validate rejected points {bad[:5]}")
    return problems

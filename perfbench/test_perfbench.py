"""Tests of the benchmark itself: smoke runs and the checks' power to reject.

    python -m pytest -q perfbench

Run from the root of the checkout (the smoke runs import ``src/``).
"""

import gzip
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.MAKERS))
def test_smoke_run_is_correct(workload):
    result = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke")
    assert result["correct"] is True
    assert set(result["metrics"]) == {"points_per_s", "setup_s", "peak_rss_mb", "cpu_ms_per_point"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the smoke star-L set holds one known counter failure: case 2, instance 15
    assert result["failed"] == (1 if workload == "star-L-critical" else 0)
    assert result["attempted"] > 0


def test_smoke_trace_reports_every_layer_and_writes_spans():
    result = _run("--workload", "s4-integrate", "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
    assert result["correct"] is True
    metrics = result["metrics"]
    assert len(metrics) == 22
    assert metrics["normal_forms.star_test_calls_per_point"]["value"] > 0
    assert metrics["zoo.validate_calls_per_point"]["value"] > 0
    spans = os.path.join(HERE, "out", "smoke-s4-integrate", "spans.jsonl")
    with open(spans, encoding="utf-8") as fh:
        names = {json.loads(line)["name"] for line in fh}
    assert {"zoo.read_samples", "topology.integrate_samples", "cli._cmd_integrate"} <= names


def test_bare_directory_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "s4-integrate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---- each check rejects a corrupted result ----


def _s4_report():
    return {"aggregate": {
        "points": 10, "chi": 2.0, "tau": 0.0, "total_weight": workloads.UNIT_S4_VOLUME,
        "skipped_points": 0, "general_frame_points": 0, "ht_identity_residual": 0.0,
    }}


def _s4_expected():
    return {"points": 10, "chi": 2.0, "tau": 0.0, "total_weight": workloads.UNIT_S4_VOLUME}


def test_s4_check_accepts_the_closed_forms():
    assert checks.check_s4(_s4_report(), _s4_expected()) == []


@pytest.mark.parametrize("key, value", [
    ("chi", 2.0 + 1e-3),
    ("tau", 1e-6),
    ("total_weight", workloads.UNIT_S4_VOLUME * (1 + 1e-9)),
    ("skipped_points", 1),
    ("general_frame_points", 1),
    ("ht_identity_residual", 1e-6),
    ("ht_identity_residual", None),
])
def test_s4_check_rejects(key, value):
    report = _s4_report()
    report["aggregate"][key] = value
    assert checks.check_s4(report, _s4_expected())


def _star_h_case():
    lambdas, mus = [0.3, -1.2, 0.7], [0.5, -0.2, -0.3]
    spectra = {
        "plus": sorted(l + m for l, m in zip(lambdas, mus)),
        "minus": sorted(l - m for l, m in zip(lambdas, mus)),
    }
    expected = {"points": [
        {"kind": "aligned", **spectra},
        {"kind": "proportional", **spectra},
        {"kind": "rotated", **spectra},
        {"kind": "generic"},
    ]}
    scaled = {"lambdas_scaled": [0.1, 0.2, 0.3], "kappas_scaled": [0.1, 0.2, 0.3], "mus_scaled": [0, 0, 0]}
    report = {"points": [
        {"index": 0, "available": True, "lambdas": lambdas, "mus": mus, **scaled},
        {"index": 1, "available": True, "lambdas": lambdas, "mus": mus, **scaled},
        {"index": 2, "available": True, "lambdas": lambdas, "mus": mus},
        {"index": 3, "available": False, "note": "no normal form"},
    ]}
    return report, expected


def test_star_h_check_accepts_the_seeded_spectra():
    report, expected = _star_h_case()
    assert checks.check_star_h(report, expected) == []


def test_star_h_check_rejects_a_flipped_mu():
    report, expected = _star_h_case()
    report["points"][2]["mus"] = [-0.5, -0.2, -0.3]
    assert checks.check_star_h(report, expected)


def test_star_h_check_rejects_misplaced_scaled_values_and_availability():
    for corrupt in (
        lambda r: r["points"][0].pop("lambdas_scaled"),
        lambda r: r["points"][2].update(lambdas_scaled=[1.0, 2.0, 3.0]),
        lambda r: r["points"][1].update(kappas_scaled=[0.1, 0.2, 0.3 + 1e-8]),
        lambda r: r["points"][3].update(available=True),
    ):
        report, expected = _star_h_case()
        corrupt(report)
        assert checks.check_star_h(report, expected)


def test_star_l_check_counts_a_wrong_count_as_failed():
    expected = {"instances": [[1, 0], [2, 0], [3, 0], [4, 0]]}
    good = [[1, 3], [2, None], [3, 1], [4, 0]]
    assert checks.check_star_l(good, expected) == ([], [])
    failed, problems = checks.check_star_l([[1, 2], [2, 3], [3, 1], [4, 0]], expected)
    assert failed == [(1, 0, 2), (2, 0, 3)] and problems == []


def test_star_l_check_rejects_a_wrong_case():
    expected = {"instances": [[1, 0], [2, 0]]}
    _, problems = checks.check_star_l([[1, 3], [3, None]], expected)
    assert problems


def test_roundtrip_check_rejects_one_changed_byte():
    text = b'{"dim": 4, "g": [1, 0, 1, 0, 0, 1, 0, 0, 0, 1], "rm": [], "weight": 1}\n' * 3
    report = {"points": [{"index": i, "ok": True} for i in range(3)]}
    original = gzip.compress(text)
    assert checks.check_roundtrip(original, gzip.compress(text), report, {"points": 3}) == []
    changed = bytearray(text)
    changed[40] ^= 1
    assert checks.check_roundtrip(original, gzip.compress(bytes(changed)), report, {"points": 3})
    report["points"][1]["ok"] = False
    assert checks.check_roundtrip(original, gzip.compress(text), report, {"points": 3})



def test_self_time_subtracts_the_union_of_overlapping_children():
    import tracer

    spans = [
        {"run": "r", "id": 1, "parent": None, "name": "cli._cmd_normal_form", "start": 0.0, "end": 10.0},
        # two pool threads whose spans overlap in time
        {"run": "r", "id": 2, "parent": 1, "name": "normal_forms.normal_form_4", "start": 1.0, "end": 5.0},
        {"run": "r", "id": 3, "parent": 1, "name": "normal_forms.normal_form_4", "start": 4.0, "end": 6.0},
        {"run": "r", "id": 4, "parent": 2, "name": "curvature.transform_frame", "start": 2.0, "end": 3.0},
    ]
    own = tracer.self_times(spans)
    assert own[("r", 1)] == 5.0
    assert own[("r", 2)] == 3.0
    metrics = tracer.layer_metrics(spans, points=2)
    assert metrics["cli.command_self_us_per_point"] == 2.5e6
    assert metrics["normal_forms.frame_us_per_point"] == 2.5e6
    assert metrics["curvature.transform_frame_calls_per_point"] == 0.5

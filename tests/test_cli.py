"""Tests for the batch command line."""

import dataclasses
import gzip
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import curvforms
from curvforms import cli, complex_forms, normal_forms, topology, zoo
from curvforms.cli import main
from curvforms.complex_forms import adapted_frame, classify_complex, complex_case_matrix, count_spacelike_critical
from curvforms.curvature import CurvatureTensor, space_form, validate_curvature
from curvforms.exceptions import DegenerateMetricError, GeometryError, SampleFormatError, TensorValidationError
from curvforms.normal_forms import canonical_pairs, is_star_h_einstein, preferred_normal_form_4
from curvforms.topology import weyl_split_check
from curvforms.zoo import (
    _CHUNK,
    PointSample,
    gen_product_spheres,
    gen_space_form,
    gen_synthetic_star_h,
    gen_synthetic_star_L,
    read_samples,
    sample_from_json,
    sample_to_json,
    validate_sample,
    write_samples,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def s4_file(tmp_path, cells=3):
    path = tmp_path / "s4.jsonl"
    write_samples(path, gen_space_form(4, 1.0, cells))
    return str(path)


def product_file(tmp_path, h_scales=None):
    path = tmp_path / "products.jsonl"
    write_samples(path, gen_product_spheres(1.0, 2.0, 2, h_scales=h_scales))
    return str(path)


def star_l_file(tmp_path, cases=(1, 2, 3, 4), seed=7):
    rng = np.random.default_rng(seed)
    samples = []
    for case in cases:
        c = complex_case_matrix(case, rng)
        a, b = 0.5 * (-c.real - c.real.T), 0.5 * (-c.imag - c.imag.T)
        samples.append(gen_synthetic_star_L(a, b))
    path = tmp_path / "starl.jsonl.gz"
    write_samples(path, samples)
    return str(path)


def field_file(tmp_path, count=5, seed=11):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        lam = rng.normal(size=3)
        mu = rng.normal(size=3)
        mu[2] = -mu[0] - mu[1]
        samples.append(
            gen_synthetic_star_h(
                lam, mu, rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4),
                weight=rng.uniform(0.1, 1.0),
            )
        )
    path = tmp_path / "field.jsonl"
    write_samples(path, samples)
    return str(path)


# ---- validate ----


class TestValidate:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        code, out, _ = run(capsys, "validate", s4_file(tmp_path))
        assert code == 0
        assert "failures = 0" in out

    def test_corrupted_file_exits_one_with_indices(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        good = gen_space_form(4, 1.0, 2)
        write_samples(path, good)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(
                '{"dim": 4, "g": [1, 0, 1, 0, 0, 1, 0, 0, 0, 1], '
                '"rm": [[1, 2, 3, 4, 0.3]], "weight": 1}\n'
            )
        code, out, _ = run(capsys, "validate", str(path), "--format", "json")
        assert code == 1
        report = json.loads(out)
        bad = report["points"][-1]
        assert bad["ok"] is False
        assert bad["identity"] == "first Bianchi identity"
        assert len(bad["indices"]) == 4
        assert report["aggregate"]["failures"] == 1

    def test_empty_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "no samples" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", str(tmp_path / "absent.jsonl"))
        assert code == 2

    def test_garbage_line_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "line 1" in err

    def test_a_metric_is_rejected_exactly_where_normal_form_finds_it_indefinite(self, tmp_path, capsys):
        # Q diag(+-10^U(-18, -14), 1, 2, 3) Q^T: definite or not by a rounding's width
        rng = np.random.default_rng(26)
        samples = []
        for _ in range(400):
            q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
            d = np.array([rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-18, -14), 1.0, 2.0, 3.0])
            samples.append(PointSample(dim=4, g=(q * d) @ q.T, rm=space_form(4, 1.0), weight=1.0))
        path = tmp_path / "near_singular.jsonl"
        write_samples(path, samples)
        validated = json.loads(run(capsys, "validate", str(path), "--format", "json")[1])["points"]
        forms = json.loads(run(capsys, "normal-form", str(path), "--format", "json")[1])["points"]
        # the same message at the same points: the samples have no h, so the rule names g
        notes = [None if p.get("note", "no normal form").startswith("no normal form") else p["note"] for p in forms]
        assert [p.get("error") for p in validated] == notes
        rejected = [p.get("error") == "g must be positive definite" for p in validated]
        assert 0 < sum(rejected) < len(samples)


# ---- einstein-check ----


class TestEinsteinCheck:
    def test_sphere_true_for_g(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "einstein-check", s4_file(tmp_path), "--metric", "g",
            "--format", "json",
        )
        assert code == 0
        hist = json.loads(out)["aggregate"]["histogram"]
        assert hist["false"] == 0 and hist["error"] == 0 and hist["true"] > 0

    def test_unequal_product_false_for_g(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "einstein-check", product_file(tmp_path), "--format", "json"
        )
        assert code == 0
        hist = json.loads(out)["aggregate"]["histogram"]
        assert hist["true"] == 0 and hist["false"] > 0

    def test_block_scaled_h_true(self, tmp_path, capsys):
        path = product_file(tmp_path, h_scales=(2.0, 1.0))
        code, out, _ = run(
            capsys, "einstein-check", path, "--metric", "h", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["aggregate"]["histogram"]["false"] == 0

    def test_missing_h_is_analysis_failure(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "einstein-check", s4_file(tmp_path), "--metric", "h",
            "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["aggregate"]["histogram"]["error"] == report["aggregate"]["points"]

    def test_lorentz_true_with_zero_scal(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "einstein-check", star_l_file(tmp_path), "--metric", "lorentz",
            "--format", "json",
        )
        assert code == 0
        for point in json.loads(out)["points"]:
            assert point["einstein"] is True
            assert abs(point["scal"]) <= 1e-10


# ---- normal-form ----


class TestNormalForm:
    def test_synthetic_values_recovered(self, tmp_path, capsys):
        lam = np.array([0.3, -1.2, 0.8])
        mu = np.array([0.5, -0.2, -0.3])
        sample = gen_synthetic_star_h(lam, mu, np.ones(4), np.ones(4))
        path = tmp_path / "one.jsonl"
        write_samples(path, [sample])
        code, out, _ = run(capsys, "normal-form", str(path), "--format", "json")
        assert code == 0
        point = json.loads(out)["points"][0]
        assert point["available"] is True
        recovered = np.stack([point["lambdas"], point["mus"]], axis=1)
        npt.assert_allclose(recovered, canonical_pairs(lam, mu), atol=1e-9)
        assert "lambdas_scaled" in point  # h = g = identity frame is g-orthogonal

    def test_flat_file_reports_zeros(self, tmp_path, capsys):
        path = tmp_path / "torus.jsonl"
        write_samples(path, gen_space_form(4, 0.0, 2))
        code, out, _ = run(capsys, "normal-form", str(path), "--format", "json")
        assert code == 0
        for point in json.loads(out)["points"]:
            npt.assert_allclose(point["lambdas"], 0.0, atol=1e-15)
            npt.assert_allclose(point["mus"], 0.0, atol=1e-15)

    def test_non_einstein_points_get_notes(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "normal-form", product_file(tmp_path), "--format", "json"
        )
        assert code == 0  # unavailability is a result, not a failure
        report = json.loads(out)
        assert report["aggregate"]["available"] == 0
        assert all("no normal form" in p["note"] for p in report["points"])

    def test_rotated_point_runs_the_kernel_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        kernel = normal_forms._lambda2_blocks  # lambda2_blocks calls it too

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(normal_forms, "_lambda2_blocks", counted)
        rotation = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))[0]
        rotation[:, 0] *= np.sign(np.linalg.det(rotation))
        sample = gen_synthetic_star_h(
            [0.3, -1.2, 0.8], [0.5, -0.2, -0.3], [1, 2, 0.5, 1.5], [2, 1, 1, 0.5],
            frame_rotation=rotation,
        )
        path = tmp_path / "rotated.jsonl"
        write_samples(path, [sample])
        code, out, _ = run(capsys, "normal-form", str(path), "--format", "json")
        point = json.loads(out)["points"][0]
        assert code == 0 and point["available"] is True
        assert "lambdas_scaled" not in point  # no g-orthogonal pairing: fallback taken
        assert len(calls) == 1


def star_h_lines(count, seed=17):
    """JSON lines of seeded star-h points: aligned, proportional and rotated."""
    rng = np.random.default_rng(seed)
    lines = []
    for k in range(count):
        lam, mu = rng.normal(size=3), rng.normal(size=3)
        mu[2] = -mu[0] - mu[1]
        h_diag = rng.uniform(0.5, 2.0, 4)
        g_diag = rng.uniform(0.5, 2.0) * h_diag if k % 3 == 0 else rng.uniform(0.5, 2.0, 4)
        rotation = None
        if k % 3 == 2:
            rotation = np.linalg.qr(rng.normal(size=(4, 4)))[0]
            rotation[:, 0] *= np.sign(np.linalg.det(rotation))
        sample = gen_synthetic_star_h(lam, mu, h_diag, g_diag, frame_rotation=rotation)
        lines.append(sample_to_json(sample))
    return lines


def general_frame_samples(count=40, seed=31):
    """Seeded star-h samples with weights, in turn aligned, rotated, with g
    proportional to h, and rotated with an h that the tensor does not commute
    with; the rotated ones with a commuting h are general frames."""
    rng = np.random.default_rng(seed)
    samples = []
    for k in range(count):
        lam, mu = rng.normal(size=3), rng.normal(size=3)
        mu[2] = -mu[0] - mu[1]
        h_diag = rng.uniform(0.5, 2.0, 4)
        g_diag = rng.uniform(0.5, 2.0) * h_diag if k % 4 == 2 else rng.uniform(0.5, 2.0, 4)
        rotation = None
        if k % 2:
            rotation = np.linalg.qr(rng.normal(size=(4, 4)))[0]
            rotation[:, 0] *= np.sign(np.linalg.det(rotation))
        sample = gen_synthetic_star_h(lam, mu, h_diag, g_diag, frame_rotation=rotation, weight=rng.uniform(0.2, 2.0))
        if k % 4 == 3:
            sample = dataclasses.replace(sample, h=np.diag(rng.uniform(0.5, 2.0, 4)))
        samples.append(sample)
    return samples


def chunked_file(tmp_path):
    """More than one kernel chunk of star-h points, with points the stacked
    kernel cannot take at the boundary: a dim-3 point, non-commuting points and
    a first-Bianchi breaker; the second chunk holds a metric that Cholesky
    rejects."""
    lines = star_h_lines(_CHUNK + 44)
    non_commuting = sample_to_json(next(iter(gen_product_spheres(1.0, 2.0, 2))))
    lines[_CHUNK - 3] = sample_to_json(next(iter(gen_space_form(3, 1.0, 2))))
    lines[_CHUNK - 2] = non_commuting
    lines[_CHUNK - 1] = '{"dim":4,"g":[1,0,1,0,0,1,0,0,0,1],"rm":[[1,2,3,4,1.0]],"weight":1.0}'
    lines[_CHUNK] = non_commuting
    lines[_CHUNK + 1] = lines[_CHUNK - 3]
    lines[_CHUNK + 30] = sample_to_json(PointSample(
        dim=4, g=np.eye(4), rm=space_form(4, 1.0), weight=1.0, h=np.diag([1.0, 1.0, 1.0, -1.0])
    ))
    path = tmp_path / "chunked.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# a point whose Lambda^2 values overflow, so that the eigensolver fails on it
OVERFLOWING = PointSample(
    dim=4, g=1e-300 * np.eye(4), rm=space_form(4, 1e300), weight=1.0, t=np.array([1e150, 0.0, 0.0, 0.0])
)


class TestNormalFormChunks:
    def test_entries_equal_the_per_point_path(self, tmp_path, capsys):
        path = chunked_file(tmp_path)
        code, stacked, _ = run(capsys, "normal-form", path, "--format", "json")

        def per_point(sample):
            h = sample.g if sample.h is None else sample.h
            try:
                return preferred_normal_form_4(sample.rm, h, sample.g)
            except (GeometryError, ValueError) as err:
                return err

        reference = [cli._normal_form_entry(i, per_point(s)) for i, s in enumerate(read_samples(path))]
        points = json.loads(stacked)["points"]
        assert points == json.loads(cli.render_json({"points": reference}))["points"]
        assert code == 1 and len(points) == _CHUNK + 44
        assert points[_CHUNK - 1]["error"].startswith("first Bianchi identity")
        for i in (_CHUNK - 3, _CHUNK + 1):
            assert "specific to dim 4" in points[i]["note"]
        for i in (_CHUNK - 2, _CHUNK):
            assert points[i]["note"].startswith("no normal form")
        assert points[_CHUNK + 30]["note"] == "h must be positive definite"

    def test_an_indefinite_h_takes_no_per_point_path(self, tmp_path, capsys, monkeypatch):
        calls = []
        kernel = normal_forms._lambda2_blocks

        def counted(k0, *args):
            calls.append(len(k0))
            return kernel(k0, *args)

        def per_point(*args):
            raise AssertionError("a per-point normal-form analysis ran")

        monkeypatch.setattr(normal_forms, "_lambda2_blocks", counted)
        monkeypatch.setattr(normal_forms, "_normal_form_of", per_point)
        code, out, _ = run(capsys, "normal-form", chunked_file(tmp_path), "--format", "json")
        assert code == 1 and calls == [_CHUNK - 1, 43]  # every dimension-4 point, in one stack per chunk
        points = json.loads(out)["points"]
        assert points[_CHUNK + 30]["note"] == "h must be positive definite"
        assert sum(p["available"] for p in points[_CHUNK:]) == 44 - 3

    def test_pairing_frames_are_built_once_per_chunk(self, tmp_path, capsys, monkeypatch):
        calls = []
        frames = normal_forms._pairing_frames

        def counted(up, um):
            calls.append(len(up))
            return frames(up, um)

        monkeypatch.setattr(normal_forms, "_pairing_frames", counted)
        lines = star_h_lines(_CHUNK + 40, seed=18)
        lines[5] = lines[_CHUNK + 5] = sample_to_json(next(iter(gen_product_spheres(1.0, 2.0, 2))))
        path = tmp_path / "star_h.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _, out, _ = run(capsys, "normal-form", str(path), "--format", "json")
        report = json.loads(out)
        scaled = sum("lambdas_scaled" in p for p in report["points"])
        assert 0 < scaled < report["aggregate"]["available"] == _CHUNK + 38
        assert calls == [_CHUNK - 1, 39]  # the commuting points of each chunk

    # the point's Lambda^2 components overflow, as intended
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_point_fails_alone(self, tmp_path, capsys, monkeypatch):
        overflowing = OVERFLOWING
        lines = star_h_lines(2, seed=19)
        lines.insert(1, sample_to_json(overflowing))
        path = tmp_path / "overflow.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(capsys, "validate", str(path))[0] == 0
        reports = []
        for chunk in (1, _CHUNK):
            monkeypatch.setattr(zoo, "_CHUNK", chunk)
            reports.append(run(capsys, "normal-form", str(path), "--format", "json"))
        assert reports[0] == reports[1]
        code, out, _ = reports[0]
        points = json.loads(out)["points"]
        with pytest.raises(np.linalg.LinAlgError) as err:
            preferred_normal_form_4(overflowing.rm, overflowing.g, overflowing.g)
        assert points[1] == {"index": 1, "available": False, "note": str(err.value)}
        assert code == 0 and points[0]["available"] and points[2]["available"]

    def test_round_s4_against_a_rotated_g_reports_scaled_values(self, tmp_path, capsys):
        q = np.linalg.qr(np.random.default_rng(61).normal(size=(4, 4)))[0]
        g = q @ np.diag([2.0, 1.0, 0.7, 1.5]) @ q.T
        path = tmp_path / "s4_rotated_g.jsonl"
        write_samples(path, [PointSample(dim=4, g=g, rm=space_form(4, 1.0), weight=1.0, h=np.eye(4))])
        code, out, _ = run(capsys, "normal-form", str(path), "--format", "json")
        point = json.loads(out)["points"][0]
        assert code == 0 and point["available"] is True
        npt.assert_allclose(point["lambdas"], -1.0, atol=1e-14)
        assert {"lambdas_scaled", "kappas_scaled", "mus_scaled"} <= set(point)


def bianchi_file(tmp_path):
    """One line that breaks first Bianchi; it carries T for the Lorentz star."""
    path = tmp_path / "broken.jsonl"
    path.write_text(
        '{"dim":4,"g":[1,0,1,0,0,1,0,0,0,1],"rm":[[1,2,3,4,1.0]],"weight":1.0,"T":[1,0,0,0]}\n',
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize(
    "command", ["normal-form", "einstein-check", "einstein-check --metric lorentz"]
)
def test_first_bianchi_violation_is_a_point_error(tmp_path, capsys, command):
    code, out, _ = run(capsys, *command.split(), bianchi_file(tmp_path), "--format", "json")
    assert code == 1
    point = json.loads(out)["points"][0]
    assert point["error"].startswith("first Bianchi identity")
    assert "mus" not in point and "einstein" not in point


# ---- petrov ----


class TestPetrov:
    def test_one_eigvals_and_one_svd_per_chunk(self, tmp_path, capsys, monkeypatch):
        # 320 points are two chunks; the per-point classification ran svd up to 3 times a point
        assert zoo._CHUNK < 320 <= 2 * zoo._CHUNK
        path = star_l_file(tmp_path, cases=(1, 2, 3, 4) * 80)
        calls = Counter()
        for name in ("svd", "eigvals"):
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        code, out, _ = run(capsys, "petrov", path, "--format", "json")
        assert code == 0 and json.loads(out)["aggregate"]["points"] == 320
        assert calls == {"svd": 2, "eigvals": 2}

    def test_one_of_each_case(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "petrov", star_l_file(tmp_path), "--format", "json"
        )
        assert code == 0
        hist = json.loads(out)["aggregate"]["histogram"]
        assert hist == {"case 1": 1, "case 2": 1, "case 3": 1, "case 4": 1}
        assert sum(hist.values()) == json.loads(out)["aggregate"]["points"]

    def test_first_bianchi_violation_is_a_point_error(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"dim":4,"g":[1,0,1,0,0,1,0,0,0,1],"rm":[[1,2,3,4,1.0]],"weight":1.0,"T":[1,0,0,0]}\n',
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "petrov", str(path), "--format", "json")
        assert code == 1
        point = json.loads(out)["points"][0]
        assert point["error"].startswith("first Bianchi identity") and "case" not in point

    def test_missing_t_is_analysis_failure(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "petrov", field_file(tmp_path), "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["aggregate"]["histogram"]["error"] == report["aggregate"]["points"]


# a round S^4 does not commute with the Lorentz star: its relative commutator is
# 2, however large its curvature, as long as the commutator itself is finite
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kappa", [1e300, 1e307])
def test_a_huge_finite_lorentz_commutator_does_not_overflow(tmp_path, capsys, kappa):
    path = tmp_path / "huge.jsonl"
    write_samples(path, [PointSample(dim=4, g=np.eye(4), rm=space_form(4, kappa), weight=1.0, t=np.eye(4)[0])])
    code, out, err = run(capsys, "petrov", str(path), "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out)["points"] == [
        {"index": 0, "error": "operator does not commute with the star: relative residual 2.000e+00 > 1e-09"}
    ]
    code, out, err = run(capsys, "einstein-check", str(path), "--metric", "lorentz", "--format", "json")
    point = json.loads(out)["points"][0]
    assert (code, err, point["einstein"], point["residual"]) == (0, "", False, 2.0)


# ---- integrate ----


class TestIntegrate:
    def test_sphere_euler_characteristic(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "integrate", s4_file(tmp_path, cells=6), "--quantity", "ht",
            "--format", "json",
        )
        assert code == 0
        agg = json.loads(out)["aggregate"]
        npt.assert_allclose(agg["chi"], 2.0, rtol=1e-6, err_msg="chi of the 4-sphere")
        assert abs(agg["tau"]) <= 1e-9
        assert abs(agg["ht_identity_residual"]) <= 1e-9
        assert agg["general_frame_points"] == 0

    def test_quantity_selects_fields(self, tmp_path, capsys):
        path = s4_file(tmp_path)
        _, out_chi, _ = run(capsys, "integrate", path, "--quantity", "chi", "--format", "json")
        agg = json.loads(out_chi)["aggregate"]
        assert "chi" in agg and "tau" not in agg
        _, out_tau, _ = run(capsys, "integrate", path, "--quantity", "tau", "--format", "json")
        agg = json.loads(out_tau)["aggregate"]
        assert "tau" in agg and "chi" not in agg

    def test_non_commuting_points_are_skipped(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "integrate", product_file(tmp_path), "--format", "json"
        )
        assert code == 0
        agg = json.loads(out)["aggregate"]
        assert agg["skipped_points"] == agg["points"]
        assert agg["chi"] == 0.0
        assert agg["ht_identity_residual"] is None  # no usable points: no residual

    def test_first_bianchi_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"dim":4,"g":[1,0,1,0,0,1,0,0,0,1],"rm":[[1,2,3,4,1.0]],"weight":1.0}\n',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "integrate", str(path), "--format", "json")
        assert code == 1 and out == ""
        assert err.startswith("error: first Bianchi identity")

    @pytest.mark.parametrize("chunk", [7, _CHUNK])
    @pytest.mark.parametrize(
        "bad", [{12: "dim 3", 15: "bianchi"}, {5: "bianchi", 12: "dim 3"}, {3: "negative", 9: "dim 3"}]
    )
    def test_the_first_error_is_that_of_integrate_samples(
        self, tmp_path, capsys, monkeypatch, chunk, bad
    ):
        monkeypatch.setattr(zoo, "_CHUNK", chunk)
        lines = star_h_lines(20)
        replacement = {
            "dim 3": sample_to_json(next(iter(gen_space_form(3, 1.0, 2)))),
            "bianchi": '{"dim":4,"g":[1,0,1,0,0,1,0,0,0,1],"rm":[[1,2,3,4,1.0]],"weight":1.0}',
            "negative": lines[3].replace('"weight": 1', '"weight": -1'),
        }
        assert replacement["negative"] != lines[3]
        for at, kind in bad.items():
            lines[at] = replacement[kind]
        path = tmp_path / "errors.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as expected:
            topology.integrate_samples(read_samples(path))
        assert run(capsys, "integrate", str(path)) == (1, "", f"error: {expected.value}\n")

    @pytest.mark.parametrize("bad", [
        {}, {17: "indefinite"}, {20: "singular"}, {9: "singular", 30: "indefinite"}, {9: "indefinite", 30: "singular"},
    ])
    def test_general_frames_agree_across_chunks(self, tmp_path, capsys, monkeypatch, bad):
        # an indefinite g fails in the densities; a zero g makes the frame Gram singular
        samples = general_frame_samples()
        metric = {"indefinite": np.diag([1.0, 2.0, 1.5, -1.0]), "singular": np.zeros((4, 4))}
        for at, kind in bad.items():
            samples[at] = dataclasses.replace(samples[at], g=metric[kind])
        path = tmp_path / "general.jsonl"
        write_samples(path, samples)
        samples = read_samples(path)  # the values the command reads
        expected = None  # the error of the first point that fails alone
        for sample in samples:
            try:
                topology.integrate_samples([sample])
            except ValueError as err:
                expected = err
                break
        assert (expected is None) == (not bad)
        outcomes = []
        for chunk in (1, 7, 256):
            monkeypatch.setattr(zoo, "_CHUNK", chunk)
            try:
                outcomes.append(topology.integrate_samples(iter(samples)))
            except ValueError as err:
                outcomes.append((type(err), str(err)))
            code, out, err = run(capsys, "integrate", str(path), "--format", "json")
            if expected is None:
                assert code == 0 and json.loads(out)["aggregate"] == {
                    "points": 40, "skipped_points": outcomes[-1].skipped_points,
                    "general_frame_points": outcomes[-1].general_frame_points,
                    "total_weight": outcomes[-1].total_weight, "chi": outcomes[-1].chi_estimate,
                    "tau": outcomes[-1].tau_estimate, "correction": outcomes[-1].correction_estimate,
                    "ht_identity_residual": outcomes[-1].ht_identity_residual,
                }
            else:
                assert (code, out, err) == (1, "", f"error: {expected}\n")
        assert outcomes == outcomes[:1] * 3
        if expected is None:
            result = outcomes[0]
            assert 0 < result.general_frame_points and 0 < result.skipped_points
            assert result.general_frame_points + result.skipped_points < result.points
        else:
            assert outcomes[0] == (type(expected), str(expected))
            # the metric rule on g comes first, as in validate, for an indefinite and a zero g alike
            assert str(expected) == "g must be positive definite"

    def test_general_frames_do_not_call_the_one_point_density(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "general.jsonl"
        write_samples(path, general_frame_samples())
        samples = read_samples(path)
        before = topology.integrate_samples(samples)

        def refuse(*args, **kwargs):
            raise AssertionError("chi_tau_densities called")

        monkeypatch.setattr(topology, "chi_tau_densities", refuse)
        assert topology.integrate_samples(samples) == before and before.general_frame_points > 0
        code, out, _ = run(capsys, "integrate", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["aggregate"]["chi"] == before.chi_estimate

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        path = s4_file(tmp_path)
        _, out, _ = run(capsys, "integrate", path, "--format", "json")
        target = tmp_path / "report.json"
        code, piped, _ = run(
            capsys, "integrate", path, "--format", "json", "-o", str(target)
        )
        assert code == 0 and piped == ""
        assert target.read_text(encoding="utf-8") == out


# ---- sums ----


class TestSums:
    def test_obstructed_sum(self, capsys):
        code, out, _ = run(
            capsys, "sums", "CP2 # CP2 # S1xS3 # S1xS3", "--format", "json"
        )
        assert code == 0
        agg = json.loads(out)["aggregate"]
        assert (agg["chi"], agg["tau"]) == (0, 2)
        assert "star-L-Einstein" in agg["verdict"]

    def test_k3_values(self, capsys):
        code, out, _ = run(capsys, "sums", "K3", "--format", "json")
        agg = json.loads(out)["aggregate"]
        assert code == 0 and (agg["chi"], agg["tau"]) == (24, -16)
        assert agg["verdict"] is None

    @pytest.mark.parametrize("degree", [1, 3, 4, 5])
    def test_hypersurface_degrees(self, capsys, degree):
        code, out, _ = run(capsys, "sums", f"HYP({degree})", "--format", "json")
        agg = json.loads(out)["aggregate"]
        d = degree
        assert (agg["chi"], agg["tau"]) == ((d * d - 4 * d + 6) * d, (4 - d * d) * d // 3)

    @pytest.mark.parametrize(
        "expr", ["BAD", "HYP(0)", "HYP(x)", "K3 # # CP2", "HYP(1_0)", "HYP(+3)", "HYP(\u0663)", "HYP(-3)"]
    )
    def test_bad_expression_exits_two(self, capsys, expr):
        code, _, err = run(capsys, "sums", expr)
        assert code == 2
        assert err.startswith("error:")


# ---- report invariants ----


def mixed_lines(seed=23):
    """JSON lines of every kind of point in seeded order: an S^4 grid, product
    spheres with h, star-h points, and star-L points with T in scaled rotated
    frames."""
    rng = np.random.default_rng(seed)
    samples = list(gen_space_form(4, 1.0, (1, 1, 2, 2)))
    samples += list(gen_product_spheres(1.0, 2.0, (1, 2, 1, 2), h_scales=(2.0, 1.0)))
    for case in (1, 2, 3, 4, 1, 3):
        c = complex_case_matrix(case, rng)
        rotation = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        rotation[:, 0] *= np.sign(np.linalg.det(rotation))
        frame = rotation @ np.diag(rng.uniform(0.5, 2.0, 4))
        samples.append(gen_synthetic_star_L(0.5 * (-c.real - c.real.T), 0.5 * (-c.imag - c.imag.T), frame))
    lines = [sample_to_json(sample) for sample in samples] + star_h_lines(8, seed)
    return [lines[i] for i in rng.permutation(len(lines))]


# ---- the stacked dimension-4 reader ----


def reader_lines():
    """The mixed file, a 3-dimensional grid, a flat torus, product spheres
    without h, and lines that reach the reader's choices: an oriented (4, 2)
    pair written both ways, a zero row with a repeated index, agreeing
    duplicates (the last counts), integer values and an empty rm."""
    lines = mixed_lines()
    lines += [sample_to_json(s) for s in gen_space_form(3, 1.0, (1, 2, 2))]
    lines += [sample_to_json(s) for s in gen_space_form(4, 0.0, (1, 1, 1, 2))]
    lines += [sample_to_json(s) for s in gen_product_spheres(1.0, 2.0, (1, 1, 2, 1))]
    g = "[2, 0.5, 1, 0, 0, 1, 0, 0.25, 0, 3]"
    lines += [
        '{"dim": 4, "g": %s, "rm": [[4, 2, 1, 3, 0.5], [2, 4, 3, 1, 0.5], [1, 1, 2, 3, 0.0], '
        '[1, 2, 1, 2, -1], [2, 1, 2, 1, -1.0000000000001], [3, 4, 1, 2, 2]], "weight": 2}' % g,
        '{"dim": 4, "g": %s, "h": %s, "T": [1, 0, 0, 0], "rm": [], "weight": 0, "coords": []}' % (g, g),
    ]
    return lines


class TestStackedReader:
    @pytest.mark.parametrize("size", [1, 7, 256])
    def test_stacks_equal_the_gather_over_read_samples(self, tmp_path, monkeypatch, size):
        path = tmp_path / "reader.jsonl"
        path.write_text("\n".join(reader_lines()) + "\n", encoding="utf-8")
        monkeypatch.setattr(zoo, "_CHUNK", size)
        chunks = list(zoo._read_chunks(path))
        samples = read_samples(path)
        assert [c.start for c in chunks] == list(range(0, len(samples), size))
        assert sum(c.size for c in chunks) == len(samples)

        four = [(i, s) for i, s in enumerate(samples) if s.dim == 4]
        rm = np.stack([s.rm.components for _, s in four])
        i, j = normal_forms._BASIS.pairs0.T
        expected = {
            "index": np.array([i for i, _ in four]),
            "k0": rm[:, i[:, None], j[:, None], i[None, :], j[None, :]],
            "g": np.stack([s.g for _, s in four]),
            "h": np.stack([s.g if s.h is None else s.h for _, s in four]),
            "t": np.stack([np.full(4, np.nan) if s.t is None else s.t for _, s in four]),
            "weights": np.array([s.weight for _, s in four]),
        }
        for name, value in expected.items():
            got = np.concatenate([getattr(c, name) for c in chunks])
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name
        others = [(i, s.rm.to_sparse()) for c in chunks for i, s in c.others]
        assert others == [(i, s.rm.to_sparse()) for i, s in enumerate(samples) if s.dim != 4]
        assert len(others) == 4


def optional_key_lines():
    """A point with h, T and coords, written with every subset of those keys, and
    signed zeros: listed zero rows of both signs, and -0.0 in every field."""
    full = json.loads(reader_lines()[-1])
    full.update(rm=[[1, 2, 1, 2, 0.0], [1, 3, 2, 4, -0.0], [1, 4, 2, 3, -0.5], [2, 3, 1, 4, -0.5]])
    full.update(T=[1, -0.0, 0, 0], coords=[-0.0, 0.5, 1e-310], weight=-0.0)
    full["g"][1] = full["h"][3] = -0.0
    lines = []
    for keep in range(8):
        sample = dict(full)
        for bit, key in enumerate(("h", "T", "coords")):
            if not keep >> bit & 1:
                del sample[key]
        lines.append(json.dumps(sample))
    return lines


class TestReadSamples:
    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_samples_are_bit_identical_to_sample_from_json(self, tmp_path, monkeypatch, suffix, chunk):
        monkeypatch.setattr(zoo, "_CHUNK", chunk)
        lines = reader_lines() + optional_key_lines()
        path = tmp_path / f"reader{suffix}"
        with (gzip.open if suffix.endswith(".gz") else open)(path, "wt", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        samples = read_samples(path)
        assert len(samples) == len(lines) == 40
        for line, got in zip(lines, samples):
            want = sample_from_json(line)
            assert (got.dim, got.rm.dim) == (want.dim, want.rm.dim)
            assert type(got.weight) is float and repr(got.weight) == repr(want.weight)
            arrays = [(got.g, want.g), (got.rm.components, want.rm.components)]
            for name in ("h", "t", "coords"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), name
                if a is not None:
                    arrays.append((a, b))
            for a, b in arrays:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()  # the sign of every zero included
                assert np.array_equal(np.signbit(a), np.signbit(b))
        assert not samples[0].rm.components.flags.writeable

    def test_listed_zeros_keep_their_sign(self, tmp_path):
        path = tmp_path / "zeros.jsonl"
        path.write_text("\n".join(optional_key_lines()) + "\n", encoding="utf-8")
        r = read_samples(path)[0].rm.components
        assert np.signbit(r[1, 0, 0, 1]) and not np.signbit(r[0, 1, 0, 1])  # [1, 2, 1, 2, 0.0]
        assert not np.signbit(r[1, 0, 2, 3]) and not np.signbit(r[0, 0, 1, 2])  # not listed


# ---- validate on the stacked reader ----

BIANCHI_BREAKER = '{"dim": 4, "g": [1, 0, 1, 0, 0, 1, 0, 0, 0, 1], "rm": [[1, 2, 3, 4, 0.3]], "weight": 1}'
FAILURE_KINDS = {
    "first Bianchi identity": BIANCHI_BREAKER,
    "indefinite g": BIANCHI_BREAKER.replace("0, 0, 0, 1]", "0, 0, 0, -1]"),
    "g of 1e308": BIANCHI_BREAKER.replace("[1, 0, 1, 0, 0, 1, 0, 0, 0, 1]", "[1e308, 0, 1e308, 0, 0, 1e308, 0, 0, 0, 1e308]"),
    "indefinite h": BIANCHI_BREAKER.replace("0.3]]", "0.0]]").replace(
        '"rm"', '"h": [1, 0, 1, 0, 0, -2, 0, 0, 0, 1], "rm"'
    ),
    "non-unit T": BIANCHI_BREAKER.replace("0.3]]", "0.0]]").replace('"rm"', '"T": [0, 2, 0, 0], "rm"'),
    "non-unit T before a negative weight": BIANCHI_BREAKER.replace("0.3]]", "0.0]]")
    .replace('"rm"', '"T": [0.5, 0, 0, 0], "rm"')
    .replace('"weight": 1', '"weight": -1'),
    "negative weight": BIANCHI_BREAKER.replace("0.3]]", "0.0]]").replace('"weight": 1', '"weight": -0.25'),
    "dimension 3": sample_to_json(next(iter(gen_space_form(3, 2.0, 2)))),
    "dimension 3 with a negative weight": sample_to_json(next(iter(gen_space_form(3, 1.0, 2)))).replace(
        '"weight": ', '"weight": -'
    ),
    "dimension 5": sample_to_json(next(iter(gen_space_form(5, 1.0, 1)))),
}


def failure_kinds_lines():
    """The mixed file with one point of every kind that validate reports, spread
    over the chunks of seven lines."""
    lines = mixed_lines()
    for k, line in enumerate(FAILURE_KINDS.values()):
        lines.insert(2 * k + 3, line)
    return lines


def per_point_report(lines, path, tol=1e-9):
    """The validate report built from sample_from_json and validate_sample, one line at a time."""
    points = []
    for index, line in enumerate(lines):
        try:
            validate_sample(sample_from_json(line), tol=tol)
        except TensorValidationError as err:
            points.append({
                "index": index, "ok": False, "error": str(err),
                "identity": err.identity, "indices": list(err.indices), "residual": err.residual,
            })
        except (GeometryError, ValueError) as err:
            points.append({"index": index, "ok": False, "error": str(err)})
        else:
            points.append({"index": index, "ok": True})
    failures = sum(not p["ok"] for p in points)
    report = {
        "command": "validate", "version": curvforms.__version__, "tolerances": {"tol": tol},
        "file": str(path), "points": points, "aggregate": {"points": len(points), "failures": failures},
    }
    return report


# the commands that read a file chunk by chunk and report every point
STREAMED_COMMANDS = [
    "validate",
    "einstein-check --metric g",
    "einstein-check --metric h",
    "einstein-check --metric lorentz",
    "normal-form",
    "petrov",
]


class TestValidateChunks:
    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    @pytest.mark.parametrize("chunk", [7, _CHUNK])
    def test_reports_equal_the_per_point_verdicts(self, tmp_path, capsys, monkeypatch, suffix, chunk):
        monkeypatch.setattr(zoo, "_CHUNK", chunk)
        lines = failure_kinds_lines()
        path = tmp_path / f"kinds{suffix}"
        with (gzip.open if suffix.endswith(".gz") else open)(path, "wt", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        expected = per_point_report(lines, path)
        code, out, err = run(capsys, "validate", str(path), "--format", "json")
        assert (code, out, err) == (1, cli.render_json(expected), "")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (1, cli.render_text(expected, ["index", "ok", "error"]), "")

        errors = {p["index"]: p.get("error") for p in expected["points"]}
        by_kind = {kind: errors[2 * k + 3] for k, kind in enumerate(FAILURE_KINDS)}
        assert by_kind.pop("dimension 3 with a negative weight").startswith("weight must be a finite nonnegative")
        assert by_kind == {
            "first Bianchi identity": "first Bianchi identity violated at indices (1, 2, 3, 4) with residual 0.3",
            "indefinite g": "g must be positive definite",
            # positive definite by Cholesky, as the analyses find it: its first violation is the Bianchi break
            "g of 1e308": "first Bianchi identity violated at indices (1, 2, 3, 4) with residual 0.3",
            "indefinite h": "h must be positive definite",
            "non-unit T": "g(T, T) = 4, expected 1",
            "non-unit T before a negative weight": "g(T, T) = 0.25, expected 1",
            "negative weight": "weight must be a finite nonnegative number, got -0.25",
            "dimension 3": None,
            "dimension 5": None,
        }
        assert expected["aggregate"]["failures"] == 8

    def test_well_formed_dimension_4_lines_take_no_per_point_call(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-point call")

        lines = [line for line in failure_kinds_lines() if json.loads(line)["dim"] == 4]
        path = tmp_path / "four.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = cli.render_json(per_point_report(lines, path))
        for name in ("sample_from_json", "validate_sample", "_sample_error"):
            monkeypatch.setattr(zoo, name, refuse)
        assert run(capsys, "validate", str(path), "--format", "json") == (1, expected, "")

    @pytest.mark.parametrize("command", STREAMED_COMMANDS)
    def test_the_command_holds_one_chunk_at_a_time(self, tmp_path, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("the whole file was read")

        monkeypatch.setattr(zoo, "read_samples", refuse)
        chunks = []

        def counted(path):
            for chunk in zoo._read_chunks(path):
                chunks.append(chunk.size)
                yield chunk

        monkeypatch.setattr(cli, "_read_chunks", counted)
        monkeypatch.setattr(zoo, "_CHUNK", 7)
        lines = failure_kinds_lines()
        path = tmp_path / "kinds.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, _ = run(capsys, *command.split(), str(path))
        assert code == 1 and chunks == [7] * (len(lines) // 7) + [len(lines) % 7]


# ---- einstein-check and petrov on the stacked reader ----

def analysis_kinds_lines():
    """failure_kinds_lines and a point of every error branch of einstein-check and
    petrov: first-Bianchi breakers with T (one also with a non-unit T), an
    indefinite g with a unit T, flat tensors with T (one non-unit), product
    spheres with T (not Lorentz-commuting), a star-L point whose g(T, T) is
    1 + 4e-9, a dimension-3 point with h and T, and a point whose Lambda^2
    values overflow."""
    with_t = BIANCHI_BREAKER.replace('"rm"', '"T": [1, 0, 0, 0], "rm"')
    product = next(iter(gen_product_spheres(1.0, 2.0, 2)))
    star_l = json.loads(next(line for line in mixed_lines() if '"T"' in line))
    star_l["T"] = [x * (1.0 + 2e-9) for x in star_l["T"]]
    dim3 = next(iter(gen_space_form(3, 1.0, 2)))
    extra = [
        with_t,
        with_t.replace("[1, 0, 0, 0]", "[0, 2, 0, 0]"),
        with_t.replace("0.3]]", "0.0]]").replace("0, 0, 0, 1]", "0, 0, 0, -1]"),
        '{"dim": 4, "g": [1, 0, 1, 0, 0, 1, 0, 0, 0, 1], "T": [1, 0, 0, 0], "rm": [], "weight": 1}',
        '{"dim": 4, "g": [1, 0, 1, 0, 0, 1, 0, 0, 0, 1], "T": [3, 0, 0, 0], "rm": [], "weight": 1}',
        sample_to_json(dataclasses.replace(product, t=np.array([0.0, 1.0, 0.0, 0.0]))),
        json.dumps(star_l),
        sample_to_json(dataclasses.replace(dim3, h=2.0 * np.eye(3), t=np.array([1.0, 0.0, 0.0]))),
        sample_to_json(OVERFLOWING),
    ]
    lines = failure_kinds_lines()
    for k, line in enumerate(extra):
        lines.insert(3 * k + 1, line)
    return lines


def einstein_reference(index, sample, metric, tol):
    """The entry of the per-point einstein-check closure that the command ran before it streamed."""
    try:
        g = np.asarray(sample.g, dtype=float)
        if metric == "lorentz":
            if sample.t is None:
                raise GeometryError("sample has no T vector")
            rep = weyl_split_check(sample.rm, g, np.asarray(sample.t, dtype=float), tol=tol)
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
        try:
            rep = is_star_h_einstein(sample.rm, hm, tol=tol)
        except DegenerateMetricError as err:  # the library calls its metric h; the command names the field
            raise DegenerateMetricError(str(err).replace("h must", f"{metric} must", 1)) from None
        return {
            "index": index,
            "einstein": bool(rep.is_einstein),
            "residual": rep.commutator_residual / max(rep.operator_norm, 1e-300),
            "f": rep.f_fitted,
            "trace_residual": rep.trace_residual,
        }
    except (GeometryError, ValueError) as err:
        return {"index": index, "error": str(err)}


def petrov_reference(index, sample, tol):
    """The entry of the per-point petrov closure that the command ran before it streamed."""
    try:
        if sample.t is None:
            raise GeometryError("sample has no T vector")
        form = classify_complex(
            sample.rm, np.asarray(sample.g, dtype=float), np.asarray(sample.t, dtype=float), tol=tol
        )
        return {"index": index, "case": form.case_id}
    except (GeometryError, ValueError) as err:
        return {"index": index, "error": str(err)}


def reference_report(command, path, tol):
    """The report of ``command`` built one point at a time from read_samples and the library."""
    name, *flags = command.split()
    samples = read_samples(path)
    if name == "petrov":
        points = [petrov_reference(i, s, tol) for i, s in enumerate(samples)]
        histogram, extra = {}, {}
        for p in points:
            key = "error" if "error" in p else f"case {p['case']}"
            histogram[key] = histogram.get(key, 0) + 1
        columns = ["index", "case", "error"]
    else:
        metric = flags[-1]
        points = [einstein_reference(i, s, metric, tol) for i, s in enumerate(samples)]
        histogram, extra = {"true": 0, "false": 0, "error": 0}, {"flags": {"metric": metric}}
        for p in points:
            histogram["error" if "error" in p else str(p["einstein"]).lower()] += 1
        columns = ["index", "einstein", "residual", "f", "trace_residual", "scal", "error"]
    report = {
        "command": name, "version": curvforms.__version__, "tolerances": {"tol": tol}, "file": str(path),
        **extra, "points": points, "aggregate": {"points": len(points), "histogram": histogram},
    }
    return (0 if histogram.get("error", 0) == 0 else 1), report, columns


ANALYSES = [
    "einstein-check --metric g",
    "einstein-check --metric h",
    "einstein-check --metric lorentz",
    "petrov",
]


# the overflowing point and the metric of 1e308 overflow, as intended
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestAnalysisChunks:
    @pytest.mark.parametrize("command", ANALYSES)
    @pytest.mark.parametrize("lines", ["chunked", "kinds"])
    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_reports_equal_the_per_point_closures(self, tmp_path, capsys, monkeypatch, command, lines, chunk):
        if lines == "chunked":
            path, tols = chunked_file(tmp_path), [1e-9]
        else:
            path, tols = tmp_path / "kinds.jsonl", [1e-9, 1e-6]
            path.write_text("\n".join(analysis_kinds_lines()) + "\n", encoding="utf-8")
        monkeypatch.setattr(zoo, "_CHUNK", chunk)
        for tol in tols:
            code, report, columns = reference_report(command, path, tol)
            got = run(capsys, *command.split(), str(path), "--tol", repr(tol), "--format", "json")
            assert got == (code, cli.render_json(report), ""), tol
            got = run(capsys, *command.split(), str(path), "--tol", repr(tol))
            assert got == (code, cli.render_text(report, columns), ""), tol

    def test_every_error_branch_is_reached(self, tmp_path):
        path = tmp_path / "kinds.jsonl"
        path.write_text("\n".join(analysis_kinds_lines()) + "\n", encoding="utf-8")
        branches = [
            "sample has no h metric", "sample has no T vector", "h must be positive definite",
            "first Bianchi identity violated", "g must be positive definite", "g(T, T) = ",
            "could not complete t to a g-orthonormal frame",
            "flat tensors have no complex classification", "operator does not commute with the star",
            "the star-commuting test is specific to dim 4", "the Weyl split is specific to dim 4",
            "complex classification is specific to dim 4", "Eigenvalues did not converge",
        ]
        errors = set()
        for command in ANALYSES:
            for tol in (1e-9, 1e-6):
                points = reference_report(command, path, tol)[1]["points"]
                assert any("error" not in p for p in points), command
                errors.update(p["error"] for p in points if "error" in p)
        for branch in branches:
            assert any(e.startswith(branch) for e in errors), branch
        assert all(any(e.startswith(branch) for branch in branches) for e in errors), errors

    def test_the_added_points_meet_their_branches_in_order(self, tmp_path):
        path = tmp_path / "kinds.jsonl"
        path.write_text("\n".join(analysis_kinds_lines()) + "\n", encoding="utf-8")
        bianchi, incomplete, off_unit = "first Bianchi identity", "could not complete", "g(T, T) = 1.0000000"
        indefinite = "g must be positive definite"
        expected = {
            "einstein-check --metric g": [
                bianchi, bianchi, indefinite, None, None, None, None,
                "the star-commuting test", "Eigenvalues did not converge",
            ],
            "einstein-check --metric h": ["sample has no h metric"] * 7 + ["the star-commuting test", "sample has no h"],
            "einstein-check --metric lorentz": [
                bianchi, "g(T, T) = 4,", indefinite, None, "g(T, T) = 9,", None, off_unit, "the Weyl split", incomplete,
            ],
            "petrov": [
                bianchi, "g(T, T) = 4,", indefinite, "flat tensors", "g(T, T) = 9,", "operator does not commute",
                off_unit, "complex classification", incomplete,
            ],
        }
        for command, prefixes in expected.items():
            for tol in (1e-9, 1e-6):
                points = reference_report(command, path, tol)[1]["points"]
                if command in ("einstein-check --metric lorentz", "petrov") and tol == 1e-6:
                    prefixes = prefixes[:6] + [None] + prefixes[7:]  # g(T, T) is within this tol
                got = [points[3 * k + 1].get("error") for k in range(len(prefixes))]
                assert [e if p is None else e and e[:len(p)] for e, p in zip(got, prefixes)] == prefixes, command

    @pytest.mark.parametrize("command", ANALYSES)
    def test_the_commands_read_no_sample_and_call_no_one_point_analysis(self, tmp_path, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("per-point call")

        lines = [line for line in analysis_kinds_lines() if json.loads(line)["dim"] == 4]
        path = tmp_path / "four.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = run(capsys, *command.split(), str(path), "--format", "json")
        names = ("read_samples", "sample_from_json", "is_star_h_einstein", "weyl_split_check", "classify_complex")
        for module in (curvforms, cli, zoo, normal_forms, topology, complex_forms):
            for name in names:
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert run(capsys, *command.split(), str(path), "--format", "json") == expected

    @pytest.mark.parametrize("command", ["normal-form", "einstein-check --metric g", *ANALYSES[2:]])
    def test_an_overflowing_point_warns_once(self, tmp_path, capsys, monkeypatch, command):
        lines = star_h_lines(2, seed=19)
        lines.insert(1, sample_to_json(OVERFLOWING))
        path = tmp_path / "overflow.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reports, shown = [], []
        for chunk in (1, _CHUNK):
            monkeypatch.setattr(zoo, "_CHUNK", chunk)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                reports.append(run(capsys, *command.split(), str(path), "--format", "json"))
            shown.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
        assert reports[0] == reports[1] and shown[0] == shown[1]
        assert len(set(shown[0])) == len(shown[0])
        if command in ("normal-form", "einstein-check --metric g"):
            assert len(shown[0]) == 3 and reports[0][0] == (0 if command == "normal-form" else 1)
            point = json.loads(reports[0][1])["points"][1]
            assert point.get("note", point.get("error")) == "Eigenvalues did not converge"

    def test_overflowing_points_in_many_chunks_warn_once_under_the_default_filters(self, tmp_path):
        lines = star_h_lines(2, seed=19)
        lines.insert(1, sample_to_json(OVERFLOWING))
        path = tmp_path / "overflows.jsonl"
        path.write_text("\n".join(lines * 100) + "\n", encoding="utf-8")  # two chunks, 100 overflowing points
        env = dict(os.environ, PYTHONPATH=str(Path(curvforms.__file__).parents[1]))
        env.pop("PYTHONWARNINGS", None)
        out = subprocess.run(
            [sys.executable, "-m", "curvforms", "normal-form", str(path), "--format", "json"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        shown = [line for line in out.stderr.splitlines() if "RuntimeWarning" in line]
        assert out.returncode == 0 and len(shown) == len(set(shown)) == 3, out.stderr


class TestLorentzPreconditions:
    def test_an_indefinite_g_reads_as_validate_says_on_every_lorentz_path(self, tmp_path, capsys):
        # a star-L tensor with a unit T of an indefinite g
        star_l = sample_from_json(next(line for line in mixed_lines() if '"T"' in line))
        sample = dataclasses.replace(star_l, g=np.diag([1.0, 1.0, 1.0, -1.0]), t=np.eye(4)[0])
        message = "g must be positive definite"
        with pytest.raises(DegenerateMetricError, match=f"^{message}$"):
            validate_sample(sample)
        calls = (adapted_frame, classify_complex, weyl_split_check, count_spacelike_critical)
        for call in calls:
            args = (sample.g, sample.t) if call is adapted_frame else (sample.rm, sample.g, sample.t)
            with pytest.raises(DegenerateMetricError, match=f"^{message}$"):
                call(*args)
        path = tmp_path / "indefinite.jsonl"
        path.write_text(sample_to_json(sample) + "\n", encoding="utf-8")
        for command in ("petrov", "einstein-check --metric lorentz"):
            code, out, _ = run(capsys, *command.split(), str(path), "--format", "json")
            assert (code, json.loads(out)["points"]) == (1, [{"index": 0, "error": message}]), command

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the corpus's overflowing point, as intended
    def test_petrov_checks_t_at_its_tol_as_the_lorentz_check_does(self, tmp_path, capsys):
        # point 19 of the kinds corpus is a star-L point whose g(T, T) is 1 + 4e-9
        path = tmp_path / "kinds.jsonl"
        path.write_text("\n".join(analysis_kinds_lines()) + "\n", encoding="utf-8")
        sample = read_samples(path)[19]
        for tol, unit in ((1e-9, False), (1e-6, True)):
            points = {
                command: json.loads(run(capsys, *command.split(), str(path), "--tol", repr(tol), "--format", "json")[1])
                ["points"][19]
                for command in ("petrov", "einstein-check --metric lorentz")
            }
            errors = {command: point.get("error", "") for command, point in points.items()}
            assert all(e.startswith("" if unit else "g(T, T) = 1.000000004") for e in errors.values()), tol
            if unit:
                form = classify_complex(sample.rm, sample.g, sample.t, tol=tol)
                assert points["petrov"] == {"index": 19, "case": form.case_id}


GOOD_LINE = '{"dim": 4, "g": [1, 0, 1, 0, 0, 1, 0, 0, 0, 1], "rm": [[1, 2, 1, 2, -1.0]], "weight": 0.5}'

MALFORMED_LINES = {
    "blank line": "",
    "invalid JSON": '{"dim": 4, "g": [1, 0, 1',
    "NaN": GOOD_LINE.replace("0.5}", "NaN}"),
    "unknown key": GOOD_LINE.replace("}", ', "extra": 1}'),
    "missing key": GOOD_LINE.replace(', "weight": 0.5', ""),
    "bad dim": GOOD_LINE.replace('"dim": 4', '"dim": 4.0'),
    "g of the wrong length": GOOD_LINE.replace("[1, 0, 1, 0, 0, 1, 0, 0, 0, 1]", "[1, 0, 1, 0, 0, 1, 0, 0, 1]"),
    "a bool among the numbers": GOOD_LINE.replace("[1, 0, 1, 0, 0, 1,", "[true, 0, 1, 0, 0, 1,"),
    "rm row of length 4": GOOD_LINE.replace("[1, 2, 1, 2, -1.0]", "[1, 2, 1, -1.0]"),
    "float index": GOOD_LINE.replace("[1, 2, 1, 2, -1.0]", "[1.0, 2, 1, 2, -1.0]"),
    "index out of range": GOOD_LINE.replace("[1, 2, 1, 2, -1.0]", "[1, 2, 1, 5, -1.0]"),
    "nonzero repeated-index row": GOOD_LINE.replace("[1, 2, 1, 2, -1.0]", "[1, 2, 1, 2, -1.0], [1, 1, 2, 3, 0.5]"),
    "disagreeing duplicates": GOOD_LINE.replace("[1, 2, 1, 2, -1.0]", "[1, 2, 1, 2, -1.0], [2, 1, 2, 1, -2.0]"),
    "1e999": GOOD_LINE.replace("[1, 2, 1, 2, -1.0]", "[1, 2, 1, 2, 1e999]"),
}


class TestFormatErrors:
    @pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
    def test_every_command_reports_the_reader_error(self, tmp_path, capsys, case):
        lines = [GOOD_LINE] * 9
        lines[5] = MALFORMED_LINES[case]
        path = tmp_path / "malformed.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, expected = run(capsys, "validate", str(path))
        assert code == 2 and expected.startswith("error: line 6: ")
        for command in ("integrate", "normal-form"):
            assert run(capsys, command, str(path)) == (2, "", expected), command

    @pytest.mark.parametrize("field", ["g", "h", "T", "rm", "weight", "coords"])
    @pytest.mark.parametrize("command", ["validate", "integrate", "normal-form"])
    def test_an_overflowing_literal_is_a_format_error(self, tmp_path, capsys, command, field):
        sample = json.loads(GOOD_LINE)
        sample.update(h=list(sample["g"]), T=[1, 0, 0, 0], coords=[0.5, 0.5, 0.5, 0.5])
        line = json.dumps(sample)
        if field == "weight":
            sample["weight"] = "X"
        else:
            (sample[field][0] if field == "rm" else sample[field])[-1] = "X"
        bad = json.dumps(sample).replace('"X"', "1e999")
        path = tmp_path / "overflow.jsonl"
        path.write_text(line + "\n" + bad + "\n", encoding="utf-8")
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: ") and "finite" in err

    def test_a_format_error_after_an_analysis_error_still_exits_two(self, tmp_path, capsys):
        broken = '{"dim":4,"g":[1,0,1,0,0,1,0,0,0,1],"rm":[[1,2,3,4,1.0]],"weight":1.0}'
        lines = [broken] + [GOOD_LINE] * (3 * _CHUNK)
        lines[2 * _CHUNK + 5] = MALFORMED_LINES["invalid JSON"]
        path = tmp_path / "late.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "integrate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {2 * _CHUNK + 6}: invalid JSON")
        lines[2 * _CHUNK + 5] = GOOD_LINE
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "integrate", str(path))
        assert code == 1 and err.startswith("error: first Bianchi identity")

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_a_damaged_gzip_file_is_a_format_error(self, tmp_path, capsys, damage):
        path = tmp_path / "s4.jsonl.gz"
        write_samples(path, gen_space_form(4, 1.0, (2, 2, 4, 4)))
        data = bytearray(path.read_bytes())
        if damage == "truncated":
            data = data[: len(data) // 2]
        else:
            data[100:160] = bytes(b ^ 0xFF for b in data[100:160])
        with pytest.raises(EOFError if damage == "truncated" else zlib.error):
            gzip.decompress(bytes(data))
        path.write_bytes(bytes(data))
        with pytest.raises(SampleFormatError, match="cannot read"):
            read_samples(path)
        for command in FILE_COMMANDS:
            code, out, err = run(capsys, *command.split(), str(path))
            assert (code, out) == (2, ""), command
            assert err.startswith(f"error: cannot read {path}: "), command

    def test_integrate_memory_does_not_grow_with_the_file(self, tmp_path, capsys, monkeypatch):
        chunk = 64  # a smaller chunk keeps the files small
        monkeypatch.setattr(zoo, "_CHUNK", chunk)
        lines = [sample_to_json(s) for s in gen_space_form(4, 1.0, (2, 2, 4, 4))]

        def peak(copies):
            path = tmp_path / f"s4_{copies}.jsonl"
            path.write_text("\n".join(lines * copies) + "\n", encoding="utf-8")
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, "integrate", str(path), "--format", "json")
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (small_code, small), (large_code, large) = peak(4), peak(64)  # 4 and 64 chunks
        assert small_code == large_code == 0
        assert large <= 1.5 * small, (small, large)


FILE_COMMANDS = [
    "validate",
    "einstein-check --metric g",
    "einstein-check --metric h",
    "einstein-check --metric lorentz",
    "normal-form",
    "petrov",
    "integrate",
]


class TestReaderRejects:
    @pytest.mark.parametrize("line, message", [
        (GOOD_LINE.replace("0.5}", "true}"), "weight must be a number, got True"),
        (GOOD_LINE.replace("}", ', "coords": null}'), "coords must be a list of numbers"),
        (GOOD_LINE.replace("}", ', "h": null}'), "h must list the 10 lower-triangle entries"),
        (GOOD_LINE.replace("}", ', "T": null}'), "T must list 4 components"),
    ])
    def test_every_reader_gives_the_line_s_error(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(GOOD_LINE + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(SampleFormatError) as info:
            sample_from_json(line, line_number=2)
        assert str(info.value) == f"line 2: {message}"
        for command in FILE_COMMANDS:
            assert run(capsys, *command.split(), str(path)) == (2, "", f"error: line 2: {message}\n"), command
        with pytest.raises(SampleFormatError, match=message):
            read_samples(path)


class TestReports:
    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_gzip_and_chunk_size_do_not_change_bytes(self, tmp_path, capsys, monkeypatch, command):
        text = "\n".join(mixed_lines()) + "\n"
        plain, packed = tmp_path / "mixed.jsonl", tmp_path / "mixed.jsonl.gz"
        plain.write_text(text, encoding="utf-8")
        with gzip.open(packed, "wt", encoding="utf-8") as fh:
            fh.write(text)

        def report(path):
            code, out, _ = run(capsys, *command.split(), str(path), "--format", "json")
            return code, out.replace(json.dumps(str(path)), '"FILE"')

        reports = [report(plain), report(packed)]
        chunks, line_chunks = [], zoo._line_chunks

        def counted(path, size):
            for lines in line_chunks(path, size):
                chunks.append(len(lines))
                yield lines

        monkeypatch.setattr(zoo, "_line_chunks", counted)
        lines = text.count("\n")
        for chunk in (1, 7):
            monkeypatch.setattr(zoo, "_CHUNK", chunk)  # the one chunk size of every reader
            chunks.clear()
            reports.append(report(plain))
            assert chunks == [chunk] * (lines // chunk) + [lines % chunk] * (lines % chunk > 0), chunk
        assert '"FILE"' in reports[0][1]
        assert reports[1:] == reports[:1] * 3

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        path = field_file(tmp_path)
        _, first, _ = run(capsys, "normal-form", path)
        _, second, _ = run(capsys, "normal-form", path)
        assert first == second

    def test_json_reports_carry_version_and_tolerances(self, tmp_path, capsys):
        _, out, _ = run(capsys, "validate", s4_file(tmp_path), "--format", "json")
        report = json.loads(out)
        assert report["version"] and report["tolerances"]["tol"] == 1e-9

    def test_tol_flag_recorded(self, tmp_path, capsys):
        _, out, _ = run(
            capsys, "validate", s4_file(tmp_path), "--tol", "1e-6", "--format", "json"
        )
        assert json.loads(out)["tolerances"]["tol"] == 1e-6

    def test_text_report_is_aligned(self, tmp_path, capsys):
        _, out, _ = run(capsys, "einstein-check", field_file(tmp_path), "--metric", "h")
        lines = out.splitlines()
        header = next(l for l in lines if l.startswith("index"))
        rows = [l for l in lines if l.lstrip().split()[:2][-1:] == ["yes"]]
        assert len(rows) == 5
        for row in rows:
            assert row.index("yes") == header.index("einstein")


# ---- reports are built as JSON values ----


def _jsonable(value):
    """The renderer's pass over every value before reports were built as JSON
    values: numpy scalars and arrays to Python, tuples to lists, non-finite
    floats to None.  The reference of the renderings below."""
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


def reference_text_value(value) -> str:
    """A text cell as the renderer wrote it with ``_jsonable`` on every cell."""
    value = _jsonable(value)
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, list):
        sep = "; " if any(isinstance(v, dict) for v in value) else ", "
        return "[" + sep.join(reference_text_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return ", ".join(f"{k}: {reference_text_value(value[k])}" for k in sorted(value))
    return str(value)


def reference_renderings(report, columns):
    """The JSON and text of ``report`` through ``_jsonable``, as the renderer gave them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_text_value", reference_text_value)
        text = cli.render_text(report, columns)
    return json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False) + "\n", text


def json_clean(value) -> bool:
    """Whether ``value`` holds only dict, list, str, int, float, bool and None, every float finite."""
    if type(value) is dict:
        return all(type(k) is str and json_clean(v) for k, v in value.items())
    if type(value) is list:
        return all(json_clean(v) for v in value)
    if type(value) is float:
        return math.isfinite(value)
    return value is None or type(value) in (str, int, bool)


def corpus_file(tmp_path, corpus) -> str:
    if corpus == "chunked":
        return chunked_file(tmp_path)
    if corpus == "no g-orthogonal point":
        return star_l_file(tmp_path)  # every point skipped by integrate
    lines = analysis_kinds_lines() if corpus == "kinds" else star_h_lines(2, seed=19)
    if corpus == "overflowing":
        lines.insert(1, sample_to_json(OVERFLOWING))
    if corpus == "huge":
        lines.insert(1, sample_to_json(HUGE))
    path = tmp_path / f"{corpus}.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# a round S^4 whose traces and residuals overflow to inf or NaN
HUGE = PointSample(
    dim=4, g=np.eye(4), rm=space_form(4, 1.5e308), weight=1.0, h=np.eye(4), t=np.array([1.0, 0.0, 0.0, 0.0])
)


def captured_reports(monkeypatch) -> list:
    """The arguments of every call of either renderer, in call order."""
    calls = []

    def capture(render):
        def wrapper(*args):
            calls.append(args)
            return render(*args)
        return wrapper

    for name in ("render_json", "render_text"):
        monkeypatch.setattr(cli, name, capture(getattr(cli, name)))
    return calls


REPORTED_COMMANDS = [
    *STREAMED_COMMANDS, "integrate --quantity chi", "integrate --quantity tau", "integrate --quantity ht",
]


# the overflowing point and the metric of 1e308 overflow, as intended
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestJsonValues:
    @pytest.mark.parametrize("corpus", ["chunked", "kinds", "overflowing", "huge", "no g-orthogonal point"])
    @pytest.mark.parametrize("command", REPORTED_COMMANDS)
    def test_reports_reach_the_renderer_as_json_values(self, tmp_path, capsys, monkeypatch, command, corpus):
        path = corpus_file(tmp_path, corpus)
        calls = captured_reports(monkeypatch)
        code, out_json, err = run(capsys, *command.split(), path, "--format", "json")
        text_code, out_text, _ = run(capsys, *command.split(), path)
        assert text_code == code
        if not calls:  # integrate stops at an analysis error before it reports
            assert command.startswith("integrate") and code == 1 and out_json == "" and err.startswith("error:")
            return
        (report,), (again, columns) = calls
        assert again == report and json_clean(report)
        assert (out_json, out_text) == reference_renderings(report, columns)
        if command == "integrate --quantity ht" and corpus == "no g-orthogonal point":
            assert report["aggregate"]["ht_identity_residual"] is None
            assert '"ht_identity_residual": null' in out_json

    @pytest.mark.parametrize("expression", ["K3 # CP2", "S1xS3 # S1xS3", "K3 # HYP(3) # S4"])
    def test_sums_reports_are_json_values(self, capsys, monkeypatch, expression):
        calls = captured_reports(monkeypatch)
        _, out_json, _ = run(capsys, "sums", expression, "--format", "json")
        _, out_text, _ = run(capsys, "sums", expression)
        (report,), (again, columns) = calls
        assert again == report and json_clean(report)
        assert (out_json, out_text) == reference_renderings(report, columns)

    @pytest.mark.parametrize("command", ["einstein-check --metric g", "einstein-check --metric lorentz", "integrate"])
    def test_non_finite_values_are_null_and_dash(self, tmp_path, capsys, command):
        path = corpus_file(tmp_path, "huge")
        report = json.loads(run(capsys, *command.split(), path, "--format", "json")[1])
        values = report["points"][1] if "points" in report else report["aggregate"]
        assert values["trace_residual" if "points" in report else "chi"] is None
        text = run(capsys, *command.split(), path)[1]
        assert "  -" in text if "points" in report else "  chi = -" in text

    def test_normal_form_rescales_once_per_chunk(self, tmp_path, capsys, monkeypatch):
        path = chunked_file(tmp_path)
        expected = run(capsys, "normal-form", path, "--format", "json")
        calls, rescale = [], normal_forms.ScaledNormalForm.rescale

        def counted(cls, c, lambdas, mus):
            calls.append(len(c))
            return rescale(c, lambdas, mus)

        monkeypatch.setattr(normal_forms.ScaledNormalForm, "rescale", classmethod(counted))
        monkeypatch.setattr(zoo, "_CHUNK", 7)
        assert run(capsys, "normal-form", path, "--format", "json") == expected
        lines = _CHUNK + 44
        assert 0 < len(calls) <= -(-lines // 7) and max(calls) > 1
        assert '"lambdas_scaled"' in expected[1]

    def test_the_per_value_pass_is_gone(self):
        assert not hasattr(cli, "_jsonable")


def test_file_commands_load_no_scipy(tmp_path):
    # importing scipy costs most of a second per process: the file commands
    # load none of it, and with every import of it blocked the generators, the
    # file round trip, every command and the star-L demo still run
    path, made = tmp_path / "mixed.jsonl", tmp_path / "made.jsonl.gz"
    path.write_text("\n".join(mixed_lines()) + "\n", encoding="utf-8")
    demo = Path(__file__).resolve().parents[1] / "demos" / "04_lorentz_classification.py"
    commands = [
        ["validate"], ["einstein-check", "--metric", "g"], ["einstein-check", "--metric", "h"],
        ["einstein-check", "--metric", "lorentz"], ["normal-form"], ["petrov"], ["integrate"],
    ]
    on_made = [
        ["validate", made], ["einstein-check", made, "--metric", "lorentz"], ["normal-form", made],
        ["petrov", made], ["integrate", made, "--quantity", "ht"], ["sums", "K3 # CP2"],
    ]
    probe = (
        "import contextlib, io, runpy, sys\n"
        "import numpy as np\n"
        "import curvforms as cf\n"
        "from curvforms.cli import main\n"
        "def run(commands):\n"
        "    codes = []\n"
        "    for command in commands:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            codes.append(main([*command, '--format', 'json']))\n"
        "    return codes\n"
        f"print(run({[[c[0], str(path), *c[1:]] for c in commands]!r}),"
        " sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        "sys.modules['scipy'] = None\n"
        "rng = np.random.default_rng(5)\n"
        "samples = []\n"
        "for case in (1, 2, 3, 4):\n"
        "    c = cf.complex_case_matrix(case, rng)\n"
        "    samples.append(cf.gen_synthetic_star_L(0.5 * (-c.real - c.real.T), 0.5 * (-c.imag - c.imag.T)))\n"
        "samples += list(cf.gen_space_form(4, 1.0, 2))\n"
        f"cf.write_samples({str(made)!r}, samples)\n"
        f"assert len(list(cf.read_samples({str(made)!r}))) == len(samples)\n"
        f"print(run({[[str(a) for a in c] for c in on_made]!r}))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    runpy.run_path({str(demo)!r}, run_name='__main__')\n"
        "print(sys.modules['scipy'], [m for m in sys.modules if m.startswith('scipy.')])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(curvforms.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, cwd=tmp_path, timeout=120
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == "[0, 0, 1, 1, 0, 1, 0] []\n[0, 1, 0, 1, 0, 0]\nNone []\n"


# ---- usage errors ----


class TestUsage:
    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_choice_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["integrate", str(tmp_path / "x.jsonl"), "--quantity", "bogus"])
        assert err.value.code == 2

    def test_bad_thread_count_exits_two(self, tmp_path, capsys):
        # --threads is gone: even a valid count is an unknown argument
        with pytest.raises(SystemExit) as err:
            main(["validate", s4_file(tmp_path), "--threads", "1"])
        assert err.value.code == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-0.5"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, tol):
        for command in ("validate", "integrate"):
            with pytest.raises(SystemExit) as err:
                main([command, s4_file(tmp_path), "--tol", tol])
            assert err.value.code == 2
            assert "--tol" in capsys.readouterr().err
        assert run(capsys, "validate", s4_file(tmp_path), "--tol", "0")[0] == 0

    def test_an_unwritable_output_file_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "integrate", s4_file(tmp_path), "-o", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(Path(curvforms.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-m", "curvforms", "--version"], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("curvforms ")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "curvforms" in capsys.readouterr().out


# ---- one precondition order on every path ----

_SPACE_FORM = space_form(4, 1.0)
_BIANCHI_BROKEN = CurvatureTensor(
    dim=4, components=_SPACE_FORM.components + validate_curvature([[1, 2, 3, 4, 0.5]], dim=4, tol=math.inf).components
)
_INDEFINITE = np.diag([1.0, 1.0, 1.0, -1.0])
_E0 = np.eye(4)[0]


# the breakers a file cannot hold: it holds finite numbers and the lower triangle
_UNWRITABLE = ("NaN h", "asymmetric h", "NaN g")


def seeded_bianchi_breaker() -> CurvatureTensor:
    """A tensor whose canonical rows are seeded normals: every index symmetry holds
    exactly and first Bianchi breaks.  Its dense cyclic sums are largest, by
    rounding, first at (1, 2, 4, 3), not at (1, 2, 3, 4)."""
    rng = np.random.default_rng(0)
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    return validate_curvature([[*p, *q, rng.normal()] for a, p in enumerate(pairs) for q in pairs[a:]], 4, math.inf)


def precondition_breakers():
    """Points that each break a precondition, some two at once, by name."""
    nan_h, upper_h = np.eye(4), np.eye(4)
    nan_h[2, 2], upper_h[0, 1] = math.nan, 0.5
    point = PointSample(dim=4, g=np.eye(4), rm=_SPACE_FORM, weight=1.0, t=_E0)
    return {
        "indefinite h": dataclasses.replace(point, h=_INDEFINITE),
        "indefinite g, no h": dataclasses.replace(point, g=_INDEFINITE),
        "indefinite g with h": dataclasses.replace(point, g=_INDEFINITE, h=np.eye(4)),
        "NaN g": dataclasses.replace(point, g=nan_h, h=np.eye(4)),
        "NaN h": dataclasses.replace(point, h=nan_h),
        "asymmetric h": dataclasses.replace(point, h=upper_h),
        "Bianchi and indefinite g": dataclasses.replace(point, g=_INDEFINITE, rm=_BIANCHI_BROKEN),
        "Bianchi and non-unit T": dataclasses.replace(point, rm=_BIANCHI_BROKEN, t=2.0 * _E0),
        "seeded Bianchi": dataclasses.replace(point, rm=seeded_bianchi_breaker(), h=np.eye(4)),
    }


def first_violation(sample):
    """validate_sample's first violation of ``sample``, or None."""
    try:
        validate_sample(sample)
    except (GeometryError, ValueError) as err:
        return str(err)
    return None


def rules_of(path, sample):
    """The sample whose validate_sample checks exactly the rules ``path`` applies
    to ``sample``, under the names it gives them; None where the path reads no point."""
    plain = dataclasses.replace(sample, t=None)
    h = sample.g if sample.h is None else sample.h
    return {
        "h-frame library": dataclasses.replace(plain, g=np.eye(4), h=h),
        "g and h-frame library": dataclasses.replace(plain, h=h),
        "lorentz library": dataclasses.replace(sample, h=None),
        "integrate_samples": plain,
        "normal-form": plain,
        "einstein-check --metric g": dataclasses.replace(plain, h=None),
        "einstein-check --metric h": None if sample.h is None else dataclasses.replace(plain, g=np.eye(4)),
        "einstein-check --metric lorentz": dataclasses.replace(sample, h=None),
        "petrov": dataclasses.replace(sample, h=None),
        "integrate": plain,
    }[path]


def library_errors(sample):
    """Per library path: the message of every one-point function's error."""

    def error(fn, *args):
        try:
            fn(*args)
        except Exception as err:  # a bare LAPACK error is a wrong answer too
            return str(err)
        return None

    h = sample.g if sample.h is None else sample.h
    rm, g, t = sample.rm, sample.g, sample.t
    return {
        "h-frame library": [error(is_star_h_einstein, rm, h), error(normal_forms.normal_form_4, rm, h)],
        "g and h-frame library": [
            error(normal_forms.orthogonal_normal_form_4, rm, h, g), error(preferred_normal_form_4, rm, h, g),
        ],
        "lorentz library": [
            error(classify_complex, rm, g, t), error(count_spacelike_critical, rm, g, t),
            error(weyl_split_check, rm, g, t),
        ],
        "integrate_samples": [error(topology.integrate_samples, [sample])],
    }


class TestPreconditionParity:
    @pytest.mark.parametrize("name", list(precondition_breakers()))
    def test_every_library_path_reads_validate_samples_first_violation(self, name):
        sample = precondition_breakers()[name]
        for path, errors in library_errors(sample).items():
            expected = first_violation(rules_of(path, sample))
            if expected is not None:
                assert errors == [expected] * len(errors), path

    def test_every_command_reads_validate_samples_first_violation(self, tmp_path, capsys):
        samples = [s for name, s in precondition_breakers().items() if name not in _UNWRITABLE]
        path = tmp_path / "breakers.jsonl"
        write_samples(path, samples)
        checked = set()
        for command in ("normal-form", "einstein-check --metric g", "einstein-check --metric h",
                        "einstein-check --metric lorentz", "petrov"):
            points = json.loads(run(capsys, *command.split(), str(path), "--format", "json")[1])["points"]
            for sample, point in zip(samples, points):
                expected = None if rules_of(command, sample) is None else first_violation(rules_of(command, sample))
                if expected is not None:
                    assert point.get("error", point.get("note")) == expected, (command, point)
                    checked.add(expected)
        for k, sample in enumerate(samples):
            one = tmp_path / f"point{k}.jsonl"
            write_samples(one, [sample])
            expected = first_violation(rules_of("integrate", sample))
            assert run(capsys, "integrate", str(one)) == (1, "", f"error: {expected}\n")
        assert checked >= {"h must be positive definite", "g must be positive definite", "g(T, T) = 4, expected 1"}
        assert any(e.startswith("first Bianchi identity") for e in checked)

    def test_one_first_bianchi_message_on_every_path(self, tmp_path, capsys):
        sample = precondition_breakers()["seeded Bianchi"]
        r = sample.rm.components
        cyclic = r + np.transpose(r, (0, 2, 3, 1)) + np.transpose(r, (0, 3, 1, 2))
        assert np.unravel_index(np.argmax(np.abs(cyclic)), r.shape) == (0, 1, 3, 2)
        message = first_violation(sample)
        assert message.startswith("first Bianchi identity violated at indices (1, 2, 3, 4) with residual ")
        with pytest.raises(TensorValidationError) as err:
            validate_curvature(r)
        messages = {str(err.value), *(e for errors in library_errors(sample).values() for e in errors)}
        path = tmp_path / "bianchi.jsonl"
        write_samples(path, [sample])
        for command in ("validate", "normal-form", "einstein-check --metric g", "einstein-check --metric h",
                        "einstein-check --metric lorentz", "petrov"):
            code, out, _ = run(capsys, *command.split(), str(path), "--format", "json")
            assert code == 1
            messages.add(json.loads(out)["points"][0]["error"])
        for quantity in ("ht", "chi", "tau"):
            assert run(capsys, "integrate", str(path), "--quantity", quantity) == (1, "", f"error: {message}\n")
        assert messages == {message}

    def test_a_point_with_no_h_reads_g_in_normal_form(self, tmp_path, capsys):
        sample = precondition_breakers()["indefinite g, no h"]
        path = tmp_path / "no_h.jsonl"
        write_samples(path, [sample])
        point = json.loads(run(capsys, "normal-form", str(path), "--format", "json")[1])["points"][0]
        assert point == {"index": 0, "available": False, "note": "g must be positive definite"}

    # the overflowing point fails the chunk's eigensolver, which runs every
    # point alone: integrate's first error is then that of the first point
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", list(precondition_breakers()))
    def test_integrate_stops_on_the_first_error_in_point_order(self, tmp_path, capsys, name):
        breaker = precondition_breakers()[name]
        samples = [breaker, next(iter(gen_space_form(4, 1.0, 2))), OVERFLOWING]
        expected = first_violation(rules_of("integrate", breaker))
        with pytest.raises(ValueError) as raised:
            topology.integrate_samples(samples)
        assert str(raised.value) == expected
        if name not in _UNWRITABLE:
            path = tmp_path / "first.jsonl"
            write_samples(path, samples)
            assert run(capsys, "integrate", str(path)) == (1, "", f"error: {expected}\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_lapack_failure_is_its_own_points_error(self, tmp_path, capsys):
        samples = [next(iter(gen_space_form(4, 1.0, 2))), OVERFLOWING]
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            topology.integrate_samples(samples)
        path = tmp_path / "overflowing.jsonl"
        write_samples(path, samples)
        assert run(capsys, "integrate", str(path)) == (1, "", "error: Eigenvalues did not converge\n")

    def test_no_point_after_integrates_first_error_runs_alone(self, tmp_path, capsys):
        # the stack fails on the overflowing point, so the points run alone up
        # to the first error, the dimension-3 point's: the overflowing point
        # never runs, and shows no warning
        samples = [next(iter(gen_space_form(4, 1.0, 2))), next(iter(gen_space_form(3, 1.0, 2))), OVERFLOWING]
        path = tmp_path / "late.jsonl"
        write_samples(path, samples)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(GeometryError, match="specific to dim 4"):
                topology.integrate_samples(samples)
            assert run(capsys, "integrate", str(path)) == (1, "", "error: Euler/signature densities are specific to dim 4\n")
        assert caught == []

"""Tests for the batch command line."""

import gzip
import json
import math
import os
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import curvforms
from curvforms import cli, normal_forms, topology, zoo
from curvforms.cli import main
from curvforms.complex_forms import complex_case_matrix
from curvforms.curvature import space_form
from curvforms.exceptions import GeometryError, SampleFormatError
from curvforms.normal_forms import canonical_pairs, preferred_normal_form_4
from curvforms.topology import _CHUNK
from curvforms.zoo import (
    PointSample,
    gen_product_spheres,
    gen_space_form,
    gen_synthetic_star_h,
    gen_synthetic_star_L,
    read_samples,
    sample_to_json,
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
        assert "not positive definite" in points[_CHUNK + 30]["note"]

    def test_an_indefinite_h_takes_no_per_point_path(self, tmp_path, capsys, monkeypatch):
        calls = []
        kernel = normal_forms._lambda2_blocks

        def counted(k0, h, g=None):
            calls.append(len(k0))
            return kernel(k0, h, g)

        def per_point(*args):
            raise AssertionError("a per-point normal-form analysis ran")

        monkeypatch.setattr(normal_forms, "_lambda2_blocks", counted)
        monkeypatch.setattr(normal_forms, "_normal_form_of", per_point)
        code, out, _ = run(capsys, "normal-form", chunked_file(tmp_path), "--format", "json")
        assert code == 1 and calls == [_CHUNK - 1, 42]  # the dimension-4 points with a definite h
        points = json.loads(out)["points"]
        assert "not positive definite" in points[_CHUNK + 30]["note"]
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
        monkeypatch.setattr(topology, "_CHUNK", chunk)
        monkeypatch.setattr(cli, "_CHUNK", chunk)
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

    @pytest.mark.parametrize("expr", ["BAD", "HYP(0)", "HYP(x)", "K3 # # CP2"])
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
    def test_stacks_equal_the_gather_over_read_samples(self, tmp_path, size):
        path = tmp_path / "reader.jsonl"
        path.write_text("\n".join(reader_lines()) + "\n", encoding="utf-8")
        chunks = list(zoo._read_chunks(path, size))
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
        monkeypatch.setattr(topology, "_CHUNK", chunk)
        monkeypatch.setattr(cli, "_CHUNK", chunk)
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
        # cli binds its own name for the chunk size of normal-form
        for chunk in (1, 7):
            monkeypatch.setattr(topology, "_CHUNK", chunk)
            monkeypatch.setattr(cli, "_CHUNK", chunk)
            reports.append(report(plain))
        assert '"FILE"' in reports[0][1]
        assert reports[1:] == reports[:1] * 3

    def test_thread_count_does_not_change_bytes(self, tmp_path, capsys):
        path = field_file(tmp_path)
        for command in (["einstein-check", path, "--metric", "h"], ["integrate", path]):
            outputs = []
            for threads in ("1", "4"):
                _, out, _ = run(capsys, *command, "--threads", threads, "--format", "json")
                outputs.append(out)
            assert outputs[0] == outputs[1]

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

    def test_bad_thread_count_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["validate", str(tmp_path / "x.jsonl"), "--threads", "0"])
        assert err.value.code == 2

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

"""Tests for sample generators and the point-sample line format."""

import dataclasses
import gzip
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from curvforms import zoo
from curvforms.complex_forms import classify_complex, complex_case_matrix
from curvforms.curvature import CurvatureTensor, component_matrix, operator_from, scalar_curvature, space_form
from curvforms.exceptions import (
    DegenerateMetricError,
    DimensionError,
    GeometryError,
    NonUnitVectorError,
    SampleFormatError,
    TensorValidationError,
)
from curvforms.hodge import lorentz_metric_from_unit
from curvforms.normal_forms import (
    canonical_pairs,
    is_star_h_einstein,
    normal_form_4,
    orthogonal_normal_form_4,
    signed_curvature_3,
)
from curvforms.zoo import (
    PointSample,
    deformed_metric,
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

RNG = np.random.default_rng(20260815)


def random_star_h_sample(rng, rotated=True, weight=1.0):
    lam = rng.normal(size=3)
    mu = rng.normal(size=3)
    mu[2] = -mu[0] - mu[1]
    h_diag = rng.uniform(0.5, 2.0, size=4)
    g_diag = rng.uniform(0.5, 2.0, size=4)
    if rotated:
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
    else:
        q = None
    sample = gen_synthetic_star_h(lam, mu, h_diag, g_diag, frame_rotation=q, weight=weight)
    return sample, lam, mu


# ---- container invariants ----


class TestValidateSample:
    def test_generated_sample_passes(self):
        sample, _, _ = random_star_h_sample(np.random.default_rng(1))
        validate_sample(sample, tol=1e-9)

    def test_negative_weight_rejected(self):
        sample, _, _ = random_star_h_sample(np.random.default_rng(2))
        bad = dataclasses.replace(sample, weight=-0.5)
        with pytest.raises(ValueError, match="weight"):
            validate_sample(bad)

    def test_non_finite_weight_rejected(self):
        sample, _, _ = random_star_h_sample(np.random.default_rng(3))
        with pytest.raises(ValueError, match="weight"):
            validate_sample(dataclasses.replace(sample, weight=math.nan))

    def test_non_unit_t_rejected(self):
        sample = gen_synthetic_star_L(np.diag([1.0, -1.0, 0.0]), np.zeros((3, 3)))
        bad = dataclasses.replace(sample, t=2.0 * sample.t)
        with pytest.raises(NonUnitVectorError):
            validate_sample(bad)

    def test_asymmetric_metric_rejected(self):
        sample, _, _ = random_star_h_sample(np.random.default_rng(4))
        g = np.asarray(sample.g, dtype=float).copy()
        g[0, 1] = 0.3  # g[1, 0] left at 0
        with pytest.raises(DegenerateMetricError, match="symmetric"):
            validate_sample(dataclasses.replace(sample, g=g))

    def test_indefinite_metric_rejected(self):
        sample, _, _ = random_star_h_sample(np.random.default_rng(5))
        with pytest.raises(DegenerateMetricError):
            validate_sample(dataclasses.replace(sample, g=np.diag([1.0, 1.0, 1.0, -1.0])))

    def test_metric_shape_checked(self):
        sample, _, _ = random_star_h_sample(np.random.default_rng(6))
        with pytest.raises(DimensionError):
            validate_sample(dataclasses.replace(sample, g=np.eye(3)))

    def test_curvature_dimension_must_match(self):
        sample, _, _ = random_star_h_sample(np.random.default_rng(7))
        with pytest.raises(DimensionError):
            validate_sample(dataclasses.replace(sample, dim=5, g=np.eye(5)))

    @pytest.mark.parametrize("weight", [np.int64(2), np.float32(0.5), 3, 0.0])
    def test_real_weights_accepted(self, weight):
        sample, _, _ = random_star_h_sample(np.random.default_rng(8))
        validate_sample(dataclasses.replace(sample, weight=weight))
        assert zoo._stack_errors(4, sample.g[None], None, None, [weight], 4, sample.rm.components[None], 1e-9) == [None]

    @pytest.mark.parametrize("weight", [True, False, np.bool_(True), "1", None, 10**400, np.float32(-0.5), math.inf])
    def test_weights_that_are_not_finite_nonnegative_reals_rejected(self, weight):
        sample, _, _ = random_star_h_sample(np.random.default_rng(9))
        message = f"weight must be a finite nonnegative number, got {weight!r}"
        with pytest.raises(ValueError) as info:
            validate_sample(dataclasses.replace(sample, weight=weight))
        assert str(info.value) == message
        (error,) = zoo._stack_errors(4, sample.g[None], None, None, [weight], 4, sample.rm.components[None], 1e-9)
        assert str(error) == message

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_components_rejected(self, bad):
        sample, _, _ = random_star_h_sample(np.random.default_rng(12))
        r = sample.rm.components.copy()
        r[0, 2, 1, 3] = bad
        with pytest.raises(TensorValidationError) as err:
            validate_sample(dataclasses.replace(sample, rm=CurvatureTensor(4, r)))
        assert err.value.identity == "finite components" and err.value.indices == (1, 3, 2, 4)
        g, stack = np.stack([sample.g] * 2), np.stack([sample.rm.components, r])
        errors = zoo._stack_errors(4, g, None, None, [1.0, 1.0], 4, stack, 1e-9)
        assert errors[0] is None and (type(errors[1]), str(errors[1])) == (TensorValidationError, str(err.value))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_and_metric_entries_rejected(self, bad):
        sample = next(iter(gen_space_form(4, 1.0, 2)))
        g, h = np.eye(4), np.eye(4)
        g[0, 0], h[2, 1] = bad, bad
        cases = [
            (dataclasses.replace(sample, t=np.array([bad, 0.0, 0.0, 0.0])), NonUnitVectorError, "T must be finite"),
            (dataclasses.replace(sample, g=g), DegenerateMetricError, "g must be finite"),
            (dataclasses.replace(sample, h=h), DegenerateMetricError, "h must be finite"),
        ]
        for broken, kind, message in cases:
            with pytest.raises(kind, match=f"^{message}$"):
                validate_sample(broken)
        # in a stack, a row of NaN where has_t is False is an absent T and passes
        t = np.array([[np.nan] * 4, [1.0, 0.0, 0.0, 0.0], [bad, 0.0, 0.0, 0.0], [np.nan] * 4])
        r = np.stack([sample.rm.components] * 4)
        has_t = np.array([False, True, True, True])
        errors = zoo._stack_errors(4, np.stack([np.eye(4)] * 4), None, t, [1.0] * 4, 4, r, 1e-9, has_t)
        assert [None if e is None else (type(e), str(e)) for e in errors] == [
            None, None, (NonUnitVectorError, "T must be finite"), (NonUnitVectorError, "T must be finite")
        ]

    def test_the_stacked_check_keeps_each_point_s_first_violation(self):
        rng = np.random.default_rng(10)
        samples = [random_star_h_sample(rng)[0] for _ in range(6)]
        samples[1] = dataclasses.replace(samples[1], weight=True)
        samples[2] = dataclasses.replace(samples[2], g=np.diag([1.0, 1.0, 1.0, -1.0]), weight=-1.0)
        samples[3] = dataclasses.replace(samples[3], h=np.diag([1.0, -1.0, 1.0, 1.0]))
        broken = samples[4].rm.components.copy()
        broken[0, 1, 2, 3] = broken[2, 3, 0, 1] = broken[1, 0, 3, 2] = broken[3, 2, 1, 0] = 1.0
        broken[1, 0, 2, 3] = broken[0, 1, 3, 2] = broken[2, 3, 1, 0] = broken[3, 2, 0, 1] = -1.0
        samples[4] = dataclasses.replace(samples[4], rm=CurvatureTensor(4, broken))
        stack = [np.stack([getattr(s, name) for s in samples]) for name in ("g", "h")]
        r = np.stack([s.rm.components for s in samples])
        errors = zoo._stack_errors(4, *stack, None, [s.weight for s in samples], 4, r, 1e-9)
        expected = []
        for sample in samples:
            try:
                validate_sample(sample)
                expected.append(None)
            except ValueError as err:
                expected.append((type(err), str(err)))
        assert [None if e is None else (type(e), str(e)) for e in errors] == expected
        assert [e is None for e in expected] == [True, False, False, False, False, True]
        assert "g must be positive definite" in expected[2][1]
        assert expected[4][1].startswith("first Bianchi identity")


# ---- line format ----


class TestLineFormat:
    def test_canonical_rows_round_trip_exactly(self):
        sample, _, _ = random_star_h_sample(np.random.default_rng(10))
        back = sample_from_json(sample_to_json(sample))
        assert back.rm.to_sparse() == sample.rm.to_sparse()
        npt.assert_array_equal(back.g, np.asarray(sample.g, dtype=float))
        npt.assert_array_equal(back.h, np.asarray(sample.h, dtype=float))
        assert back.weight == sample.weight

    def test_rewrite_is_byte_identical(self):
        sample, _, _ = random_star_h_sample(np.random.default_rng(11))
        line = sample_to_json(sample)
        assert sample_to_json(sample_from_json(line)) == line

    def test_seventeen_significant_digits(self):
        sample, _, _ = random_star_h_sample(np.random.default_rng(12), weight=1.0 / 3.0)
        line = sample_to_json(sample)
        assert '"weight": 0.33333333333333331' in line

    def test_numbers_keep_their_17_digit_bytes_and_negative_zero_its_sign(self):
        # format(-0.0, ".17g") is "-0", which JSON reads as the integer 0
        values = (0.0, -0.0, -1.0, 1.0 / 3.0, -5e-324, 1e300)
        assert [zoo._fmt(x) for x in values] == [
            "0", "-0.0", "-1", "0.33333333333333331", "-4.9406564584124654e-324", "1.0000000000000001e+300",
        ]

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_negative_zero_keeps_its_sign(self, tmp_path, suffix):
        samples = []
        for dim in (4, 3):
            g, h = np.eye(dim), 2.0 * np.eye(dim)
            g[1, 0] = g[0, 1] = h[2, 1] = h[1, 2] = -0.0
            t, coords = np.zeros(dim), np.arange(dim, dtype=float)
            t[0], t[1], coords[0] = 1.0, -0.0, -0.0
            samples.append(PointSample(dim=dim, g=g, rm=space_form(dim, 1.0), weight=-0.0, h=h, t=t, coords=coords))

        def signs(sample):
            return [np.signbit(np.asarray(x)).tolist() for x in (sample.g, sample.h, sample.t, sample.weight, sample.coords)]

        lines = [sample_to_json(sample) for sample in samples]
        assert all('"weight": -0.0' in line for line in lines)
        for sample, line in zip(samples, lines):
            assert signs(sample_from_json(line)) == signs(sample)
        path = tmp_path / f"zeros{suffix}"
        write_samples(path, samples)
        back = read_samples(path)
        assert [signs(sample) for sample in back] == [signs(sample) for sample in samples]
        again = tmp_path / f"again{suffix}"
        write_samples(again, back)
        opener = gzip.open if suffix.endswith(".gz") else open
        with opener(path, "rb") as fh, opener(again, "rb") as gh:
            assert fh.read() == gh.read() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("weight", [True, "2"])
    def test_a_weight_the_reader_rejects_is_not_written(self, weight):
        # written as 1 and 2, they would read back as valid weights
        sample, _, _ = random_star_h_sample(np.random.default_rng(13))
        with pytest.raises(SampleFormatError) as info:
            sample_to_json(dataclasses.replace(sample, weight=weight))
        assert str(info.value) == f"weight must be a number, got {weight!r}"

    def test_key_order_fixed(self):
        sample = gen_synthetic_star_L(np.diag([1.0, -1.0, 0.0]), np.zeros((3, 3)))
        line = sample_to_json(sample)
        positions = [line.index(f'"{key}"') for key in ("dim", "g", "T", "rm", "weight")]
        assert positions == sorted(positions)
        assert '"h"' not in line and '"coords"' not in line

    def test_t_vector_round_trip(self):
        sample = gen_synthetic_star_L(
            np.diag([1.0, -1.0, 0.0]),
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            frame=np.eye(4) + 0.1 * np.arange(16).reshape(4, 4),
        )
        back = sample_from_json(sample_to_json(sample))
        npt.assert_array_equal(back.t, sample.t)
        npt.assert_array_equal(back.g, sample.g)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        samples = [random_star_h_sample(rng)[0] for _ in range(5)]
        path = tmp_path / "samples.jsonl"
        assert write_samples(path, samples) == 5
        back = read_samples(path)
        assert len(back) == 5
        for a, b in zip(samples, back):
            assert a.rm.to_sparse() == b.rm.to_sparse()

    def test_gzip_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        samples = [random_star_h_sample(rng)[0] for _ in range(3)]
        path = tmp_path / "samples.jsonl.gz"
        write_samples(path, samples)
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic
        back = read_samples(path)
        assert [b.rm.to_sparse() for b in back] == [a.rm.to_sparse() for a in samples]

    def test_gzip_is_written_at_level_6(self, tmp_path):
        samples = list(gen_space_form(4, 1.0, 2))
        plain, packed = tmp_path / "s4.jsonl", tmp_path / "s4.jsonl.gz"
        write_samples(plain, samples)
        write_samples(packed, samples)
        data = packed.read_bytes()
        assert data[8] == 0  # the XFL byte: 2 at level 9, 4 at level 1, 0 in between
        assert gzip.decompress(data) == plain.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SampleFormatError, match="no samples"):
            read_samples(path)

    def test_blank_line_rejected(self, tmp_path):
        sample, _, _ = random_star_h_sample(np.random.default_rng(15))
        path = tmp_path / "gap.jsonl"
        path.write_text(sample_to_json(sample) + "\n\n")
        with pytest.raises(SampleFormatError, match="line 2"):
            read_samples(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SampleFormatError):
            read_samples(tmp_path / "absent.jsonl")

    def test_error_carries_line_number(self, tmp_path):
        sample, _, _ = random_star_h_sample(np.random.default_rng(16))
        path = tmp_path / "bad.jsonl"
        path.write_text(sample_to_json(sample) + "\nnot json\n")
        with pytest.raises(SampleFormatError) as err:
            read_samples(path)
        assert err.value.line == 2

    # ---- structural rejections ----

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2, 3]",
            '{"g": [1], "rm": [], "weight": 1}',
            '{"dim": 3, "g": [1, 0, 1, 0, 0, 1], "rm": [], "weight": 1, "extra": 1}',
            '{"dim": 0, "g": [], "rm": [], "weight": 1}',
            '{"dim": 2.5, "g": [1, 0, 1], "rm": [], "weight": 1}',
            '{"dim": 3, "g": [1, 0, 1], "rm": [], "weight": 1}',
            '{"dim": 3, "g": [1, 0, 1, 0, 0, 1], "rm": [[1, 2, 1, 2]], "weight": 1}',
            '{"dim": 3, "g": [1, 0, 1, 0, 0, 1], "rm": [[1.5, 2, 1, 2, 0.1]], "weight": 1}',
            '{"dim": 3, "g": [1, 0, 1, 0, 0, 1], "rm": [[1, 2, 1, 5, 0.1]], "weight": 1}',
            '{"dim": 3, "g": [1, 0, 1, 0, 0, 1], "rm": [], "weight": "heavy"}',
            '{"dim": 3, "g": [1, 0, 1, 0, 0, 1], "rm": [], "weight": NaN}',
            '{"dim": 3, "g": [1, 0, 1, 0, 0, 1], "rm": [], "weight": 1, "T": [1, 0]}',
            '{"dim": 2, "g": [1, 0, 1], "rm": [], "weight": 1}',
        ],
    )
    def test_malformed_line_rejected(self, line):
        with pytest.raises(SampleFormatError):
            sample_from_json(line, line_number=7)

    def test_bianchi_violation_reads_but_fails_validation(self):
        # value-level problems are analysis results, not format errors
        line = (
            '{"dim": 4, "g": [1, 0, 1, 0, 0, 1, 0, 0, 0, 1], '
            '"rm": [[1, 2, 3, 4, 0.3]], "weight": 1}'
        )
        sample = sample_from_json(line)
        with pytest.raises(TensorValidationError, match="Bianchi"):
            validate_sample(sample)


# ---- analytic grids ----


class TestGenSpaceForm:
    def test_s4_weights_sum_to_volume(self):
        total = math.fsum(p.weight for p in gen_space_form(4, 1.0, 6))
        npt.assert_allclose(total, 8.0 * math.pi**2 / 3.0, rtol=1e-10,
                            err_msg="unit 4-sphere volume")

    def test_s3_weights_sum_to_volume(self):
        total = math.fsum(p.weight for p in gen_space_form(3, 1.0, (5, 6, 7)))
        npt.assert_allclose(total, 2.0 * math.pi**2, rtol=1e-10)

    def test_radius_scaling(self):
        # kappa = 4 is the sphere of radius 1/2: volume shrinks by 2^dim
        total = math.fsum(p.weight for p in gen_space_form(4, 4.0, 5))
        npt.assert_allclose(total, (8.0 * math.pi**2 / 3.0) / 16.0, rtol=1e-10)

    def test_s3_sectional_curvature_is_one(self):
        sample = next(iter(gen_space_form(3, 1.0, 2)))
        report = signed_curvature_3(sample.rm, samples=2000, seed=5)
        npt.assert_allclose(report["critical_values"], [1.0, 1.0, 1.0], atol=1e-12)
        npt.assert_allclose([report["min_sampled"], report["max_sampled"]], 1.0, atol=1e-10)

    def test_flat_torus(self):
        samples = list(gen_space_form(4, 0.0, 3))
        assert all(p.rm.to_sparse() == [] for p in samples)
        total = math.fsum(p.weight for p in samples)
        npt.assert_allclose(total, (2.0 * math.pi) ** 4, rtol=1e-10)

    def test_samples_validate_and_share_objects(self):
        samples = list(gen_space_form(4, 2.0, 3))
        assert len({id(p.rm) for p in samples}) == 1
        assert len({id(p.g) for p in samples}) == 1
        assert all(p.weight > 0 for p in samples)
        validate_sample(samples[0], tol=1e-12)

    def test_coords_are_chart_angles(self):
        samples = list(gen_space_form(3, 1.0, (2, 2, 2)))
        coords = np.stack([p.coords for p in samples])
        assert coords.shape == (8, 3)
        assert np.all(coords[:, :2] < math.pi) and np.all(coords[:, 2] < 2.0 * math.pi)

    def test_negative_curvature_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            gen_space_form(4, -1.0, 4)

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            gen_space_form(2, 1.0, 4)

    @pytest.mark.parametrize("grid", [0, -3, 2.5, (5, 5), (4, 4, 4, 0), True])
    def test_invalid_grid_rejected(self, grid):
        with pytest.raises(ValueError):
            gen_space_form(4, 1.0, grid)


class TestGenProductSpheres:
    def test_weights_sum_to_product_volume(self):
        total = math.fsum(p.weight for p in gen_product_spheres(1.0, 2.0, 4))
        npt.assert_allclose(total, 16.0 * math.pi**2 * 1.0 * 4.0, rtol=1e-10)

    def test_curvature_components(self):
        sample = next(iter(gen_product_spheres(0.5, 2.0, 2)))
        assert sample.rm.to_sparse() == [[1, 2, 1, 2, -4.0], [3, 4, 3, 4, -0.25]]
        validate_sample(sample, tol=1e-12)

    def test_equal_radii_einstein(self):
        sample = next(iter(gen_product_spheres(1.0, 1.0, 2)))
        assert is_star_h_einstein(sample.rm, np.eye(4)).is_einstein

    def test_unequal_radii_not_einstein_for_g(self):
        sample = next(iter(gen_product_spheres(1.0, 2.0, 2)))
        report = is_star_h_einstein(sample.rm, np.eye(4))
        assert not report.is_einstein
        assert report.commutator_residual > 1e-2

    def test_block_scaling_restores_commutation(self):
        # s1/s2 = b/a puts both factors at the same operator eigenvalue
        sample = next(iter(gen_product_spheres(1.0, 2.0, 2, h_scales=(2.0, 1.0))))
        report = is_star_h_einstein(sample.rm, sample.h)
        assert report.is_einstein and report.commutator_residual <= 1e-12

    def test_wrong_block_scaling_reported(self):
        sample = next(iter(gen_product_spheres(1.0, 2.0, 2, h_scales=(1.0, 2.0))))
        assert not is_star_h_einstein(sample.rm, sample.h).is_einstein

    def test_scaled_normal_form_values(self):
        sample = next(iter(gen_product_spheres(1.0, 2.0, 2, h_scales=(2.0, 1.0))))
        nf = orthogonal_normal_form_4(sample.rm, sample.h, sample.g)
        # eigenvalue -1/(a s1)^2 = -1/4 on both paired planes, rest zero
        npt.assert_allclose(nf.lambdas, [-0.25, 0.0, 0.0], atol=1e-12)
        npt.assert_allclose(nf.mus, 0.0, atol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gen_product_spheres(0.0, 1.0, 4)
        with pytest.raises(DegenerateMetricError):
            gen_product_spheres(1.0, 2.0, 4, h_scales=(1.0, -1.0))

    @pytest.mark.parametrize("scales, rule", [
        ((np.nan, 1.0), "finite"), ((1.0, np.inf), "finite"), ((0.0, 1.0), "positive definite"),
    ])
    def test_scales_break_the_metric_rule_as_validate_says(self, scales, rule):
        # the generator raises what validate_sample says of the h it would attach
        with pytest.raises(DegenerateMetricError, match=f"^h must be {rule}$"):
            gen_product_spheres(1.0, 2.0, 2, h_scales=scales)
        sample = dataclasses.replace(next(iter(gen_product_spheres(1.0, 2.0, 2))), h=np.diag(np.repeat(scales, 2)))
        with pytest.raises(DegenerateMetricError, match=f"^h must be {rule}$"):
            validate_sample(sample)


# ---- synthetic builders ----


class TestGenSyntheticStarH:
    def test_round_trip_recovers_canonical_pairs(self):
        rng = np.random.default_rng(20260816)
        for _ in range(20):
            sample, lam, mu = random_star_h_sample(rng)
            nf = normal_form_4(sample.rm, sample.h)
            recovered = np.stack([nf.lambdas, nf.mus], axis=1)
            npt.assert_allclose(recovered, canonical_pairs(lam, mu), atol=1e-9,
                                err_msg="normal form must recover the generating pairs")

    def test_identity_data_is_diagonal_operator(self):
        sample = gen_synthetic_star_h([1.0, 2.0, 3.0], np.zeros(3), np.ones(4), np.ones(4))
        op = operator_from(sample.rm, np.eye(4), "via_h")
        npt.assert_allclose(op.matrix, np.diag([1.0, 2.0, 3.0, 1.0, 2.0, 3.0]), atol=1e-12)

    def test_sd_asd_spectra(self):
        # equal lambdas expose the l +/- m structure of the two blocks
        lam = np.array([0.7, 0.7, 0.7])
        mu = np.array([0.3, -0.5, 0.2])
        sample = gen_synthetic_star_h(lam, mu, [1.0, 2.0, 0.5, 1.5], np.ones(4))
        nf = normal_form_4(sample.rm, sample.h)
        npt.assert_allclose(np.sort(nf.lambdas + nf.mus), np.sort(lam + mu), atol=1e-10)
        npt.assert_allclose(np.sort(nf.lambdas - nf.mus), np.sort(lam - mu), atol=1e-10)

    def test_always_star_h_einstein(self):
        rng = np.random.default_rng(21)
        sample, _, _ = random_star_h_sample(rng)
        report = is_star_h_einstein(sample.rm, sample.h)
        assert report.is_einstein and report.commutator_residual <= 1e-10

    def test_identity_rotation_keeps_frame_g_orthogonal(self):
        rng = np.random.default_rng(22)
        sample, _, _ = random_star_h_sample(rng, rotated=False)
        nf = orthogonal_normal_form_4(sample.rm, sample.h, sample.g)
        assert nf.scaled is not None

    def test_bianchi_violation_rejected(self):
        with pytest.raises(TensorValidationError, match="Bianchi"):
            gen_synthetic_star_h([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], np.ones(4), np.ones(4))

    def test_nonpositive_metric_diagonal_rejected(self):
        with pytest.raises(DegenerateMetricError):
            gen_synthetic_star_h(np.ones(3), np.zeros(3), [1.0, -1.0, 1.0, 1.0], np.ones(4))

    @pytest.mark.parametrize("bad, rule", [(np.nan, "finite"), (np.inf, "finite"), (0.0, "positive definite")])
    @pytest.mark.parametrize("name", ["h", "g"])
    def test_a_diagonal_breaking_the_metric_rule_is_a_metric_error(self, name, bad, rule):
        diags = {"h": np.ones(4), "g": np.ones(4)}
        diags[name][1] = bad
        with pytest.raises(DegenerateMetricError, match=f"^{name} must be {rule}$"):
            gen_synthetic_star_h([1.0, 2.0, 3.0], [0.1, 0.2, -0.3], diags["h"], diags["g"])

    def test_non_orthogonal_rotation_rejected(self):
        with pytest.raises(GeometryError, match="orthogonal"):
            gen_synthetic_star_h(
                np.ones(3), np.zeros(3), np.ones(4), np.ones(4),
                frame_rotation=np.eye(4) + 0.1,
            )

    def test_reflection_rejected(self):
        with pytest.raises(GeometryError, match="proper rotation"):
            gen_synthetic_star_h(
                np.ones(3), np.zeros(3), np.ones(4), np.ones(4),
                frame_rotation=np.diag([1.0, 1.0, 1.0, -1.0]),
            )

    def test_weight_attached(self):
        sample, _, _ = random_star_h_sample(np.random.default_rng(23), weight=0.125)
        assert sample.weight == 0.125


class TestGenSyntheticStarL:
    def test_operator_matrix_blocks(self):
        rng = np.random.default_rng(30)
        a = rng.normal(size=(3, 3))
        a = 0.5 * (a + a.T)
        b = rng.normal(size=(3, 3))
        b = 0.5 * (b + b.T)
        b -= (np.trace(b) / 3.0) * np.eye(3)
        sample = gen_synthetic_star_L(a, b)
        k = component_matrix(sample.rm)
        npt.assert_allclose(k, np.block([[a, b], [b, -a]]), atol=1e-12,
                            err_msg="component matrix must be [[A, B], [B, -A]]")

    def test_scalar_curvature_vanishes(self):
        sample = gen_synthetic_star_L(np.diag([1.0, -1.0, 0.0]), np.zeros((3, 3)))
        assert abs(scalar_curvature(sample.rm, sample.g)) <= 1e-12

    def test_imaginary_diagonal_is_case_1(self):
        with pytest.warns(UserWarning, match="Bianchi projection"):
            sample = gen_synthetic_star_L(np.zeros((3, 3)), np.diag([1.0, 2.0, 3.0]))
        form = classify_complex(sample.rm, sample.g, sample.t)
        assert form.case_id == 1

    def test_traceless_b_passes_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gen_synthetic_star_L(np.zeros((3, 3)), np.diag([1.0, 0.0, -1.0]))

    def test_flat_input_rejected_by_classifier(self):
        sample = gen_synthetic_star_L(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(GeometryError):
            classify_complex(sample.rm, sample.g, sample.t)

    def test_frame_expression_preserves_classification(self):
        rng = np.random.default_rng(31)
        c = complex_case_matrix(3, rng)
        a, b = -c.real, -c.imag
        a, b = 0.5 * (a + a.T), 0.5 * (b + b.T)
        plain = gen_synthetic_star_L(a, b)
        frame = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
        framed = gen_synthetic_star_L(a, b, frame=frame)
        validate_sample(framed, tol=1e-9)
        assert abs(float(framed.t @ framed.g @ framed.t) - 1.0) <= 1e-9
        assert (
            classify_complex(framed.rm, framed.g, framed.t).case_id
            == classify_complex(plain.rm, plain.g, plain.t).case_id
            == 3
        )

    def test_asymmetric_block_rejected(self):
        bad = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(GeometryError, match="symmetric"):
            gen_synthetic_star_L(bad, np.zeros((3, 3)))

    def test_singular_frame_rejected(self):
        with pytest.raises(DegenerateMetricError):
            gen_synthetic_star_L(
                np.diag([1.0, -1.0, 0.0]), np.zeros((3, 3)), frame=np.zeros((4, 4))
            )


class TestDeformedMetric:
    def test_lorentz_companion_at_minus_two(self):
        g = np.eye(4)
        t = np.array([1.0, 0.0, 0.0, 0.0])
        npt.assert_array_equal(deformed_metric(g, t, -2.0), lorentz_metric_from_unit(g, t))

    def test_matches_lorentz_formula_for_general_metric(self):
        rng = np.random.default_rng(40)
        m = rng.normal(size=(4, 4))
        g = m @ m.T + 4.0 * np.eye(4)
        t = rng.normal(size=4)
        t = t / math.sqrt(float(t @ g @ t))
        npt.assert_allclose(deformed_metric(g, t, -2.0), lorentz_metric_from_unit(g, t),
                            atol=1e-12)

    def test_zero_deformation_is_identity(self):
        g = np.diag([1.0, 2.0, 3.0, 4.0])
        t = np.array([1.0, 0.0, 0.0, 0.0])
        npt.assert_array_equal(deformed_metric(g, t, 0.0), g)

    def test_stays_riemannian_above_minus_one(self):
        g = np.eye(4)
        t = np.array([0.0, 1.0, 0.0, 0.0])
        eigs = np.linalg.eigvalsh(deformed_metric(g, t, -0.5))
        assert eigs[0] > 0

    def test_degenerate_value_rejected(self):
        with pytest.raises(DegenerateMetricError):
            deformed_metric(np.eye(4), np.array([1.0, 0.0, 0.0, 0.0]), -1.0)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(NonUnitVectorError):
            deformed_metric(np.eye(4), np.array([2.0, 0.0, 0.0, 0.0]), -2.0)

"""Tests for the complex 3x3 classification and the spacelike critical counter."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

import curvforms
from curvforms import bivectors, complex_forms, curvature, hodge, normal_forms, topology
from curvforms.complex_forms import (
    CASE_CRITICAL_COUNTS,
    adapted_frame,
    classify_complex,
    complex_case_matrix,
    count_spacelike_critical,
    tensor_from_complex_form,
)
from curvforms.curvature import (
    CurvatureTensor,
    curvature_from_frame_components,
    operator_from,
    scalar_curvature,
    space_form,
    transform_frame,
    validate_curvature,
    weyl_operator,
)
from curvforms.exceptions import (
    DegenerateMetricError,
    DimensionError,
    GeometryError,
    NonUnitVectorError,
    NotCommutingError,
    TensorValidationError,
)
from curvforms.hodge import complexify, hodge_star, lorentz_metric_from_unit, sd_asd_basis
from curvforms.normal_forms import critical_point_residual, normal_form_3
from curvforms.topology import weyl_split_check
from curvforms.zoo import PointSample, gen_synthetic_star_L, validate_sample

RNG = np.random.default_rng(20260601)


def random_spd(rng, n, spread=0.4):
    a = rng.normal(size=(n, n))
    m = np.eye(n) + spread * (a + a.T) / 2.0
    w, v = np.linalg.eigh(m)
    return (v * np.clip(w, 0.25, None)) @ v.T


def random_unit(rng, g):
    t = rng.normal(size=g.shape[0])
    return t / np.sqrt(t @ g @ t)


# the one-point calls that read a Lorentz metric from (g, t), as functions of (g, t)
LORENTZ_ONE_POINT_CALLS = {
    "classify_complex": lambda g, t: classify_complex(space_form(4, 1.0), g, t),
    "count_spacelike_critical": lambda g, t: count_spacelike_critical(space_form(4, 1.0), g, t),
    "weyl_split_check": lambda g, t: weyl_split_check(space_form(4, 1.0), g, t),
    "adapted_frame": adapted_frame,
    "lorentz_metric_from_unit": lorentz_metric_from_unit,
}


class TestAdaptedFrame:
    def test_orthonormal_first_vector_oriented(self):
        for _ in range(20):
            g = random_spd(RNG, 4)
            t = random_unit(RNG, g)
            f = adapted_frame(g, t)
            npt.assert_allclose(f.T @ g @ f, np.eye(4), atol=1e-10)
            npt.assert_allclose(f[:, 0], t, atol=1e-12)
            assert np.linalg.det(f) > 0

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitVectorError):
            adapted_frame(np.eye(4), np.array([2.0, 0, 0, 0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_t_is_not_unit(self, bad):
        sample = star_l_sample(5)
        t = sample.t.copy()
        t[1] = bad
        calls = (adapted_frame, classify_complex, weyl_split_check, count_spacelike_critical)
        for call in calls:
            args = (sample.g, t) if call is adapted_frame else (sample.rm, sample.g, t)
            with pytest.raises(NonUnitVectorError, match="^T must be finite$"):
                call(*args)


def adapted_frame_loop(g, t, tol=1e-9):
    """The frame of :func:`adapted_frame` built one candidate at a time, as it was
    before the stacked Gram-Schmidt, and the number of candidates rejected; the
    metric rule on ``g`` comes first, then ``g(t, t) = 1``."""
    n = g.shape[0]
    if not np.isfinite(g).all():
        raise DegenerateMetricError("g must be finite")
    if np.max(np.abs(g - g.T)) > tol * max(np.max(np.abs(g)), 1e-300):
        raise DegenerateMetricError("g must be symmetric")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise DegenerateMetricError("g must be positive definite") from None
    tt = float(t @ g @ t)
    if abs(tt - 1.0) > tol:
        raise NonUnitVectorError(f"g(T, T) = {tt:.12g}, expected 1")
    cols, rejected = [t / np.sqrt(tt)], 0
    for candidate in np.eye(n):
        v = candidate.copy()
        for e in cols:
            v = v - (e @ g @ v) * e
        norm2 = float(v @ g @ v)
        if norm2 > 1e-12:
            cols.append(v / np.sqrt(norm2))
        else:
            rejected += 1
        if len(cols) == n:
            break
    if len(cols) < n:
        raise DegenerateMetricError("could not complete t to a g-orthonormal frame")
    frame = np.stack(cols, axis=1)
    if np.linalg.det(frame) < 0:
        frame[:, -1] = -frame[:, -1]
    return frame, rejected


def adapted_inputs(rng, count):
    """Seeded (g, t): random, along a basis vector (its candidate is rejected), in
    the plane of two basis vectors (some near one of them), not g-unit, and with
    an indefinite g."""
    pairs = []
    for k in range(count):
        g = random_spd(rng, 4, spread=1.5)
        kind = k % 5
        t = rng.normal(size=4)
        if kind == 1:
            t = np.eye(4)[k % 4]
        elif kind == 2:  # near a basis vector, its candidate's remainder near the 1e-12 bound
            t = np.eye(4)[k % 4] + (rng.normal(), 3e-6, 5e-7)[k % 3] * np.eye(4)[(k + 1) % 4]
        elif kind == 4:
            g = np.diag(rng.uniform(0.5, 2.0, 4)) * np.array([1.0, 1.0, 1.0, -1.0])
            t = np.eye(4)[k % 3]
        t = t / np.sqrt(abs(t @ g @ t))
        if kind == 3:
            t = t * (1.0 + 1e-6 * rng.normal())
        pairs.append((g, t))
    return pairs


class TestStackedAdaptedFrames:
    def test_frames_and_errors_equal_the_loop_bit_for_bit(self):
        # the metric of 1e-300 meets every rule, and its frame cannot be completed
        pairs = adapted_inputs(np.random.default_rng(140), 400) + [(1e-300 * np.eye(4), np.eye(4)[0] * 1e150)]
        frames, errors = complex_forms._adapted_frames(
            np.stack([g for g, _ in pairs]), np.stack([t for _, t in pairs]), 1e-9
        )
        outcomes = set()
        for (g, t), frame, error in zip(pairs, frames, errors):
            try:
                want, rejected = adapted_frame_loop(g, t)
            except (NonUnitVectorError, DegenerateMetricError) as err:
                assert (type(error), str(error)) == (type(err), str(err))
                outcomes.add(type(err) if isinstance(err, NonUnitVectorError) else str(err))
                continue
            assert error is None and frame.tobytes() == want.tobytes()
            assert adapted_frame(g, t).tobytes() == want.tobytes()
            outcomes.add(rejected)
        incomplete = "could not complete t to a g-orthonormal frame"
        assert outcomes == {0, 1, NonUnitVectorError, "g must be positive definite", incomplete}

    def test_k_of_the_criterion_07_instances_and_of_framed_samples_equals_the_loop_s(self):
        samples = []
        for case_id in (1, 2, 3, 4):
            for i in range(100):
                c = complex_case_matrix(case_id, np.random.default_rng(700_000 + 1000 * case_id + i))
                samples.append(gen_synthetic_star_L(0.5 * (-c.real - c.real.T), 0.5 * (-c.imag - c.imag.T)))
        samples += [star_l_sample(seed) for seed in range(100)]
        stack = [np.stack(x) for x in zip(*((curvature.component_matrix(s.rm), s.g, s.t) for s in samples))]
        k, frames, errors = complex_forms._adapted(*stack, 1e-9)
        assert errors == [None] * len(samples)
        for sample, kn, frame in zip(samples, k, frames):
            want, _ = adapted_frame_loop(sample.g, sample.t)
            assert frame.tobytes() == want.tobytes()
            # the counter reads K alone, so equal K gives equal counts
            assert kn.tobytes() == normal_forms._in_frame(curvature.component_matrix(sample.rm), want).tobytes()


class TestCaseMatrices:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_symmetric_real_trace(self, case_id):
        for seed in range(10):
            c = complex_case_matrix(case_id, np.random.default_rng(seed))
            npt.assert_allclose(c, c.T, atol=1e-10 * np.linalg.norm(c))
            assert abs(np.trace(c).imag) <= 1e-10 * np.linalg.norm(c)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            complex_case_matrix(5)

    def test_the_closed_form_rotation_equals_expm(self):
        from scipy.linalg import expm  # the oracle only; the package does not import scipy

        def cross(w):
            return np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]], dtype=complex)

        pairs = []
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            pairs.append((complex_forms._random_complex_orthogonal(np.random.default_rng(seed)), 0.25 * (a - a.T)))
        # w . w = 0 at an isotropic w, where X is nilpotent, and nearly so beside it
        pairs += [(complex_forms._exp_antisymmetric(x), x) for x in map(cross, [(1, 1j, 0), (1, 1j + 1e-9, 0), (0, 0, 0)])]
        for q, x in pairs:
            assert np.max(np.abs(q - expm(x))) <= 1e-14
            npt.assert_allclose(q.T @ q, np.eye(3), rtol=0, atol=1e-13)
            assert abs(np.linalg.det(q) - 1.0) <= 1e-13


class TestTensorRoundTrip:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_complex_matrix_recovered_in_adapted_coordinates(self, case_id):
        c = complex_case_matrix(case_id, RNG)
        rm = tensor_from_complex_form(c)
        nf = classify_complex(rm, np.eye(4), np.eye(4)[0])
        npt.assert_allclose(nf.c_matrix, c, atol=1e-10 * max(1.0, np.linalg.norm(c)),
                            err_msg="orthonormal adapted frame must reproduce c")
        assert nf.case_id == case_id

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_general_metric_and_direction(self, case_id):
        g = random_spd(RNG, 4)
        t = random_unit(RNG, g)
        c = complex_case_matrix(case_id, RNG)
        rm = tensor_from_complex_form(c, frame=adapted_frame(g, t))
        nf = classify_complex(rm, g, t)
        assert nf.case_id == case_id
        # Traces of powers are the well-conditioned spectral invariants; raw
        # eigenvalues of the defective cases smear by ~eps**(1/3).
        for power in (1, 2, 3):
            npt.assert_allclose(
                np.trace(np.linalg.matrix_power(nf.c_matrix, power)),
                np.trace(np.linalg.matrix_power(c, power)),
                atol=1e-9 * max(1.0, np.linalg.norm(c)) ** power,
                err_msg=f"trace of power {power} is an invariant of the realization",
            )
        got = sorted(np.linalg.eigvals(nf.c_matrix), key=lambda z: (z.real, z.imag))
        want = sorted(np.linalg.eigvals(c), key=lambda z: (z.real, z.imag))
        npt.assert_allclose(got, want, atol=1e-4,
                            err_msg="eigenvalues are invariants of the realization")

    def test_asymmetric_rejected(self):
        c = np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        with pytest.raises(GeometryError):
            tensor_from_complex_form(c)

    def test_complex_trace_rejected(self):
        with pytest.raises(GeometryError):
            tensor_from_complex_form(1j * np.eye(3))


class TestClassification:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_case_detection(self, case_id):
        hits = 0
        for seed in range(25):
            c = complex_case_matrix(case_id, np.random.default_rng(1000 * case_id + seed))
            rm = tensor_from_complex_form(c)
            nf = classify_complex(rm, np.eye(4), np.eye(4)[0])
            hits += nf.case_id == case_id
            assert nf.expected_spacelike_critical == CASE_CRITICAL_COUNTS[case_id]
        assert hits == 25

    def test_multiplicity_bookkeeping(self):
        c = np.diag([0.5 + 0.0j, 0.5, -1.0])
        rm = tensor_from_complex_form(c)
        nf = classify_complex(rm, np.eye(4), np.eye(4)[0])
        assert nf.case_id == 2
        assert sorted(nf.algebraic_multiplicities) == [1, 2]
        assert sorted(nf.geometric_multiplicities) == [1, 2]

    def test_first_bianchi_violation_raises(self):
        broken = validate_curvature([[1, 2, 3, 4, 1.0]], dim=4, tol=math.inf)
        with pytest.raises(TensorValidationError) as err:
            classify_complex(broken, np.eye(4), np.eye(4)[0])
        assert err.value.identity == "first Bianchi identity"
        assert err.value.residual == 1.0

    @pytest.mark.parametrize("call", list(LORENTZ_ONE_POINT_CALLS))
    @pytest.mark.parametrize("g, t", [
        (np.eye(3), np.eye(4)[0]), (np.eye(4), np.eye(3)[0]), (np.eye(4)[:, :3], np.eye(4)[0]), (np.eye(4), np.eye(4)),
    ])
    def test_a_wrong_shaped_g_or_t_reads_as_validate_says(self, call, g, t):
        # adapted_frame takes its dimension from g; the others need dimension 4
        dim = len(g) if call == "adapted_frame" else 4
        with pytest.raises(DimensionError) as want:
            validate_sample(PointSample(dim=dim, g=g, rm=space_form(dim, 1.0), weight=1.0, t=t))
        with pytest.raises(DimensionError) as got:
            LORENTZ_ONE_POINT_CALLS[call](g, t)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("reader", [classify_complex, count_spacelike_critical, weyl_split_check])
    def test_every_lorentz_reader_rejects_a_first_bianchi_breaker(self, reader):
        rm = tensor_from_complex_form(np.diag([0.3 + 0j, 0.7, 1.2]))
        bump = validate_curvature([[1, 2, 3, 4, 0.5]], dim=4, tol=math.inf)
        broken = CurvatureTensor(dim=4, components=rm.components + bump.components)
        with pytest.raises(TensorValidationError, match="first Bianchi identity") as err:
            reader(broken, np.eye(4), np.eye(4)[0])
        assert err.value.residual == 0.5
        # g(t, t) = 1 is checked before the identity, as validate_sample checks it
        with pytest.raises(NonUnitVectorError, match=r"^g\(T, T\) = 4, expected 1$"):
            reader(broken, np.eye(4), 2.0 * np.eye(4)[0])

    def test_nearly_equal_eigenvalues_merge(self):
        c = np.diag([0.5 + 0.0j, 0.5 + 1e-10, -1.0])
        rm = tensor_from_complex_form(c)
        assert classify_complex(rm, np.eye(4), np.eye(4)[0]).case_id == 2

    def test_plain_jordan_block_survives_eigenvalue_smear(self):
        # eigvals of a defective matrix scatter by ~eps^(1/3); the classifier
        # must still see a single eigenvalue
        q3 = np.array([[0, 1.0, 0], [1.0, 0, 1j], [0, 1j, 0]])
        rm = tensor_from_complex_form(0.7 * np.eye(3) + q3)
        nf = classify_complex(rm, np.eye(4), np.eye(4)[0])
        assert nf.case_id == 4
        assert nf.algebraic_multiplicities == (3,)

    def test_space_form_not_lorentz_commuting(self):
        with pytest.raises(NotCommutingError):
            classify_complex(space_form(4, 1.0), np.eye(4), np.eye(4)[0])

    def test_flat_rejected(self):
        rm = CurvatureTensor(dim=4, components=np.zeros((4,) * 4))
        with pytest.raises(GeometryError):
            classify_complex(rm, np.eye(4), np.eye(4)[0])


def lorentz_norms(x, chart):
    """``<u ^ w, u ^ w>_L`` of the unnormalised chart planes at ``x`` (n, 4)."""
    p = complex_forms._chart_planes(x, chart)
    return (p * p * complex_forms._GRAM_L_DIAG).sum(axis=1)


def ladder_rows():
    """192 seeded starts and steps for the step ladder: a third of the starts
    moved off their chart origin, some far enough to leave the spacelike cone,
    and steps up to 30, so that many cross the cone and need a few halvings."""
    chart = complex_forms._start_chart(192)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(192, 4)) * np.where(rng.random((192, 1)) < 0.33, 3.0, 0.0)
    delta = rng.normal(size=(192, 4)) * 10.0 ** rng.uniform(-2.0, 1.5, (192, 1))
    return chart, x, delta


# the counter's iterations per case over held_out_runs, when the guard was set
HELD_OUT_ITERATIONS = {1: 1052, 2: 653, 3: 1329, 4: 1448}


@functools.cache
def held_out_runs(case_id):
    """``(i, frame, count, iterations)`` of the counter at 64 starts, no retry,
    on the held-out seeds ``900000 + 1000 case + i``, i < 25 (apart from the
    criterion-07 ones), each C in the identity frame and in a seeded rotated and
    scaled frame; an iteration is one linearisation."""
    runs = []
    with mock.patch.object(complex_forms, "_linearised", wraps=complex_forms._linearised) as spy:
        for i in range(25):
            seed = 900_000 + 1000 * case_id + i
            c = complex_case_matrix(case_id, np.random.default_rng(seed))
            plain = gen_synthetic_star_L(0.5 * (-c.real - c.real.T), 0.5 * (-c.imag - c.imag.T))
            for name, s in (("identity", plain), ("framed", star_l_sample(seed, case_id))):
                before = spy.call_count
                count = count_spacelike_critical(s.rm, s.g, s.t)
                runs.append((i, name, count, spy.call_count - before))
    return runs


class TestCounter:
    def test_three_planes_for_distinct_real_eigenvalues(self):
        rm = tensor_from_complex_form(np.diag([0.3 + 0j, 0.7, 1.2]))
        count, planes = count_spacelike_critical(
            rm, np.eye(4), np.eye(4)[0], return_planes=True
        )
        assert count == 3
        gl = lorentz_metric_from_unit(np.eye(4), np.eye(4)[0])
        op = operator_from(rm, gl, kind="via_lorentz")
        star = hodge_star(gl)
        for p in planes:
            fit = critical_point_residual(op, star, p)
            assert fit.residual <= 1e-6, "reported planes must actually be critical"

    @pytest.mark.parametrize("n_starts", [0, -1, 2.5, True])
    def test_rejects_a_start_count_that_is_not_a_positive_integer(self, n_starts):
        rm = tensor_from_complex_form(np.diag([0.3 + 0j, 0.7, 1.2]))
        with pytest.raises(ValueError, match=f"n_starts must be an integer >= 1, got {n_starts!r}"):
            count_spacelike_critical(rm, np.eye(4), np.eye(4)[0], n_starts=n_starts)

    def test_accepts_a_numpy_integer_start_count(self):
        rm = tensor_from_complex_form(np.diag([0.3 + 0j, 0.7, 1.2]))
        assert count_spacelike_critical(rm, np.eye(4), np.eye(4)[0], n_starts=np.int64(64)) == 3

    @pytest.mark.parametrize("name", ["residual_tol", "dedup_tol", "max_iter", "q_min", "null_cone"])
    def test_fixed_settings_are_not_arguments(self, name):
        rm = tensor_from_complex_form(np.diag([0.3 + 0j, 0.7, 1.2]))
        with pytest.raises(TypeError, match=name):
            count_spacelike_critical(rm, np.eye(4), np.eye(4)[0], **{name: 1})

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_counts_match_prediction(self, case_id):
        for seed in range(5):
            c = complex_case_matrix(case_id, np.random.default_rng(7000 * case_id + seed))
            rm = tensor_from_complex_form(c)
            count = count_spacelike_critical(rm, np.eye(4), np.eye(4)[0])
            expected = CASE_CRITICAL_COUNTS[case_id]
            if math.isinf(expected):
                assert math.isinf(count), f"seed {seed}: expected continuum, got {count}"
            else:
                assert count == expected, f"seed {seed}: expected {expected}, got {count}"

    def test_general_coordinates(self):
        g = random_spd(RNG, 4)
        t = random_unit(RNG, g)
        c = complex_case_matrix(1, np.random.default_rng(99))
        rm = tensor_from_complex_form(c, frame=adapted_frame(g, t))
        assert count_spacelike_critical(rm, g, t) == 3

    def test_deterministic(self):
        c = complex_case_matrix(3, np.random.default_rng(5))
        rm = tensor_from_complex_form(c)
        first = count_spacelike_critical(rm, np.eye(4), np.eye(4)[0])
        second = count_spacelike_critical(rm, np.eye(4), np.eye(4)[0])
        assert first == second == 1

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_the_count_does_not_depend_on_a_positive_scale(self, case_id):
        # critical planes of s op are those of op; below norm 1 the residual
        # bound used to be absolute, which read a continuum at s = 1e-6; above
        # about 1e150 the normal equations overflowed
        scales = (1.0, 1e-12, 1e-6, 1e-3, 1e3, 1e6, 1e160, 1e200)
        for i in range(5):
            c = complex_case_matrix(case_id, np.random.default_rng(700_000 + 1000 * case_id + i))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                counts = [
                    count_spacelike_critical(tensor_from_complex_form(s * c), np.eye(4), np.eye(4)[0])
                    for s in scales
                ]
            assert counts[1:] == [counts[0]] * (len(scales) - 1), f"seed {i}: {counts}"

    @pytest.mark.parametrize("scale", [1.0, 2.0**-3, 2.0**5])
    def test_every_case_2_bench_operator_reads_a_continuum_at_64_starts(self, scale):
        # the continuum used to depend on rounding: under a constant damping
        # 20 of these 100 read 2 or 3 planes, a different 20 at each scale
        wrong = []
        for i in range(100):
            c = complex_case_matrix(2, np.random.default_rng(702_000 + i))
            count = count_spacelike_critical(tensor_from_complex_form(scale * c), np.eye(4), np.eye(4)[0])
            if not math.isinf(count):
                wrong.append((i, count))
        assert wrong == []

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_held_out_counts_are_right_at_64_starts(self, case_id):
        wrong = [(i, name, count) for i, name, count, _ in held_out_runs(case_id) if count != CASE_CRITICAL_COUNTS[case_id]]
        assert wrong == []

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_held_out_iterations_stay_within_10_percent_of_the_record(self, case_id):
        # the stall rule makes the iteration count sensitive to rounding: a
        # 6x6 dr/dp reassembly with the same counts once took case 4 of the
        # criterion-07 instances from 5678 to 7270 iterations; a rewrite of the
        # kernel may cost at most 10 % more than these totals
        total = sum(iterations for *_, iterations in held_out_runs(case_id))
        assert total <= 1.10 * HELD_OUT_ITERATIONS[case_id], total

    @pytest.mark.parametrize("seed, boost", [(951086, 0.75), (961029, 1.0), (961046, 1.0), (961050, 0.5)])
    def test_boosted_case_1_reads_three_planes(self, seed, boost):
        # converged copies of one plane pass the residual gate here before
        # they are polished to within the dedup distance of one another, so
        # a tally taken before every start stops reads a continuum
        rng = np.random.default_rng(seed)
        c = complex_case_matrix(1, rng)
        q = complex_forms._random_complex_orthogonal(rng, boost)
        rm = tensor_from_complex_form(q.T @ c @ q)
        assert count_spacelike_critical(rm, np.eye(4), np.eye(4)[0]) == 3

    @pytest.mark.parametrize("seed, boost", [(993139, 0.75), (993153, 0.75), (993153, 1.0)])
    def test_boosted_case_3_reads_one_plane(self, seed, boost):
        # a start that slides toward the null cone, where a unit spacelike
        # plane grows without bound, once passed the residual gate here as a
        # second plane; it now stops on reaching the cone
        rng = np.random.default_rng(seed)
        c = complex_case_matrix(3, rng)
        q = complex_forms._random_complex_orthogonal(rng, boost)
        rm = tensor_from_complex_form(q.T @ c @ q)
        assert [count_spacelike_critical(rm, np.eye(4), np.eye(4)[0], n_starts=n) for n in (64, 128, 192)] == [1] * 3

    @pytest.mark.parametrize("n_starts", [1, 2, 16, 64, 128, 192, 256])
    def test_sobol_points_equal_scipy(self, n_starts):
        from scipy.stats import qmc  # the reference only; the counter does not import it

        m = max(1, int(np.ceil(np.log2(max(2, n_starts)))))
        want = qmc.Sobol(d=4, scramble=False).random_base2(m)[:n_starts]
        npt.assert_array_equal(complex_forms._sobol_4(n_starts), want)

    def test_stacked_backtracking_equals_the_halving_loop(self):
        chart, x, delta = ladder_rows()
        q_min = complex_forms._Q_MIN
        p0, tangents = complex_forms._chart_planes(x, chart), complex_forms._chart_tangents(x, chart)
        quartic = complex_forms._quartic(delta, p0, tangents, chart[:, 5])

        # halve one step at a time, testing the same quartic at the step's own fraction
        want, s = delta.copy(), np.ones(192)
        halvings = np.zeros(192, dtype=int)
        for _ in range(25):
            bad = (quartic * s[:, None] ** np.arange(5)).sum(axis=1) <= q_min
            if not bad.any():
                break
            want[bad] *= 0.5
            s[bad] *= 0.5
            halvings += bad
        got = complex_forms._backtrack(delta.copy(), p0, tangents, chart[:, 5])
        assert np.array_equal(got, want)
        start_outside = lorentz_norms(x, chart) <= q_min
        assert (halvings == 0).sum() >= 10
        assert ((halvings > 0) & (halvings < 25)).sum() >= 10
        assert ((halvings == 25) & start_outside).sum() >= 10

    def test_the_quartic_equals_the_plane_norm_on_every_rung(self):
        # <P, P>_L along the step is the quartic exactly; in floating point its
        # coefficients cancel to within rounding of the three terms' sizes
        chart, x, delta = ladder_rows()
        p0, tangents = complex_forms._chart_planes(x, chart), complex_forms._chart_tangents(x, chart)
        t_delta = (tangents @ delta[:, :, None])[:, :, 0]
        p2 = (delta[:, 0] * delta[:, 3] - delta[:, 1] * delta[:, 2])[:, None] * chart[:, 5]
        got = complex_forms._quartic(delta, p0, tangents, chart[:, 5]) @ complex_forms._LADDER_POWERS
        want = np.stack([lorentz_norms(x + s * delta, chart) for s in complex_forms._LADDER], axis=1)
        assert complex_forms._LADDER.tolist() == [0.5**k for k in range(26)]
        scale = (p0 * p0).sum(axis=1) + (t_delta * t_delta).sum(axis=1) + (p2 * p2).sum(axis=1)
        assert (np.abs(got - want) <= 1e-12 * scale[:, None]).all()

    def test_the_chart_cache_holds_no_state(self):
        complex_forms._start_chart.cache_clear()
        for n_starts in (64, 128, 192):
            chart = complex_forms._start_chart(n_starts)
            assert chart.tobytes() == complex_forms._start_chart.__wrapped__(n_starts).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                chart[0, 0, 0] = 1.0
        # a call with another start count in between changes nothing, and a
        # cached chart gives what a freshly built one gave
        complex_forms._start_chart.cache_clear()
        for case_id in (1, 2, 3, 4):
            c = complex_case_matrix(case_id, np.random.default_rng(700_000 + 1000 * case_id))
            sample = gen_synthetic_star_L(0.5 * (-c.real - c.real.T), 0.5 * (-c.imag - c.imag.T))
            runs = [
                count_spacelike_critical(sample.rm, sample.g, sample.t, n_starts=n_starts, return_planes=True)
                for n_starts in (64, 128, 64)
            ]
            assert runs[2][0] == runs[0][0]
            assert runs[2][1].shape == runs[0][1].shape and runs[2][1].tobytes() == runs[0][1].tobytes()

    def test_the_dedup_helper_keeps_first_come_first_kept(self):
        tol = complex_forms._DEDUP_TOL

        def projector(angle):
            # onto span{e0 cos a + e2 sin a, e1}: |P(a) - P(b)|_F = sqrt(2) |sin(a - b)|
            q = np.zeros((6, 2))
            q[[0, 2], 0] = np.cos(angle), np.sin(angle)
            q[1, 1] = 1.0
            return q @ q.T

        def at(distance):
            return np.arcsin(distance / np.sqrt(2.0))

        def kept(*angles):
            return [int(i) for i in complex_forms._first_kept(np.array([projector(a) for a in angles]).reshape(-1, 6, 6), tol)]

        assert kept() == []
        assert kept(0.0) == [0]
        assert kept(0.0, at(0.5 * tol)) == [0]  # a duplicate
        assert kept(0.0, at(2.0 * tol)) == [0, 1]  # a distinct plane
        assert kept(0.0, at(0.5 * tol), at(2.0 * tol), at(2.3 * tol)) == [0, 2]
        # a chain A - B - C with |A - B| and |B - C| within tol and |A - C|
        # beyond: greedy order keeps A and C (clustering would merge all three);
        # with B first, B alone is kept
        a, b, c = 0.0, at(0.8 * tol), 2.0 * at(0.8 * tol)
        assert np.linalg.norm(projector(a) - projector(b)) <= tol
        assert np.linalg.norm(projector(b) - projector(c)) <= tol
        assert np.linalg.norm(projector(a) - projector(c)) > tol
        assert kept(a, b, c) == [0, 2]
        assert kept(b, a, c) == [0]
        assert kept(c, b, a) == [0, 2]

    def test_a_count_keeps_no_plane_past_the_fourth(self, monkeypatch):
        # a case-2 operator keeps dozens of planes at 64 starts; four already read a continuum
        real, calls = complex_forms._first_kept, []

        def spied(projectors, tol, limit=None):
            kept = real(projectors, tol, limit)
            calls.append((limit, kept, real(projectors, tol)))
            return kept

        monkeypatch.setattr(complex_forms, "_first_kept", spied)
        for i in range(100):
            rm = tensor_from_complex_form(complex_case_matrix(2, np.random.default_rng(702_000 + i)))
            count = count_spacelike_critical(rm, np.eye(4), np.eye(4)[0])
            counted, planes = count_spacelike_critical(rm, np.eye(4), np.eye(4)[0], return_planes=True)
            assert math.isinf(count) and math.isinf(counted) and len(planes) > 3, i
        (limit, kept, every), (limit_with_planes, kept_with_planes, _) = calls[:2]
        assert (limit, limit_with_planes, kept_with_planes) == (4, None, every)
        assert all(kept == every[:limit] for limit, kept, every in calls[::2])

    def test_the_chart_evaluates_the_wedge_of_the_spanning_pair(self):
        u0, w0 = complex_forms._spacelike_starts(192)
        _, _, vh = np.linalg.svd(np.stack([u0 @ ETA, w0 @ ETA], axis=1))
        n1, n2 = vh[:, 2], vh[:, 3]
        x = np.random.default_rng(18).uniform(-3.0, 3.0, size=(192, 4))
        u = u0 + x[:, 0:1] * n1 + x[:, 1:2] * n2
        w = w0 + x[:, 2:3] * n1 + x[:, 3:4] * n2
        chart = complex_forms._start_chart(192)
        # u ^ w and the four derivative columns n1 ^ w, n2 ^ w, u ^ n1, u ^ n2
        want = bivectors.wedge_vectors(
            np.stack([u, n1, n2, u, u], axis=1), np.stack([w, w, w, n1, n2], axis=1), normal_forms._BASIS
        )
        got = np.concatenate(
            [complex_forms._chart_planes(x, chart)[:, None], np.swapaxes(complex_forms._chart_tangents(x, chart), 1, 2)],
            axis=1,
        )
        assert (np.abs(got - want) <= 1e-13 * np.linalg.norm(want, axis=2, keepdims=True)).all()
        assert complex_forms._chart_tangents(x, chart).flags.c_contiguous

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_the_jacobian_equals_central_differences_of_the_residual(self, case_id):
        c = complex_case_matrix(case_id, np.random.default_rng(700_000 + 1000 * case_id))
        k = complex_forms._adapted(
            curvature.component_matrix(tensor_from_complex_form(c))[None], np.eye(4)[None], np.eye(4)[:1], 1e-9
        )[0][0]
        mmat, smat = complex_forms._GRAM_L @ k, complex_forms._STAR_L.matrix
        chart = complex_forms._start_chart(64)
        x = np.random.default_rng(case_id).uniform(-1.0, 1.0, size=(64, 4))
        # inside the spacelike cone, away from the clamp of <P, P>_L at _Q_MIN
        inside = lorentz_norms(x, chart) > 1e-2
        x, chart = x[inside], chart[inside]
        assert len(x) >= 16

        def residual(xs):
            return complex_forms._linearised(xs, chart, mmat, smat)[0][:, :, 4]

        jac = complex_forms._linearised(x, chart, mmat, smat)[0][:, :, :4]
        h = 1e-6
        for i, e in enumerate(np.eye(4) * h):
            fd = (residual(x + e) - residual(x - e)) / (2.0 * h)
            npt.assert_allclose(jac[:, :, i], fd, rtol=0.0, atol=1e-6 * np.abs(jac).max())

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_stacked_dedup_equals_the_per_plane_loop(self, case_id, monkeypatch):
        # the last fit of a counter call is its final tally's; the reference
        # dedups its converged planes one qr at a time, first come first kept
        fits = []
        plane_fit = complex_forms._plane_fit

        def recorded(*args):
            fits.append(plane_fit(*args))
            return fits[-1]

        monkeypatch.setattr(complex_forms, "_plane_fit", recorded)
        for i in range(25):
            rng = np.random.default_rng(700_000 + 1000 * case_id + i)
            c = complex_case_matrix(case_id, rng)
            sample = gen_synthetic_star_L(0.5 * (-c.real - c.real.T), 0.5 * (-c.imag - c.imag.T))
            k = complex_forms._adapted(curvature.component_matrix(sample.rm)[None], sample.g[None], sample.t[None], 1e-9)[0][0]
            norm_scale = max(1.0, float(np.linalg.norm(complex_forms._GRAM_L @ k)))
            for n_starts in (64, 128, 192):
                count, planes = count_spacelike_critical(
                    sample.rm, sample.g, sample.t, n_starts=n_starts, return_planes=True
                )
                p, sp, _, _, _, r = fits[-1]
                ok = np.linalg.norm(r, axis=1) <= 1e-7 * norm_scale
                want, projectors = [], []
                for pk, spk in zip(p[ok], sp[ok]):
                    qmat, _ = np.linalg.qr(np.stack([pk, spk], axis=1))
                    proj = qmat @ qmat.T
                    if all(np.linalg.norm(proj - known) > 1e-4 for known in projectors):
                        projectors.append(proj)
                        want.append(pk)
                assert count == (math.inf if len(want) > 3 else len(want))
                assert planes.shape == (len(want), 6) and planes.tobytes() == np.array(want).tobytes()


# ---- the adapted-frame Lambda^2 reading against the 4-index route ----

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def rotation(rng):
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    q[:, 0] *= np.sign(np.linalg.det(q))
    return q


def star_l_sample(seed, case_id=None):
    """Seeded star-L sample of a random (or the given) case in the frame
    ``rotation @ diag(U(0.5, 2))``."""
    rng = np.random.default_rng(seed)
    c = complex_case_matrix(int(rng.integers(1, 5)) if case_id is None else case_id, rng)
    frame = rotation(rng) @ np.diag(rng.uniform(0.5, 2.0, 4))
    return gen_synthetic_star_L(0.5 * (-c.real - c.real.T), 0.5 * (-c.imag - c.imag.T), frame)


def reference_c(rm, g, t):
    """C by the 4-index frame change, the Lorentz operator and its star."""
    moved = CurvatureTensor(dim=4, components=transform_frame(rm, adapted_frame(g, t)))
    return complexify(operator_from(moved, ETA, "via_lorentz").matrix, hodge_star(ETA))


def reference_weyl_split(rm, g, t, tol=1e-9):
    """The fields of :class:`WeylSplitReport` through the 4-index frame change,
    ``weyl_operator`` and ``sd_asd_basis``."""
    moved = validate_curvature(transform_frame(rm, adapted_frame(g, t, tol)), dim=4)
    w = weyl_operator(moved, np.eye(4)).matrix
    split = sd_asd_basis(hodge_star(np.eye(4)))
    w_plus, w_minus = split.plus @ w @ split.plus.T, split.minus @ w @ split.minus.T
    ml, sl = operator_from(moved, ETA, "via_lorentz").matrix, hodge_star(ETA).matrix
    commutator = np.linalg.norm(ml @ sl - sl @ ml) / np.linalg.norm(ml)
    trace = np.einsum("jl,jabl->ab", ETA, moved.components)
    f = np.trace(ETA @ trace) / 4.0
    return {
        "w_plus": w_plus,
        "w_minus": w_minus,
        "relation": w_plus + w_minus,
        "relation_residual": np.max(np.abs(w_plus + w_minus)),
        "commutes": commutator <= tol,
        "commutator_residual": commutator,
        "scal": scalar_curvature(moved, np.eye(4)),
        "f_fitted": f,
        "lorentz_trace_residual": np.max(np.abs(trace - f * ETA)),
    }


def adapted_k_per_point(rm, g, t, tol=1e-9):
    """The adapted frame and K of one point as read before the stacked kernels."""
    (error,) = curvature._first_bianchi_errors(curvature.component_matrix(rm)[None], tol)
    if error is not None:
        raise error
    frame, _ = adapted_frame_loop(g, t, tol)
    return frame, normal_forms._in_frame(curvature.component_matrix(rm), frame)


def weyl_split_per_point(rm, g, t, tol=1e-9):
    """The fields of :func:`weyl_split_check` as it computed them one point at a time."""
    frame, k = adapted_k_per_point(rm, g, t, tol)
    scal = 0.0 - 2.0 * float(np.trace(k))
    a, b, d = k[:3, :3], k[:3, 3:], k[3:, 3:]
    half, sym = (a + d) / 2.0 + (scal / 12.0) * np.eye(3), (b + b.T) / 2.0
    w_plus, w_minus = half + sym, half - sym
    ml, sl = complex_forms._GRAM_L @ k, complex_forms._STAR_L.matrix
    commutator = float(np.linalg.norm(ml @ sl - sl @ ml)) / max(float(np.linalg.norm(ml)), 1e-300)
    trace = frame.T @ np.einsum("jl,jabl->ab", frame @ ETA @ frame.T, rm.components, optimize=True) @ frame
    f = float(np.trace(ETA @ trace)) / 4.0
    return [
        w_plus, w_minus, w_plus + w_minus, float(np.max(np.abs(w_plus + w_minus))), commutator <= tol,
        commutator, scal, f, float(np.max(np.abs(trace - f * ETA))),
    ]


def cluster_eigenvalues_per_point(vals, width):
    """Greedy clustering of complex eigenvalues by distance to cluster mean, one
    point at a time: the reference of the clustering in :func:`_jordan_forms`."""
    order = np.lexsort((vals.imag, vals.real))
    clusters = []
    for v in vals[order]:
        for c in clusters:
            if abs(v - np.mean(c)) <= width:
                c.append(v)
                break
        else:
            clusters.append([v])
    reps = [complex(np.mean(c)) for c in clusters]
    algs = [len(c) for c in clusters]
    return reps, algs


def jordan_form_per_point(c, vals):
    """The classification of one complex matrix ``c`` with eigenvalues ``vals``,
    as :func:`_jordan_forms` computed it one point at a time."""
    width = complex_forms._JORDAN_SMEAR * float(np.linalg.norm(c))
    reps, algs = cluster_eigenvalues_per_point(vals, width)
    geos = []
    for z in reps:
        sv = np.linalg.svd(c - z * np.eye(3), compute_uv=False)
        geos.append(max(1, int(np.sum(sv <= width))))  # one tolerance merges and counts
    k = len(reps)
    case_id = 1 if k == 3 else 2 if max(geos) >= 2 else 3 if k == 2 else 4
    return complex_forms.ComplexNormalForm(
        case_id, tuple(reps), tuple(algs), tuple(geos), CASE_CRITICAL_COUNTS[case_id], c
    )


def jordan_forms_per_point(k0, g, t, tol=1e-9):
    """:func:`_jordan_forms` of points that all classify, with ``C`` and its
    eigenvalues taken for the stack and :func:`jordan_form_per_point` run on each."""
    k, _, errors = complex_forms._adapted(k0, g, t, tol)
    c, commuting = hodge._complexify(complex_forms._GRAM_L @ k, complex_forms._STAR_L.matrix, tol)
    assert errors == commuting == [None] * len(k0)
    vals = np.linalg.eigvals(c)
    return [jordan_form_per_point(*x) for x in zip(c, vals)]


def classification_per_point(rm, g, t, tol=1e-9):
    """``C`` and the eigenvalue clusters of :func:`classify_complex` as it computed them one point at a time,
    with its preconditions read before flatness."""
    _, k = adapted_k_per_point(rm, g, t, tol)
    if rm.scale == 0.0:
        raise GeometryError("flat tensors have no complex classification")
    m, j = complex_forms._GRAM_L @ k, complex_forms._STAR_L.matrix
    norm, resid = np.linalg.norm(m), np.linalg.norm(m @ j - j @ m)
    if resid > tol * max(norm, 1e-300):
        raise NotCommutingError(
            f"operator does not commute with the star: relative residual {resid / max(norm, 1e-300):.3e} > {tol:g}"
        )
    b = np.eye(6)[:, :3]
    coords = np.linalg.solve(np.hstack([b, j @ b]), m @ b)
    c = coords[:3, :] + 1j * coords[3:, :]
    width = complex_forms._JORDAN_SMEAR * float(np.linalg.norm(c))
    return c, cluster_eigenvalues_per_point(np.linalg.eigvals(c), width)


class TestStackedLorentzReaders:
    def test_the_stacks_equal_the_per_point_readers_bit_for_bit(self):
        samples = [star_l_sample(seed) for seed in range(120)]
        flat = dataclasses.replace(samples[0], rm=space_form(4, 0.0))
        samples += [
            flat, dataclasses.replace(flat, t=2.0 * flat.t), dataclasses.replace(samples[1], t=1.5 * samples[1].t),
            dataclasses.replace(samples[2], rm=space_form(4, 1.0)),
            dataclasses.replace(samples[3], rm=CurvatureTensor(4, samples[3].rm.components + space_form(4, 0.5).components)),
            dataclasses.replace(samples[4], rm=validate_curvature([[1, 2, 3, 4, 0.5]], dim=4, tol=math.inf)),
        ]
        k0, r, g, t = (np.stack(x) for x in zip(*(
            (curvature.component_matrix(s.rm), s.rm.components, s.g, s.t) for s in samples
        )))
        splits = topology._weyl_splits(k0, r, g, t, 1e-9)
        forms = complex_forms._jordan_forms(k0, g, t, 1e-9)
        outcomes = set()
        for sample, split, form in zip(samples, splits, forms):
            for stacked, reference in ((split, weyl_split_per_point), (form, classification_per_point)):
                try:
                    want = reference(sample.rm, sample.g, sample.t)
                except GeometryError as err:
                    assert (type(stacked), str(stacked)) == (type(err), str(err))
                    outcomes.add(type(err))
                    continue
                if reference is classification_per_point:
                    c, (reps, algs) = want
                    assert stacked.c_matrix.tobytes() == c.tobytes()
                    assert (repr(stacked.eigenvalues), stacked.algebraic_multiplicities) == (repr(tuple(reps)), tuple(algs))
                    outcomes.add(stacked.case_id)
                else:
                    got = list(vars(stacked).values())
                    assert [x.tobytes() for x in got[:3]] == [x.tobytes() for x in want[:3]]
                    assert repr(got[3:]) == repr(want[3:])
                    outcomes.add(stacked.commutes)
        assert outcomes == {1, 2, 3, 4, True, False, GeometryError, TensorValidationError, NotCommutingError, NonUnitVectorError}


Q3 = np.array([[0, 1.0, 0], [1.0, 0, 1j], [0, 1j, 0]])  # symmetric, Q3^3 = 0


def jordan_corpus():
    """Pair matrices of the 400 criterion-07 instances, then of complex forms at
    the edges of the clustering: Jordan blocks lambda I + s Q3, diagonal pairs
    whose separation runs from 1e-12 past the width, and lambda I."""
    k0 = []
    for case in (1, 2, 3, 4):
        for i in range(100):
            c = complex_case_matrix(case, np.random.default_rng(700_000 + 1000 * case + i))
            rm = gen_synthetic_star_L(0.5 * (-c.real - c.real.T), 0.5 * (-c.imag - c.imag.T)).rm
            k0.append(curvature.component_matrix(rm))
    rng = np.random.default_rng(17)
    forms = [rng.uniform(-2.0, 2.0) * np.eye(3) + rng.uniform(0.6, 1.4) * Q3 for _ in range(200)]
    for _ in range(200):
        z, w = rng.uniform(-2.0, 2.0, 2) + 1j * rng.uniform(-2.0, 2.0, 2)
        jitter, near, turn = 1.0 + rng.uniform(-1e-6, 1e-6), rng.random() >= 0.75, np.exp(2j * np.pi * rng.random())

        def pair(size):
            delta = size * turn
            return np.diag([z, z + delta, w.real - 1j * (2.0 * z.imag + delta.imag)])

        size = 10.0 ** rng.uniform(-12.0, -2.0)
        if near:  # the width of the pair itself: a fixed point, since |C|_F moves with the separation
            for _ in range(3):
                size = complex_forms._JORDAN_SMEAR * np.linalg.norm(pair(size)) * jitter
        forms.append(pair(size))
    forms += [lam * np.eye(3) for lam in rng.uniform(-2.0, 2.0, 20)]
    k0 += [curvature.component_matrix(tensor_from_complex_form(c)) for c in forms]
    k0 = np.stack(k0)
    return k0, np.broadcast_to(np.eye(4), (len(k0), 4, 4)), np.broadcast_to(np.eye(4)[0], (len(k0), 4))


class TestStackedClassification:
    def test_the_stack_equals_the_per_point_classification(self):
        k0, g, t = jordan_corpus()
        forms = complex_forms._jordan_forms(k0, g, t, 1e-9)
        want = jordan_forms_per_point(k0, g, t)
        fields = ("case_id", "algebraic_multiplicities", "geometric_multiplicities", "expected_spacelike_critical")
        for got, ref in zip(forms, want, strict=True):
            assert [getattr(got, f) for f in fields] == [getattr(ref, f) for f in fields]
            assert repr(got.eigenvalues) == repr(ref.eigenvalues)
            assert got.c_matrix.tobytes() == ref.c_matrix.tobytes()
        assert [f.case_id for f in forms[:400]] == [case for case in (1, 2, 3, 4) for _ in range(100)]
        assert {f.geometric_multiplicities for f in forms[-20:]} == {(3,)}
        # a pair closer than the width is one cluster of geometric multiplicity 2
        pairs = forms[600:800]
        assert {f.case_id for f in pairs} == {1, 2}
        # the commuting test reads |M|_F of a stack as np.linalg.norm reads it
        # for one M; the width reads |C|_F of the float view, whose real and
        # imaginary parts sum interleaved, within 2 ulp of it
        c = np.stack([f.c_matrix for f in forms])
        npt.assert_array_max_ulp(hodge._frobenius(k0), np.array([np.linalg.norm(x) for x in k0]), maxulp=1)
        npt.assert_array_max_ulp(hodge._frobenius(c.view(float)), np.array([np.linalg.norm(x) for x in c]), maxulp=2)

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize(
        "d, case_id",
        [(1e-12, 2), (1e-8, 2), (1e-7, 2), (1e-5, 2), (1e-4, 2), (4.3e-4, 2), (4.4e-4, 1), (1e-3, 1)],
    )
    def test_one_tolerance_merges_and_counts(self, d, case_id, scale):
        # diag(z, z + d, w) is diagonalizable: two eigenvalues closer than the
        # width (3.03e-4 |C|_F, 4.325e-4 times the scale here) are one cluster
        # of geometric multiplicity 2, never a Jordan block, at every scale
        c = scale * np.diag([0.5 + 0.3j, 0.5 + 0.3j + d, 1.0 - 0.6j])
        form = classify_complex(tensor_from_complex_form(c), np.eye(4), np.eye(4)[0])
        assert form.case_id == case_id
        assert max(form.geometric_multiplicities) == (2 if case_id == 2 else 1)

    def test_conjugated_pairs_inside_the_width_read_case_2(self):
        # Q^T diag(z, z + d, w) Q with Q complex orthogonal but not unitary is
        # diagonalizable too, but the small singular values of C - z I grow to
        # |Q|^2 d / 2 (|Q|_2 <= 3.45 here): a pair within a tenth of the width
        # reads case 2 and one past the width case 1
        z, w = 0.5 + 0.3j, 1.0 - 0.6j
        cases = {}
        for seed in range(100):
            q = complex_forms._random_complex_orthogonal(np.random.default_rng(seed))
            assert np.linalg.norm(q, 2) <= 3.45
            width = complex_forms._JORDAN_SMEAR * np.linalg.norm(q.T @ np.diag([z, z, w]) @ q)
            for fraction in (1e-8, 1e-4, 0.1, 1.5, 3.0):
                c = q.T @ np.diag([z, z + fraction * width, w]) @ q
                form = classify_complex(tensor_from_complex_form(c), np.eye(4), np.eye(4)[0])
                cases.setdefault(fraction, set()).add(form.case_id)
        assert cases == {1e-8: {2}, 1e-4: {2}, 0.1: {2}, 1.5: {1}, 3.0: {1}}

    @pytest.mark.parametrize("scale", [1e-100, 1e-4, 1e4, 1e100])
    def test_the_case_does_not_depend_on_scale(self, scale):
        # the width scales with C: the criterion-07 instances and a nilpotent
        # s Q3 keep their case at any scale, small or large
        k0, g, t = jordan_corpus()
        k0 = np.concatenate([k0[:400], curvature.component_matrix(tensor_from_complex_form(Q3))[None]])
        forms = complex_forms._jordan_forms(scale * k0, g[:401], t[:401], 1e-9)
        assert [f.case_id for f in forms] == [case for case in (1, 2, 3, 4) for _ in range(100)] + [4]

    def test_the_per_point_helpers_are_gone(self):
        assert not hasattr(complex_forms, "_jordan_form")
        assert not hasattr(complex_forms, "_cluster_eigenvalues")


class TestAdaptedFrameReading:
    def test_no_four_index_route_at_run_time(self, monkeypatch):
        sample = star_l_sample(3, case_id=1)
        diagonal = validate_curvature([[1, 2, 1, 2, -1.0], [1, 3, 1, 3, 0.5], [2, 3, 2, 3, 2.0]], dim=3)
        q3 = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
        rm3 = curvature_from_frame_components(diagonal.components, q3)

        def refuse(*args, **kwargs):
            raise AssertionError("the 4-index frame-change route was taken")

        names = (
            "transform_frame", "operator_from", "weyl_operator", "sd_asd_basis",
            "scalar_curvature", "hodge_star", "lorentz_metric_from_unit",
        )
        for module in (curvature, hodge, complex_forms, topology, normal_forms):
            for name in names:
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert classify_complex(sample.rm, sample.g, sample.t).case_id == 1
        assert count_spacelike_critical(sample.rm, sample.g, sample.t, n_starts=8) >= 0
        assert weyl_split_check(sample.rm, sample.g, sample.t).commutes
        npt.assert_allclose(normal_form_3(rm3).diag, [-1.0, 0.5, 2.0], atol=1e-12)

    def test_the_lorentz_constants_are_the_star_of_eta(self):
        star = hodge_star(ETA)
        npt.assert_array_equal(complex_forms._STAR_L.matrix, star.matrix)
        npt.assert_array_equal(complex_forms._GRAM_L, star.gram)
        assert complex_forms._STAR_L.signature == star.signature == "lorentzian"

    def test_c_and_the_weyl_split_equal_the_four_index_route(self):
        for seed in range(60):
            sample = star_l_sample(seed)
            c = classify_complex(sample.rm, sample.g, sample.t).c_matrix
            want = reference_c(sample.rm, sample.g, sample.t)
            npt.assert_allclose(c, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
            report = weyl_split_check(sample.rm, sample.g, sample.t)
            for name, value in reference_weyl_split(sample.rm, sample.g, sample.t).items():
                got = getattr(report, name)
                if name == "commutes":
                    assert got == value
                else:
                    npt.assert_allclose(got, value, rtol=0, atol=1e-11 * sample.rm.scale, err_msg=name)


# ---- Lorentz property tests ----

# coordinate changes P = Q1 diag(s) Q2 with proper rotations Q1, Q2 and s in
# [1, FRAME_CHANGE_COND], the bound of the Riemannian frame-change property in
# test_normal_forms.  Rounding in K then grows by at most cond(P)^4 = 10^4, to
# about 1e-12 relative, far below the commuting tolerance 1e-9: a rejection
# seen at a frame condition number of 1412 is a limit of that input's rounding,
# not of the commuting test.
FRAME_CHANGE_COND = 10.0


def coordinate_change(rng):
    s = np.exp(rng.uniform(0.0, np.log(FRAME_CHANGE_COND), 4))
    return rotation(rng) @ np.diag(s) @ rotation(rng)


def cayley(s):
    """Complex orthogonal ``(I - S)^-1 (I + S)`` of a complex skew ``S``; with
    ``|S|_2 <= 1/2`` its condition number is at most 9."""
    eye = np.eye(len(s))
    return np.linalg.solve(eye - s, eye + s)


class TestLorentzProperties:
    @given(seed=st.integers(0, 2**32 - 1), case_id=st.sampled_from([1, 2, 3, 4]))
    def test_coordinate_change_keeps_the_case(self, seed, case_id):
        sample = star_l_sample(seed, case_id)
        p = coordinate_change(np.random.default_rng([seed, 1]))
        moved = CurvatureTensor(dim=4, components=transform_frame(sample.rm, p))
        form = classify_complex(sample.rm, sample.g, sample.t)
        form_moved = classify_complex(moved, p.T @ sample.g @ p, np.linalg.solve(p, sample.t))
        assert form.case_id == form_moved.case_id == case_id
        if case_id == 1:
            # the adapted frames differ by a rotation fixing t, which conjugates C
            want = np.sort_complex(np.linalg.eigvals(form.c_matrix))
            got = np.sort_complex(np.linalg.eigvals(form_moved.c_matrix))
            npt.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        case_id=st.sampled_from([1, 2, 3, 4]),
        size=st.floats(0.0, 0.5),
    )
    def test_complex_orthogonal_conjugation_keeps_the_case(self, seed, case_id, size):
        rng = np.random.default_rng(seed)
        c0 = complex_case_matrix(case_id, rng)
        s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s = s - s.T
        q = cayley(size * s / np.linalg.norm(s))
        npt.assert_allclose(q.T @ q, np.eye(3), atol=1e-13)
        for c in (c0, q.T @ c0 @ q):
            assert classify_complex(tensor_from_complex_form(c), np.eye(4), np.eye(4)[0]).case_id == case_id


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats and scipy.linalg dominate import time, and the package and
    # its generators run on numpy alone.
    # Neither the package nor its command line makes a numpy.linalg call at
    # import, so module constants such as the wedge pairing, the canonical
    # star's eigenbasis and the Lorentz tables are written out, not solved
    # for: one LAPACK call at import raises the peak RSS of every command by
    # about 1 MiB
    env = dict(os.environ, PYTHONPATH=str(Path(curvforms.__file__).parents[1]))
    probe = (
        "import sys, numpy as np\n"
        "calls = []\n"
        "def wrap(name, f):\n"
        "    def called(*args, **kwargs):\n"
        "        calls.append(name)\n"
        "        return f(*args, **kwargs)\n"
        "    return called\n"
        "for name in dir(np.linalg):\n"
        "    f = getattr(np.linalg, name)\n"
        "    if callable(f) and not isinstance(f, type):\n"
        "        setattr(np.linalg, name, wrap(name, f))\n"
        "import curvforms as cf, curvforms.cli\n"
        "print(calls or 'none', 'scipy.stats' in sys.modules, 'scipy.linalg' in sys.modules)\n"
        "rm = cf.tensor_from_complex_form(np.diag([0.3 + 0j, 0.7, 1.2]))\n"
        "assert cf.count_spacelike_critical(rm, np.eye(4), np.eye(4)[0], n_starts=16) == 3\n"
        "print('qr' in calls, 'scipy.stats' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.split() == ["none", "False", "False", "True", "False"]

"""Tests for the complex 3x3 classification and the spacelike critical counter."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import curvforms
from curvforms.complex_forms import (
    CASE_CRITICAL_COUNTS,
    adapted_frame,
    classify_complex,
    complex_case_matrix,
    count_spacelike_critical,
    tensor_from_complex_form,
)
from curvforms.curvature import CurvatureTensor, operator_from, space_form, validate_curvature
from curvforms.exceptions import (
    GeometryError,
    NonUnitVectorError,
    NotCommutingError,
    TensorValidationError,
)
from curvforms.hodge import hodge_star, lorentz_metric_from_unit
from curvforms.normal_forms import critical_point_residual

RNG = np.random.default_rng(20260601)


def random_spd(rng, n, spread=0.4):
    a = rng.normal(size=(n, n))
    m = np.eye(n) + spread * (a + a.T) / 2.0
    w, v = np.linalg.eigh(m)
    return (v * np.clip(w, 0.25, None)) @ v.T


def random_unit(rng, g):
    t = rng.normal(size=g.shape[0])
    return t / np.sqrt(t @ g @ t)


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


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats and scipy.linalg dominate import time; only the counter, the
    # general SD/ASD split and the star-L generators need them
    env = dict(os.environ, PYTHONPATH=str(Path(curvforms.__file__).parents[1]))
    probe = "import sys, curvforms; print('scipy.stats' in sys.modules, 'scipy.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False False"

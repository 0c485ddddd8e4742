"""Curvature tensor and operator checks.

Identities exercised:
  * validation of antisymmetry, pair symmetry and the first Bianchi identity,
    with worst-violation reporting
  * sparse completion by symmetry, duplicate-conflict rejection
  * space forms: R_1212 = -kappa, operator -kappa I, scalar n(n-1) kappa
  * operator realization solves <M(e_i^e_j), e_k^e_l> = R_ijkl for each of
    via_g, via_h, via_lorentz (defining-equation oracle)
  * orthonormal-frame block forms [[A, B], [B^T, D]] and [[-A, -B], [B^T, D]]
  * quadratic forms: normalization, Lorentzian sign factor, lightlike error
  * Weyl operator: vanishes on space forms, commutes with the star
  * scalar curvature: frame invariance and the orthonormal trace formula
"""

import numpy as np
import numpy.testing as npt
import pytest

from curvforms import curvature
from curvforms.bivectors import bivector_basis, wedge_vectors
from curvforms.curvature import (
    component_matrix,
    curvature_from_frame_components,
    operator_from,
    quadratic_form,
    scalar_curvature,
    space_form,
    transform_frame,
    validate_curvature,
    weyl_operator,
)
from curvforms.exceptions import DimensionError, LightlikePlaneError, TensorValidationError
from curvforms.hodge import hodge_star, lorentz_metric_from_unit

RNG = np.random.default_rng(7)


def random_valid_tensor(rng, dim=4):
    """Random algebraic curvature tensor.

    Built by symmetrizing a random table over the pair symmetries and then
    projecting out the Bianchi-violating part; the projection below is exact
    (the cyclic sum map is 3x its own projection on pair-symmetric tensors).
    """
    a = rng.normal(size=(dim,) * 4)
    a = a - np.swapaxes(a, 0, 1)
    a = a - np.swapaxes(a, 2, 3)
    a = a + np.transpose(a, (2, 3, 0, 1))
    cyc = a + np.transpose(a, (0, 2, 3, 1)) + np.transpose(a, (0, 3, 1, 2))
    return validate_curvature(a - cyc / 3.0)


# ---- validation ----


class TestValidation:
    def test_sparse_single_entry_completes(self):
        rm = validate_curvature([[1, 2, 1, 2, -1.0]], dim=3)
        assert rm.component(1, 2, 1, 2) == -1.0
        assert rm.component(2, 1, 1, 2) == 1.0
        assert rm.component(1, 2, 2, 1) == 1.0
        assert rm.component(2, 1, 2, 1) == -1.0

    def test_bianchi_violation_reported(self):
        entries = [[1, 2, 3, 4, 1.0], [1, 3, 4, 2, 1.0], [1, 4, 2, 3, 1.0]]
        with pytest.raises(TensorValidationError) as err:
            validate_curvature(entries, dim=4)
        assert err.value.identity == "first Bianchi identity"
        npt.assert_allclose(err.value.residual, 3.0)

    def test_pair_symmetry_violation_reported(self):
        r = np.zeros((4,) * 4)
        r[0, 1, 2, 3] = 1.0
        r[1, 0, 2, 3] = -1.0
        r[0, 1, 3, 2] = -1.0
        r[1, 0, 3, 2] = 1.0
        with pytest.raises(TensorValidationError) as err:
            validate_curvature(r)
        assert err.value.identity in ("pair symmetry", "first Bianchi identity")
        assert err.value.residual > 0.5

    def test_duplicate_conflict_rejected(self):
        entries = [[1, 2, 1, 2, 1.0], [2, 1, 1, 2, 1.0]]  # second means R_1212 = -1
        with pytest.raises(TensorValidationError):
            validate_curvature(entries, dim=4)

    def test_tolerance_is_relative_to_scale(self):
        r = space_form(4, 1000.0).components.copy()
        r[0, 1, 0, 1] += 1e-7  # breaks pair symmetry partners? no: symmetric entry
        r[0, 1, 2, 3] += 1e-7  # tiny Bianchi/antisym breakage at large scale
        validate_curvature(r)  # 1e-7 / 1000 = 1e-10 < 1e-9: accepted

    def test_infinite_tolerance_only_completes(self, monkeypatch):
        def refuse(residual):
            raise AssertionError("identity residual computed at tol = inf")

        monkeypatch.setattr(curvature, "_worst", refuse)
        rm = validate_curvature([[1, 2, 3, 4, 1.0]], dim=4, tol=np.inf)
        assert rm.component(3, 4, 2, 1) == -1.0  # completed, Bianchi left unchecked
        with pytest.raises(TensorValidationError, match="duplicate"):
            validate_curvature([[1, 2, 1, 2, 1.0], [2, 1, 1, 2, 1.0]], dim=4, tol=np.inf)
        with pytest.raises(TensorValidationError, match="index range"):
            validate_curvature([[1, 2, 1, 5, 1.0]], dim=4, tol=np.inf)
        with pytest.raises(DimensionError):
            validate_curvature([], dim=2, tol=np.inf)

    def test_roundtrip_sparse(self):
        rm = random_valid_tensor(RNG)
        back = validate_curvature(rm.to_sparse(), dim=4)
        npt.assert_allclose(back.components, rm.components, atol=1e-15)


# ---- space forms ----


class TestSpaceForm:
    def test_signs(self):
        rm = space_form(4, 1.0)
        assert rm.component(1, 2, 1, 2) == -1.0
        assert rm.component(1, 2, 2, 1) == 1.0

    @pytest.mark.parametrize("dim,kappa", [(3, 1.0), (4, -2.0), (5, 0.5)])
    def test_operator_is_minus_kappa_identity(self, dim, kappa):
        op = operator_from(space_form(dim, kappa), np.eye(dim), "via_g")
        m = dim * (dim - 1) // 2
        npt.assert_allclose(op.matrix, -kappa * np.eye(m), atol=1e-13)

    @pytest.mark.parametrize("dim,kappa", [(3, 2.0), (4, 1.0), (5, -1.0)])
    def test_scalar_curvature(self, dim, kappa):
        npt.assert_allclose(
            scalar_curvature(space_form(dim, kappa), np.eye(dim)),
            dim * (dim - 1) * kappa,
            atol=1e-12,
        )


# ---- operator realizations ----


class TestOperators:
    def test_orthonormal_component_layout(self):
        # first column of the via_g matrix lists R_1212, R_1213, ... in the
        # canonical pair order
        rm = random_valid_tensor(RNG)
        op = operator_from(rm, np.eye(4), "via_g")
        basis = bivector_basis(4)
        for a, (i, j) in enumerate(basis.pairs):
            for b, (k, l) in enumerate(basis.pairs):
                npt.assert_allclose(
                    op.matrix[a, b],
                    rm.component(i, j, k, l),
                    atol=1e-12,
                    err_msg=f"entry ({i}{j}), ({k}{l})",
                )

    @pytest.mark.parametrize("kind", ["via_g", "via_h"])
    def test_defining_equation_general_metric(self, kind):
        rm = random_valid_tensor(RNG)
        a = RNG.normal(size=(4, 4))
        g = a @ a.T + 0.5 * np.eye(4)
        op = operator_from(rm, g, kind)
        basis = bivector_basis(4)
        k = component_matrix(rm, basis)
        npt.assert_allclose(op.gram @ op.matrix, k, atol=1e-11)

    def test_lorentz_block_form(self):
        rm = random_valid_tensor(RNG)
        k = operator_from(rm, np.eye(4), "via_g").matrix
        gl = np.diag([-1.0, 1.0, 1.0, 1.0])
        ml = operator_from(rm, gl, "via_lorentz").matrix
        npt.assert_allclose(ml[:3, :], -k[:3, :], atol=1e-13)
        npt.assert_allclose(ml[3:, :], k[3:, :], atol=1e-13)

    def test_gram_self_adjoint(self):
        rm = random_valid_tensor(RNG)
        a = RNG.normal(size=(4, 4))
        g = a @ a.T + np.eye(4)
        op = operator_from(rm, g, "via_g")
        gm = op.gram @ op.matrix
        npt.assert_allclose(gm, gm.T, atol=1e-11)


# ---- quadratic forms ----


class TestQuadraticForm:
    def test_space_form_value(self):
        basis = bivector_basis(4)
        op = operator_from(space_form(4, 2.0), np.eye(4), "via_g")
        for _ in range(20):
            q, _ = np.linalg.qr(RNG.normal(size=(4, 2)))
            p = 3.0 * wedge_vectors(q[:, 0], q[:, 1], basis)  # non-unit on purpose
            npt.assert_allclose(quadratic_form(op, p), -2.0, atol=1e-12)

    def test_lorentz_spacelike_plane(self):
        rm = random_valid_tensor(RNG)
        gl = np.diag([-1.0, 1.0, 1.0, 1.0])
        op = operator_from(rm, gl, "via_lorentz")
        p = np.zeros(6)
        p[3] = 1.0  # e3^e4, spacelike when the time direction is e1
        npt.assert_allclose(quadratic_form(op, p), rm.component(3, 4, 3, 4), atol=1e-13)

    def test_lorentz_timelike_plane(self):
        rm = random_valid_tensor(RNG)
        gl = np.diag([-1.0, 1.0, 1.0, 1.0])
        op = operator_from(rm, gl, "via_lorentz")
        p = np.zeros(6)
        p[0] = 1.0  # e1^e2, timelike
        npt.assert_allclose(quadratic_form(op, p), -rm.component(1, 2, 1, 2), atol=1e-13)

    def test_lightlike_plane_rejected(self):
        rm = random_valid_tensor(RNG)
        gl = np.diag([-1.0, 1.0, 1.0, 1.0])
        op = operator_from(rm, gl, "via_lorentz")
        basis = bivector_basis(4)
        p = wedge_vectors(np.array([1.0, 1.0, 0, 0]), np.array([0, 0, 1.0, 0]), basis)
        with pytest.raises(LightlikePlaneError):
            quadratic_form(op, p)

    def test_non_decomposable_rejected(self):
        op = operator_from(space_form(4, 1.0), np.eye(4), "via_g")
        p = np.array([1.0, 0, 0, 1.0, 0, 0])
        with pytest.raises(LightlikePlaneError):
            quadratic_form(op, p)


# ---- Weyl operator and scalar curvature ----


class TestWeylScalar:
    def test_weyl_vanishes_on_space_forms(self):
        for kappa in (-1.0, 0.5, 2.0):
            w = weyl_operator(space_form(4, kappa), np.eye(4))
            npt.assert_allclose(w.matrix, 0.0, atol=1e-13)

    def test_weyl_commutes_with_star(self):
        rm = random_valid_tensor(RNG)
        w = weyl_operator(rm, np.eye(4)).matrix
        s = hodge_star(np.eye(4)).matrix
        npt.assert_allclose(w @ s, s @ w, atol=1e-12)

    def test_scalar_equals_minus_twice_trace(self):
        rm = random_valid_tensor(RNG)
        op = operator_from(rm, np.eye(4), "via_g")
        npt.assert_allclose(
            scalar_curvature(rm, np.eye(4)), -2.0 * np.trace(op.matrix), atol=1e-12
        )

    def test_scalar_frame_invariance(self):
        rm = random_valid_tensor(RNG)
        f = RNG.normal(size=(4, 4)) + 2.0 * np.eye(4)
        g_f = f.T @ f  # identity metric expressed in the new frame
        rm_f = validate_curvature(transform_frame(rm, f))
        npt.assert_allclose(
            scalar_curvature(rm_f, g_f), scalar_curvature(rm, np.eye(4)), rtol=1e-9
        )

    def test_frame_components_roundtrip(self):
        rm = random_valid_tensor(RNG)
        f = RNG.normal(size=(4, 4)) + 2.0 * np.eye(4)
        pattern = transform_frame(rm, f)
        back = curvature_from_frame_components(pattern, f)
        npt.assert_allclose(back.components, rm.components, atol=1e-9)

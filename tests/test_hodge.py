"""Hodge star checks.

Identities exercised:
  * defining equation wedge(xi, S eta) = <xi, eta> / sqrt|det g| entrywise,
    solved independently as a linear system (oracle)
  * star^2 = +I (Riemannian), -I (Lorentzian) over random nondegenerate metrics
  * canonical block forms [[0, I], [I, 0]] and [[0, I], [-I, 0]] in orthonormal
    frames
  * Lorentz metric from a unit vector: signature and restriction to the
    orthogonal complement
  * self-dual / anti-self-dual eigenbasis: closed form in orthonormal frames,
    Gram-orthonormality in general
  * complexification: star maps to iI; commuting block operators map to P + iQ
"""

import re

import numpy as np
import numpy.testing as npt
import pytest

from curvforms import curvature
from curvforms.bivectors import bivector_basis, induced_gram, wedge_matrix
from curvforms.exceptions import (
    DegenerateMetricError,
    NonUnitVectorError,
    NotCommutingError,
)
from curvforms.hodge import (
    complexify,
    hodge_star,
    lorentz_metric_from_unit,
    sd_asd_basis,
)
from curvforms.zoo import PointSample, deformed_metric, validate_sample

RNG = np.random.default_rng(41)
BASIS = bivector_basis(4)


def random_spd(rng, dim=4, spread=1.0):
    a = rng.normal(size=(dim, dim)) * spread
    return a @ a.T + 0.5 * np.eye(dim)


def random_lorentz(rng, dim=4):
    g = random_spd(rng, dim)
    t = rng.normal(size=dim)
    t = t / np.sqrt(t @ g @ t)
    return lorentz_metric_from_unit(g, t)


def star_oracle(g):
    """Solve the defining equation wedge(b_a, S b_b) = gram_ab / sqrt|det g|.

    Independent of the implementation: uses only the wedge matrix and the
    induced Gram, as a direct 6x6 linear solve per column.
    """
    gram = induced_gram(g, BASIS)
    w = wedge_matrix(BASIS)
    rhs = gram / np.sqrt(abs(np.linalg.det(g)))
    # wedge(b_a, S b_b) = sum_c w[a, c] S[c, b]
    return np.linalg.solve(w, rhs)


# ---- defining equation and squares ----


class TestStar:
    def test_orthonormal_riemannian_block_form(self):
        s = hodge_star(np.eye(4))
        expected = np.zeros((6, 6))
        expected[:3, 3:] = np.eye(3)
        expected[3:, :3] = np.eye(3)
        npt.assert_allclose(s.matrix, expected, atol=1e-15)
        assert s.signature == "riemannian"

    def test_orthonormal_lorentzian_block_form(self):
        s = hodge_star(np.diag([-1.0, 1.0, 1.0, 1.0]))
        expected = np.zeros((6, 6))
        expected[:3, 3:] = np.eye(3)
        expected[3:, :3] = -np.eye(3)
        npt.assert_allclose(s.matrix, expected, atol=1e-15)
        assert s.signature == "lorentzian"

    def test_matches_defining_equation_oracle(self):
        for _ in range(25):
            g = random_spd(RNG)
            npt.assert_allclose(hodge_star(g).matrix, star_oracle(g), atol=1e-10)
        for _ in range(25):
            g = random_lorentz(RNG)
            npt.assert_allclose(hodge_star(g).matrix, star_oracle(g), atol=1e-10)

    def test_scaled_metric_example(self):
        # diag(4,1,1,1): star must still square to the identity
        s = hodge_star(np.diag([4.0, 1.0, 1.0, 1.0]))
        npt.assert_allclose(s.matrix @ s.matrix, np.eye(6), atol=1e-14)

    def test_square_riemannian(self):
        worst = 0.0
        for _ in range(100):
            s = hodge_star(random_spd(RNG)).matrix
            worst = max(worst, np.max(np.abs(s @ s - np.eye(6))))
        assert worst <= 1e-11, f"star^2 - I reached {worst:.3e}"

    def test_square_lorentzian(self):
        worst = 0.0
        for _ in range(100):
            s = hodge_star(random_lorentz(RNG)).matrix
            worst = max(worst, np.max(np.abs(s @ s + np.eye(6))))
        assert worst <= 1e-11, f"star^2 + I reached {worst:.3e}"

    def test_orientation_flip(self):
        g = random_spd(RNG)
        npt.assert_allclose(
            hodge_star(g, orientation_sign=-1).matrix, -hodge_star(g).matrix, atol=1e-15
        )

    def test_singular_metric_rejected(self):
        g = np.diag([1.0, 1.0, 1.0, 0.0])
        with pytest.raises(DegenerateMetricError):
            hodge_star(g)

    def test_gram_self_adjoint(self):
        for _ in range(10):
            s = hodge_star(random_spd(RNG))
            npt.assert_allclose(s.gram @ s.matrix, (s.gram @ s.matrix).T, atol=1e-10)


# ---- Lorentz metric from unit vector ----


class TestLorentzMetric:
    def test_identity_e1(self):
        gl = lorentz_metric_from_unit(np.eye(4), np.array([1.0, 0, 0, 0]))
        npt.assert_allclose(gl, np.diag([-1.0, 1.0, 1.0, 1.0]), atol=1e-15)

    def test_scaled_example(self):
        g = np.diag([4.0, 1.0, 1.0, 1.0])
        t = np.array([0.5, 0.0, 0.0, 0.0])
        gl = lorentz_metric_from_unit(g, t)
        npt.assert_allclose(gl, np.diag([-4.0, 1.0, 1.0, 1.0]), atol=1e-15)

    def test_signature_and_complement(self):
        for _ in range(20):
            g = random_spd(RNG)
            t = RNG.normal(size=4)
            t = t / np.sqrt(t @ g @ t)
            gl = lorentz_metric_from_unit(g, t)
            vals = np.linalg.eigvalsh(gl)
            assert np.sum(vals < 0) == 1
            npt.assert_allclose(t @ gl @ t, -1.0, atol=1e-12)
            # g and gl agree on vectors g-orthogonal to t
            v = RNG.normal(size=4)
            v = v - (v @ g @ t) * t
            npt.assert_allclose(v @ gl @ v, v @ g @ v, atol=1e-10)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitVectorError):
            lorentz_metric_from_unit(np.eye(4), np.array([1.1, 0, 0, 0]))

    @pytest.mark.parametrize("t", [[1.1, 0, 0, 0], [np.nan, 0, 0, 0]])
    def test_non_unit_message_is_that_of_deformed_metric(self, t):
        # the precondition chain applies the unit rule once in
        # lorentz_metric_from_unit; deformed_metric applies it on its own
        message = "g(T, T) = 1.21, expected 1" if np.isfinite(t[0]) else "T must be finite"
        for call in (lorentz_metric_from_unit, lambda g, t: deformed_metric(g, t, -2.0)):
            with pytest.raises(NonUnitVectorError, match=f"^{re.escape(message)}$"):
                call(np.eye(4), np.array(t))

    @pytest.mark.parametrize(
        "g",
        [
            np.array([[1.0, 0.5, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]),
            np.diag([1.0, np.nan, 1.0, 1.0]),
            np.diag([1.0, -1.0, 1.0, 1.0]),
        ],
    )
    def test_g_breaking_the_metric_rule_reads_as_validate_says(self, g):
        # the base metric is checked by the one metric rule, so its error is
        # the one validate_sample gives the same g (it used to pass an
        # asymmetric g and call a NaN entry "numerically singular")
        t = np.eye(4)[0]
        rm = curvature.space_form(4, 1.0)
        with pytest.raises(DegenerateMetricError) as want:
            validate_sample(PointSample(dim=4, g=g, rm=rm, weight=1.0, t=t))
        with pytest.raises(DegenerateMetricError, match=f"^{want.value}$"):
            lorentz_metric_from_unit(g, t)
        with pytest.raises(DegenerateMetricError, match=f"^{want.value}$"):
            lorentz_metric_from_unit(g, t, tol=1e-3)


# ---- self-dual / anti-self-dual basis ----


class TestSdAsd:
    def test_canonical_closed_form(self):
        b = sd_asd_basis(hodge_star(np.eye(4)))
        root2 = np.sqrt(2.0)
        npt.assert_allclose(b.plus[0] * root2, [1, 0, 0, 1, 0, 0], atol=1e-15)
        npt.assert_allclose(b.plus[1] * root2, [0, 1, 0, 0, 1, 0], atol=1e-15)
        npt.assert_allclose(b.plus[2] * root2, [0, 0, 1, 0, 0, 1], atol=1e-15)
        npt.assert_allclose(b.minus[0] * root2, [1, 0, 0, -1, 0, 0], atol=1e-15)
        npt.assert_allclose(b.minus[1] * root2, [0, 1, 0, 0, -1, 0], atol=1e-15)
        npt.assert_allclose(b.minus[2] * root2, [0, 0, 1, 0, 0, -1], atol=1e-15)

    def test_general_metric_eigenbasis(self):
        for _ in range(10):
            star = hodge_star(random_spd(RNG))
            b = sd_asd_basis(star)
            for row in b.plus:
                npt.assert_allclose(star.matrix @ row, row, atol=1e-9)
            for row in b.minus:
                npt.assert_allclose(star.matrix @ row, -row, atol=1e-9)
            vecs = np.vstack([b.plus, b.minus])
            npt.assert_allclose(vecs @ star.gram @ vecs.T, np.eye(6), atol=1e-9)

    def test_lorentzian_rejected(self):
        with pytest.raises(DegenerateMetricError):
            sd_asd_basis(hodge_star(np.diag([-1.0, 1, 1, 1])))


# ---- complexification ----


class TestComplexify:
    def test_star_maps_to_i(self):
        star = hodge_star(np.diag([-1.0, 1, 1, 1]))
        npt.assert_allclose(complexify(star.matrix, star), 1j * np.eye(3), atol=1e-14)

    def test_block_operator_maps_to_p_plus_iq(self):
        star = hodge_star(np.diag([-1.0, 1, 1, 1]))
        for _ in range(10):
            p = RNG.normal(size=(3, 3))
            q = RNG.normal(size=(3, 3))
            m = np.block([[p, q], [-q, p]])
            npt.assert_allclose(complexify(m, star), p + 1j * q, atol=1e-13)

    def test_einstein_block_form(self):
        # [[-A, -B], [B, -A]] with symmetric A, B maps to -A - iB
        star = hodge_star(np.diag([-1.0, 1, 1, 1]))
        a = RNG.normal(size=(3, 3))
        a = a + a.T
        b = RNG.normal(size=(3, 3))
        b = b + b.T
        m = np.block([[-a, -b], [b, -a]])
        npt.assert_allclose(complexify(m, star), -a - 1j * b, atol=1e-13)

    def test_non_commuting_rejected(self):
        star = hodge_star(np.diag([-1.0, 1, 1, 1]))
        m = np.zeros((6, 6))
        m[0, 1] = 1.0  # not complex linear
        with pytest.raises(NotCommutingError) as err:
            complexify(m, star)
        assert err.value.residual > 0

    def test_complex_linearity_holds(self):
        # multiplication by the star on the source equals multiplication by i
        # on the complex matrix
        star = hodge_star(np.diag([-1.0, 1, 1, 1]))
        p = RNG.normal(size=(3, 3))
        q = RNG.normal(size=(3, 3))
        m = np.block([[p, q], [-q, p]])
        npt.assert_allclose(
            complexify(m @ star.matrix, star), complexify(m, star) * 1j, atol=1e-13
        )

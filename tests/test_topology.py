"""Euler/signature integrands, quadrature, Weyl split, and block sums."""

import dataclasses
import itertools
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from curvforms import topology
from curvforms.complex_forms import adapted_frame, complex_case_matrix, tensor_from_complex_form
from curvforms.curvature import space_form, transform_frame, validate_curvature
from curvforms.exceptions import DegenerateMetricError, DimensionError, TensorValidationError
from curvforms.normal_forms import NormalForm4, ScaledNormalForm, orthogonal_normal_form_4, preferred_normal_form_4
from curvforms.topology import (
    BUILDING_BLOCKS,
    BuildingBlock,
    chi_tau_densities,
    connected_sum,
    hypersurface_block,
    integrate_samples,
    parse_block_expression,
    weyl_split_check,
)
from curvforms.zoo import _CHUNK, PointSample, gen_space_form, gen_synthetic_star_h, validate_sample

RNG = np.random.default_rng(20260701)


def levi_civita_4():
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        sign = 1
        q = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if q[i] > q[j]:
                    sign = -sign
        eps[perm] = sign
    return eps


EPS4 = levi_civita_4()


def set_component(r, i, j, k, l, value):
    for (a, b, c, d), sign in (
        ((i, j, k, l), 1), ((j, i, k, l), -1), ((i, j, l, k), -1), ((j, i, l, k), 1),
        ((k, l, i, j), 1), ((l, k, i, j), -1), ((k, l, j, i), -1), ((l, k, j, i), 1),
    ):
        r[a, b, c, d] = sign * value


def pattern_tensor(lambdas, mus, kappas=None):
    """Dense normal-form components; ``kappas`` defaults to ``lambdas``."""
    if kappas is None:
        kappas = lambdas
    r = np.zeros((4, 4, 4, 4))
    set_component(r, 0, 1, 0, 1, lambdas[0])
    set_component(r, 0, 2, 0, 2, lambdas[1])
    set_component(r, 0, 3, 0, 3, lambdas[2])
    set_component(r, 2, 3, 2, 3, kappas[0])
    set_component(r, 1, 3, 1, 3, kappas[1])
    set_component(r, 1, 2, 1, 2, kappas[2])
    set_component(r, 2, 3, 0, 1, mus[0])
    set_component(r, 3, 1, 0, 2, mus[1])
    set_component(r, 1, 2, 0, 3, mus[2])
    return r


def chi_curvature_form_integrand(r, ginv):
    """Euler integrand per unit frame volume from the curvature 2-forms."""
    total = np.einsum(
        "ijkl,mnpq,si,rk,mnjs,pqlr->", EPS4, EPS4, ginv, ginv, r, r, optimize=True
    )
    return total / (2.0**7 * math.pi**2)


def tau_curvature_form_integrand(r, ginv):
    """Signature integrand per unit frame volume from tr(Omega ^ Omega)."""
    total = np.einsum(
        "mnpq,si,jr,mnjs,pqir->", EPS4, ginv, ginv, r, r, optimize=True
    )
    return -total / (3.0 * 2.0**5 * math.pi**2)


def random_lambda_mu(rng):
    lam = rng.normal(size=3)
    mu = rng.normal(size=3)
    mu[2] = -mu[0] - mu[1]  # cyclic sum must vanish
    return lam, mu


def nf_of(lambdas, mus):
    return NormalForm4(
        frame=np.eye(4), lambdas=np.asarray(lambdas, float), mus=np.asarray(mus, float), h=np.eye(4)
    )


def random_spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + dim * np.eye(dim)


# ---- densities ----


class TestChiTauDensities:
    def test_orthonormal_reduction(self):
        for _ in range(10):
            lam, mu = random_lambda_mu(RNG)
            value = chi_tau_densities(nf_of(lam, mu), np.eye(4))
            npt.assert_allclose(
                value.chi_density,
                float(np.sum(lam**2) + np.sum(mu**2)) / (4 * math.pi**2),
                rtol=1e-13,
                err_msg="orthonormal Euler integrand is the sum of squares",
            )
            npt.assert_allclose(
                value.tau_density,
                float(np.sum(lam * mu)) / (3 * math.pi**2),
                rtol=1e-13,
                err_msg="orthonormal signature integrand is the lambda-mu pairing",
            )
            assert value.orthogonal
            npt.assert_allclose(value.sqrt_det_g, 1.0, rtol=1e-13)

    def test_flat_vanishes(self):
        value = chi_tau_densities(nf_of(np.zeros(3), np.zeros(3)), np.diag([1.0, 2.0, 3.0, 4.0]))
        assert value.chi_density == 0.0
        assert value.tau_density == 0.0
        assert value.chi_density_gvol == 0.0
        assert value.ht_correction_density == 0.0

    def test_matches_curvature_form_expansion(self):
        # the closed-form coefficients reproduce the unexpanded 2-form sum
        for _ in range(10):
            lam, mu = random_lambda_mu(RNG)
            ginv = np.linalg.inv(random_spd(RNG, 4))
            value = chi_tau_densities(nf_of(lam, mu), ginv)
            r = pattern_tensor(lam, mu)
            npt.assert_allclose(
                value.chi_density,
                chi_curvature_form_integrand(r, ginv),
                rtol=1e-11,
                atol=1e-13,
                err_msg="expanded Euler integrand disagrees with the 2-form sum",
            )
            npt.assert_allclose(
                value.tau_density,
                tau_curvature_form_integrand(r, ginv),
                rtol=1e-11,
                atol=1e-13,
                err_msg="expanded signature integrand disagrees with tr(Omega^2)",
            )
            assert not value.orthogonal
            assert value.chi_density_gvol is None
            assert value.ht_correction_density is None

    def test_diagonal_specialization(self):
        # collapsed orthogonal form agrees with the general coefficients
        for _ in range(10):
            lam, mu = random_lambda_mu(RNG)
            ginv = np.diag(RNG.uniform(0.2, 3.0, size=4))
            value = chi_tau_densities(nf_of(lam, mu), ginv)
            assert value.orthogonal
            npt.assert_allclose(
                value.chi_density,
                value.chi_density_reduced,
                rtol=1e-12,
                err_msg="diagonal inverse metric must collapse the minor sums",
            )

    def test_scaled_chi_is_the_orthonormal_pfaffian(self):
        # rescaling the frame to g-orthonormal must reproduce chi per dV_g
        for _ in range(10):
            lam, mu = random_lambda_mu(RNG)
            ginv = np.diag(RNG.uniform(0.2, 3.0, size=4))
            value = chi_tau_densities(nf_of(lam, mu), ginv)
            s = value.scaled
            r_ortho = pattern_tensor(s.lambdas_scaled, s.mus_scaled, s.kappas_scaled)
            npt.assert_allclose(
                value.chi_density_gvol,
                chi_curvature_form_integrand(r_ortho, np.eye(4)),
                rtol=1e-11,
                err_msg="per-volume Euler density must match the orthonormal frame",
            )
            npt.assert_allclose(
                value.tau_density_gvol,
                tau_curvature_form_integrand(r_ortho, np.eye(4)),
                rtol=1e-11,
                atol=1e-14,
                err_msg="per-volume signature density must match the orthonormal frame",
            )

    def test_tau_per_volume_is_frame_invariant(self):
        # whitening a general frame leaves the signature density unchanged
        for _ in range(5):
            lam, mu = random_lambda_mu(RNG)
            gf = random_spd(RNG, 4)
            value = chi_tau_densities(nf_of(lam, mu), np.linalg.inv(gf))
            low = np.linalg.cholesky(gf)
            white = np.linalg.inv(low).T  # columns of an orthonormal frame
            r = pattern_tensor(lam, mu)
            r_white = np.einsum("abcd,ai,bj,ck,dl->ijkl", r, white, white, white, white)
            npt.assert_allclose(
                value.tau_density_gvol,
                tau_curvature_form_integrand(r_white, np.eye(4)),
                rtol=1e-10,
                atol=1e-14,
                err_msg="tr(Omega^2) is basis independent",
            )

    def test_orthogonal_positivity(self):
        for _ in range(10):
            lam, mu = random_lambda_mu(RNG)
            if np.max(np.abs(lam)) + np.max(np.abs(mu)) == 0.0:
                continue
            ginv = np.diag(RNG.uniform(0.2, 3.0, size=4))
            value = chi_tau_densities(nf_of(lam, mu), ginv)
            assert value.chi_density > 0.0

    def test_identity_holds_pointwise(self):
        # chi = (3/2) tau + correction, per unit metric volume
        for _ in range(10):
            lam, mu = random_lambda_mu(RNG)
            ginv = np.diag(RNG.uniform(0.2, 3.0, size=4))
            value = chi_tau_densities(nf_of(lam, mu), ginv)
            residual = abs(
                value.chi_density_gvol
                - 1.5 * value.tau_density_gvol
                - value.ht_correction_density
            )
            assert residual <= 1e-13 * max(1.0, abs(value.chi_density_gvol))

    def test_rejects_bad_inverse_metric(self):
        nf = nf_of(np.ones(3), np.zeros(3))
        with pytest.raises(DimensionError):
            chi_tau_densities(nf, np.eye(3))
        with pytest.raises(DegenerateMetricError):
            bad = np.eye(4)
            bad[0, 1] = 0.5  # not symmetric
            chi_tau_densities(nf, bad)
        with pytest.raises(DegenerateMetricError):
            chi_tau_densities(nf, np.diag([1.0, 1.0, 1.0, -1.0]))


def reference_densities(lambdas, mus, gi, tol=1e-9):
    """The per-point density that preceded the stacked one, kept as the reference:
    the fields of IntegrandValue, with ``scaled`` as a tuple of arrays, and the
    largest term of each bracket.  Its checks of ``gi`` are the one metric rule
    and the one orthogonality rule, written out."""
    gi = np.asarray(gi, dtype=float)
    if gi.shape != (4, 4):
        raise DimensionError("g_inverse_in_frame must be 4x4")
    if not np.isfinite(gi).all():
        raise DegenerateMetricError("inverse metric must be finite")
    if np.max(np.abs(gi - gi.T)) > tol * max(float(np.max(np.abs(gi))), 1e-300):
        raise DegenerateMetricError("inverse metric must be symmetric")
    try:
        np.linalg.cholesky(gi)
    except np.linalg.LinAlgError:
        raise DegenerateMetricError("inverse metric must be positive definite") from None
    orthogonal = float(np.max(np.abs(gi - np.diag(np.diag(gi))))) <= max(tol, 1e-9) * float(np.max(np.diag(gi)))
    gi = 0.5 * (gi + gi.T)

    def minor(i, j):  # a numpy scalar squared: libm pow, not x * x
        return float(gi[i, i] * gi[j, j] - gi[i, j] ** 2)

    l, m = np.asarray(lambdas, dtype=float), np.asarray(mus, dtype=float)
    sq = l**2 + m**2
    c12, c13, c14 = (minor(0, j) for j in (1, 2, 3))
    c23, c24, c34 = minor(1, 2), minor(1, 3), minor(2, 3)
    x1 = gi[1, 2] * gi[3, 0] - gi[0, 2] * gi[1, 3]
    x2 = gi[0, 1] * gi[2, 3] - gi[0, 3] * gi[2, 1]
    x3 = gi[1, 3] * gi[0, 2] - gi[0, 1] * gi[2, 3]
    chi_bracket = (
        (c13 + c23 + c14 + c24) * sq[0]
        + (c14 + c34 + c12 + c23) * sq[1]
        + (c34 + c24 + c12 + c13) * sq[2]
        + 4.0 * x1 * l[0] * m[0]
        + 4.0 * x2 * l[1] * m[1]
        + 4.0 * x3 * l[2] * m[2]
    )
    tau_bracket = (
        x1 * sq[0]
        + x2 * sq[1]
        + x3 * sq[2]
        - (c12 + c34) * l[0] * m[0]
        - (c13 + c24) * l[1] * m[1]
        - (c14 + c23) * l[2] * m[2]
    )
    x = np.array([x1, x2, x3])
    chi_terms = np.array([c13 + c23 + c14 + c24, c14 + c34 + c12 + c23, c34 + c24 + c12 + c13]) * sq, 4.0 * x * l * m
    tau_terms = x * sq, np.array([c12 + c34, c13 + c24, c14 + c23]) * l * m
    tau_density = -16.0 * tau_bracket / (3.0 * 2.0**5 * math.pi**2)
    sqrt_det_g = 1.0 / math.sqrt(float(np.linalg.det(gi)))
    value = {
        "chi_density": 8.0 * chi_bracket / (2.0**7 * math.pi**2),
        "tau_density": tau_density,
        "sqrt_det_g": sqrt_det_g,
        "tau_density_gvol": tau_density / sqrt_det_g,
        "chi_largest": np.max(np.abs(chi_terms)),
        "tau_largest": np.max(np.abs(tau_terms)),
    }
    diag = np.diag(gi)
    value["orthogonal"] = orthogonal
    if value["orthogonal"]:
        g11, g22, g33, g44 = diag
        value["chi_density_reduced"] = (
            (g11 + g22) * (g33 + g44) * sq[0] + (g11 + g33) * (g22 + g44) * sq[1] + (g11 + g44) * (g22 + g33) * sq[2]
        ) / (2.0**4 * math.pi**2)
        c = np.sqrt(diag)
        c2 = c**2
        lt, kt, mt = c2[0] * c2[1:] * l, c2[[2, 1, 1]] * c2[[3, 3, 2]] * l, float(np.prod(c)) * m
        value["chi_density_gvol"] = float(np.sum(lt * kt) + np.sum(mt**2)) / (4.0 * math.pi**2)
        value["ht_correction_density"] = float(np.sum((lt - mt) * (kt - mt))) / (4.0 * math.pi**2)
        value["scaled"] = (c, lt, kt, mt)
    return value


def density_corpus(count, seed):
    """Seeded (lambdas, mus, g^-1): values of either sign from 1e-8 to 1e8 with
    zeros and -0.0; g^-1 diagonal at odd points, a general SPD matrix at even ones."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], size=(count, 2, 3)) * 10.0 ** rng.uniform(-8, 8, size=(count, 2, 3))
    kind = rng.random(size=values.shape)
    values[kind < 0.05] = 0.0
    values[(kind >= 0.05) & (kind < 0.1)] = -0.0
    gi = np.empty((count, 4, 4))
    for n in range(count):
        if n % 2:
            gi[n] = np.diag(10.0 ** rng.uniform(-4, 4, size=4))
        else:
            a = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-2, 2)
            gi[n] = a @ a.T + 1e-3 * np.abs(a).max() ** 2 * np.eye(4)
    return values[:, 0], values[:, 1], gi


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestStackedDensities:
    """The stacked density against the per-point reference it replaced."""

    # each density's bracket and the constant factor that scales it
    BRACKET = {"chi_density": ("chi_largest", 8.0 / (2.0**7 * math.pi**2)),
               "tau_density": ("tau_largest", 16.0 / (3.0 * 2.0**5 * math.pi**2))}

    def test_fields_equal_the_reference_bit_for_bit(self):
        lambdas, mus, gi = density_corpus(4000, seed=1601)
        terms, scaled, errors = topology._densities(lambdas, mus, gi, 1e-9)
        assert errors == [None] * len(gi)
        rounded = 0
        for n in range(len(gi)):
            want = reference_densities(lambdas[n], mus[n], gi[n])
            stacked = topology.chi_tau_densities(nf_of(lambdas[n], mus[n]), gi[n])
            assert stacked.orthogonal is want["orthogonal"]
            for name in ("sqrt_det_g", "chi_density_reduced", "chi_density_gvol", "ht_correction_density"):
                if name in want:
                    assert same_bits(terms[name][n], want[name]), (n, name)
                    assert same_bits(getattr(stacked, name), want[name]), (n, name)
            if want["orthogonal"]:
                for f, ref in zip(("c", "lambdas_scaled", "kappas_scaled", "mus_scaled"), want["scaled"]):
                    assert same_bits(getattr(scaled, f)[n], ref) and same_bits(getattr(stacked.scaled, f), ref), (n, f)
            else:
                assert stacked.scaled is None and stacked.chi_density_gvol is None
            # the reference squares g^ij with libm pow, the stack as x * x: the two
            # may round apart in the last bit, and the brackets with them
            exact = True
            for name, (largest, factor) in self.BRACKET.items():
                for got in (terms[name][n], getattr(stacked, name)):
                    if not same_bits(got, want[name]):
                        exact = False
                        assert abs(got - want[name]) <= 2 * np.spacing(want[largest] * factor), (n, name)
            if not same_bits(terms["tau_density_gvol"][n], want["tau_density_gvol"]):
                exact = False
                bound = 2 * np.spacing(want["tau_largest"] * self.BRACKET["tau_density"][1] / want["sqrt_det_g"])
                assert abs(terms["tau_density_gvol"][n] - want["tau_density_gvol"]) <= bound, n
            rounded += not exact
        assert rounded <= len(gi) // 500, rounded  # 1 of 4000 at this seed

    def test_errors_are_each_points_own(self):
        lambdas, mus, gi = density_corpus(6, seed=1602)
        gi[1, 0, 1] += 0.5 * abs(gi[1, 0, 1]) + 1.0  # asymmetric
        gi[3] = np.diag([1.0, 2.0, 3.0, -1.0])  # not positive definite
        gi[4] = np.diag([1.0, 2.0, 3.0, 0.0])  # singular
        terms, _, errors = topology._densities(lambdas, mus, gi, 1e-9)
        for n in range(len(gi)):
            try:
                want = reference_densities(lambdas[n], mus[n], gi[n])
            except DegenerateMetricError as err:
                assert type(errors[n]) is DegenerateMetricError and str(errors[n]) == str(err), n
                with pytest.raises(DegenerateMetricError, match=str(err)):
                    chi_tau_densities(nf_of(lambdas[n], mus[n]), gi[n])
            else:
                assert errors[n] is None
                assert same_bits(terms["sqrt_det_g"][n], want["sqrt_det_g"])
        assert [type(e).__name__ for e in errors] == ["NoneType", "DegenerateMetricError", "NoneType",
                                                      "DegenerateMetricError", "DegenerateMetricError", "NoneType"]
        for shape in ((3, 3), (4, 5), (16,)):
            with pytest.raises(DimensionError, match="must be 4x4"):
                chi_tau_densities(nf_of(lambdas[0], mus[0]), np.ones(shape))
            with pytest.raises(DimensionError, match="must be 4x4"):
                reference_densities(lambdas[0], mus[0], np.ones(shape))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_inverse_is_its_points_error(self, bad):
        lambdas, mus, gi = density_corpus(3, seed=1603)
        gi[1, 2, 2] = bad
        with pytest.raises(DegenerateMetricError, match="^inverse metric must be finite$"):
            reference_densities(lambdas[1], mus[1], gi[1])
        _, _, errors = topology._densities(lambdas, mus, gi, 1e-9)
        assert errors[0] is None and errors[2] is None
        assert type(errors[1]) is DegenerateMetricError and str(errors[1]) == "inverse metric must be finite"
        with pytest.raises(DegenerateMetricError, match="^inverse metric must be finite$"):
            chi_tau_densities(nf_of(lambdas[1], mus[1]), gi[1])

    def test_rescale_takes_stacks(self):
        lambdas, mus, gi = density_corpus(5, seed=1604)
        c = np.sqrt(np.diagonal(gi, axis1=1, axis2=2))
        stacked = ScaledNormalForm.rescale(c, lambdas, mus)
        for n in range(5):
            one = ScaledNormalForm.rescale(c[n], lambdas[n], mus[n])
            for f in ("c", "lambdas_scaled", "kappas_scaled", "mus_scaled"):
                assert same_bits(getattr(stacked, f)[n], getattr(one, f)), (n, f)


# ---- quadrature ----


def make_sample(rm, g, h, weight):
    return SimpleNamespace(rm=rm, g=g, h=h, weight=weight)


class TestIntegrateSamples:
    def test_constant_curvature_sphere_total(self):
        rm = space_form(4, 1.0)
        eye = np.eye(4)
        volume = 8 * math.pi**2 / 3
        samples = [
            make_sample(rm, eye, None, 0.25 * volume),
            make_sample(rm, eye, None, 0.75 * volume),
        ]
        result = integrate_samples(samples)
        npt.assert_allclose(result.chi_estimate, 2.0, rtol=1e-12,
                            err_msg="round-sphere volume times density must give 2")
        npt.assert_allclose(result.tau_estimate, 0.0, atol=1e-15)
        assert result.ht_identity_residual <= 1e-12
        assert result.points == 2
        assert result.skipped_points == 0
        npt.assert_allclose(result.total_weight, volume, rtol=1e-15)

    def test_a_frame_counts_as_g_orthogonal_exactly_where_its_normal_form_does(self):
        # aligned star-h samples with one off-diagonal g entry raised near the 1e-9 threshold
        rng = np.random.default_rng(26)
        verdicts = []
        for _ in range(400):
            m1, m2 = rng.uniform(-1.0, 1.0, 2)
            sample = gen_synthetic_star_h(
                rng.uniform(-2.0, 2.0, 3), [m1, m2, -m1 - m2], rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4)
            )
            i, j = rng.choice(4, size=2, replace=False)
            g = sample.g.copy()
            g[i, j] = g[j, i] = g[i, j] + 10.0 ** rng.uniform(-10.5, -8.0)
            scaled = preferred_normal_form_4(sample.rm, sample.h, g).scaled is not None
            general = integrate_samples([make_sample(sample.rm, g, sample.h, 1.0)]).general_frame_points
            assert scaled == (general == 0)
            verdicts.append(scaled)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_skips_points_without_normal_form(self):
        rm_good = space_form(4, 1.0)
        rows = rm_good.to_sparse()
        rows.append([1, 2, 1, 3, 0.3])  # breaks the commuting block structure
        rm_bad = validate_curvature(rows, dim=4)
        eye = np.eye(4)
        samples = [
            make_sample(rm_good, eye, None, 1.0),
            make_sample(rm_bad, eye, None, 1.0),
        ]
        result = integrate_samples(samples)
        assert result.points == 2
        assert result.skipped_points == 1
        npt.assert_allclose(
            result.chi_estimate, 3.0 / (4 * math.pi**2), rtol=1e-12,
            err_msg="only the commuting point may contribute",
        )

    def test_orthogonal_field_identity(self):
        samples = []
        expected_chi = []
        for _ in range(5):
            lam, mu = random_lambda_mu(RNG)
            rm = validate_curvature(pattern_tensor(lam, mu), dim=4)
            ginv_diag = RNG.uniform(0.2, 3.0, size=4)
            g = np.diag(1.0 / ginv_diag)
            weight = float(RNG.uniform(0.5, 2.0))
            samples.append(make_sample(rm, g, np.eye(4), weight))
            value = chi_tau_densities(nf_of(lam, mu), np.diag(ginv_diag))
            expected_chi.append(weight * value.chi_density_gvol)
        result = integrate_samples(samples)
        assert result.general_frame_points == 0
        assert result.ht_identity_residual <= 1e-9
        npt.assert_allclose(result.chi_estimate, math.fsum(expected_chi), rtol=1e-10,
                            err_msg="weighted per-volume Euler densities must add up")

    def test_frame_terms_equal_the_per_point_reference(self):
        # reference: the loop the stack replaced, one normal form, Gram inverse and
        # chi_tau_densities per point; aligned and rotated points, values over 16
        # decades, so both the g-orthogonal and the general-frame terms are summed
        rng = np.random.default_rng(1605)
        samples, chi, tau, corr, orth_chi, orth_tau, general = [], [], [], [], [], [], 0
        for k in range(300):
            lam, mu = random_lambda_mu(rng)
            rotation = np.linalg.qr(rng.normal(size=(4, 4)))[0] if k % 2 else None
            if rotation is not None and np.linalg.det(rotation) < 0:
                rotation[:, 0] = -rotation[:, 0]
            sample = gen_synthetic_star_h(
                lam * 10.0 ** rng.integers(-8, 8), mu * 10.0 ** rng.integers(-8, 8), rng.uniform(0.5, 2.0, size=4),
                rng.uniform(0.5, 2.0, size=4), frame_rotation=rotation, weight=rng.uniform(0.2, 2.0),
            )
            samples.append(sample)
            nf = preferred_normal_form_4(sample.rm, sample.h, sample.g)
            value = chi_tau_densities(nf, np.linalg.inv(nf.frame.T @ sample.g @ nf.frame))
            weight = np.float64(sample.weight)
            tau.append(weight * value.tau_density_gvol)
            if value.orthogonal:
                chi.append(weight * value.chi_density_gvol)
                corr.append(weight * value.ht_correction_density)
                orth_chi.append(chi[-1])
                orth_tau.append(tau[-1])
            else:
                general += 1
                chi.append(weight * value.chi_density / value.sqrt_det_g)
            alone = integrate_samples([sample])  # each total is its one term
            assert (alone.chi_estimate, alone.tau_estimate) == (chi[-1], tau[-1]), k
            assert alone.correction_estimate == (corr[-1] if value.orthogonal else 0.0), k
        result = integrate_samples(samples)
        assert 50 < general < 250 and result.general_frame_points == general
        assert result.chi_estimate == math.fsum(chi)
        assert result.tau_estimate == math.fsum(tau)
        assert result.correction_estimate == math.fsum(corr)
        assert result.ht_identity_residual == abs(math.fsum(orth_chi) - 1.5 * math.fsum(orth_tau) - math.fsum(corr))

    def test_general_frame_point_is_counted(self):
        lam, mu = random_lambda_mu(RNG)
        rm = validate_curvature(pattern_tensor(lam, mu), dim=4)
        g = random_spd(RNG, 4)
        result = integrate_samples([make_sample(rm, g, np.eye(4), 1.0)])
        assert result.general_frame_points == 1
        assert math.isnan(result.ht_identity_residual)

    def test_weight_validation(self):
        rm = space_form(4, 1.0)
        with pytest.raises(ValueError):
            integrate_samples([SimpleNamespace(rm=rm, g=np.eye(4), h=None, weight=None)])
        for weight in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"sample 1 has invalid weight {weight!r}"):
                integrate_samples([make_sample(rm, np.eye(4), None, 1.0), make_sample(rm, np.eye(4), None, weight)])

    @pytest.mark.parametrize("metric", ["g", "h"])
    def test_a_stopping_point_reads_its_metric_error_before_its_weight_error(self, metric):
        rm, indefinite = space_form(4, 1.0), np.diag([1.0, 1.0, 1.0, -1.0])
        g, h = (indefinite, None) if metric == "g" else (np.eye(4), indefinite)
        sample = PointSample(dim=4, g=g, rm=rm, weight=-1.0, h=h)
        message = f"{metric} must be positive definite"
        with pytest.raises(DegenerateMetricError, match=message):
            validate_sample(sample)
        with pytest.raises(DegenerateMetricError, match=message):
            integrate_samples([sample])

    def test_numpy_weights_integrate_and_bool_weights_are_rejected(self):
        rm = space_form(4, 1.0)
        floats = integrate_samples([make_sample(rm, np.eye(4), None, w) for w in (2.0, 0.5)])
        numpy = integrate_samples([make_sample(rm, np.eye(4), None, w) for w in (np.int64(2), np.float32(0.5))])
        assert numpy == floats and floats.total_weight == 2.5
        for weight in (True, False, np.bool_(True)):
            with pytest.raises(ValueError, match=re.escape(f"sample 1 has invalid weight {weight!r}")):
                integrate_samples([make_sample(rm, np.eye(4), None, 1.0), make_sample(rm, np.eye(4), None, weight)])

    @pytest.mark.parametrize("weight", ["2", "abc", [1.0]])
    def test_a_weight_that_is_not_a_number_is_rejected(self, weight):
        rm = space_form(4, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"sample 1 has invalid weight {weight!r}")):
            integrate_samples([make_sample(rm, np.eye(4), None, 1.0), make_sample(rm, np.eye(4), None, weight)])

    def test_dimension_guard(self):
        rm = space_form(3, 1.0)
        with pytest.raises(DimensionError):
            integrate_samples([make_sample(rm, np.eye(3), None, 1.0)])

    def test_generator_and_list_agree(self):
        # freshly built samples: a generator frees each one before the next,
        # so nothing may be keyed on object identity; more than one chunk
        def stream():
            rng = np.random.default_rng(5)
            for k in range(_CHUNK + 64):
                lam, mu = random_lambda_mu(rng)
                g_diag = rng.uniform(0.5, 2.0, size=4)
                kind = k % 3
                h_diag = rng.uniform(0.5, 2.0) * g_diag if kind == 0 else rng.uniform(0.5, 2.0, size=4)
                sample = gen_synthetic_star_h(lam, mu, h_diag, g_diag, weight=rng.uniform(0.2, 2.0))
                if kind == 2:  # the tensor no longer commutes with this h-star
                    sample = PointSample(
                        dim=4, g=sample.g, rm=sample.rm, weight=sample.weight,
                        h=np.diag(rng.uniform(0.5, 2.0, size=4)),
                    )
                yield sample

        from_list = integrate_samples(list(stream()))
        from_generator = integrate_samples(stream())
        assert from_generator == from_list
        assert from_list.points == _CHUNK + 64
        assert 0 < from_list.skipped_points < from_list.points

    def test_proportional_closed_form_matches_frame_route(self):
        # reference: per-point normal-form frame and chi_tau_densities
        samples, chi, tau, corr = [], [], [], []
        for _ in range(20):
            lam, mu = random_lambda_mu(RNG)
            g_diag = RNG.uniform(0.4, 2.5, size=4)
            sample = gen_synthetic_star_h(
                lam, mu, RNG.uniform(0.5, 2.0) * g_diag, g_diag, weight=RNG.uniform(0.2, 2.0)
            )
            samples.append(sample)
            nf = orthogonal_normal_form_4(sample.rm, sample.h, sample.g)
            value = chi_tau_densities(nf, np.linalg.inv(nf.frame.T @ sample.g @ nf.frame))
            chi.append(sample.weight * value.chi_density_gvol)
            tau.append(sample.weight * value.tau_density_gvol)
            corr.append(sample.weight * value.ht_correction_density)
        result = integrate_samples(samples)
        assert result.general_frame_points == 0 and result.skipped_points == 0
        npt.assert_allclose(result.chi_estimate, math.fsum(chi), rtol=1e-12)
        npt.assert_allclose(result.tau_estimate, math.fsum(tau), rtol=1e-12, atol=1e-14)
        npt.assert_allclose(result.correction_estimate, math.fsum(corr), rtol=1e-12)

    def test_first_bianchi_violation_raises(self):
        broken = validate_curvature([[1, 2, 3, 4, 1.0]], dim=4, tol=math.inf)
        samples = [make_sample(space_form(4, 1.0), np.eye(4), None, 1.0),
                   make_sample(broken, np.eye(4), None, 1.0)]
        with pytest.raises(TensorValidationError) as err:
            integrate_samples(samples)
        assert err.value.identity == "first Bianchi identity"
        assert err.value.residual == 1.0

    def test_folded_totals_equal_fsum_of_all_terms(self, monkeypatch):
        # reference: every term kept until the final fsum (no folding); proportional,
        # aligned and rotated points over three chunks
        rng = np.random.default_rng(9)
        samples = []
        for k in range(2 * _CHUNK + 40):
            lam, mu = random_lambda_mu(rng)
            g_diag = rng.uniform(0.5, 2.0, size=4)
            h_diag = rng.uniform(0.5, 2.0) * g_diag if k % 3 == 0 else rng.uniform(0.5, 2.0, size=4)
            rotation = np.linalg.qr(rng.normal(size=(4, 4)))[0] if k % 3 == 2 else None
            if rotation is not None and np.linalg.det(rotation) < 0:
                rotation[:, 0] = -rotation[:, 0]
            samples.append(gen_synthetic_star_h(
                lam, mu * 10.0 ** rng.integers(-8, 8), h_diag, g_diag,
                frame_rotation=rotation, weight=rng.uniform(0.2, 2.0),
            ))
        folded = integrate_samples(samples)
        monkeypatch.setattr(topology, "_fold", lambda values: values)
        whole = integrate_samples(samples)
        assert folded == whole
        assert 0 < whole.general_frame_points < whole.points

    def test_fold_keeps_the_exact_sum(self):
        rng = np.random.default_rng(10)
        values = (rng.normal(size=3000) * 10.0 ** rng.integers(-30, 30, size=3000)).tolist()
        values += [1e16, 1.0, -1e16, 0.0, -0.0]
        partials = []
        for start in range(0, len(values), 256):
            partials = topology._fold(partials + values[start : start + 256])
            assert len(partials) < 40
        assert math.fsum(partials) == math.fsum(values)
        for special in ([1.0, math.inf], [1.0, math.nan], [1e308, 1e308, -1e308]):
            assert topology._fold(special) is special

    def test_memory_does_not_grow_with_the_stream(self):
        def peak(cells):
            tracemalloc.start()
            try:
                integrate_samples(gen_space_form(4, 1.0, cells))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak((4, 4, 8, 8)), peak((8, 8, 8, 8))  # 4 and 16 chunks
        assert large - small < 64 * 1024  # terms kept whole: about 150 B per point

    def test_deterministic(self):
        rm = space_form(4, -1.0)
        eye = np.eye(4)
        samples = [make_sample(rm, eye, None, 0.1 * k) for k in range(1, 20)]
        first = integrate_samples(samples)
        second = integrate_samples(samples)
        assert first.chi_estimate == second.chi_estimate
        assert first.tau_estimate == second.tau_estimate


# ---- Weyl split ----


class TestWeylSplitCheck:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_lorentz_commuting_instances(self, case_id):
        c = complex_case_matrix(case_id, RNG)
        rm = tensor_from_complex_form(c)
        report = weyl_split_check(rm, np.eye(4), np.eye(4)[:, 0])
        assert report.commutes
        assert abs(report.scal) <= 1e-10
        assert report.relation_residual <= 1e-10, \
            "commuting with the Lorentz star must force w_plus = -w_minus"
        assert report.lorentz_trace_residual <= 1e-9

    def test_general_metric_and_direction(self):
        c = complex_case_matrix(1, RNG)
        g = random_spd(RNG, 4)
        t = RNG.normal(size=4)
        t = t / math.sqrt(float(t @ g @ t))
        rm = tensor_from_complex_form(c, frame=adapted_frame(g, t))
        report = weyl_split_check(rm, g, t)
        scale = max(1.0, float(np.linalg.norm(c)))
        assert report.commutes
        assert abs(report.scal) <= 1e-9 * scale
        assert report.relation_residual <= 1e-9 * scale

    def test_space_form_reports_failure(self):
        report = weyl_split_check(space_form(4, 1.0), np.eye(4), np.eye(4)[:, 0])
        assert not report.commutes
        npt.assert_allclose(report.scal, 12.0, rtol=1e-12)
        assert report.lorentz_trace_residual > 0.1
        # constant curvature has no Weyl part, so the block relation is vacuous
        assert report.relation_residual <= 1e-12

    def test_flat_is_trivial(self):
        report = weyl_split_check(space_form(4, 0.0), np.eye(4), np.eye(4)[:, 0])
        assert report.commutes
        assert report.scal == 0.0 and math.copysign(1.0, report.scal) == 1.0  # reports print 0.0
        npt.assert_allclose(report.w_plus, 0.0, atol=1e-15)
        npt.assert_allclose(report.w_minus, 0.0, atol=1e-15)


# ---- connected sums ----


class TestConnectedSum:
    @pytest.mark.parametrize(
        "name, chi, tau",
        [("S4", 2, 0), ("CP2", 3, 1), ("S1xS3", 0, 0), ("K3", 24, -16), ("T4", 0, 0)],
    )
    def test_single_blocks(self, name, chi, tau):
        result = connected_sum(name)
        assert (result.chi, result.tau) == (chi, tau)

    def test_example_sum_is_obstructed(self):
        result = connected_sum("CP2 # CP2 # S1xS3 # S1xS3")
        assert (result.chi, result.tau) == (0, 2)
        assert result.verdict is not None
        assert "cannot admit" in result.verdict

    def test_k3_alone_has_no_verdict(self):
        result = connected_sum("K3")
        assert (result.chi, result.tau) == (24, -16)
        assert result.verdict is None

    @pytest.mark.parametrize(
        "degree, chi, tau", [(1, 3, 1), (3, 9, -5), (4, 24, -16), (5, 55, -35)]
    )
    def test_hypersurface_degrees(self, degree, chi, tau):
        block = hypersurface_block(degree)
        assert (block.chi, block.tau) == (chi, tau)
        result = connected_sum(f"HYP({degree})")
        assert (result.chi, result.tau) == (chi, tau)

    def test_degree_four_matches_k3(self):
        assert hypersurface_block(4).chi == BUILDING_BLOCKS["K3"].chi
        assert hypersurface_block(4).tau == BUILDING_BLOCKS["K3"].tau

    def test_associative_and_order_independent(self):
        names = ["CP2", "K3", "S1xS3", "T4", "HYP(3)"]
        base = connected_sum(names)
        shuffled = connected_sum(list(reversed(names)))
        assert (base.chi, base.tau) == (shuffled.chi, shuffled.tau)
        left = connected_sum(["CP2", "K3"])
        merged = connected_sum(
            [BuildingBlock("left", left.chi, left.tau), "S1xS3", "T4", "HYP(3)"]
        )
        assert (merged.chi, merged.tau) == (base.chi, base.tau)

    def test_rejects_unknown_and_malformed(self):
        with pytest.raises(ValueError, match="unknown building block"):
            connected_sum("CP3")
        with pytest.raises(ValueError):
            connected_sum("CP2 # ")
        with pytest.raises(ValueError):
            connected_sum([])
        with pytest.raises(ValueError):
            parse_block_expression("HYP(2.5)")
        with pytest.raises(ValueError):
            hypersurface_block(0)
        with pytest.raises(ValueError):
            hypersurface_block(2.0)

    @pytest.mark.parametrize(
        "raw, shown",
        [
            ("0", "0"), ("-3", "-3"), ("00", "0"),
            ("1_0", "'1_0'"), ("+3", "'+3'"), ("\u0663", "'\u0663'"), ("2.5", "'2.5'"),
        ],
    )
    def test_hypersurface_degree_must_be_ascii_digits(self, raw, shown):
        with pytest.raises(ValueError, match=re.escape(f"hypersurface degree must be a positive integer, got {shown}")):
            parse_block_expression(f"HYP({raw})")


def changed_coordinates(sample, a):
    """``sample`` in the coordinates ``x = a y``: its metrics ``a^T g a`` and
    components ``R(a e_i, a e_j, a e_k, a e_l)``, with the weight kept."""
    rm = validate_curvature(transform_frame(sample.rm, a))
    return dataclasses.replace(sample, g=a.T @ sample.g @ a, h=a.T @ sample.h @ a, rm=rm)


class TestWeightIsTheGVolume:
    """A weight is the cell's g-volume dV_g, not its coordinate volume, so a
    change of coordinates that keeps the weights keeps every total."""

    @staticmethod
    def samples_and_change(seed, orientation):
        rng = np.random.default_rng(seed)
        samples = []
        for _ in range(6):
            m1, m2 = rng.uniform(-1.0, 1.0, 2)
            q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
            q[:, 0] *= np.sign(np.linalg.det(q))
            samples.append(gen_synthetic_star_h(
                rng.uniform(-2.0, 2.0, 3), [m1, m2, -m1 - m2], rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4),
                frame_rotation=q if rng.uniform() < 0.5 else None, weight=rng.uniform(0.1, 1.0),
            ))
        a = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
        a[:, 0] *= orientation * np.sign(np.linalg.det(a))
        return samples, a

    @pytest.mark.parametrize("seed", [3101, 3102, 3103])
    def test_an_orientation_preserving_change_keeps_chi_tau_and_the_normal_forms(self, seed):
        samples, a = self.samples_and_change(seed, 1.0)
        moved = [changed_coordinates(s, a) for s in samples]
        before, after = integrate_samples(samples), integrate_samples(moved)
        for name in ("chi_estimate", "tau_estimate", "correction_estimate", "total_weight"):
            npt.assert_allclose(getattr(after, name), getattr(before, name), rtol=1e-8, atol=1e-10)
        assert after.general_frame_points == before.general_frame_points
        for s, m in zip(samples, moved):
            nf, mf = preferred_normal_form_4(s.rm, s.h, s.g), preferred_normal_form_4(m.rm, m.h, m.g)
            npt.assert_allclose(mf.lambdas, nf.lambdas, rtol=1e-8, atol=1e-10)
            npt.assert_allclose(mf.mus, nf.mus, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("seed", [3104, 3105])
    def test_an_orientation_reversing_change_keeps_chi_and_negates_tau(self, seed):
        samples, a = self.samples_and_change(seed, -1.0)
        before, after = integrate_samples(samples), integrate_samples([changed_coordinates(s, a) for s in samples])
        npt.assert_allclose(after.chi_estimate, before.chi_estimate, rtol=1e-8, atol=1e-10)
        npt.assert_allclose(after.tau_estimate, -before.tau_estimate, rtol=1e-8, atol=1e-10)
        assert abs(before.tau_estimate) > 1e-3

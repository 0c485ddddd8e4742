"""Tests for curvature normal forms in dimensions 4, 3 and n."""

import itertools
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvforms import curvature, normal_forms
from curvforms.bivectors import bivector_basis, induced_gram, wedge_vectors
from curvforms.curvature import (
    CurvatureTensor,
    component_matrix,
    curvature_from_frame_components,
    operator_from,
    space_form,
    transform_frame,
)
from curvforms.exceptions import (
    DegenerateMetricError,
    DimensionError,
    FrameReconstructionError,
    NotCommutingError,
    TensorValidationError,
)
from curvforms.hodge import hodge_star, lorentz_metric_from_unit
from curvforms.normal_forms import (
    canonical_pairs,
    critical_frame_check_n,
    critical_point_residual,
    h_orthonormal_frame,
    is_star_h_einstein,
    lambda2_blocks,
    normal_form_3,
    normal_form_4,
    orthogonal_normal_form_4,
    preferred_normal_form_4,
    rebuild_normal_form,
    recover_mu1,
    ricci_from_critical_frame,
    scaled_normal_form,
    signed_curvature_3,
)
from curvforms.zoo import gen_synthetic_star_h

RNG = np.random.default_rng(20260515)


# ---- test-side builders (independent of the module under test) ----


def dense_from_entries(dim, entries):
    """Dense curvature array from (i, j, k, l, value) rows, 0-based."""
    r = np.zeros((dim,) * 4)
    for i, j, k, l, val in entries:
        for (a, b, c, d), s in (
            ((i, j, k, l), 1), ((j, i, k, l), -1), ((i, j, l, k), -1), ((j, i, l, k), 1),
            ((k, l, i, j), 1), ((l, k, i, j), -1), ((k, l, j, i), -1), ((l, k, j, i), 1),
        ):
            r[a, b, c, d] = s * val
    return r


def normal_form_entries(lambdas, mus):
    l1, l2, l3 = lambdas
    m1, m2, m3 = mus
    return [
        (0, 1, 0, 1, l1), (2, 3, 2, 3, l1),
        (0, 2, 0, 2, l2), (3, 1, 3, 1, l2),
        (0, 3, 0, 3, l3), (1, 2, 1, 2, l3),
        (2, 3, 0, 1, m1), (3, 1, 0, 2, m2), (1, 2, 0, 3, m3),
    ]


def random_rotation(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_spd(rng, n, spread=0.5):
    a = rng.normal(size=(n, n))
    m = np.eye(n) + spread * (a + a.T) / 2.0
    w, v = np.linalg.eigh(m)
    return (v * np.clip(w, 0.2, None)) @ v.T


def random_lambda_mu(rng, scale=1.0):
    lambdas = rng.normal(size=3) * scale
    mus = rng.normal(size=3) * scale
    mus[2] = -mus[0] - mus[1]  # first Bianchi
    return lambdas, mus


def build_normal_form_tensor(rng, lambdas, mus, h=None):
    """Tensor with the given normal form in a random h-orthonormal frame."""
    if h is None:
        h = np.eye(4)
    frame = h_orthonormal_frame(h) @ random_rotation(rng, 4)
    rm = curvature_from_frame_components(
        dense_from_entries(4, normal_form_entries(lambdas, mus)), frame
    )
    return rm, frame


def pair_matrix_tensor_3(k):
    """3-dimensional tensor with pair-component matrix ``k`` (orthonormal)."""
    pairs = [(0, 1), (0, 2), (1, 2)]
    entries = []
    for a in range(3):
        for b in range(a, 3):
            (i, j), (kk, ll) = pairs[a], pairs[b]
            entries.append((i, j, kk, ll, k[a, b]))
    return CurvatureTensor(dim=3, components=dense_from_entries(3, entries))


class TestStarEinstein:
    # ---- commuting tensors pass, with the right proportionality factor ----

    def test_normal_form_commutes(self):
        for _ in range(20):
            h = random_spd(RNG, 4)
            lambdas, mus = random_lambda_mu(RNG)
            rm, _ = build_normal_form_tensor(RNG, lambdas, mus, h)
            report = is_star_h_einstein(rm, h)
            assert report.is_einstein, report.commutator_residual
            npt.assert_allclose(
                report.f_fitted, -np.sum(lambdas), rtol=0, atol=1e-8,
                err_msg="trace factor must be minus the lambda sum",
            )
            npt.assert_allclose(report.h_trace, report.f_fitted * h, atol=1e-8)
            assert report.trace_residual <= 1e-8

    def test_asymmetric_off_block_detected(self):
        delta = 0.1
        entries = normal_form_entries([0.5, -0.2, 0.7], [0.3, -0.3, 0.0])
        entries.append((1, 2, 0, 2, delta))  # R_2313: asymmetric mu-block entry
        rm = CurvatureTensor(dim=4, components=dense_from_entries(4, entries))
        report = is_star_h_einstein(rm, np.eye(4))
        assert not report.is_einstein
        npt.assert_allclose(
            report.commutator_residual, delta * np.sqrt(2.0), rtol=1e-12,
            err_msg="a single off-block asymmetry of d gives residual d*sqrt(2)",
        )
        npt.assert_allclose(report.trace_residual, delta, rtol=1e-12)

    def test_unequal_diagonal_blocks_detected(self):
        entries = [(0, 1, 0, 1, 1.0), (2, 3, 2, 3, 1.0 + 0.2)]
        rm = CurvatureTensor(dim=4, components=dense_from_entries(4, entries))
        report = is_star_h_einstein(rm, np.eye(4))
        assert not report.is_einstein
        npt.assert_allclose(report.commutator_residual, 0.2, rtol=1e-12)

    def test_flat_tensor_counts_as_commuting(self):
        rm = CurvatureTensor(dim=4, components=np.zeros((4, 4, 4, 4)))
        assert is_star_h_einstein(rm, np.eye(4)).is_einstein

    def test_trace_and_commutator_agree_on_random_tensors(self):
        # the two characterizations must accept/reject together
        for _ in range(50):
            h = random_spd(RNG, 4)
            lambdas, mus = random_lambda_mu(RNG)
            rm, _ = build_normal_form_tensor(RNG, lambdas, mus, h)
            report = is_star_h_einstein(rm, h)
            scale = max(rm.scale, 1e-300)
            assert report.is_einstein
            assert report.trace_residual <= 1e-7 * scale


def random_generic_tensor(rng):
    """Random 4-dimensional tensor (first Bianchi holds): random K_0, tr B_0 = 0."""
    k0 = rng.normal(size=(6, 6))
    k0 = (k0 + k0.T) / 2.0
    k0[2, 5] = k0[5, 2] = -k0[0, 3] - k0[1, 4]
    pairs = bivector_basis(4).pairs0
    entries = [
        (*pairs[a], *pairs[b], k0[a, b]) for a in range(6) for b in range(a, 6)
    ]
    return CurvatureTensor(dim=4, components=dense_from_entries(4, entries))


def star_test_per_point(rm, h, tol=1e-9):
    """The fields of :func:`is_star_h_einstein` as it computed them one point at a
    time, before it became the one-point call of the stacked test."""
    (error,) = curvature._first_bianchi_errors(curvature._pair_matrix(rm.components[None]), tol)
    if error is not None:
        raise error
    blocks = lambda2_blocks(rm.components[None], h[None])
    hinv = np.linalg.inv(h)
    trace = np.einsum("jl,jabl->ab", hinv, rm.components, optimize=True)
    f = float(np.trace(hinv @ trace)) / 4.0
    fields = (bool(blocks.commuting(tol)[0]), float(blocks.residual[0]), float(blocks.norm[0]), f)
    return fields + (float(np.max(np.abs(trace - f * h))), trace)


class TestStackedStarTest:
    def test_the_stack_equals_the_per_point_test_bit_for_bit(self):
        rng = np.random.default_rng(1400)
        rms, hs = [], []
        for k in range(150):
            h = random_spd(rng, 4)
            rm = build_normal_form_tensor(rng, *random_lambda_mu(rng), h)[0] if k % 3 else random_generic_tensor(rng)
            if k % 10 == 7:  # a first-Bianchi breaker
                rm = CurvatureTensor(4, rm.components + dense_from_entries(4, [(0, 1, 2, 3, 0.1)]))
            rms.append(rm)
            hs.append(h)
        r, h = np.stack([rm.components for rm in rms]), np.stack(hs)
        reports = normal_forms._star_einstein(curvature._pair_matrix(r), r, h, 1e-9)
        outcomes = set()
        for rm, hn, report in zip(rms, hs, reports):
            try:
                *want, trace = star_test_per_point(rm, hn)
            except TensorValidationError as err:
                assert (type(report), str(report)) == (type(err), str(err))
                outcomes.add("bianchi")
                continue
            got = [report.is_einstein, report.commutator_residual, report.operator_norm, report.f_fitted]
            assert repr(got + [report.trace_residual]) == repr(want)
            assert report.h_trace.tobytes() == trace.tobytes()
            assert repr(vars(is_star_h_einstein(rm, hn))) == repr(vars(report))
            outcomes.add(report.is_einstein)
        assert outcomes == {True, False, "bianchi"}


class TestLambda2Blocks:
    def test_matches_four_index_frame_change(self):
        # reference: K from the 256-entry frame change, blocks split by hand
        rms = [random_generic_tensor(RNG) for _ in range(12)]
        hs = [random_spd(RNG, 4) for _ in rms]
        blocks = lambda2_blocks(np.stack([r.components for r in rms]), np.stack(hs))
        for n, (rm, h) in enumerate(zip(rms, hs)):
            v = h_orthonormal_frame(h)
            k = component_matrix(CurvatureTensor(dim=4, components=transform_frame(rm, v)))
            npt.assert_allclose(blocks.frames[n], v, atol=1e-15)
            npt.assert_allclose(blocks.k[n], k, atol=1e-13 * np.max(np.abs(k)))
            a = (k[:3, :3] + k[3:, 3:]) / 2.0
            b = (k[:3, 3:] + k[:3, 3:].T) / 2.0
            npt.assert_allclose(blocks.evp[n], np.linalg.eigvalsh(a + b), atol=1e-12)
            npt.assert_allclose(blocks.evm[n], np.linalg.eigvalsh(a - b), atol=1e-12)
            for ev, vecs, block in ((blocks.evp, blocks.up, a + b), (blocks.evm, blocks.um, a - b)):
                npt.assert_allclose(block @ vecs[n], vecs[n] * ev[n], atol=1e-12)

    def test_commuting_agrees_with_star_test(self):
        rms, hs = [], []
        for _ in range(10):
            h = random_spd(RNG, 4)
            rms.append(build_normal_form_tensor(RNG, *random_lambda_mu(RNG), h)[0])
            hs.append(h)
            rms.append(random_generic_tensor(RNG))
            hs.append(h)
        blocks = lambda2_blocks(np.stack([r.components for r in rms]), np.stack(hs))
        expected = [is_star_h_einstein(rm, h).is_einstein for rm, h in zip(rms, hs)]
        assert blocks.commuting(1e-9).tolist() == expected
        assert expected == [True, False] * 10

    def test_bianchi_residual_is_the_cyclic_sum(self):
        broken = CurvatureTensor(
            dim=4, components=dense_from_entries(4, [(0, 1, 2, 3, 1.0)])
        )
        valid = random_generic_tensor(RNG)
        k0 = curvature._pair_matrix(np.stack([broken.components, valid.components]))
        broken_error, valid_error = curvature._first_bianchi_errors(k0, 1e-15)
        assert (broken_error.indices, broken_error.residual) == ((1, 2, 3, 4), 1.0)
        assert valid_error is None

    def test_rejects_bad_input(self):
        with pytest.raises(DimensionError):
            lambda2_blocks(np.zeros((2, 4, 4, 4, 4)), np.stack([np.eye(4)] * 2), np.eye(4)[None])
        with pytest.raises(DimensionError):
            lambda2_blocks(np.zeros((2, 3, 3, 3, 3)), np.stack([np.eye(3)] * 2))
        with pytest.raises(DimensionError):
            lambda2_blocks(np.zeros((2, 4, 4, 4, 4)), np.eye(4)[None])
        with pytest.raises(DegenerateMetricError):
            lambda2_blocks(np.zeros((2, 4, 4, 4, 4)), np.stack([np.eye(4), -np.eye(4)]))


class TestNormalForm4:
    # ---- round trips ----

    def test_round_trip_orthonormal(self):
        for _ in range(30):
            lambdas, mus = random_lambda_mu(RNG)
            rm, _ = build_normal_form_tensor(RNG, lambdas, mus)
            nf = normal_form_4(rm, np.eye(4))
            expected = canonical_pairs(lambdas, mus)
            got = np.stack([nf.lambdas, nf.mus], axis=1)
            npt.assert_allclose(got, expected, rtol=0, atol=1e-9,
                                err_msg="extracted pairs must be canonical")
            rebuilt = rebuild_normal_form(nf)
            npt.assert_allclose(rebuilt.components, rm.components, rtol=0, atol=1e-9)

    def test_round_trip_general_metric(self):
        for _ in range(30):
            h = random_spd(RNG, 4)
            lambdas, mus = random_lambda_mu(RNG)
            rm, _ = build_normal_form_tensor(RNG, lambdas, mus, h)
            nf = normal_form_4(rm, h)
            expected = canonical_pairs(lambdas, mus)
            got = np.stack([nf.lambdas, nf.mus], axis=1)
            npt.assert_allclose(got, expected, rtol=0, atol=1e-8)
            gram = nf.frame.T @ h @ nf.frame
            npt.assert_allclose(gram, np.eye(4), rtol=0, atol=1e-8,
                                err_msg="frame must be h-orthonormal")
            rebuilt = rebuild_normal_form(nf)
            npt.assert_allclose(rebuilt.components, rm.components, rtol=0, atol=1e-8)

    def test_space_form(self):
        nf = normal_form_4(space_form(4, 1.5), np.eye(4))
        npt.assert_allclose(nf.lambdas, [-1.5, -1.5, -1.5], atol=1e-12)
        npt.assert_allclose(nf.mus, 0.0, atol=1e-12)

    def test_tied_lambdas_resolve_to_canonical_pairing(self):
        # (1, 1, 2) with mus (0.3, -0.3, 0) re-pairs to (0.7, 1.3, 2) with mus 0
        lambdas, mus = [1.0, 1.0, 2.0], [0.3, -0.3, 0.0]
        rm, _ = build_normal_form_tensor(RNG, lambdas, mus)
        nf = normal_form_4(rm, np.eye(4))
        npt.assert_allclose(nf.lambdas, [0.7, 1.3, 2.0], atol=1e-9)
        npt.assert_allclose(nf.mus, 0.0, atol=1e-9)
        rebuilt = rebuild_normal_form(nf)
        npt.assert_allclose(rebuilt.components, rm.components, rtol=0, atol=1e-9,
                            err_msg="re-paired form must rebuild the same tensor")

    def test_not_commuting_raises_with_residual(self):
        entries = normal_form_entries([0.5, -0.2, 0.7], [0.3, -0.3, 0.0])
        entries.append((1, 2, 0, 2, 0.1))
        rm = CurvatureTensor(dim=4, components=dense_from_entries(4, entries))
        with pytest.raises(NotCommutingError) as exc:
            normal_form_4(rm, np.eye(4))
        assert exc.value.residual is not None and exc.value.residual > 1e-3

    def test_deterministic(self):
        lambdas, mus = random_lambda_mu(RNG)
        rm, _ = build_normal_form_tensor(RNG, lambdas, mus)
        nf1 = normal_form_4(rm, np.eye(4))
        nf2 = normal_form_4(rm, np.eye(4))
        npt.assert_array_equal(nf1.frame, nf2.frame)
        npt.assert_array_equal(nf1.lambdas, nf2.lambdas)


def rotated_star_h_samples(seed, count):
    """Seeded star-h samples whose normal-form frame is rotated away from g."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        lambdas, mus = random_lambda_mu(rng)
        samples.append(gen_synthetic_star_h(
            lambdas, mus, rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4),
            frame_rotation=random_rotation(rng, 4),
        ))
    return samples


class TestComponentMatrixReadOff:
    def test_no_four_index_frame_change(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("4-index frame change on the dim-4 normal-form path")

        monkeypatch.setattr(curvature, "transform_frame", refuse)
        monkeypatch.setattr(normal_forms, "transform_frame", refuse)
        lambdas, mus = [0.3, -1.2, 0.8], [0.5, -0.2, -0.3]
        rotated = rotated_star_h_samples(31, 1)[0]
        normal_form_4(rotated.rm, rotated.h)
        aligned = gen_synthetic_star_h(lambdas, mus, [1, 2, 0.5, 1.5], [2, 1, 1, 0.5])
        nf = orthogonal_normal_form_4(aligned.rm, aligned.h, aligned.g)
        assert nf.scaled is not None

    def test_values_match_four_index_reading(self):
        # reference: the 256 components in the returned frame, read off by hand
        for sample in rotated_star_h_samples(32, 20):
            nf = preferred_normal_form_4(sample.rm, sample.h, sample.g)
            rf = transform_frame(sample.rm, nf.frame)
            scale = sample.rm.scale
            npt.assert_allclose(
                nf.lambdas, [rf[0, 1, 0, 1], rf[0, 2, 0, 2], rf[0, 3, 0, 3]], rtol=0, atol=1e-14 * scale
            )
            npt.assert_allclose(
                nf.mus, [rf[2, 3, 0, 1], rf[3, 1, 0, 2], rf[1, 2, 0, 3]], rtol=0, atol=1e-14 * scale
            )
            pattern = dense_from_entries(4, normal_form_entries(nf.lambdas, nf.mus))
            npt.assert_allclose(rf, pattern, rtol=0, atol=1e-12 * scale)

    def test_wrong_frame_fails_the_pattern_check(self, monkeypatch):
        sample = rotated_star_h_samples(33, 1)[0]
        rotation = random_rotation(np.random.default_rng(34), 4)
        monkeypatch.setattr(
            normal_forms, "_pairing_frames", lambda up, um: np.broadcast_to(rotation, (len(up), 6, 4, 4))
        )
        with pytest.raises(FrameReconstructionError, match="normal-form pattern") as exc:
            normal_form_4(sample.rm, sample.h)
        assert set(exc.value.diagnostics) == {"lambdas", "mus"}

    def test_first_bianchi_violation_raises(self):
        broken = CurvatureTensor(dim=4, components=dense_from_entries(4, [(0, 1, 2, 3, 1.0)]))
        for analysis in (
            lambda: is_star_h_einstein(broken, np.eye(4)),
            lambda: normal_form_4(broken, np.eye(4)),
            lambda: preferred_normal_form_4(broken, np.eye(4), np.eye(4)),
        ):
            with pytest.raises(TensorValidationError, match="first Bianchi identity"):
                analysis()

    def test_preferred_form_keeps_the_dimension_message(self):
        with pytest.raises(DimensionError, match="specific to dim 4"):
            preferred_normal_form_4(space_form(3, 1.0), np.eye(3), np.eye(3))


def left_multiplication(p):
    """L(p): the quaternion p = a + bi + cj + dk times x, on the basis 1, i, j, k."""
    a, b, c, d = p
    return np.array([[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]])


def right_multiplication(q):
    """R(q): x times the quaternion q, on the basis 1, i, j, k."""
    a, b, c, d = q
    return np.array([[a, -b, -c, -d], [b, a, d, -c], [c, -d, a, b], [d, c, -b, a]])


def quaternion_rotation(q):
    """The rotation x -> q x q^-1 of the imaginary quaternions i, j, k."""
    return (left_multiplication(q) @ right_multiplication(q).T)[1:, 1:]


# columns: the self-dual, then the anti-self-dual basis bivectors
ZETA = np.block([[np.eye(3), np.eye(3)], [np.eye(3), -np.eye(3)]]) / np.sqrt(2.0)


def on_lambda2(f):
    """Lambda^2 f in the self-dual/anti-self-dual basis ZETA."""
    return ZETA.T @ induced_gram(f, bivector_basis(4)) @ ZETA


def proper(r):
    """The rotation ``r`` with its third column negated if ``det r < 0``."""
    return r * np.array([1.0, 1.0, np.sign(np.linalg.det(r))])


def unit_quaternions(rng, count):
    q = rng.normal(size=(count, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


class TestPairingFrames:
    def test_left_and_right_multiplication_act_on_one_half_each(self):
        zero, one = np.zeros((3, 3)), np.eye(3)
        for p in unit_quaternions(np.random.default_rng(51), 10):
            rot = quaternion_rotation(p)
            npt.assert_allclose(on_lambda2(left_multiplication(p)), np.block([[rot, zero], [zero, one]]), atol=1e-15)
            npt.assert_allclose(on_lambda2(right_multiplication(p)), np.block([[one, zero], [zero, rot.T]]), atol=1e-15)

    def test_quaternion_of_a_rotation(self):
        q = unit_quaternions(np.random.default_rng(52), 20)
        rotations = np.stack([quaternion_rotation(p) for p in q])
        got = normal_forms._quaternion(rotations)
        npt.assert_allclose(np.abs(np.sum(got * q, axis=1)), 1.0, atol=1e-14)  # q up to sign
        npt.assert_allclose(np.stack([quaternion_rotation(p) for p in got]), rotations, atol=1e-14)

    def test_every_pairing_frame_gives_the_block_pattern(self, monkeypatch):
        # reference: the 256 components in each frame, against the pattern of
        # the block eigenvalues paired as the pairing says; the points hold
        # both signs of det(um), so both tables of turns are checked
        rng = np.random.default_rng(53)
        rms, hs = [], []
        for _ in range(8):
            hs.append(random_spd(rng, 4))
            rms.append(build_normal_form_tensor(rng, *random_lambda_mu(rng), hs[-1])[0])
        blocks = lambda2_blocks(np.stack([r.components for r in rms]), np.stack(hs))
        assert set(np.sign(np.linalg.det(blocks.um))) == {-1.0, 1.0}
        eigh, solved = np.linalg.eigh, []

        def counted(a):
            solved.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        pairings = normal_forms._pairing_frames(blocks.up, blocks.um)
        monkeypatch.undo()
        assert solved == [(8, 4, 4)] * 2  # the quaternions of up and um only
        assert pairings.shape == (8, 6, 4, 4)
        for n, (rm, h) in enumerate(zip(rms, hs)):
            p = normal_forms._quaternion(proper(blocks.up[n]))
            for k, pairing in enumerate(itertools.permutations(range(3))):
                frame = pairings[n, k]
                # the turned frame is the one built from the re-paired um
                q = normal_forms._quaternion(proper(blocks.um[n][:, list(pairing)]))
                want = left_multiplication(p) @ right_multiplication(q).T
                e1 = want[np.flatnonzero(np.abs(want[:, 0]) > 1e-12)[0], 0]
                npt.assert_allclose(frame, np.sign(e1) * want, rtol=0, atol=1e-14)
                npt.assert_allclose(frame.T @ frame, np.eye(4), atol=1e-14)
                assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-14)
                assert frame[np.flatnonzero(np.abs(frame[:, 0]) > 1e-12)[0], 0] > 0
                f = blocks.frames[n] @ frame
                npt.assert_allclose(f.T @ h @ f, np.eye(4), atol=1e-13)
                plus, minus = blocks.evp[n], blocks.evm[n][list(pairing)]
                pattern = dense_from_entries(4, normal_form_entries((plus + minus) / 2, (plus - minus) / 2))
                npt.assert_allclose(transform_frame(rm, f), pattern, rtol=0, atol=1e-13 * rm.scale)


def rotated_g(eigenvalues, seed=61):
    """``Q diag(eigenvalues) Q^T`` for a seeded rotation ``Q``."""
    q = random_rotation(np.random.default_rng(seed), 4)
    return q @ np.diag(eigenvalues) @ q.T


def assert_round_s4_scaled(d, seed=61):
    """The round S^4 against ``rotated_g(d, seed)`` has the g-orthogonal normal
    form: values -1 and 0, and scaled values ``-1 / (d_i d_j)``."""
    d = np.asarray(d, dtype=float)
    g = rotated_g(d, seed)
    for analysis in (orthogonal_normal_form_4, preferred_normal_form_4):
        nf = analysis(space_form(4, 1.0), np.eye(4), g)
        assert nf.scaled is not None
        npt.assert_allclose(nf.lambdas, -1.0, atol=1e-14)
        npt.assert_allclose(nf.mus, 0.0, atol=1e-14)
        gf = nf.frame.T @ g @ nf.frame
        npt.assert_allclose(gf, np.diag(np.diag(gf)), atol=1e-14)
        npt.assert_allclose(np.sort(np.diag(gf)), np.sort(d), atol=1e-14)
        products = [-1.0 / (d[i] * d[j]) for i, j in itertools.combinations(range(4), 2)]
        got = np.concatenate([nf.scaled.lambdas_scaled, nf.scaled.kappas_scaled])
        npt.assert_allclose(np.sort(got), np.sort(products), atol=1e-14)
        npt.assert_allclose(nf.scaled.mus_scaled, 0.0, atol=1e-14)


class TestGEigenframe:
    def test_round_s4_against_a_rotated_g(self):
        # every frame is a normal-form frame of S^4, so the block eigenvectors
        # pick none in particular: the eigenframe of g is the g-orthogonal one
        assert_round_s4_scaled([2.0, 1.0, 0.7, 1.5])

    def test_a_repeated_eigenvalue_of_g_still_gives_the_eigenframe(self):
        # any rotation of the repeated eigenspace also diagonalizes g; for S^4
        # every one of them is a normal-form frame, so the eigenframe serves
        for d in ([2.0, 1.0, 1.0, 1.5], [2.0, 2.0, 0.7, 1.5], [1.5, 1.5, 1.5, 0.7]):
            for seed in (61, 62, 63):
                assert_round_s4_scaled(d, seed)

    def test_eigenframe_missing_the_pattern_gives_the_plain_form(self):
        # rotated star-h points: neither a pairing nor the eigenframe of g fits
        for sample in rotated_star_h_samples(62, 5):
            nf = preferred_normal_form_4(sample.rm, sample.h, sample.g)
            assert nf.scaled is None
            with pytest.raises(FrameReconstructionError, match="no pairing"):
                orthogonal_normal_form_4(sample.rm, sample.h, sample.g)

    @pytest.mark.parametrize("lambdas, mus, h_diag, g_diag, i, j, raised", [
        (
            [0.49274857874416966, -1.6639386256704607, 1.3305765906135911],
            [0.5741966149773667, -0.5212611140140957, -0.05293550096327104],
            [0.5878520522077915, 1.0041755908184906, 0.7254192003422586, 1.1755090499739305],
            [1.6944864054309414, 0.8459633134906211, 0.5780319515966144, 1.1068277597322922],
            0, 3, 2.3961669349269563e-09,
        ),
        (
            [-1.7389183343548344, 1.3399528158336023, -0.4727408801350448],
            [-0.34890876779859115, 0.9880535424199686, -0.6391447746213774],
            [1.2283027081693816, 1.1339425946371717, 1.8162933588076942, 0.6302223083223413],
            [1.5626281353707991, 1.683731935557719, 1.6987945695741722, 0.9834300871097477],
            1, 3, 1.3191437966818055e-09,
        ),
    ])
    def test_a_frame_at_the_threshold_keeps_a_g_orthogonal_form(self, lambdas, mus, h_diag, g_diag, i, j, raised):
        # g = diag(g_diag) with g_ij = g_ji bisected to where the plain frame's
        # off-diagonal meets max(tol, 1e-9) max g_ii, so rounding decides its
        # verdict: either the frame passes or the eigenframe of g has its turn
        sample = gen_synthetic_star_h(lambdas, mus, h_diag, g_diag)
        g = sample.g.copy()
        g[i, j] = g[j, i] = raised
        nf = preferred_normal_form_4(sample.rm, sample.h, g)
        assert nf.scaled is not None
        npt.assert_allclose(scaled_normal_form(nf, g).scaled.c, nf.scaled.c, rtol=1e-15)  # its frame passes

    def test_an_indefinite_g_breaks_the_metric_rule_without_a_warning(self):
        # g's rule comes before h's, as in validate_sample, so no frame is judged against it
        sample = gen_synthetic_star_h([0.9, -0.4, 0.2], [0.5, -0.3, -0.2], [1, 2, 0.5, 1.5], [2, 1, 1, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateMetricError, match="^g must be positive definite$"):
                preferred_normal_form_4(sample.rm, sample.h, np.diag([1.0, 1.0, 1.0, -1.0]))


def near_threshold_star_h(rng):
    """(rm, h, g) of an aligned star-h sample with one symmetric off-diagonal
    entry of g raised by 10^U(-10.5, -8), about the 1e-9 g-orthogonality threshold."""
    m1, m2 = rng.uniform(-1.0, 1.0, 2)
    sample = gen_synthetic_star_h(
        rng.uniform(-2.0, 2.0, 3), [m1, m2, -m1 - m2], rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4)
    )
    i, j = rng.choice(4, size=2, replace=False)
    g = sample.g.copy()
    g[i, j] = g[j, i] = g[i, j] + 10.0 ** rng.uniform(-10.5, -8.0)
    return sample.rm, sample.h, g


def single_reading_stack():
    """Pair matrices, h and g of seeded points: star-h tensors whose frame g is
    aligned with, proportional to or rotated away from, generic tensors that
    meet first Bianchi only, space forms against a rotated g, and near-threshold
    aligned points."""
    rng = np.random.default_rng(27)
    rows = []
    for seed in range(40):
        rm, h, g = frame_change_case(seed, ("aligned", "proportional", "rotated", "space form")[seed % 4])
        rows.append((component_matrix(rm), h, g))
    for _ in range(20):
        k0 = rng.normal(size=(6, 6))
        k0 = k0 + k0.T
        k0[[0, 1, 2], [3, 4, 5]] -= np.trace(k0[:3, 3:]) / 3.0  # tr B = 0: first Bianchi
        k0[3:, :3] = k0[:3, 3:].T
        rows.append((k0, random_spd(rng, 4), random_spd(rng, 4)))
    for _ in range(200):
        rm, h, g = near_threshold_star_h(rng)
        rows.append((component_matrix(rm), h, g))
    return tuple(np.stack(column) for column in zip(*rows))


class TestSingleReading:
    def test_the_sorted_reading_equals_a_reading_in_the_permuted_frame_bit_for_bit(self):
        k0, h, g = single_reading_stack()
        blocks, errors = normal_forms._lambda2_blocks(k0, h, g, 1e-9)
        assert errors == [None] * len(k0)
        eigenframes = normal_forms._first_positive(normal_forms._proper(np.linalg.eigh(blocks.gram)[1]))
        frames = np.concatenate([normal_forms._pairing_frames(blocks.up, blocks.um), eigenframes[:, None]], axis=1)
        n = np.repeat(np.arange(len(k0)), frames.shape[1])
        f = frames.reshape(-1, 4, 4)
        columns, perm, lambdas, mus, residual, matched = normal_forms._read_off(blocks.k[n], f, blocks.scale[n], 1e-9)
        # reference: the values read afresh in the permuted frame
        kf = normal_forms._in_frame(blocks.k[n], f @ perm)
        i = np.arange(3)
        want = kf[:, i, i], kf[:, i + 3, i]
        want_residual = np.max(np.abs(normal_forms._block_pattern(*want) - kf), axis=(1, 2))
        assert lambdas.tobytes() == want[0].tobytes() and mus.tobytes() == want[1].tobytes()
        assert residual.tobytes() == want_residual.tobytes()
        assert np.array_equal(matched, want_residual <= 1e-8 * blocks.scale[n])
        assert 0 < matched.sum() < len(matched)
        # the frame in input coordinates and its g-lengths take the same permutation
        v = blocks.frames[n]
        assert ((v @ f) @ perm).tobytes() == (v @ (f @ perm)).tobytes()
        lengths = normal_forms._g_lengths(v @ f, g[n], 1e-9)[0]
        permuted = normal_forms._g_lengths(v @ (f @ perm), g[n], 1e-9)[0]
        assert np.take_along_axis(lengths, columns, axis=1).tobytes() == permuted.tobytes()
        assert np.array_equal(np.abs(perm), np.swapaxes(np.eye(4)[columns], 1, 2))
        assert np.all(np.linalg.det(perm) == 1.0)

    def test_the_kernel_reads_each_candidate_once_and_judges_every_frame_once(self, monkeypatch):
        k0, h, g = single_reading_stack()
        blocks, errors = normal_forms._lambda2_blocks(k0, h, g, 1e-9)
        in_frame, g_lengths, reads, verdicts = normal_forms._in_frame, normal_forms._g_lengths, [], []

        def counted_read(k, v, basis=normal_forms._BASIS):
            reads.append(len(k))
            return in_frame(k, v, basis)

        def counted_verdict(f, gm, tol):
            verdicts.append(f.shape)
            return g_lengths(f, gm, tol)

        monkeypatch.setattr(normal_forms, "_in_frame", counted_read)
        monkeypatch.setattr(normal_forms, "_g_lengths", counted_verdict)
        results = normal_forms._normal_forms(blocks, errors, h, g, 1e-9)
        points = sum(isinstance(r, (normal_forms.NormalForm4, FrameReconstructionError)) for r in results)
        assert verdicts == [(points, 7, 4, 4)]
        assert len(reads) == 1 and points <= reads[0] <= 7 * points


# coordinate changes of the property test below: P = Q1 diag(s) Q2 with
# rotations Q1, Q2 and singular values s in [1, FRAME_CHANGE_COND], so the
# condition number of P is at most 10 and rounding grows by at most 10^4
FRAME_CHANGE_COND = 10.0


def coordinate_change(rng):
    s = np.exp(rng.uniform(0.0, np.log(FRAME_CHANGE_COND), 4))
    return random_rotation(rng, 4) @ np.diag(s) @ random_rotation(rng, 4)


def frame_change_case(seed, kind):
    """(rm, h, g) of a seeded point: a star-h tensor whose normal-form frame
    g is aligned with, proportional to or rotated away from, or a space form
    (every block degenerate) against a g with well-separated eigenvalues."""
    rng = np.random.default_rng(seed)
    h = random_spd(rng, 4)
    if kind == "space form":
        frame = h_orthonormal_frame(h) @ random_rotation(rng, 4)
        rm = curvature_from_frame_components(space_form(4, rng.uniform(-2.0, 2.0)).components, frame)
        d = 0.5 + 0.4 * rng.permutation(4) + rng.uniform(0.0, 0.2, 4)
    else:
        rm, frame = build_normal_form_tensor(rng, *random_lambda_mu(rng), h)
        d = rng.uniform(0.5, 2.0, 4)
    inverse = np.linalg.inv(frame)
    g = {
        "aligned": inverse.T @ np.diag(d) @ inverse,
        "space form": inverse.T @ np.diag(d) @ inverse,
        "proportional": d[0] * h,
        "rotated": random_spd(rng, 4),
    }[kind]
    return rm, h, g


class TestFrameChange:
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["aligned", "proportional", "rotated", "space form"]),
    )
    def test_coordinate_change_keeps_the_normal_form(self, seed, kind):
        rm, h, g = frame_change_case(seed, kind)
        p = coordinate_change(np.random.default_rng([seed, 1]))
        moved = CurvatureTensor(dim=4, components=transform_frame(rm, p))
        nf = preferred_normal_form_4(rm, h, g)
        nf_moved = preferred_normal_form_4(moved, p.T @ h @ p, p.T @ g @ p)
        npt.assert_allclose(
            canonical_pairs(nf_moved.lambdas, nf_moved.mus), canonical_pairs(nf.lambdas, nf.mus),
            rtol=0, atol=1e-11 * rm.scale,
        )
        assert (nf.scaled is None) == (kind == "rotated")
        assert (nf_moved.scaled is None) == (nf.scaled is None)
        if nf.scaled is not None:
            # which of a pair's two planes comes first may differ, so compare
            # the values of the two triples together
            def values(form):
                s = form.scaled
                return np.sort(np.concatenate([s.lambdas_scaled, s.kappas_scaled])), np.sort(s.mus_scaled)

            scale = np.max(np.abs(np.concatenate(values(nf))))
            for got, want in zip(values(nf_moved), values(nf)):
                npt.assert_allclose(got, want, rtol=0, atol=1e-10 * scale)
        for tensor, form in ((rm, nf), (moved, nf_moved)):
            pattern = dense_from_entries(4, normal_form_entries(form.lambdas, form.mus))
            npt.assert_allclose(
                transform_frame(tensor, form.frame), pattern, rtol=0, atol=1e-10 * tensor.scale
            )
            npt.assert_allclose(form.frame.T @ form.h @ form.frame, np.eye(4), atol=1e-10)


class TestCanonicalPairs:
    def test_permutation_invariance(self):
        from itertools import permutations

        lambdas, mus = random_lambda_mu(RNG)
        base = canonical_pairs(lambdas, mus)
        for perm in permutations(range(3)):
            got = canonical_pairs(lambdas[list(perm)], mus[list(perm)])
            npt.assert_allclose(got, base, atol=1e-14)

    def test_repairing_invariance(self):
        # two descriptions of one tensor: spectra {0.7, 1.3, 2} on both sides
        a = canonical_pairs([1.0, 1.0, 2.0], [0.3, -0.3, 0.0])
        b = canonical_pairs([0.7, 1.3, 2.0], [0.0, 0.0, 0.0])
        npt.assert_allclose(a, b, atol=1e-14)

    def test_sorted_output(self):
        for _ in range(20):
            lambdas, mus = random_lambda_mu(RNG)
            out = canonical_pairs(lambdas, mus)
            assert np.all(np.diff(out[:, 0]) >= -1e-14)


class TestScaledNormalForm:
    def test_doubling_first_vector(self):
        # c = (2, 1, 1, 1): lt_1 = 4 l1, kt_1 = l1, mt = 2 m
        from curvforms.normal_forms import NormalForm4

        frame = np.diag([0.5, 1.0, 1.0, 1.0])
        nf = NormalForm4(
            frame=frame,
            lambdas=np.array([1.0, 2.0, 3.0]),
            mus=np.array([0.1, 0.2, -0.3]),
            h=frame @ frame,
        )
        out = scaled_normal_form(nf, np.eye(4))
        npt.assert_allclose(out.scaled.c, [2, 1, 1, 1])
        npt.assert_allclose(out.scaled.lambdas_scaled, [4.0, 8.0, 12.0])
        npt.assert_allclose(out.scaled.kappas_scaled, [1.0, 2.0, 3.0])
        npt.assert_allclose(out.scaled.mus_scaled, [0.2, 0.4, -0.6])

    def test_orthonormal_frame_is_identity_scaling(self):
        lambdas, mus = random_lambda_mu(RNG)
        rm, _ = build_normal_form_tensor(RNG, lambdas, mus)
        nf = normal_form_4(rm, np.eye(4))
        out = scaled_normal_form(nf, np.eye(4))
        npt.assert_allclose(out.scaled.c, 1.0, atol=1e-10)
        npt.assert_allclose(out.scaled.lambdas_scaled, nf.lambdas, atol=1e-9)
        npt.assert_allclose(out.scaled.kappas_scaled, nf.lambdas, atol=1e-9)
        npt.assert_allclose(out.scaled.mus_scaled, nf.mus, atol=1e-9)

    def test_non_orthogonal_frame_rejected(self):
        from curvforms.normal_forms import NormalForm4

        frame = np.eye(4)
        frame[0, 1] = 0.3
        nf = NormalForm4(frame=frame, lambdas=np.zeros(3), mus=np.zeros(3), h=np.eye(4))
        with pytest.raises(DegenerateMetricError):
            scaled_normal_form(nf, np.eye(4))


class TestRecoverMu1:
    def test_substitution_identity(self):
        # a_ij = ((l_i + l_j) + (m_i - m_j)) / 2 recovers m1 exactly
        for _ in range(100):
            lambdas, mus = random_lambda_mu(RNG)
            l, m = lambdas, mus

            def a(i, j):
                return ((l[i - 1] + l[j - 1]) + (m[i - 1] - m[j - 1])) / 2.0

            got = recover_mu1(
                {"lambda1": l[0], "lambda2": l[1], "a12": a(1, 2), "a13": a(1, 3), "a32": a(3, 2)}
            )
            npt.assert_allclose(got, m[0], rtol=0, atol=1e-12)

    def test_values_are_realized_by_critical_planes(self):
        # every a_ij appears as the fitted coefficient of an actual critical
        # 45-degree mixed plane of the normal-form tensor
        lambdas, mus = random_lambda_mu(RNG)
        rm = CurvatureTensor(
            dim=4, components=dense_from_entries(4, normal_form_entries(lambdas, mus))
        )
        basis = bivector_basis(4)
        op = operator_from(rm, np.eye(4), kind="via_g")
        star = hodge_star(np.eye(4))
        eye = np.eye(4)
        critical_values = []
        for axes in ([0, 1, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]):
            for s in (1.0, -1.0):
                u = (eye[axes[0]] + eye[axes[2]]) / np.sqrt(2)
                w = (eye[axes[1]] + s * eye[axes[3]]) / np.sqrt(2)
                p = wedge_vectors(u, w, basis)
                fit = critical_point_residual(op, star, p)
                if fit.residual <= 1e-10:
                    critical_values.append(fit.a)
        l, m = lambdas, mus
        targets = [
            ((l[i - 1] + l[j - 1]) + (m[i - 1] - m[j - 1])) / 2.0
            for i in (1, 2, 3)
            for j in (1, 2, 3)
            if i != j
        ]
        for t in targets:
            assert any(abs(t - v) <= 1e-9 for v in critical_values), (
                f"critical value {t} not realized; found {sorted(critical_values)}"
            )


class TestCriticalPointResidual:
    def test_space_form_every_plane_critical(self):
        rm = space_form(4, 2.0)
        op = operator_from(rm, np.eye(4), kind="via_g")
        star = hodge_star(np.eye(4))
        basis = bivector_basis(4)
        for _ in range(50):
            v, w = RNG.normal(size=4), RNG.normal(size=4)
            p = wedge_vectors(v, w, basis)
            fit = critical_point_residual(op, star, p)
            assert fit.residual <= 1e-12 * np.linalg.norm(p)
            npt.assert_allclose(fit.a, -2.0, rtol=1e-9)
            npt.assert_allclose(fit.b, 0.0, atol=1e-9)

    def test_coordinate_planes_of_normal_form(self):
        lambdas, mus = random_lambda_mu(RNG)
        rm = CurvatureTensor(
            dim=4, components=dense_from_entries(4, normal_form_entries(lambdas, mus))
        )
        op = operator_from(rm, np.eye(4), kind="via_g")
        star = hodge_star(np.eye(4))
        for i, (pair_idx, dual_idx) in enumerate(((0, 3), (1, 4), (2, 5))):
            for idx in (pair_idx, dual_idx):
                p = np.zeros(6)
                p[idx] = 1.0
                fit = critical_point_residual(op, star, p)
                assert fit.residual <= 1e-12
                npt.assert_allclose(fit.a, lambdas[i], atol=1e-12)
                npt.assert_allclose(fit.b, mus[i], atol=1e-12)

    def test_generic_plane_not_critical(self):
        rm = CurvatureTensor(
            dim=4,
            components=dense_from_entries(4, normal_form_entries([1.0, 2.0, 5.0], [0, 0, 0])),
        )
        op = operator_from(rm, np.eye(4), kind="via_g")
        star = hodge_star(np.eye(4))
        basis = bivector_basis(4)
        u = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
        w = np.array([0.0, 1.0, 0.0, 0.0])
        fit = critical_point_residual(op, star, wedge_vectors(u, w, basis))
        assert fit.residual > 1e-3

    def test_lorentz_operator_coordinate_planes(self):
        kappa = 1.3
        rm = space_form(4, kappa)
        g = np.eye(4)
        gl = lorentz_metric_from_unit(g, np.array([1.0, 0, 0, 0]))
        op = operator_from(rm, gl, kind="via_lorentz")
        star = hodge_star(gl)
        p_spacelike = np.zeros(6)
        p_spacelike[3] = 1.0  # e3 ^ e4
        fit = critical_point_residual(op, star, p_spacelike)
        assert fit.residual <= 1e-12
        npt.assert_allclose(fit.a, -kappa, rtol=1e-12)
        p_timelike = np.zeros(6)
        p_timelike[0] = 1.0  # e1 ^ e2
        fit = critical_point_residual(op, star, p_timelike)
        assert fit.residual <= 1e-12
        npt.assert_allclose(fit.a, kappa, rtol=1e-12)


class TestNormalForm3:
    def test_round_trip_and_eigen_oracle(self):
        for _ in range(30):
            k = RNG.normal(size=(3, 3))
            k = (k + k.T) / 2.0
            rm = pair_matrix_tensor_3(k)
            nf = normal_form_3(rm)
            npt.assert_allclose(nf.diag, np.sort(np.linalg.eigvalsh(k)), atol=1e-9,
                                err_msg="normal-form diagonal = operator spectrum")
            assert np.all(np.diff(nf.diag) >= -1e-12)
            npt.assert_allclose(nf.frame.T @ nf.frame, np.eye(3), atol=1e-9)
            assert np.linalg.det(nf.frame) > 0
            entries = [(0, 1, 0, 1, nf.diag[0]), (0, 2, 0, 2, nf.diag[1]),
                       (1, 2, 1, 2, nf.diag[2])]
            rebuilt = curvature_from_frame_components(dense_from_entries(3, entries), nf.frame)
            npt.assert_allclose(rebuilt.components, rm.components, rtol=0, atol=1e-9)

    def test_eigenplanes_are_critical(self):
        k = RNG.normal(size=(3, 3))
        k = (k + k.T) / 2.0
        rm = pair_matrix_tensor_3(k)
        op = operator_from(rm, np.eye(3), kind="via_g")
        vals, vecs = np.linalg.eigh(k)
        for idx in range(3):
            fit = critical_point_residual(op, None, vecs[:, idx])
            assert fit.residual <= 1e-10
            npt.assert_allclose(fit.a, vals[idx], atol=1e-10)
            assert fit.b == 0.0
        tilted = (vecs[:, 0] + vecs[:, 1]) / np.sqrt(2)
        fit = critical_point_residual(op, None, tilted)
        if abs(vals[0] - vals[1]) > 1e-6:
            assert fit.residual > 1e-8

    @pytest.mark.parametrize("spectrum", [(1.0, 1.0, 2.0), (0.0, 0.0, 1.0)])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_tied_spectra_come_out_ascending(self, spectrum, rotated):
        rm = pair_matrix_tensor_3(np.diag(spectrum))
        if rotated:
            rm = curvature_from_frame_components(
                rm.components, random_rotation(np.random.default_rng(2403), 3))
        self.check_ascending_round_trip(rm)

    @pytest.mark.parametrize("kappa", [-2.0, 0.0, 1.0])
    def test_space_forms_come_out_ascending(self, kappa):
        self.check_ascending_round_trip(space_form(3, kappa))

    @staticmethod
    def check_ascending_round_trip(rm):
        nf = normal_form_3(rm)
        assert np.all(np.diff(nf.diag) >= 0)
        npt.assert_allclose(nf.frame.T @ nf.frame, np.eye(3), atol=1e-12)
        assert np.linalg.det(nf.frame) > 0
        entries = [(0, 1, 0, 1, nf.diag[0]), (0, 2, 0, 2, nf.diag[1]), (1, 2, 1, 2, nf.diag[2])]
        rebuilt = curvature_from_frame_components(dense_from_entries(3, entries), nf.frame)
        npt.assert_allclose(rebuilt.components, rm.components, rtol=0, atol=1e-9)

    def test_a_nan_component_fails_the_residual_check(self):
        r = space_form(3, 1.0).components.copy()
        r[0, 1, 0, 1] = r[1, 0, 1, 0] = np.nan
        r[0, 1, 1, 0] = r[1, 0, 0, 1] = np.nan
        with pytest.raises(FrameReconstructionError, match="residual nan"):
            normal_form_3(CurvatureTensor(dim=3, components=r))

    def test_signed_curvature_positive(self):
        rm = pair_matrix_tensor_3(-np.diag([1.0, 2.0, 3.0]))
        report = signed_curvature_3(rm, samples=2000, seed=3)
        assert report["sign"] == "positive"
        npt.assert_allclose(report["critical_values"], [1.0, 2.0, 3.0])
        assert report["min_sampled"] >= 1.0 - 1e-9
        assert report["max_sampled"] <= 3.0 + 1e-9

    def test_signed_curvature_negative_and_indefinite(self):
        rm = pair_matrix_tensor_3(np.diag([0.5, 2.0, 3.0]))
        assert signed_curvature_3(rm, samples=500)["sign"] == "negative"
        rm = pair_matrix_tensor_3(np.diag([-1.0, 2.0, 3.0]))
        report = signed_curvature_3(rm, samples=500)
        assert report["sign"] is None
        assert report["min_sampled"] >= report["critical_values"][0] - 1e-9
        assert report["max_sampled"] <= report["critical_values"][-1] + 1e-9


def loop_critical_violations(rm, frame=None, tol=1e-9):
    """The violations of critical_frame_check_n, read one index triple at a time."""
    r = rm.components if frame is None else transform_frame(rm, frame)
    n = rm.dim
    scale = max(float(np.max(np.abs(r))), 1e-300)
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k in (i, j):
                    continue
                v1 = r[i, j, k, j]
                if abs(v1) > tol * scale:
                    violations.append(((i + 1, j + 1, k + 1, j + 1), float(v1)))
                v2 = r[i, j, i, k]
                if abs(v2) > tol * scale:
                    violations.append(((i + 1, j + 1, i + 1, k + 1), float(v2)))
    return len(violations) == 0, violations


def damaged_space_form(rng, n):
    """A space form with three symmetric R_ijik perturbations of mixed size."""
    r = space_form(n, rng.normal()).components.copy()
    for _ in range(3):
        i, j, k = rng.choice(n, size=3, replace=False)
        value = rng.normal() * 10.0 ** rng.integers(-12, 0)
        for (a, b, c, d), s in (
            ((i, j, i, k), 1), ((j, i, i, k), -1), ((i, j, k, i), -1), ((j, i, k, i), 1),
            ((i, k, i, j), 1), ((k, i, i, j), -1), ((i, k, j, i), -1), ((k, i, j, i), 1),
        ):
            r[a, b, c, d] += s * value
    return CurvatureTensor(dim=n, components=r)


class TestCriticalFrameN:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_violations_match_the_index_loop(self, n, rotated):
        rng = np.random.default_rng(2400 + 10 * n + rotated)
        found = 0
        for _ in range(5):
            rm = damaged_space_form(rng, n)
            frame = random_rotation(rng, n) if rotated else None
            want = loop_critical_violations(rm, frame)
            assert critical_frame_check_n(rm, frame) == want
            found += len(want[1])
        assert found > 0

    @pytest.mark.parametrize("rotated", [False, True])
    def test_ricci_changes_frame_at_most_once(self, monkeypatch, rotated):
        calls = []

        def counted(rm, frame):
            calls.append(frame)
            return transform_frame(rm, frame)

        monkeypatch.setattr(normal_forms, "transform_frame", counted)
        frame = random_rotation(np.random.default_rng(2404), 5) if rotated else None
        report = ricci_from_critical_frame(space_form(5, 1.0), frame)
        npt.assert_allclose(report.matrix, 4.0 * np.eye(5), atol=1e-12)
        assert len(calls) == int(rotated)

    def test_space_form_critical_in_any_rotation(self):
        rm = space_form(5, 1.0)
        ok, violations = critical_frame_check_n(rm)
        assert ok and violations == []
        ok, violations = critical_frame_check_n(rm, random_rotation(RNG, 5))
        assert ok

    def test_space_form_ricci(self):
        report = ricci_from_critical_frame(space_form(5, 1.0))
        npt.assert_allclose(report.matrix, 4.0 * np.eye(5), atol=1e-12,
                            err_msg="unit 5-sphere has Ricci = 4 g")
        off = report.plane_values.copy()
        np.fill_diagonal(off, -1.0)
        npt.assert_allclose(off, -1.0, atol=1e-12)

    def test_injected_violation_located(self):
        r = space_form(5, 1.0).components.copy()
        for (a, b, c, d), s in (
            ((0, 1, 0, 2), 1), ((1, 0, 0, 2), -1), ((0, 1, 2, 0), -1), ((1, 0, 2, 0), 1),
            ((0, 2, 0, 1), 1), ((2, 0, 0, 1), -1), ((0, 2, 1, 0), -1), ((2, 0, 1, 0), 1),
        ):
            r[a, b, c, d] += s * 0.3
        rm = CurvatureTensor(dim=5, components=r)
        ok, violations = critical_frame_check_n(rm)
        assert not ok
        indices = {v[0] for v in violations}
        assert (1, 2, 1, 3) in indices or (1, 2, 3, 2) in indices
        values = [v[1] for v in violations]
        assert any(abs(abs(x) - 0.3) <= 1e-12 for x in values)
        with pytest.raises(FrameReconstructionError):
            ricci_from_critical_frame(rm)

    def test_normal_form_frame_is_critical_with_einstein_ricci(self):
        lambdas, mus = random_lambda_mu(RNG)
        rm = CurvatureTensor(
            dim=4, components=dense_from_entries(4, normal_form_entries(lambdas, mus))
        )
        ok, _ = critical_frame_check_n(rm)
        assert ok
        report = ricci_from_critical_frame(rm)
        npt.assert_allclose(report.matrix, -np.sum(lambdas) * np.eye(4), atol=1e-12,
                            err_msg="normal-form frames have Einstein Ricci")

    def test_non_orthonormal_frame_rejected(self):
        with pytest.raises(DegenerateMetricError):
            critical_frame_check_n(space_form(4, 1.0), np.diag([2.0, 1.0, 1.0, 1.0]))

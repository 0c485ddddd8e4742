"""Bivector algebra checks.

Identities exercised:
  * canonical basis order and length n(n-1)/2
  * induced Gram = 2x2 determinant of metric pairings, symmetric
  * wedge-to-volume coefficients against a permutation-parity oracle
  * decomposability: xi ^ xi = 0 detects 2-planes in dimension 4, the rank of
    the plane matrix above it
  * plane matrix of u ^ w is u w^T - w u^T, and matches a per-pair loop
  * a bivector of the wrong length is rejected
"""

import itertools

import numpy as np
import numpy.testing as npt
import pytest

from curvforms.bivectors import (
    bivector_basis,
    induced_gram,
    is_decomposable,
    plane_matrix,
    wedge_matrix,
    wedge_to_volume,
    wedge_vectors,
)
from curvforms.exceptions import DimensionError

RNG = np.random.default_rng(20260823)


# ---- oracles ----


def perm_sign_oracle(perm):
    """Sign via explicit inversion count over all index pairs."""
    sign = 1
    for a, b in itertools.combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


def wedge_oracle(pair_a, pair_b):
    """Coefficient of e1^e2^e3^e4 in (e_i^e_j)^(e_k^e_l), by brute force.

    Expands both factors over all 24 permutations of (1, 2, 3, 4) and reads
    off the coefficient by parity; repeated indices give zero.
    """
    i, j = pair_a
    k, l = pair_b
    if len({i, j, k, l}) < 4:
        return 0
    total = 0
    for perm in itertools.permutations((1, 2, 3, 4)):
        if perm == (i, j, k, l):
            total += perm_sign_oracle(perm)
    return total


def plane_matrix_oracle(xi, basis):
    """Antisymmetric matrix of ``xi``, filled one basis pair at a time."""
    x = np.zeros((basis.dim, basis.dim))
    for a, (i, j) in enumerate(basis.pairs0):
        x[i, j] += xi[a]
        x[j, i] -= xi[a]
    return x


def gram_oracle(g, pair_a, pair_b):
    (i, j), (k, l) = pair_a, pair_b
    i, j, k, l = i - 1, j - 1, k - 1, l - 1
    return g[i, k] * g[j, l] - g[i, l] * g[j, k]


# ---- basis ----


class TestBasis:
    def test_canonical_order_dim4(self):
        basis = bivector_basis(4)
        assert basis.pairs == ((1, 2), (1, 3), (1, 4), (3, 4), (4, 2), (2, 3))

    def test_lexicographic_dim3(self):
        assert bivector_basis(3).pairs == ((1, 2), (1, 3), (2, 3))

    def test_pairs0_is_one_read_only_array(self):
        basis = bivector_basis(4)
        assert bivector_basis(4).pairs0 is basis.pairs0
        npt.assert_array_equal(basis.pairs0, np.array(basis.pairs) - 1)
        with pytest.raises(ValueError):
            basis.pairs0[0, 0] = 5
        assert basis == bivector_basis(4) and hash(basis) == hash(bivector_basis(4))

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_length(self, dim):
        assert len(bivector_basis(dim)) == dim * (dim - 1) // 2

    def test_dim2_rejected(self):
        with pytest.raises(DimensionError):
            bivector_basis(2)


# ---- induced gram ----


class TestInducedGram:
    def test_identity_metric_gives_identity_gram(self):
        basis = bivector_basis(4)
        npt.assert_allclose(induced_gram(np.eye(4), basis), np.eye(6), atol=1e-15)

    def test_lorentz_metric_signature(self):
        basis = bivector_basis(4)
        g = np.diag([-1.0, 1.0, 1.0, 1.0])
        npt.assert_allclose(
            induced_gram(g, basis), np.diag([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]), atol=1e-15
        )

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_matches_determinant_oracle(self, dim):
        basis = bivector_basis(dim)
        for _ in range(10):
            a = RNG.normal(size=(dim, dim))
            g = a @ a.T + 0.5 * np.eye(dim)
            gram = induced_gram(g, basis)
            npt.assert_allclose(gram, gram.T, atol=1e-13, err_msg="Gram not symmetric")
            for a_idx, pa in enumerate(basis.pairs):
                for b_idx, pb in enumerate(basis.pairs):
                    npt.assert_allclose(
                        gram[a_idx, b_idx],
                        gram_oracle(g, pa, pb),
                        atol=1e-12,
                        err_msg=f"Gram entry {pa} x {pb}",
                    )


# ---- wedge pairing ----


class TestWedge:
    def test_matrix_matches_parity_oracle(self):
        basis = bivector_basis(4)
        w = wedge_matrix(basis)
        for a, pa in enumerate(basis.pairs):
            for b, pb in enumerate(basis.pairs):
                assert w[a, b] == wedge_oracle(pa, pb), f"{pa} ^ {pb}"

    def test_block_structure(self):
        # complementary canonical pairs wedge to +1; everything else to 0
        w = wedge_matrix(bivector_basis(4))
        expected = np.zeros((6, 6))
        expected[:3, 3:] = np.eye(3)
        expected[3:, :3] = np.eye(3)
        npt.assert_allclose(w, expected, atol=0)

    def test_e13_wedge_e42(self):
        # (e1^e3) ^ (e4^e2) = +1 by permutation parity
        basis = bivector_basis(4)
        xi = np.zeros(6)
        eta = np.zeros(6)
        xi[1] = 1.0  # e1^e3
        eta[4] = 1.0  # e4^e2
        assert wedge_to_volume(xi, eta, basis) == 1.0

    def test_symmetry(self):
        basis = bivector_basis(4)
        for _ in range(20):
            xi, eta = RNG.normal(size=(2, 6))
            npt.assert_allclose(
                wedge_to_volume(xi, eta, basis), wedge_to_volume(eta, xi, basis), atol=1e-13
            )

    def test_wedge_vectors_consistency(self):
        # v ^ w as coefficients, checked against the antisymmetric formula
        basis = bivector_basis(4)
        v, w = RNG.normal(size=(2, 4))
        xi = wedge_vectors(v, w, basis)
        for a, (i, j) in enumerate(basis.pairs0):
            npt.assert_allclose(xi[a], v[i] * w[j] - v[j] * w[i], atol=1e-15)


# ---- decomposability ----


class TestDecomposable:
    def test_wedge_of_vectors_is_decomposable(self):
        basis = bivector_basis(4)
        for _ in range(50):
            v, w = RNG.normal(size=(2, 4))
            assert is_decomposable(wedge_vectors(v, w, basis), basis)

    def test_sum_of_complementary_planes_is_not(self):
        basis = bivector_basis(4)
        xi = np.zeros(6)
        xi[0] = 1.0  # e1^e2
        xi[3] = 1.0  # e3^e4
        assert not is_decomposable(xi, basis)

    def test_dim3_always_true(self):
        basis = bivector_basis(3)
        assert is_decomposable(RNG.normal(size=3), basis)

    @pytest.mark.parametrize("dim", [5, 6])
    def test_rank_test_above_dim4(self, dim):
        basis = bivector_basis(dim)
        for _ in range(20):
            u, w = RNG.normal(size=(2, dim))
            assert is_decomposable(wedge_vectors(u, w, basis), basis)
        xi = np.zeros(len(basis))
        xi[basis.pairs.index((1, 2))] = 1.0
        xi[basis.pairs.index((3, 4))] = 1.0
        assert not is_decomposable(xi, basis)


# ---- plane matrix ----


class TestPlaneMatrix:
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_wedge_of_vectors(self, dim):
        basis = bivector_basis(dim)
        for _ in range(20):
            u, w = RNG.normal(size=(2, dim))
            npt.assert_array_equal(
                plane_matrix(wedge_vectors(u, w, basis), basis), np.outer(u, w) - np.outer(w, u)
            )

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_matches_per_pair_oracle_bitwise(self, dim):
        # bytes, so the signs of zeros count too
        basis = bivector_basis(dim)
        signed_zeros = np.where(np.arange(len(basis)) % 2, 0.0, -0.0)
        for xi in [*RNG.normal(size=(10, len(basis))), signed_zeros]:
            assert plane_matrix(xi, basis).tobytes() == plane_matrix_oracle(xi, basis).tobytes()


# ---- bivector length ----


class TestWrongLength:
    @pytest.mark.parametrize(
        "dim, size",
        [(3, 2), (3, 6), (4, 1), (4, 7), (5, 6), (5, 11), (6, 14)],
    )
    def test_rejected_by_every_bivector_helper(self, dim, size):
        basis = bivector_basis(dim)
        xi = RNG.normal(size=size)
        with pytest.raises(DimensionError):
            plane_matrix(xi, basis)
        with pytest.raises(DimensionError):
            is_decomposable(xi, basis)

    @pytest.mark.parametrize("shape", [(1,), (7,), (5,), (2, 6), ()])
    def test_wedge_to_volume_rejects_either_factor(self, shape):
        basis = bivector_basis(4)
        bad, good = np.ones(shape), np.ones(6)
        with pytest.raises(DimensionError):
            wedge_to_volume(bad, good, basis)
        with pytest.raises(DimensionError):
            wedge_to_volume(good, bad, basis)

    def test_wedge_needs_dim4_whatever_the_length(self):
        basis = bivector_basis(5)
        with pytest.raises(DimensionError, match="needs dim == 4"):
            wedge_to_volume(np.ones(10), np.ones(10), basis)
        with pytest.raises(DimensionError, match="needs dim == 4"):
            wedge_matrix(basis)

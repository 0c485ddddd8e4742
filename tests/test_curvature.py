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

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvforms import curvature
from curvforms.bivectors import bivector_basis, wedge_vectors
from curvforms.curvature import (
    component_matrix,
    curvature_from_frame_components,
    operator_from,
    quadratic_form,
    ricci_contraction,
    scalar_curvature,
    space_form,
    transform_frame,
    validate_curvature,
    weyl_operator,
)
from curvforms.exceptions import (
    DegenerateMetricError,
    DimensionError,
    LightlikePlaneError,
    TensorValidationError,
)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_components_rejected(self, bad):
        r = random_valid_tensor(np.random.default_rng(8)).components.copy()
        r[1, 2, 1, 3] = bad
        rows = random_valid_tensor(np.random.default_rng(9)).to_sparse()
        rows[5][4] = bad
        for components, dim in ((r, None), (rows, 4)):
            with pytest.raises(TensorValidationError) as err:
                validate_curvature(components, dim=dim)
            assert err.value.identity == "finite components"
            dense = validate_curvature(components, dim=dim, tol=np.inf).components
            assert not np.isfinite(dense[tuple(x - 1 for x in err.value.indices)])
            assert str(err.value) == f"finite components violated at indices {err.value.indices} with residual {abs(bad)}"


# ---- sparse completion ----


def loop_complete(entries, dim):
    """The sparse completion as a loop over the rows, one canonical key at a time."""
    canonical = {}
    scale = max((abs(float(e[4])) for e in entries), default=0.0)
    slack = curvature._SPARSE_SLACK * max(scale, 1.0)
    for e in entries:
        i, j, k, l = (int(x) - 1 for x in e[:4])
        v = float(e[4])
        if not all(0 <= idx < dim for idx in (i, j, k, l)):
            raise TensorValidationError("index range", (i + 1, j + 1, k + 1, l + 1), abs(v))
        if i == j or k == l:
            if abs(v) > slack:
                raise TensorValidationError("antisymmetry (repeated index)", (i + 1, j + 1, k + 1, l + 1), abs(v))
            continue
        sign = 1
        if i > j:
            i, j, sign = j, i, -sign
        if k > l:
            k, l, sign = l, k, -sign
        if (i, j) > (k, l):
            i, j, k, l = k, l, i, j
        key, v = (i, j, k, l), sign * v
        if key in canonical and abs(canonical[key] - v) > slack:
            raise TensorValidationError("duplicate entries disagree", tuple(x + 1 for x in key), abs(canonical[key] - v))
        canonical[key] = v
    r = np.zeros((dim,) * 4)
    for (i, j, k, l), v in canonical.items():
        for a, b, c, d, s in ((i, j, k, l, v), (j, i, k, l, -v), (i, j, l, k, -v), (j, i, l, k, v)):
            r[a, b, c, d] = r[c, d, a, b] = s
    return r


def seeded_rows(rng, dim):
    """Rows of a valid tensor, shuffled, with duplicates in every orientation (agreeing,
    or off by 1e-14 or 1e-3), repeated indices, an index out of range now and then,
    float indices and zeros of both signs."""
    rows = random_valid_tensor(rng, dim).to_sparse()
    rows = [row if rng.random() > 0.2 else [*row[:4], [0.0, -0.0][rng.integers(2)]] for row in rows]
    for i, j, k, l, v in [rows[n] for n in rng.integers(len(rows), size=4)]:
        orientations = [(i, j, k, l, 1), (j, i, k, l, -1), (i, j, l, k, -1), (j, i, l, k, 1)]
        orientations += [(k, l, i, j, 1), (l, k, i, j, -1), (k, l, j, i, -1), (l, k, j, i, 1)]
        *index, sign = orientations[rng.integers(8)]
        shift = rng.choice([0.0, 1e-14, 1e-3], p=[0.5, 0.45, 0.05])
        rows.append([*index, sign * (v + shift)])
    for _ in range(rng.poisson(0.3)):
        i, k, l = (int(x) for x in rng.integers(1, dim + 1, size=3))
        rows.append([i, i, k, l, rng.choice([0.0, -0.0, 1e-15, 0.5])])
    if rng.random() < 0.05:
        rows.append([1, 2, rng.choice([0, dim + 1]), 1, 0.25])
    rows = [rows[n] for n in rng.permutation(len(rows))]
    if rng.random() < 0.3:
        rows = [[float(x) for x in row[:4]] + [row[4]] for row in rows]  # 2.0 counts as the index 2
    return rows


def completion(complete, rows, dim):
    """The completed components and their sign bits, or the error's type, message, indices and residual."""
    try:
        r = complete(rows, dim)
    except TensorValidationError as err:
        return type(err), str(err), err.indices, err.residual
    return r.tobytes(), np.signbit(r).tobytes()


class TestSparseCompletion:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_equals_the_row_loop(self, dim):
        rng = np.random.default_rng(100 + dim)
        outcomes = set()
        for _ in range(400):
            rows = seeded_rows(rng, dim)
            expected = completion(loop_complete, rows, dim)
            assert completion(lambda rows, dim: validate_curvature(rows, dim, np.inf).components, rows, dim) == expected
            outcomes.add(expected[1].split(" violated")[0] if expected[0] is TensorValidationError else "completed")
        assert outcomes == {"completed", "index range", "antisymmetry (repeated index)", "duplicate entries disagree"}

    def test_a_stack_equals_its_tensors(self):
        rng = np.random.default_rng(11)
        sets = [seeded_rows(rng, 4) for _ in range(60)]
        counts = [len(rows) for rows in sets]
        stacked = np.array([row for rows in sets for row in rows], dtype=float)
        first_bad = next((rows for rows in sets if completion(loop_complete, rows, 4)[0] is TensorValidationError), None)
        assert first_bad is not None
        with pytest.raises(TensorValidationError) as err:
            curvature._scatter_rows(stacked, counts, len(sets), 4)
        assert (type(err.value), str(err.value), err.value.indices, err.value.residual) == completion(loop_complete, first_bad, 4)

        good = [rows for rows in sets if completion(loop_complete, rows, 4)[0] is not TensorValidationError]
        k0, listed = curvature._scatter_rows(
            np.array([row for rows in good for row in rows], dtype=float), [len(rows) for rows in good], len(good), 4
        )
        r = curvature._dense(k0, listed)
        for p, rows in enumerate(good):
            assert completion(lambda *_: r[p], rows, 4) == completion(loop_complete, rows, 4)


# the eight orientations of a row (i, j, k, l) and the sign of its value in each
_ORIENTATIONS = (
    ((0, 1, 2, 3), 1.0), ((1, 0, 2, 3), -1.0), ((0, 1, 3, 2), -1.0), ((1, 0, 3, 2), 1.0),
    ((2, 3, 0, 1), 1.0), ((3, 2, 0, 1), -1.0), ((2, 3, 1, 0), -1.0), ((3, 2, 1, 0), 1.0),
)


@given(st.data())
def test_scattered_rows_meet_every_index_symmetry_exactly(data):
    # the premise of checking first Bianchi alone on a chunk the reader completed
    dim = data.draw(st.sampled_from([3, 4, 5]))
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    keys = [(*p, *q) for a, p in enumerate(pairs) for q in pairs[a:]]
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))
    values = data.draw(st.lists(value, min_size=len(keys), max_size=len(keys)))
    # repeated keys give agreeing duplicate rows, each in an orientation of its own
    given_keys = data.draw(st.lists(st.integers(0, len(keys) - 1), max_size=2 * len(keys)))
    rows = []
    for key in given_keys:
        order, sign = data.draw(st.sampled_from(_ORIENTATIONS))
        rows.append([*(keys[key][o] for o in order), sign * values[key]])
    k0, listed = curvature._scatter_rows(np.array(rows, dtype=float).reshape(-1, 5), [len(rows)], 1, dim)
    r = curvature._dense(k0, listed)
    for name, residual in curvature._IDENTITIES:
        assert np.all(residual(r) == 0.0), name
    assert curvature._pair_matrix(r).tobytes() == k0.tobytes()


class TestFirstBianchiRule:
    def test_dimension_4_reads_tr_b0_bit_for_bit(self):
        # the residual the kernels read before: R_1234 + R_1342 + R_1423 = tr B_0
        rng = np.random.default_rng(3300)
        k0 = rng.normal(size=(20_000, 6, 6)) * 10.0 ** rng.integers(-300, 300, size=(20_000, 1, 1))
        trace = np.trace(k0[:, :3, 3:], axis1=1, axis2=2)
        scale = np.maximum(np.max(np.abs(k0), axis=(1, 2)), 1e-300)
        for tol in (0.0, 1e-9, 0.3):
            errors = curvature._first_bianchi_errors(k0, tol)
            broken = np.abs(trace) > tol * scale
            assert [e is not None for e in errors] == broken.tolist()
            got = [(e.indices, e.residual) for e in errors if e is not None]
            assert got == [((1, 2, 3, 4), abs(b)) for b in trace[broken].tolist()]

    def test_dimension_3_has_no_quadruple(self):
        k0 = np.random.default_rng(3301).normal(size=(50, 3, 3))
        assert curvature._bianchi_tables(3)[0].shape == (0, 4)
        assert curvature._first_bianchi_errors(k0 + np.swapaxes(k0, 1, 2), 0.0) == [None] * 50

    @pytest.mark.parametrize("dim", [5, 6])
    def test_every_sorted_quadruple_is_the_dense_cyclic_sum(self, dim):
        rng = np.random.default_rng(3300 + dim)
        rm = random_valid_tensor(rng, dim)
        quads = curvature._bianchi_tables(dim)[0]
        assert len(quads) == math.comb(dim, 4)
        for q in rng.permutation(len(quads))[:4].tolist():
            i, j, k, l = quads[q]
            r = rm.components.copy()
            broken = validate_curvature([[i, j, k, l, 0.5]], dim, math.inf).components
            r = r + broken
            cyclic = (r + np.transpose(r, (0, 2, 3, 1)) + np.transpose(r, (0, 3, 1, 2)))[tuple((quads - 1).T)]
            assert np.argmax(np.abs(cyclic)) == q and np.max(np.abs(np.delete(cyclic, q))) <= 1e-12
            with pytest.raises(TensorValidationError) as err:
                validate_curvature(r)
            assert (err.value.identity, err.value.indices) == ("first Bianchi identity", (i, j, k, l))
            npt.assert_allclose(err.value.residual, 0.5, rtol=1e-12)


# ---- space forms ----


def loop_to_sparse(rm):
    """The canonical rows by a plain loop over the index ranges."""
    n, out = rm.dim, []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    if (i, j) <= (k, l):
                        v = float(rm.components[i, j, k, l])
                        if v != 0.0:
                            out.append([i + 1, j + 1, k + 1, l + 1, v])
    return out


class TestToSparse:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_rows_equal_the_loop(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            r = random_valid_tensor(rng, dim).components.copy()
            r[rng.random(r.shape) < 0.3] = 0.0  # zeros of both signs, and subnormals
            r[rng.random(r.shape) < 0.1] = -0.0
            r[rng.random(r.shape) < 0.1] = 5e-324
            r[rng.random(r.shape) < 0.1] = -2.2e-310
            r[0, 1, 0, 1], r[0, 2, 0, 2], r[0, 1, 1, 2] = 5e-324, -0.0, -2.2e-310
            rm = curvature.CurvatureTensor(dim, r)
            rows = rm.to_sparse()
            assert rows == loop_to_sparse(rm)
            assert all(type(x) is int for row in rows for x in row[:4])
            assert all(type(row[4]) is float for row in rows)
            assert any(0 < abs(row[4]) < 2.3e-308 for row in rows)
        assert curvature.CurvatureTensor(dim, np.zeros((dim,) * 4)).to_sparse() == []


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

    @pytest.mark.parametrize("kind", ["via_g", "via_h", "via_lorentz"])
    def test_metric_signature_is_checked_by_the_hodge_rule(self, kind):
        # one signature rule for stars and operators: a singular metric, the
        # wrong one of the two supported signatures, or an unsupported one
        rm = space_form(4, 1.0)
        with pytest.raises(DegenerateMetricError, match="numerically singular"):
            operator_from(rm, np.diag([1.0, 1.0, 1.0, 1e-13]), kind)
        wrong = np.eye(4) if kind == "via_lorentz" else np.diag([-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DegenerateMetricError, match="needs a"):
            operator_from(rm, wrong, kind)
        with pytest.raises(DegenerateMetricError, match="unsupported metric signature with 2 negative"):
            operator_from(rm, np.diag([-1.0, -1.0, 1.0, 1.0]), kind)

    @pytest.mark.parametrize("call", ["hodge_star", "operator_from", "scalar_curvature", "ricci_contraction"])
    @pytest.mark.parametrize("g, message", [
        (np.diag([1.0, np.nan, 1.0, 1.0]), "g must be finite"),
        (np.eye(4) + 0.5 * np.eye(4, k=1), "g must be symmetric"),
        (np.diag([1.0, 1.0, 1.0, 1e-13]), "metric is numerically singular"),
    ])
    def test_the_operator_layer_applies_the_metric_rule(self, call, g, message):
        # finite and symmetric as the metric rule reads them at 1e-9, then the
        # signature, whose singular verdict used to be numpy's own error
        rm = space_form(4, 1.0)
        fn = {
            "hodge_star": lambda: hodge_star(g),
            "operator_from": lambda: operator_from(rm, g, "via_g"),
            "scalar_curvature": lambda: scalar_curvature(rm, g),
            "ricci_contraction": lambda: ricci_contraction(rm, g),
        }[call]
        with pytest.raises(DegenerateMetricError, match=f"^{message}$"):
            fn()


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

import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infobalance as ib
from conftest import random_density


def kron_oracle(a, b):
    """Element-by-element quadruple loop, independent of np.kron."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def trace_oracle(matrix, dims, keep_positions):
    """Explicit index-contraction partial trace, no einsum."""
    n = len(dims)
    traced = [i for i in range(n) if i not in keep_positions]
    keep_dims = [dims[i] for i in keep_positions]
    dk = int(np.prod(keep_dims)) if keep_dims else 1
    out = np.zeros((dk, dk), dtype=complex)
    full = matrix.reshape(dims + dims)
    for idx_keep_row in np.ndindex(*keep_dims):
        for idx_keep_col in np.ndindex(*keep_dims):
            total = 0.0 + 0.0j
            for idx_tr in np.ndindex(*[dims[i] for i in traced]):
                row = [0] * n
                col = [0] * n
                for pos, val in zip(keep_positions, idx_keep_row):
                    row[pos] = val
                for pos, val in zip(keep_positions, idx_keep_col):
                    col[pos] = val
                for pos, val in zip(traced, idx_tr):
                    row[pos] = val
                    col[pos] = val
                total += full[tuple(row) + tuple(col)]
            r = 0
            for d, v in zip(keep_dims, idx_keep_row):
                r = r * d + v
            c = 0
            for d, v in zip(keep_dims, idx_keep_col):
                c = c * d + v
            out[r, c] = total
    return out


def labeled(names_dims, matrix, **kw):
    return ib.LabeledState([ib.Subsystem(n, d) for n, d in names_dims], matrix, **kw)


class TestLabeledState:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ib.InvalidState, match="Hermitian"):
            labeled([("Q", 2)], [[0.5, 1.0], [0.0, 0.5]])

    def test_rejects_negative(self):
        with pytest.raises(ib.InvalidState, match="semidefinite"):
            labeled([("Q", 2)], np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ib.InvalidState, match="trace"):
            labeled([("Q", 2)], np.diag([0.7, 0.7]))

    def test_subnormalized_allows_partial_trace_weight(self):
        s = labeled([("Q", 2)], np.diag([0.2, 0.1]), subnormalized=True)
        assert s.trace == pytest.approx(0.3)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ib.DuplicateLabel):
            labeled([("Q", 2), ("Q", 2)], np.eye(4) / 4)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ib.InvalidState):
            labeled([("Q", 3)], np.eye(2) / 2)

    def test_matrix_is_frozen(self):
        s = labeled([("Q", 2)], np.eye(2) / 2)
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 9.0

    @pytest.mark.parametrize(
        "field, value",
        [("matrix", np.diag([1.0, 0.0])), ("labels", ()), ("subnormalized", True)],
    )
    def test_attributes_cannot_be_rebound(self, field, value):
        s = labeled([("Q", 2)], np.eye(2) / 2)
        before = getattr(s, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(s, field)
        assert getattr(s, field) is before

    def test_copies_rebuild_the_state(self):
        s = labeled([("Q", 2)], np.diag([0.2, 0.1]), subnormalized=True)
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin.labels == s.labels and twin.subnormalized
            np.testing.assert_array_equal(twin.matrix, s.matrix)
            assert not twin.matrix.flags.writeable


class TestTensorProduct:
    def test_mixed_with_pure(self):
        a = labeled([("R", 2)], np.eye(2) / 2)
        b = labeled([("Q", 2)], np.diag([1.0, 0.0]))
        out = ib.tensor_product(a, b)
        assert out.names == ("R", "Q")
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0, 0.5, 0]), atol=1e-15)

    def test_scalar_identity(self):
        rng = np.random.default_rng(0)
        sigma = labeled([("Q", 3)], random_density(rng, 3))
        one = ib.LabeledState((), [[1.0]])
        np.testing.assert_allclose(
            ib.tensor_product(sigma, one).matrix, sigma.matrix, atol=1e-15
        )
        np.testing.assert_allclose(
            ib.tensor_product(one, sigma).matrix, sigma.matrix, atol=1e-15
        )

    def test_matches_quadruple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = labeled([("A", 2)], random_density(rng, 2))
        b = labeled([("B", 3)], random_density(rng, 3))
        expected = kron_oracle(a.matrix, b.matrix)
        np.testing.assert_allclose(
            ib.tensor_product(a, b).matrix, expected, atol=1e-14
        )

    def test_rejects_name_collision(self):
        a = labeled([("Q", 2)], np.eye(2) / 2)
        with pytest.raises(ib.DuplicateLabel):
            ib.tensor_product(a, a)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(2)
        a = labeled([("A", 2)], random_density(rng, 2))
        b = labeled([("B", 3)], random_density(rng, 3))
        out = ib.partial_trace(ib.tensor_product(a, b), ["A"])
        np.testing.assert_allclose(out.matrix, a.matrix, atol=1e-12)

    def test_maximally_entangled(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        s = labeled([("R", 2), ("Q", 2)], np.outer(phi, phi.conj()))
        out = ib.partial_trace(s, ["R"])
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_matches_contraction_oracle_three_party(self):
        rng = np.random.default_rng(3)
        dims = [2, 3, 2]
        s = labeled(
            [("A", 2), ("B", 3), ("C", 2)], random_density(rng, int(np.prod(dims)))
        )
        for keep_names, keep_pos in [(["A"], [0]), (["A", "C"], [0, 2]), (["B"], [1])]:
            expected = trace_oracle(s.matrix, dims, keep_pos)
            got = ib.partial_trace(s, keep_names).matrix
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_sequential_equals_joint(self):
        rng = np.random.default_rng(4)
        s = labeled([("A", 2), ("B", 2), ("C", 3)], random_density(rng, 12))
        twice = ib.partial_trace(ib.partial_trace(s, ["A", "B"]), ["A"])
        once = ib.partial_trace(s, ["A"])
        np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)

    def test_keep_order_is_original(self):
        rng = np.random.default_rng(5)
        s = labeled([("A", 2), ("B", 2)], random_density(rng, 4))
        assert ib.partial_trace(s, ["B", "A"]).names == ("A", "B")

    def test_full_trace_is_scalar(self):
        rng = np.random.default_rng(6)
        s = labeled([("A", 2), ("B", 2)], random_density(rng, 4))
        out = ib.partial_trace(s, [])
        assert out.labels == ()
        assert abs(out.matrix[0, 0] - 1.0) < 1e-12

    def test_unknown_label(self):
        s = labeled([("A", 2)], np.eye(2) / 2)
        with pytest.raises(ib.UnknownLabel):
            ib.partial_trace(s, ["Z"])


class TestEigHermitian:
    def test_diagonal(self):
        w, _ = ib.eig_hermitian(np.diag([0.1, 0.9]))
        np.testing.assert_allclose(w, [0.9, 0.1])

    def test_pauli_x(self):
        w, v = ib.eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (g + g.conj().T) / 2
        w, v = ib.eig_hermitian(h)
        np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-9)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-9)
        assert all(w[i] >= w[i + 1] for i in range(5))

    def test_not_square(self):
        with pytest.raises(ib.NotSquare):
            ib.eig_hermitian(np.ones((2, 3)))


class TestEntropy:
    def test_pure_state(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        s = labeled([("Q", 4)], np.outer(v, v.conj()))
        assert ib.von_neumann_entropy(s) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_qubit(self):
        assert ib.von_neumann_entropy(labeled([("Q", 2)], np.eye(2) / 2)) == pytest.approx(1.0)

    def test_two_level_value(self):
        # scalar oracle: -sum p log2 p
        expected = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
        got = ib.von_neumann_entropy(labeled([("Q", 2)], np.diag([0.9, 0.1])))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.46900, abs=1e-4)


class TestFuncOnSupport:
    def test_sqrt_on_singular(self):
        out = ib.func_on_support(np.diag([4.0, 0.0]), np.sqrt)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_inverse_sqrt_on_singular(self):
        out = ib.func_on_support(np.diag([4.0, 0.0]), lambda x: x**-0.5)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-12)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(9)
        sigma = random_density(rng, 5, rank=3)
        root = ib.func_on_support(sigma, np.sqrt)
        np.testing.assert_allclose(root @ root, sigma, atol=1e-9)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ib.NegativeEigenvalue):
            ib.func_on_support(np.diag([1.0, -0.1]), np.sqrt)

    def test_stack_equals_its_matrices(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            stack = np.array([random_density(rng, d, rank=int(rng.integers(1, d + 1)))
                              for _ in range(int(rng.integers(1, 5)))])
            for f in (np.sqrt, lambda x: x**-0.5):
                out = ib.func_on_support(stack, f)
                assert out.shape == stack.shape
                for m, got in zip(stack, out):
                    assert got.tobytes() == ib.func_on_support(m, f).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3, 3), (2, 3), (4, 2, 3)])
    def test_not_square_rejected(self, shape):
        with pytest.raises(ib.NotSquare, match=rf"^expected a square matrix, got shape "
                                               rf"{re.escape(str(shape))}$"):
            ib.func_on_support(np.zeros(shape), np.sqrt)


@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(2, 4))
def test_entropy_additivity(seed, da, db):
    rng = np.random.default_rng(seed)
    a = labeled([("A", da)], random_density(rng, da))
    b = labeled([("B", db)], random_density(rng, db))
    total = ib.von_neumann_entropy(ib.tensor_product(a, b))
    assert total == pytest.approx(
        ib.von_neumann_entropy(a) + ib.von_neumann_entropy(b), abs=1e-9
    )


@given(st.integers(0, 10**6), st.integers(2, 6))
def test_entropy_bounds(seed, d):
    rng = np.random.default_rng(seed)
    s = labeled([("Q", d)], random_density(rng, d))
    val = ib.von_neumann_entropy(s)
    assert -1e-9 <= val <= np.log2(d) + 1e-9


@given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 3))
def test_trace_commutes_with_product(seed, da, db):
    rng = np.random.default_rng(seed)
    a = labeled([("A", da)], random_density(rng, da))
    b = labeled([("B", db)], random_density(rng, db))
    joint = ib.tensor_product(a, b)
    np.testing.assert_allclose(
        ib.partial_trace(joint, ["A"]).matrix, a.matrix * b.trace, atol=1e-12
    )


@given(st.integers(0, 10**6))
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    s = labeled([("A", 2), ("B", 3)], random_density(rng, 6))
    assert ib.partial_trace(s, ["B"]).trace == pytest.approx(1.0, abs=1e-12)

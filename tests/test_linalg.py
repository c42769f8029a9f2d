import numpy as np
import pytest

from qcrb import linalg
from qcrb.config import DEFAULT
from qcrb.errors import (
    DimensionMismatch,
    NoConvergence,
    NotCommuting,
    NotHermitian,
)

from util import charpoly_roots, pauli, random_hermitian, random_unitary


class TestHermEigen:
    def test_identity(self):
        eig = linalg.herm_eigen(np.eye(3))
        assert np.allclose(eig.values, [1.0, 1.0, 1.0])
        assert np.allclose(linalg.dag(eig.vectors) @ eig.vectors, np.eye(3), atol=1e-12)

    def test_pauli_x_spectrum(self):
        eig = linalg.herm_eigen(pauli("x"))
        assert np.allclose(eig.values, [-1.0, 1.0], atol=1e-12)

    def test_random_4x4_against_charpoly_roots(self):
        rng = np.random.default_rng(42)
        a = random_hermitian(rng, 4)
        eig = linalg.herm_eigen(a)
        assert np.allclose(eig.values, charpoly_roots(a), atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_residual_invariants(self, seed, n):
        rng = np.random.default_rng(1000 * n + seed)
        a = random_hermitian(rng, n, scale=rng.uniform(0.1, 5.0))
        eig = linalg.herm_eigen(a)
        scale = 1e-10 * (1.0 + linalg.fro(a))
        assert linalg.fro(a @ eig.vectors - eig.vectors * eig.values) <= scale
        assert linalg.fro(linalg.dag(eig.vectors) @ eig.vectors - np.eye(n)) <= 1e-10
        assert np.all(np.diff(eig.values) >= 0)

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            linalg.herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence):
            linalg.herm_eigen(pauli("x"))

    def test_diagonal_converges_without_sweeps(self):
        eig = linalg.herm_eigen(np.diag([2.0, -1.0]))
        assert np.allclose(eig.values, [-1.0, 2.0])

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 5)
        e1 = linalg.herm_eigen(a)
        e2 = linalg.herm_eigen(a)
        assert np.array_equal(e1.vectors, e2.vectors)
        assert np.array_equal(e1.values, e2.values)


class TestSvd:
    def test_wide_rank_deficient_matches_numpy(self):
        rng = np.random.default_rng(5)
        left = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        right = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        a = left @ right  # 3 x 6, rank 2
        u, s, vh = linalg.svd(a)
        assert (u.shape, s.shape, vh.shape) == ((3, 6), (6,), (6, 6))
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(s[:3], ref, rtol=0.0, atol=1e-12)
        assert np.all(s[3:] == 0.0)
        assert s[2] <= 1e-14 * s[0]
        assert linalg.fro(vh @ linalg.dag(vh) - np.eye(6)) <= 1e-12
        assert linalg.fro((u * s) @ vh - a) <= 1e-12 * linalg.fro(a)

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(*_, **__):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NoConvergence):
            linalg.svd(np.eye(2))


class TestPinv:
    def test_identity(self):
        assert np.allclose(linalg.pinv(np.eye(2)), np.eye(2), atol=1e-12)

    def test_diagonal_truncation(self):
        assert np.allclose(linalg.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12)

    def test_full_column_rank_left_inverse(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.allclose(linalg.pinv(a) @ a, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_penrose_identities(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        x = linalg.pinv(a)
        assert linalg.fro(a @ x @ a - a) <= 1e-10 * (1 + linalg.fro(a))
        assert linalg.fro(x @ a @ x - x) <= 1e-10 * (1 + linalg.fro(x))
        assert linalg.fro(a @ x - linalg.dag(a @ x)) <= 1e-10
        assert linalg.fro(x @ a - linalg.dag(x @ a)) <= 1e-10

    def test_double_pinv_on_retained_subspace(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert linalg.fro(linalg.pinv(linalg.pinv(a)) - a) <= 1e-9 * (1 + linalg.fro(a))

    def test_zero_matrix(self):
        assert np.allclose(linalg.pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_requires_positive_cut(self):
        with pytest.raises(ValueError):
            linalg.pinv(np.eye(2), sv_cut=0.0)


class TestSimultaneousDiagonalize:
    def test_two_diagonals(self):
        u, joint = linalg.simultaneous_diagonalize([np.diag([1.0, 2.0]), np.diag([3.0, 3.0])])
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-10)
        assert np.allclose(joint, [[1.0, 3.0], [2.0, 3.0]], atol=1e-10)

    def test_pauli_z_with_identity(self):
        u, joint = linalg.simultaneous_diagonalize([pauli("z"), np.eye(2)])
        # columns must be e1, e2 up to phase (ordered by the z eigenvalue)
        assert np.allclose(np.abs(u), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-10)
        assert np.allclose(joint[:, 0], [-1.0, 1.0], atol=1e-10)

    def test_non_commuting_rejected(self):
        with pytest.raises(NotCommuting):
            linalg.simultaneous_diagonalize([pauli("x"), pauli("y")])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_commuting_family(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 5
        u0 = random_unitary(rng, n)
        # shared degeneracies force the joint structure to matter
        d1 = np.array([1.0, 1.0, 2.0, 3.0, 3.0])
        d2 = np.array([0.0, 1.0, 1.0, 1.0, 2.0])
        mats = [(u0 * d) @ linalg.dag(u0) for d in (d1, d2)]
        u, joint = linalg.simultaneous_diagonalize(mats)
        for mat in mats:
            conj = linalg.dag(u) @ mat @ u
            assert linalg.offdiag_norm(conj) <= DEFAULT.diag * (1 + linalg.fro(mat))
        tuples = sorted(tuple(np.round(row, 8)) for row in joint)
        expected = sorted(zip(d1, d2))
        assert np.allclose(tuples, expected, atol=1e-8)

    def test_roundoff_in_a_flat_operator_does_not_decide_the_order(self):
        # operator 0 is I up to +-1e-15, as the reference ratio operator in
        # find_W is; within that width operator 1 alone must set the order
        noise = np.array([-1e-15, 1e-15, -5e-16, 5e-16])
        mats = [np.diag(1.0 + noise), np.diag([4.0, 1.0, 3.0, 2.0])]
        _, joint = linalg.simultaneous_diagonalize(mats)
        assert np.all(np.diff(joint[:, 1]) > 0)

    def test_gap_clusters_split_one_operator_at_a_time(self):
        # rows 0 and 2 agree within the width on both columns: they form one
        # cluster in index order, although row 2 is smaller in column 0
        joint = np.array([[1.0 + 1e-12, 2.0], [0.0, 9.0], [1.0, 2.0], [1.0, 5.0]])
        assert linalg.gap_clusters(joint, 1e-9) == [[1], [0, 2], [3]]

    def test_sequential_refinement_splits_degeneracy(self):
        mats = [
            np.diag([1.0, 1.0, 2.0]).astype(complex),
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 5.0]], dtype=complex),
        ]
        u, _ = linalg.simultaneous_diagonalize(mats)
        assert linalg._family_diagonal(u, mats, DEFAULT.diag)


class TestCommNorm:
    def test_identity_commutes_with_everything(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(rng, 3)
        assert linalg.comm_norm(np.eye(3), a) == 0.0

    def test_pauli_xy(self):
        assert np.isclose(linalg.comm_norm(pauli("x"), pauli("y")), 2.0 * np.sqrt(2.0))

    def test_diagonals_commute(self):
        assert linalg.comm_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_symmetry_and_self(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        assert linalg.comm_norm(a, b) == linalg.comm_norm(b, a)
        assert linalg.comm_norm(a, a) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.comm_norm(np.eye(2), np.eye(3))


class TestSerialization:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        a[0, 0] = 0.1 + (1.0 / 3.0) * 1j
        a[1, 2] = 5e-324
        back = linalg.matrix_from_json(linalg.matrix_to_json(a))
        assert np.array_equal(a, back)

    def test_json_module_round_trip(self):
        import json

        a = np.array([[0.1 + 0.2j, -1.0 / 7.0], [1e-300, 3.0]])
        payload = json.loads(json.dumps(linalg.matrix_to_json(a)))
        assert np.array_equal(linalg.matrix_from_json(payload), a)

    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_json_round_trip_is_bitwise(self, n):
        import json

        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a.flat[::3] = complex(-0.0, 1e300)
        a.flat[1::5] = complex(-1e-300, -0.0)
        a[-1, -1] = complex(0.0, -0.0)
        text = json.dumps(linalg.matrix_to_json(a))
        # the per-entry loop the array form replaced writes the same text
        assert text == json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in a])
        back = linalg.matrix_from_json(json.loads(text))
        assert back.view(np.uint64).tobytes() == a.view(np.uint64).tobytes()

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            linalg.matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]])

    def test_rejects_non_pairs(self):
        with pytest.raises(ValueError):
            linalg.matrix_from_json([[1.0, 2.0]])

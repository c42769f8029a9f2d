import itertools

import numpy as np
import pytest

from qcrb import linalg
from qcrb.config import DEFAULT
from qcrb.errors import DegeneracyUnresolved, NoConvergence, ParseError

from util import charpoly_roots, pauli, random_hermitian, random_unitary, rotate_groups

CUT = DEFAULT.zero   # the relative singular-value cut find_W passes to pinv


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


def _low_rank(rng, m, n, rank):
    left = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    right = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    return left @ right


def _truncated_svd_pinv(a, sv_cut):
    """(V / s) U^dag over the singular values above sv_cut * s_max."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > sv_cut * s[0]
    return (linalg.dag(vh[keep]) / s[keep]) @ linalg.dag(u[:, keep])


class TestSvd:
    def test_wide_rank_deficient_matches_numpy(self):
        # numpy's full bases, unpadded; tall and square inputs alike
        rng = np.random.default_rng(5)
        for m, n in [(3, 6), (6, 3), (4, 4)]:
            a = _low_rank(rng, m, n, 2)
            u, s, vh = linalg.svd(a)
            k = min(m, n)
            assert (u.shape, s.shape, vh.shape) == ((m, m), (k,), (n, n))
            assert np.allclose(s, np.linalg.svd(a, compute_uv=False), rtol=0.0, atol=1e-12)
            assert np.all(np.diff(s) <= 0.0)
            assert s[2] <= 1e-14 * s[0]
            assert linalg.fro(linalg.dag(u) @ u - np.eye(m)) <= 1e-12
            assert linalg.fro(vh @ linalg.dag(vh) - np.eye(n)) <= 1e-12
            assert linalg.fro((u[:, :k] * s) @ vh[:k] - a) <= 1e-12 * linalg.fro(a)
            # the rows of Vh past the rank span the kernel, as find_W splits them
            assert linalg.fro(a @ linalg.dag(vh[2:])) <= 1e-12 * linalg.fro(a)

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(*_, **__):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NoConvergence):
            linalg.svd(np.eye(2))


class TestPinv:
    def test_identity(self):
        assert np.allclose(linalg.pinv(np.eye(2), CUT), np.eye(2), atol=1e-12)

    def test_diagonal_truncation(self):
        assert np.allclose(linalg.pinv(np.diag([2.0, 0.0]), CUT), np.diag([0.5, 0.0]), atol=1e-12)

    def test_full_column_rank_left_inverse(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.allclose(linalg.pinv(a, CUT) @ a, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_penrose_identities(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        x = linalg.pinv(a, CUT)
        assert linalg.fro(a @ x @ a - a) <= 1e-10 * (1 + linalg.fro(a))
        assert linalg.fro(x @ a @ x - x) <= 1e-10 * (1 + linalg.fro(x))
        assert linalg.fro(a @ x - linalg.dag(a @ x)) <= 1e-10
        assert linalg.fro(x @ a - linalg.dag(x @ a)) <= 1e-10

    def test_double_pinv_on_retained_subspace(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert linalg.fro(linalg.pinv(linalg.pinv(a, CUT), CUT) - a) <= 1e-9 * (1 + linalg.fro(a))

    @pytest.mark.parametrize("m, n, rank", [(3, 5, 3), (5, 3, 3), (5, 4, 2), (4, 6, 1)])
    def test_matches_the_truncated_svd_formula(self, m, n, rank):
        rng = np.random.default_rng(10 * m + n)
        a = _low_rank(rng, m, n, rank)
        want = _truncated_svd_pinv(a, CUT)
        assert linalg.fro(linalg.pinv(a, CUT) - want) <= 1e-12 * (1 + linalg.fro(want))

    @pytest.mark.parametrize("sv_cut, kept", [(1e-8, 3), (1e-3, 2), (0.7, 1)])
    def test_relative_cut_drops_small_singular_values(self, sv_cut, kept):
        # singular values 2, 1e-1, 1e-5 and 1e-11 of a 4 x 5 matrix
        rng = np.random.default_rng(17)
        sigma = np.zeros((4, 5))
        np.fill_diagonal(sigma, [2.0, 1e-1, 1e-5, 1e-11])
        a = random_unitary(rng, 4) @ sigma @ random_unitary(rng, 5)
        x = linalg.pinv(a, sv_cut)
        want = _truncated_svd_pinv(a, sv_cut)
        assert linalg.fro(x - want) <= 1e-12 * (1 + linalg.fro(want))
        assert np.linalg.matrix_rank(x, tol=1e-6 * linalg.fro(x)) == kept

    def test_zero_matrix(self):
        for shape in [(2, 3), (3, 2), (1, 1)]:
            assert np.array_equal(linalg.pinv(np.zeros(shape), CUT), np.zeros(shape[::-1]))

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(*_, **__):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "pinv", fail)
        with pytest.raises(NoConvergence):
            linalg.pinv(np.eye(2), CUT)


def _joint(u, mats):
    """joint[s, l]: the eigenvalue of mats[l] on column s of u, diag(U^dag A U)."""
    return np.stack([np.diag(linalg.dag(u) @ m @ u).real for m in mats], axis=1)


class TestSimultaneousDiagonalize:
    GATE = DEFAULT.cond

    def test_two_diagonals(self):
        mats = [np.diag([1.0, 2.0]), np.diag([3.0, 3.0])]
        u, ranks = linalg.simultaneous_diagonalize(mats, self.GATE)
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-10)
        assert np.allclose(_joint(u, mats), [[1.0, 3.0], [2.0, 3.0]], atol=1e-10)
        assert ranks == (1, 1)

    def test_pauli_z_with_identity(self):
        mats = [pauli("z"), np.eye(2)]
        u, _ = linalg.simultaneous_diagonalize(mats, self.GATE)
        # columns must be e1, e2 up to phase (ordered by the z eigenvalue)
        assert np.allclose(np.abs(u), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-10)
        assert np.allclose(_joint(u, mats)[:, 0], [-1.0, 1.0], atol=1e-10)

    def test_non_commuting_rejected(self):
        # no commutation pre-gate: the family is left off-diagonal
        with pytest.raises(DegeneracyUnresolved):
            linalg.simultaneous_diagonalize([pauli("x"), pauli("y")], self.GATE)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_commuting_family(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 5
        u0 = random_unitary(rng, n)
        # shared degeneracies force the joint structure to matter
        d1 = np.array([1.0, 1.0, 2.0, 3.0, 3.0])
        d2 = np.array([0.0, 1.0, 1.0, 1.0, 2.0])
        mats = [(u0 * d) @ linalg.dag(u0) for d in (d1, d2)]
        u, ranks = linalg.simultaneous_diagonalize(mats, self.GATE)
        for mat in mats:
            conj = linalg.dag(u) @ mat @ u
            assert linalg.fro(conj - np.diag(np.diag(conj))) <= self.GATE * (1 + linalg.fro(mat))
        joint = _joint(u, mats)
        tuples = sorted(tuple(np.round(row, 8)) for row in joint)
        expected = sorted(zip(d1, d2))
        assert np.allclose(tuples, expected, atol=1e-8)
        assert ranks == (1,) * n

    def test_roundoff_in_a_flat_operator_does_not_decide_the_order(self):
        # operator 0 is I up to +-1e-15, as the reference ratio operator in
        # find_W is; within that width operator 1 alone must set the order
        noise = np.array([-1e-15, 1e-15, -5e-16, 5e-16])
        mats = [np.diag(1.0 + noise), np.diag([4.0, 1.0, 3.0, 2.0])]
        u, _ = linalg.simultaneous_diagonalize(mats, self.GATE)
        assert np.all(np.diff(_joint(u, mats)[:, 1]) > 0)

    def test_gap_clusters_split_one_operator_at_a_time(self):
        # states 0 and 2 agree within the width in both operators: they form
        # one group, although state 2 is smaller in operator 0
        mats = [np.diag([1.0 + 1e-12, 0.0, 1.0, 1.0]), np.diag([2.0, 9.0, 2.0, 5.0])]
        u, ranks = linalg.simultaneous_diagonalize(mats, self.GATE)
        assert ranks == (1, 2, 1)
        assert np.allclose(np.abs(u[:, 0]), [0, 1, 0, 0], atol=1e-12)
        assert np.allclose(np.abs(u[[1, 3], 1:3]), 0.0, atol=1e-12)
        assert np.allclose(np.abs(u[:, 3]), [0, 0, 0, 1], atol=1e-12)

    def test_sequential_refinement_splits_degeneracy(self):
        mats = [
            np.diag([1.0, 1.0, 2.0]).astype(complex),
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 5.0]], dtype=complex),
        ]
        u, ranks = linalg.simultaneous_diagonalize(mats, self.GATE)
        joint = _joint(u, mats)
        for mat, column in zip(mats, joint.T):
            assert linalg.fro(linalg.dag(u) @ mat @ u - np.diag(column)) <= 1e-12
        assert ranks == (1, 1, 1)

    def test_gate_decides_which_eigenvalues_are_equal(self):
        # width = gate (1 + ||A||_F); a gap just inside it merges, just outside splits
        gate = 1e-8
        for factor, ranks in [(0.5, (2, 1)), (2.0, (1, 1, 1))]:
            gap = factor * gate * (1.0 + np.sqrt(6.0))
            mats = [np.diag([1.0, 1.0 + gap, 2.0])]
            assert linalg.simultaneous_diagonalize(mats, gate)[1] == ranks

    def test_chain_that_a_later_operator_separates_is_resolved(self):
        # operator 0 steps 0.9 widths apart over 2.7 widths; operator 1
        # tells all four apart, so the chain is refined, not an error
        gate = 1e-8
        step = 0.9 * gate * 3.0
        mats = [np.diag(1.0 + step * np.arange(4)), np.diag([1.0, 2.0, 3.0, 4.0])]
        for family in (mats, mats[::-1]):
            u, ranks = linalg.simultaneous_diagonalize(family, gate)
            assert ranks == (1, 1, 1, 1)
            assert np.allclose(np.abs(u), np.eye(4), atol=1e-12)

    def test_a_part_of_a_chain_is_refined_again_by_every_operator(self):
        # operator 1 parts state 1 from states 0 and 2, which lie 1.8
        # widths apart in operator 0: one more pass of operator 0 splits
        # them, so either order gives four groups
        gate = 1e-8
        step = 0.9 * gate * (1.0 + linalg.fro(np.diag([1.0, 1.0, 1.0, 5.0])))
        mats = [np.diag([1.0, 1.0 + step, 1.0 + 2.0 * step, 5.0]), np.diag([1.0, -1.0, 1.0, -3.0])]
        for family in (mats, mats[::-1]):
            u, ranks = linalg.simultaneous_diagonalize(family, gate)
            assert ranks == (1, 1, 1, 1)
            assert sorted(np.argmax(np.abs(u), axis=0)) == [0, 1, 2, 3]
        # with a fourth state in the chain, the part operator 1 leaves is
        # itself a chain that no operator splits
        mats = [np.diag([1.0, 1.0 + step, 1.0 + 2.0 * step, 1.0 + 3.0 * step, 5.0]),
                np.diag([-1.0, 1.0, 1.0, 1.0, -3.0])]
        for family in (mats, mats[::-1]):
            with pytest.raises(DegeneracyUnresolved):
                linalg.simultaneous_diagonalize(family, gate)

    def test_chain_wider_than_the_width_is_unresolved(self):
        # every step lies within the width, the chain spans 2.7 widths
        gate = 1e-8
        step = 0.9 * gate * 3.0   # ||A||_F is 2 up to the steps
        mats = [np.diag(1.0 + step * np.arange(4)), np.eye(4)]
        assert step < gate * (1.0 + linalg.fro(mats[0]))
        with pytest.raises(DegeneracyUnresolved):
            linalg.simultaneous_diagonalize(mats, gate)
        # the same chain inside one operator's eigenspace of the one before it
        with pytest.raises(DegeneracyUnresolved):
            linalg.simultaneous_diagonalize(mats[::-1], gate)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_chain_under_a_flat_later_operator_is_unresolved(self, seed):
        # in a random basis operator 1 is flat on operator 0's chain (steps
        # of 0.55 widths over 1.1) up to roundoff, so its eigensolve turns
        # that group arbitrarily and operator 0's diagonal on it may fit in
        # the width: the chain is judged by its eigenvalues, in either order
        gate = 1e-8
        u0 = random_unitary(np.random.default_rng(seed), 5)
        d0 = np.array([1.0, 1.0, 1.0, 3.0, -2.0])
        d0[:3] += np.array([0.0, 0.55, 1.1]) * gate * (1.0 + np.linalg.norm(d0))
        mats = [(u0 * d) @ linalg.dag(u0) for d in (d0, np.array([2.0, 2.0, 2.0, 0.0, 1.0]))]
        for family in (mats, mats[::-1]):
            with pytest.raises(DegeneracyUnresolved, match="chain"):
                linalg.simultaneous_diagonalize(family, gate)

    @pytest.mark.parametrize("seed", range(40))
    def test_groups_do_not_depend_on_the_order_of_the_family(self, seed):
        # two or three members share a basis of permuted unit vectors with
        # phases in {1, i, -1, -i}, so every eigensolve is exact and only the
        # grouping could depend on the order; small integer spectra plant
        # shared degeneracies, and each member has a run of steps 0.9
        # widths apart, which merges (two states) or is a chain (three or four)
        rng = np.random.default_rng(seed)
        n, gate = int(rng.integers(3, 9)), 1e-8
        basis = np.eye(n)[rng.permutation(n)] * 1j ** rng.integers(0, 4, n)
        family = []
        for _ in range(int(rng.integers(2, 4))):
            d = rng.integers(-2, 3, n).astype(float)
            run = rng.choice(n, int(rng.integers(2, min(n, 4) + 1)), replace=False)
            d[run] = d[run[0]]
            d[run] += 0.9 * gate * (1.0 + np.linalg.norm(d)) * np.arange(run.size)
            family.append((basis * d) @ linalg.dag(basis))
        outcomes = []
        for order in itertools.permutations(family):
            try:
                u, ranks = linalg.simultaneous_diagonalize(order, gate)
            except DegeneracyUnresolved:
                outcomes.append(None)
                continue
            edges = np.cumsum((0, *ranks))
            outcomes.append((sorted(ranks), [u[:, a:b] @ linalg.dag(u[:, a:b])
                                             for a, b in zip(edges, edges[1:])]))
        first = outcomes[0]
        if first is None:
            assert outcomes == [None] * len(outcomes)
            return
        for ranks, projectors in outcomes:
            assert ranks == first[0]
            for proj in projectors:
                assert min(np.max(np.abs(proj - ref)) for ref in first[1]) <= 1e-12


class TestFixGauge:
    RANKS = (11, 11, 1, 5, 5)

    @pytest.mark.parametrize("seed", range(20))
    def test_rotating_each_group_leaves_the_gauge(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_unitary(rng, 33)
        fixed = linalg.fix_gauge(frame, self.RANKS)
        again = linalg.fix_gauge(rotate_groups(frame, self.RANKS, rng), self.RANKS)
        assert np.max(np.abs(again - fixed)) <= 1e-12
        # each group keeps its span: the gauge is a unitary inside each group
        gram = linalg.dag(frame) @ fixed
        for start, r in zip(np.cumsum((0, *self.RANKS)), self.RANKS):
            group = slice(start, start + r)
            assert linalg.is_unitary(gram[group, group])

    def test_pivot_rows_form_a_hermitian_positive_block(self):
        # the greedy pivots of a planted group are its rows 1 and 3
        rng = np.random.default_rng(4)
        g = np.zeros((5, 2), dtype=complex)
        g[1, 0], g[3, 1] = 0.9, 0.8
        g[[0, 2, 4]] = 0.1 * rng.standard_normal((3, 2))
        g = np.linalg.qr(g)[0] @ random_unitary(rng, 2)
        block = linalg.fix_gauge(g, (2,))[[1, 3]]
        assert np.max(np.abs(block - linalg.dag(block))) <= 1e-15
        assert np.min(np.linalg.eigvalsh(0.5 * (block + linalg.dag(block)))) > 0.1

    def test_a_span_whose_largest_rows_are_dependent_comes_back_orthonormal(self):
        # (e1 + e2)/sqrt2 and (e3 + e4)/sqrt2 tie all four rows, and rows 0
        # and 1 alone span one direction; greedy pivoting takes rows 0 and 2
        span = np.zeros((4, 2), dtype=complex)
        span[[0, 1], 0] = span[[2, 3], 1] = 2 ** -0.5
        for seed in range(5):
            g = span @ random_unitary(np.random.default_rng(seed), 2)
            fixed = linalg.fix_gauge(g, (2,))
            assert np.max(np.abs(linalg.dag(fixed) @ fixed - np.eye(2))) <= 1e-15
            assert np.max(np.abs(fixed @ linalg.dag(fixed) - span @ linalg.dag(span))) <= 1e-15

    def test_one_column_groups_are_the_phase_rule(self):
        # a one-column group turns its largest-magnitude entry real positive
        rng = np.random.default_rng(2)
        frame = random_unitary(rng, 9)
        ranks = (1, 3, 1, 1, 2, 1)
        single = np.flatnonzero(np.repeat(np.equal(ranks, 1), ranks))
        for fixed, cols in ((linalg.fix_gauge(frame, (1,) * 9), range(9)),
                            (linalg.fix_gauge(frame, ranks), single)):
            for j in cols:
                i = np.argmax(np.abs(frame[:, j]))
                assert fixed[i, j].real > 0.0 and abs(fixed[i, j].imag) <= 1e-15
                phase = frame[i, j].conj() / abs(frame[i, j])
                assert np.max(np.abs(fixed[:, j] - phase * frame[:, j])) <= 1e-15
        # a zero-width group, such as the null basis of a full-rank state, is skipped
        assert linalg.fix_gauge(np.zeros((3, 0)), (0,)).shape == (3, 0)


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


class TestRealRatio:
    @pytest.mark.parametrize("gate", [1e-8, 1e-4, 1e-2])
    def test_both_orders_passing_bound_the_paired_constants(self, gate):
        # 1 - c_lm c_ml is the squared relative residual of either ordered fit
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(500):
            v = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            w = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            u = rng.normal() * v + 2.0 * gate * rng.uniform() * linalg.fro(v) * w / linalg.fro(w)
            c_lm, _, ok_lm = linalg.real_ratio(u, v, DEFAULT.zero, gate)
            c_ml, _, ok_ml = linalg.real_ratio(v, u, DEFAULT.zero, gate)
            if ok_lm and ok_ml:
                checked += 1
                assert abs(c_lm * c_ml - 1.0) <= gate ** 2 + 1e-14
        assert 50 <= checked < 500

    @pytest.mark.parametrize("gate", [1e-8, 1e-2, 0.5])
    def test_a_complex_ratio_fails_with_residual_one(self, gate):
        # as real vectors i v is orthogonal to v, so the real fit is c = 0
        # and leaves all of u: the residual alone rejects an imaginary ratio
        rng = np.random.default_rng(29)
        v = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        for u, w in ((1j * v, v), (v, 1j * v)):
            c, resid, ok = linalg.real_ratio(u, w, DEFAULT.zero, gate)
            assert abs(c) <= 1e-15 and abs(resid - 1.0) <= 1e-15 and not ok

    @pytest.mark.parametrize("seed", range(20))
    def test_the_residual_bounds_the_imaginary_part_of_the_ratio(self, seed):
        # Cauchy-Schwarz: |Im<v,u>| / (|u| |v|) <= residual in the order |u| >= |v|
        rng = np.random.default_rng(300 + seed)
        v = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        u = rng.normal() * v + 10.0 ** rng.uniform(-9, 0) * rng.normal(size=(4, 1)) * 1j
        if linalg.fro(u) < linalg.fro(v):
            u, v = v, u
        _, resid, _ = linalg.real_ratio(u, v, DEFAULT.zero, 1e-8)
        imag = abs(np.vdot(v, u).imag) / (linalg.fro(u) * linalg.fro(v))
        assert imag <= resid * (1.0 + 1e-12)


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
        with pytest.raises(ParseError):
            linalg.matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]])

    def test_rejects_non_pairs(self):
        with pytest.raises(ParseError):
            linalg.matrix_from_json([[1.0, 2.0]])

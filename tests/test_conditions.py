import cmath

import numpy as np
import pytest

from qcrb import blocks, conditions, linalg, model, povm, sld
from qcrb.errors import NoFactorization, NotUnitary
from qcrb.model import StateBundle

from conftest import THETA_EX2, THETA_FIXED, pipeline
from util import (basis_povm, decompose_rho, embed_parts, embed_sld, optimal_povm, pauli,
                  random_unitary)


def engineered_family(seed):
    """Lpz_l = T diag(lambda_l) W0^dag, column-proportional with no zero entries."""
    rng = np.random.default_rng(300 + seed)
    r_plus, r_zero, p = 3, 2, 3
    t = rng.standard_normal((r_plus, r_zero)) + 1j * rng.standard_normal((r_plus, r_zero))
    w0 = random_unitary(rng, r_zero)
    lams = rng.uniform(0.5, 2.0, size=(p, r_zero)) * rng.choice([-1.0, 1.0], size=(p, r_zero))
    lpz = [t @ np.diag(lams[l]) @ linalg.dag(w0) for l in range(p)]
    return make_slds([np.zeros((r_plus, r_plus))] * p, lpz, [0.5, 0.3, 0.2]), lams


def make_slds(lpp_list, lpz_list, q):
    """Synthetic SLD set in the standard-basis gauge."""
    q = np.asarray(q, dtype=float)
    r_plus = len(q)
    r_zero = lpz_list[0].shape[1] if lpz_list else 0
    n = r_plus + r_zero
    eye = np.eye(n, dtype=complex)
    dec = blocks.BlockDecomposition(
        r_plus=r_plus, r_zero=r_zero, V=eye[:, :r_plus], Y=eye[:, r_plus:], q=q
    )
    return sld.SldSet(
        Lpp=tuple(np.asarray(m, dtype=complex) for m in lpp_list),
        Lpz=tuple(np.asarray(m, dtype=complex) for m in lpz_list),
        dec=dec,
        null_mass=(0.0,) * len(lpp_list),
    )


class TestCondition1:
    def test_example2_passes(self, ex2_pipeline):
        _, _, slds, report = ex2_pipeline
        assert report.c1.passed and report.c1.residual <= 1e-8

    def test_qubit_xy_fails(self, qubit_xy):
        _, _, _, report = pipeline(qubit_xy, np.array([0.3, 0.2]))
        assert not report.c1.passed
        assert report.c1.residual > 0.1

    def test_single_parameter_vacuous(self):
        slds = make_slds([pauli("z")], [np.zeros((2, 1))], [0.6, 0.4])
        verdict = conditions.check_condition1(slds)
        assert verdict.passed and verdict.residual == 0.0


class TestCondition3:
    def test_example2_passes(self, ex2_pipeline):
        _, _, slds, report = ex2_pipeline
        assert report.c3.passed

    def test_full_rank_vacuous(self, diag_pipeline):
        _, _, _, report = diag_pipeline
        assert report.c3.passed and report.c3.residual == 0.0

    def test_synthetic_violator(self):
        # Lpz_1 = e1 e1^dag, Lpz_2 = e2 e1^dag share the right vector, so
        # the cross terms are e1 e2^dag and e2 e1^dag and do not cancel
        lpz1 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        lpz2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        slds = make_slds([np.zeros((2, 2)), np.zeros((2, 2))], [lpz1, lpz2], [0.5, 0.5])
        verdict = conditions.check_condition3(slds)
        assert not verdict.passed
        # || e1 e2^dag - e2 e1^dag || / (1 + 1*1) = sqrt(2)/2
        assert np.isclose(verdict.residual, np.sqrt(2.0) / 2.0)
        assert verdict.residual >= 0.1


def range_commutator(slds, l, m):
    """P_+ [L_l, L_m] P_+ of the full SLDs, in the range frame."""
    a, b = embed_sld(slds, l), embed_sld(slds, m)
    v = slds.dec.V
    return linalg.dag(v) @ (a @ b - b @ a) @ v


class TestPartialCommutativity:
    """The range commutator of the full SLDs is [Lpp_l, Lpp_m] plus the
    antisymmetric part of Lpz_l Lpz_m^dag: it vanishes whenever conditions
    1 and 3 hold, so no verdict needs it."""

    def test_cancellation_between_blocks(self):
        # blocks engineered so the range commutator exactly cancels the
        # off-diagonal term; synthesize rho, drho backwards and re-derive
        lpp = [pauli("z"), -0.5 * pauli("y")]
        lpz = [np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1j]], dtype=complex)]
        q = np.array([0.5, 0.5])
        eye = np.eye(3, dtype=complex)
        dec = blocks.BlockDecomposition(r_plus=2, r_zero=1, V=eye[:, :2], Y=eye[:, 2:], q=q)
        rho = embed_parts(dec, opp=np.diag(q).astype(complex))
        drho = tuple(
            embed_parts(
                dec,
                opp=0.5 * (lpp[l] @ np.diag(q) + np.diag(q) @ lpp[l]),
                opz=0.5 * np.diag(q) @ lpz[l],
            )
            for l in range(2)
        )
        bundle = StateBundle(theta=np.zeros(2), rho=rho, drho=drho)
        dec2 = decompose_rho(rho)
        slds = sld.compute_slds(bundle, dec2)
        report, _ = conditions.evaluate_conditions(slds)
        assert not report.c1.passed and not report.c3.passed
        assert report.classification == conditions.NECESSARY_FAILED
        assert linalg.fro(range_commutator(slds, 0, 1)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_c1_and_c3_imply_partial_commutativity(self, seed):
        rng = np.random.default_rng(seed)
        # commuting Lpp family and proportional Lpz columns satisfy both
        u = random_unitary(rng, 2)
        lpp = [(u * rng.standard_normal(2)) @ linalg.dag(u) for _ in range(2)]
        col = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        lpz = [rng.standard_normal() * col for _ in range(2)]
        slds = make_slds(lpp, lpz, [0.7, 0.3])
        assert conditions.check_condition1(slds).passed
        assert conditions.check_condition3(slds).passed
        assert linalg.fro(range_commutator(slds, 0, 1)) <= 1e-12


class TestFindW:
    def test_example2(self, ex2_pipeline):
        _, _, slds, report = ex2_pipeline
        w = report.c4
        assert w.certified
        assert w.W.shape == (1, 1)
        assert np.isclose(abs(w.W[0, 0]), 1.0)
        assert np.isclose(w.lambda_[0, 1, 0], 0.5, atol=1e-9)
        assert np.isclose(w.lambda_[1, 0, 0], 2.0, atol=1e-9)
        assert w.zero_columns == ()

    def test_all_zero_blocks(self, fixed_pipeline):
        _, _, slds, report = fixed_pipeline
        w = report.c4
        assert w.certified
        assert np.allclose(w.W, np.eye(1))
        assert w.zero_columns == (0,)

    def test_full_rank_trivial(self, diag_pipeline):
        _, _, _, report = diag_pipeline
        assert report.c4.certified
        assert report.c4.W.shape == (0, 0)

    def test_scaled_column_pair(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        lpz = [a, a @ np.diag([1.0, 2.0])]
        slds = make_slds([np.zeros((3, 3)), np.zeros((3, 3))], lpz, [0.5, 0.3, 0.2])
        w = conditions.find_W(slds)
        assert w.certified
        lam = np.sort(w.lambda_[0, 1, :])
        assert np.allclose(lam, [0.5, 1.0], atol=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_certifies_engineered_families(self, seed):
        slds, lams = engineered_family(seed)
        w = conditions.find_W(slds)
        assert w.certified
        assert conditions.verify_W(slds, w.W).certified
        got = np.sort(w.lambda_[0, 1, :])
        want = np.sort(lams[0] / lams[1])
        assert np.allclose(got, want, atol=1e-8)

    def test_uncertified_when_ratio_not_real(self, pure_state):
        _, _, slds, report = pipeline(pure_state, np.array([0.6, 0.4]))
        assert not report.c4.certified
        assert report.c4.note == "candidate failed column verification"

    @pytest.mark.parametrize("r_plus, r_zero, p", [(1, 1, 2), (2, 2, 2), (3, 2, 3), (2, 3, 2),
                                                   (3, 3, 3)])
    def test_certifies_no_family_that_fails_condition3(self, r_plus, r_zero, p):
        # find_W has no gate of its own: the Hermitian parts of its ratio
        # operators go to the joint eigensolver whatever their defect, and
        # verify_W alone must reject every candidate where c3 fails
        rng = np.random.default_rng(700 + 10 * r_plus + r_zero + 100 * p)
        q = np.full(r_plus, 1.0 / r_plus)
        shape = (r_plus, r_zero)
        for _ in range(60):
            lpz = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(p)]
            slds = make_slds([np.zeros((r_plus, r_plus))] * p, lpz, q)
            assert not conditions.check_condition3(slds).passed
            assert not conditions.find_W(slds).certified

    def test_no_w_when_an_injective_block_sits_beside_a_singular_one(self):
        # Lpz = [B, 10 B G] with B injective and G Hermitian of rank
        # r_zero - 1: c3 holds, yet every certifying W would be G's
        # eigenbasis, whose kernel column vanishes under Lpz_2 only, and a
        # column with exactly one vanishing partner fails verify_W.  This
        # changes when ROADMAP item 2 settles the rule for such columns.
        # The injective block is the reference at either scaling, so the
        # note names the failed candidate, not an unresolved spectrum.
        rng = np.random.default_rng(41)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = random_unitary(rng, 3)
        g = u @ np.diag([0.7, -1.3, 0.0]) @ linalg.dag(u)
        for lpz in ([b, 10.0 * b @ g], [10.0 * b, b @ g]):
            slds = make_slds([np.zeros((3, 3))] * 2, lpz, [0.5, 0.3, 0.2])
            assert conditions.check_condition3(slds).passed
            c4 = conditions.find_W(slds)
            assert not c4.certified and c4.note == "candidate failed column verification"
            assert not conditions.verify_W(slds, u).certified


class TestVerifyW:
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_verify_optimality(self, seed):
        # E_00 Lpz_l^dag = w c_l^dag with c_l = Lpz_l w: the null-effect
        # identities of the constructed POVM are verify_W's column ratios
        slds, _ = engineered_family(seed)
        c4 = conditions.find_W(slds)
        checked = conditions.verify_W(slds, c4.W)
        built = optimal_povm((slds.dec.V * slds.dec.q) @ linalg.dag(slds.dec.V), slds)
        out = povm.verify_optimality(built, slds)
        assert checked.certified and out.passed
        assert len(out.null) == slds.dec.r_zero
        for s, check in enumerate(out.null):
            assert check.ok
            assert np.allclose(check.constants, c4.lambda_[:, :, s], rtol=0.0, atol=1e-9)

    def test_example2_explicit_w(self, ex2_pipeline):
        _, _, slds, _ = ex2_pipeline
        checked = conditions.verify_W(slds, np.array([[1.0]]))
        assert checked.certified
        assert np.isclose(checked.lambda_[0, 1, 0], 0.5, atol=1e-9)

    def test_global_column_phase_cancels(self, ex2_pipeline):
        _, _, slds, _ = ex2_pipeline
        checked = conditions.verify_W(slds, np.array([[1j]]))
        assert checked.certified
        assert np.isclose(checked.lambda_[0, 1, 0], 0.5, atol=1e-9)

    def test_imaginary_ratio_fails(self):
        # Lpz_2 w = i Lpz_1 w: verify_W rejects the column and
        # verify_optimality the null effect on it, each at residual 1
        v = np.array([[1.0], [2.0]], dtype=complex)
        slds = make_slds([np.zeros((2, 2))] * 2, [v, 1j * v], [0.5, 0.5])
        checked = conditions.verify_W(slds, np.array([[1.0]]))
        assert not checked.certified and abs(checked.residual - 1.0) <= 1e-15
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        basis, _ = povm.make_povm(basis_povm(3), rho, slds.dec)
        out = povm.verify_optimality(basis, slds)
        assert [c.ok for c in out.regular] == [True, True] and not out.passed
        [null] = out.null
        assert not null.ok and abs(null.residual - 1.0) <= 1e-15
        assert np.allclose(null.constants, np.eye(2), rtol=0.0, atol=1e-15)

    def test_single_vanishing_partner_fails(self):
        v = np.array([[1.0], [0.0]], dtype=complex)
        slds = make_slds([np.zeros((2, 2))] * 2, [v, np.zeros((2, 1))], [0.5, 0.5])
        assert not conditions.verify_W(slds, np.array([[1.0]])).certified

    def test_not_unitary_rejected(self, ex2_pipeline):
        _, _, slds, _ = ex2_pipeline
        with pytest.raises(NotUnitary):
            conditions.verify_W(slds, np.array([[2.0]]))

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_column_phases_and_permutation(self, seed):
        rng = np.random.default_rng(500 + seed)
        r_plus, r_zero, p = 3, 3, 2
        t = rng.standard_normal((r_plus, r_zero)) + 1j * rng.standard_normal((r_plus, r_zero))
        w0 = random_unitary(rng, r_zero)
        lams = rng.uniform(0.5, 2.0, size=(p, r_zero))
        lpz = [t @ np.diag(lams[l]) @ linalg.dag(w0) for l in range(p)]
        slds = make_slds([np.zeros((r_plus, r_plus))] * p, lpz, [0.5, 0.3, 0.2])
        base = conditions.verify_W(slds, w0)
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, r_zero)))
        perm = np.eye(r_zero)[:, rng.permutation(r_zero)]
        redressed = conditions.verify_W(slds, w0 @ phases @ perm)
        assert base.certified and redressed.certified
        for l in range(p):
            for m in range(p):
                assert np.allclose(
                    np.sort(base.lambda_[l, m, :]), np.sort(redressed.lambda_[l, m, :]),
                    atol=1e-9,
                )


def example2_closed_form_U(theta, d=0.6, c1=1.0, c2=2.0):
    """exp of the integrated connection V^dag dV = diag(0, i c_l |d|^2)."""
    return np.diag([1.0, cmath.exp(1j * abs(d) ** 2 * (c1 * theta[0] + c2 * theta[1]))])


class TestCondition2Verifier:
    def test_example2_closed_form_passes(self, example2):
        verdict = conditions.verify_condition2_U(
            example2, THETA_EX2, example2_closed_form_U
        )
        assert verdict.passed and verdict.residual <= 1e-5

    def test_fixed_range_frame_passes(self, fixed_range):
        anchor = np.array([0.5, 0.0])

        def u_eval(theta):
            return conditions.solve_U_fixed_range(fixed_range, theta, theta_ref=anchor)

        verdict = conditions.verify_condition2_U(fixed_range, THETA_FIXED, u_eval)
        assert verdict.passed and verdict.residual <= 1e-5

    def test_identity_solves_when_connection_is_diagonal(self, example2):
        # the connection V^dag d_l V = diag(0, i c_l |d|^2) of this family
        # is diagonal, so the PDE is solved by the diagonal phase frame
        # exp(integral of V^dag dV), not by the identity: for the constant
        # identity frame M_l = -diag(0, i c_l |d|^2), whose largest
        # Frobenius norm is c2 |d|^2 = 2 * 0.36
        closed = conditions.verify_condition2_U(
            example2, THETA_EX2, example2_closed_form_U
        )
        assert closed.passed
        assert closed.residual <= 1e-9
        identity = conditions.verify_condition2_U(
            example2, THETA_EX2, lambda theta: np.eye(2)
        )
        assert not identity.passed
        assert identity.residual == pytest.approx(0.72, abs=1e-9)

    def test_constant_left_factor_passes(self, example2):
        # the PDE is invariant under U -> C U for a constant unitary C,
        # also when C mixes the two weights
        c = random_unitary(np.random.default_rng(5), 2)
        assert linalg.fro(c - np.diag(np.diag(c))) > 0.1

        verdict = conditions.verify_condition2_U(
            example2, THETA_EX2, lambda theta: c @ example2_closed_form_U(theta)
        )
        assert verdict.passed and verdict.residual <= 1e-9

    def test_identity_rejected_at_small_weight(self, example2):
        # a kept weight of 1e-6 (above tol.rank) must not shrink the residual
        theta = np.array([1.0 - 1e-6, 0.5])
        closed = conditions.verify_condition2_U(example2, theta, example2_closed_form_U)
        assert closed.passed
        identity = conditions.verify_condition2_U(
            example2, theta, lambda theta: np.eye(2)
        )
        assert not identity.passed
        assert identity.residual == pytest.approx(0.72, abs=1e-9)

    def test_detects_genuinely_wrong_frame(self, example2):
        # a theta-dependent rotation mixing the two weights breaks the PDE
        def u_eval(theta):
            angle = theta[0]
            return np.array(
                [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
                dtype=complex,
            )

        verdict = conditions.verify_condition2_U(example2, THETA_EX2, u_eval)
        assert not verdict.passed
        assert verdict.residual >= 1e-2

    def test_not_unitary_rejected(self, example2):
        with pytest.raises(NotUnitary):
            conditions.verify_condition2_U(
                example2, THETA_EX2, lambda theta: np.diag([1.0, 2.0])
            )

    def test_requires_factorization(self, qubit_xy):
        with pytest.raises(NoFactorization):
            conditions.verify_condition2_U(
                qubit_xy, np.array([0.3, 0.2]), lambda theta: np.eye(2)
            )


class TestSolveUFixedRange:
    def test_fixed_range_recovers_phase(self, fixed_range):
        anchor = np.array([0.5, 0.2])
        u = conditions.solve_U_fixed_range(fixed_range, THETA_FIXED, theta_ref=anchor)
        expected = np.diag([1.0, cmath.exp(1j * (THETA_FIXED[1] - anchor[1]))])
        assert np.allclose(u, expected, atol=1e-10)

    def test_example2_not_applicable(self, example2):
        assert conditions.solve_U_fixed_range(example2, THETA_EX2) is None

    def test_pure_state_not_applicable(self, pure_state):
        assert conditions.solve_U_fixed_range(pure_state, np.array([0.6, 0.4])) is None

    def test_requires_factorization(self, qubit_xy):
        with pytest.raises(NoFactorization):
            conditions.solve_U_fixed_range(qubit_xy, np.array([0.3, 0.2]))


class TestClassification:
    def test_example2_saturable(self, ex2_pipeline):
        _, _, _, report = ex2_pipeline
        assert report.classification == conditions.SATURABLE_PROJECTIVE

    def test_qubit_necessary_failed(self, qubit_xy):
        _, _, _, report = pipeline(qubit_xy, np.array([0.3, 0.2]))
        assert report.classification == conditions.NECESSARY_FAILED

    def test_pure_state_necessary_failed(self, pure_state):
        _, _, _, report = pipeline(pure_state, np.array([0.6, 0.4]))
        assert report.classification == conditions.NECESSARY_FAILED

    def test_undetermined_gap(self):
        # condition 1 and 3 pass but the finder cannot certify a W
        rng = np.random.default_rng(77)
        col = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lpz1 = col
        lpz2 = col @ np.diag([1.0, 1.0 + 2.0j])  # ratio not real on one column
        lpp = [np.zeros((2, 2))] * 2
        slds = make_slds(lpp, [lpz1, lpz2], [0.5, 0.5])
        c3 = conditions.check_condition3(slds)
        report, _ = conditions.evaluate_conditions(slds)
        if c3.passed:
            assert report.classification == conditions.UNDETERMINED
        else:
            assert report.classification == conditions.NECESSARY_FAILED

    def test_verdicts_invariant_to_gauge(self, ex2_pipeline):
        bundle, dec, slds, base = ex2_pipeline
        rng = np.random.default_rng(4)
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dec.r_plus)))
        y_mix = random_unitary(rng, dec.r_zero)
        regauged = dec._replace(V=dec.V @ phases, Y=dec.Y @ y_mix)
        slds2 = sld.compute_slds(bundle, regauged)
        rep3, _ = conditions.evaluate_conditions(slds2)
        assert rep3.classification == base.classification
        assert np.isclose(rep3.c1.residual, base.c1.residual, atol=1e-12)
        assert np.isclose(rep3.c3.residual, base.c3.residual, atol=1e-12)
        assert np.isclose(rep3.c4.lambda_[0, 1, 0], base.c4.lambda_[0, 1, 0], atol=1e-9)

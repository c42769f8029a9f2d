import numpy as np
import pytest

from qcrb import blocks, linalg, model, sld
from qcrb.errors import NoFactorization, RankDrift

from conftest import THETA_DIAG, THETA_EX2, THETA_PURE, WORKING_POINTS, pipeline
from util import (aligned_offdiag, block_of, decompose_rho, embed_parts, embed_sld,
                  random_hermitian, random_unitary, rank2_path_model, sylvester_sld)


def _factorization_frames(mdl, theta):
    v, y, q = mdl.factorization(np.asarray(theta, dtype=float))
    return v, y, q


class TestComputeSlds:
    def test_classical_diag_entrywise(self, diag_pipeline, classical_diag):
        bundle, dec, slds, _ = diag_pipeline
        t1, t2 = THETA_DIAG
        expected = np.diag([1.0 / t1, 0.0, -1.0 / (1.0 - t1 - t2)])
        embedded = embed_sld(slds, 0)
        assert np.allclose(embedded, expected, atol=1e-9)

    def test_example2_range_block_hand_values(self, ex2_pipeline, example2):
        _, dec, slds, _ = ex2_pipeline
        v_f, y_f, _ = _factorization_frames(example2, THETA_EX2)
        t = linalg.dag(dec.V) @ v_f  # range frame change: O_pp -> T^dag O_pp T
        lpp_fact = linalg.dag(t) @ slds.Lpp[0] @ t
        assert np.allclose(lpp_fact, np.diag([4.0, -4.0 / 3.0]), atol=1e-9)
        assert linalg.fro(slds.Lpp[1]) <= 1e-9

    def test_example2_offdiag_hand_values(self, ex2_pipeline, example2):
        _, dec, slds, _ = ex2_pipeline
        v_f, y_f, _ = _factorization_frames(example2, THETA_EX2)
        phi = 1.25
        expected = [
            np.array([[0.0], [-0.96j * c * np.exp(-1j * phi)]]) for c in (1.0, 2.0)
        ]
        aligned = aligned_offdiag(slds, v_f, y_f)
        for got, want in zip(aligned, expected):
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_block_equations_hold(self, ex2_pipeline):
        bundle, dec, slds, _ = ex2_pipeline
        q = np.diag(dec.q).astype(complex)
        for l, drho in enumerate(bundle.drho):
            bv = block_of(drho, dec)
            res_pp = linalg.fro(0.5 * (slds.Lpp[l] @ q + q @ slds.Lpp[l]) - bv.opp)
            res_pz = linalg.fro(0.5 * q @ slds.Lpz[l] - bv.opz)
            gate = 1e-9 * (1.0 + linalg.fro(drho))
            assert res_pp <= gate and res_pz <= gate

    def test_rank_drift_detected(self, ex2_pipeline):
        bundle, dec, _, _ = ex2_pipeline
        bad = embed_parts(dec, ozz=np.array([[1.0]]))
        poisoned = bundle._replace(drho=(bundle.drho[0] + bad, bundle.drho[1]))
        with pytest.raises(RankDrift):
            sld.compute_slds(poisoned, dec)


class TestOffdiagFromFactorization:
    def test_fixed_range_vanishes(self, fixed_range):
        out = sld.sld_offdiag_from_factorization(fixed_range, [0.3, 0.7])
        assert all(linalg.fro(x) == 0.0 for x in out)

    @pytest.mark.parametrize("name", ["example2", "pure_state"])
    def test_two_paths_agree(self, name):
        mdl = model.build_model(name)
        theta = WORKING_POINTS[name]
        _, dec, slds, _ = pipeline(mdl, theta)
        v_f, y_f, _ = _factorization_frames(mdl, theta)
        aligned = aligned_offdiag(slds, v_f, y_f)
        route15 = sld.sld_offdiag_from_factorization(mdl, theta)
        for a, b in zip(aligned, route15):
            assert np.max(np.abs(a - b)) <= 1e-8

    def test_requires_factorization(self, qubit_xy):
        with pytest.raises(NoFactorization):
            sld.sld_offdiag_from_factorization(qubit_xy, [0.3, 0.2])


class TestRandomFamilies:
    @pytest.mark.parametrize("seed", range(10))
    def test_dense_solve_oracle(self, seed):
        mdl = rank2_path_model(seed)
        theta = np.array([0.1, -0.2])
        bundle = model.eval_bundle(mdl, theta)
        dec = blocks.decompose(bundle.spectrum)
        slds = sld.compute_slds(bundle, dec)
        for l in range(2):
            ours = embed_sld(slds, l)
            oracle = sylvester_sld(bundle.rho, bundle.drho[l])
            assert np.max(np.abs(ours - oracle)) <= 1e-8

    @pytest.mark.parametrize("n_s", range(2, 9))
    def test_random_states_match_the_dense_oracle(self, n_s):
        # rho = U diag(q, 0) U^dag with every rank r_plus <= n_s and weights
        # of at least 0.05 before normalising; each derivative has a zero 00
        # block and a traceless ++ block, so it is tangent to the rank
        worst_sld = worst_fim = 0.0
        for seed in range(40):
            rng = np.random.default_rng([n_s, seed])
            r_plus, p = int(rng.integers(1, n_s + 1)), int(rng.integers(1, 4))
            u = random_unitary(rng, n_s)
            q = np.zeros(n_s)
            q[:r_plus] = rng.uniform(0.05, 1.0, r_plus)
            rho = (u * (q / q.sum())) @ u.conj().T
            drho = []
            for _ in range(p):
                d = random_hermitian(rng, n_s)
                d[r_plus:, r_plus:] = 0.0
                d[:r_plus, :r_plus] -= np.trace(d[:r_plus, :r_plus]).real / r_plus * np.eye(r_plus)
                drho.append(u @ d @ u.conj().T)
            bundle = model.StateBundle(theta=np.zeros(p), rho=rho, drho=tuple(drho))
            slds = sld.compute_slds(bundle, decompose_rho(rho))
            oracle = [sylvester_sld(rho, d) for d in drho]
            for l in range(p):
                dev = np.max(np.abs(embed_sld(slds, l) - oracle[l]))
                worst_sld = max(worst_sld, dev / np.max(np.abs(oracle[l])))
            f_oracle = np.array([[0.5 * np.real(np.trace(rho @ (a @ b + b @ a))) for b in oracle]
                                 for a in oracle])
            dev = np.max(np.abs(sld.qfim(slds).F - f_oracle))
            worst_fim = max(worst_fim, dev / np.max(np.abs(f_oracle)))
        assert worst_sld <= 1e-11 and worst_fim <= 1e-11

    @pytest.mark.parametrize("seed", range(10))
    def test_two_paths_agree_on_random_families(self, seed):
        mdl = rank2_path_model(100 + seed)
        theta = np.array([0.05, 0.15])
        bundle = model.eval_bundle(mdl, theta)
        dec = blocks.decompose(bundle.spectrum)
        slds = sld.compute_slds(bundle, dec)
        v_f, y_f, _ = mdl.factorization(theta)
        aligned = aligned_offdiag(slds, v_f, y_f)
        route15 = sld.sld_offdiag_from_factorization(mdl, theta)
        for a, b in zip(aligned, route15):
            assert np.max(np.abs(a - b)) <= 1e-8


class TestQfim:
    def test_classical_diag_multinomial(self, diag_pipeline):
        _, _, slds, _ = diag_pipeline
        t1, t2 = THETA_DIAG
        t3 = 1.0 - t1 - t2
        expected = np.array(
            [[1.0 / t1 + 1.0 / t3, 1.0 / t3], [1.0 / t3, 1.0 / t2 + 1.0 / t3]]
        )
        fim = sld.qfim(slds)
        assert np.allclose(fim.F, expected, atol=1e-9)
        assert np.max(np.abs(fim.F_null)) == 0.0

    def test_example2_split_hand_values(self, ex2_pipeline):
        _, _, slds, _ = ex2_pipeline
        fim = sld.qfim(slds)
        assert np.allclose(fim.F_reg, [[16.0 / 3.0, 0.0], [0.0, 0.0]], atol=1e-9)
        assert np.allclose(fim.F_null, 0.6912 * np.array([[1.0, 2.0], [2.0, 4.0]]), atol=1e-9)
        assert np.allclose(fim.F, fim.F_reg + fim.F_null, atol=1e-12)

    def test_pure_state_projective_formula(self, pure_state):
        # oracle: F = 4 Re(<d_l psi|d_m psi> - <d_l psi|psi><psi|d_m psi>)
        theta = THETA_PURE
        _, _, slds, _ = pipeline(pure_state, theta)
        fim = sld.qfim(slds)
        psi = np.array([np.cos(theta[0]), np.exp(1j * theta[1]) * np.sin(theta[0])])
        dpsi = [
            np.array([-np.sin(theta[0]), np.exp(1j * theta[1]) * np.cos(theta[0])]),
            np.array([0.0, 1j * np.exp(1j * theta[1]) * np.sin(theta[0])]),
        ]
        expected = np.zeros((2, 2))
        for l in range(2):
            for m in range(2):
                expected[l, m] = 4.0 * np.real(
                    np.vdot(dpsi[l], dpsi[m]) - np.vdot(dpsi[l], psi) * np.vdot(psi, dpsi[m])
                )
        assert np.allclose(fim.F, expected, atol=1e-9)

    @pytest.mark.parametrize("name", sorted(WORKING_POINTS))
    def test_cross_check_against_embedded_trace(self, name):
        mdl = model.build_model(name)
        bundle, dec, slds, _ = pipeline(mdl, WORKING_POINTS[name])
        fim = sld.qfim(slds)
        p = slds.p
        full = [embed_sld(slds, l) for l in range(p)]
        check = np.zeros((p, p))
        for l in range(p):
            for m in range(p):
                check[l, m] = float(np.real(np.trace(bundle.rho @ full[l] @ full[m])))
        assert np.max(np.abs(fim.F - check)) <= 1e-9 * (1.0 + np.max(np.abs(fim.F)))

    @pytest.mark.parametrize("name", sorted(WORKING_POINTS))
    def test_psd_and_symmetric(self, name):
        mdl = model.build_model(name)
        _, _, slds, _ = pipeline(mdl, WORKING_POINTS[name])
        fim = sld.qfim(slds)
        for mat in (fim.F, fim.F_reg, fim.F_null):
            assert np.allclose(mat, mat.T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(mat)) >= -1e-9

    def test_unit_rescaling_scales_rows(self, example2):
        # reparameterize theta2 -> a * theta2: row/column 2 of F shrinks by 1/a
        a = 2.5
        base = model.eval_bundle(example2, THETA_EX2)
        dec = blocks.decompose(base.spectrum)
        f_base = sld.qfim(sld.compute_slds(base, dec)).F

        scaled = example2._replace(
            box=(example2.box[0], (0.0, a)),
            eval_rho=lambda th: example2.eval_rho(np.array([th[0], th[1] / a])),
            deriv=lambda th, l: example2.deriv(np.array([th[0], th[1] / a]), l)
            / (a if l == 1 else 1.0),
            factorization=None,
        )
        theta_scaled = np.array([THETA_EX2[0], a * THETA_EX2[1]])
        bundle = model.eval_bundle(scaled, theta_scaled)
        dec_s = blocks.decompose(bundle.spectrum)
        f_scaled = sld.qfim(sld.compute_slds(bundle, dec_s)).F
        expected = f_base.copy()
        expected[1, :] /= a
        expected[:, 1] /= a
        assert np.allclose(f_scaled, expected, atol=1e-8)

"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line so the whole gate can be audited from the test log."""

import cmath

import numpy as np
from qcrb import blocks, conditions, estimate, linalg, model, povm, sld
from qcrb.estimate import SimConfig

from conftest import THETA_DIAG, THETA_EX2, THETA_FIXED, THETA_QUBIT, pipeline
from util import (aligned_offdiag, block_of, effects, embed_sld, optimal_povm, pauli,
                  random_unitary, rank2_path_model, sylvester_sld)

F_REG_HAND = np.array([[16.0 / 3.0, 0.0], [0.0, 0.0]])
F_NULL_HAND = 0.6912 * np.array([[1.0, 2.0], [2.0, 4.0]])


def check(tag: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {tag}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {tag}: {detail}"


class TestCriterion1ExamplePipeline:
    def test_full_pipeline(self, example2):
        bundle, dec, slds, report = pipeline(example2, THETA_EX2)
        check("1 rank split", (dec.r_plus, dec.r_zero) == (2, 1))
        check("1 condition 1", report.c1.passed and report.c1.residual <= 1e-8,
              f"residual {report.c1.residual:.2e}")
        check("1 condition 4", report.c4.certified and report.c4.residual <= 1e-8,
              f"residual {report.c4.residual:.2e}")
        check("1 classification", report.classification == "SaturableProjective")

        # independent oracle first: F from finite-difference derivatives and
        # the full-matrix trace Re tr(rho L_l L_m)
        fd_bundle = model.eval_bundle(example2._replace(deriv=None), THETA_EX2)
        fd_dec = blocks.decompose(fd_bundle.spectrum)
        fd_slds = sld.compute_slds(fd_bundle, fd_dec)
        full = [embed_sld(fd_slds, l) for l in range(2)]
        oracle = np.array(
            [
                [float(np.real(np.trace(fd_bundle.rho @ full[l] @ full[m]))) for m in range(2)]
                for l in range(2)
            ]
        )
        check("1 FD oracle", np.max(np.abs(oracle - (F_REG_HAND + F_NULL_HAND))) <= 1e-6,
              f"max dev {np.max(np.abs(oracle - (F_REG_HAND + F_NULL_HAND))):.2e}")

        fim = sld.qfim(slds)
        check("1 F_reg", np.max(np.abs(fim.F_reg - F_REG_HAND)) <= 1e-7,
              f"max dev {np.max(np.abs(fim.F_reg - F_REG_HAND)):.2e}")
        check("1 F_null", np.max(np.abs(fim.F_null - F_NULL_HAND)) <= 1e-7,
              f"max dev {np.max(np.abs(fim.F_null - F_NULL_HAND)):.2e}")

        built = optimal_povm(bundle.rho, slds)
        check("1 POVM built", len(built.ranks) == 3 and built.projective)
        optimality = povm.verify_optimality(built, slds, dec)
        saturation = povm.saturation_check(built, slds, bundle)
        check("1 optimality", optimality.passed)
        check("1 saturation", saturation.passed,
              f"res_reg {saturation.res_regular:.2e} res_null {saturation.res_null:.2e}")


class TestCriterion2Condition2Verifier:
    def test_closed_form_passes(self, example2):
        d, c1, c2 = 0.6, 1.0, 2.0

        def u_closed(theta):
            return np.diag([1.0, cmath.exp(1j * abs(d) ** 2 * (c1 * theta[0] + c2 * theta[1]))])

        verdict = conditions.verify_condition2_U(example2, THETA_EX2, u_closed)
        check("2 closed-form U passes", verdict.passed and verdict.residual <= 1e-5,
              f"residual {verdict.residual:.2e}")

    def test_identity_candidate_rejected(self, example2):
        verdict = conditions.verify_condition2_U(
            example2, THETA_EX2, lambda theta: np.eye(2)
        )
        check("2 identity U fails", verdict.residual >= 1e-2,
              f"residual {verdict.residual:.2e}")


class TestCriterion3FixedRangeSpecialCase:
    def test_fixed_range(self, fixed_range):
        offdiag = sld.sld_offdiag_from_factorization(fixed_range, THETA_FIXED)
        check("3 off-diagonal blocks vanish", all(linalg.fro(x) <= 1e-10 for x in offdiag))
        anchor = np.array([0.5, 0.0])
        u_theta = conditions.solve_U_fixed_range(fixed_range, THETA_FIXED, theta_ref=anchor)
        check("3 frame solution returned", u_theta is not None)

        def u_eval(theta):
            return conditions.solve_U_fixed_range(fixed_range, theta, theta_ref=anchor)

        verdict = conditions.verify_condition2_U(fixed_range, THETA_FIXED, u_eval)
        check("3 frame passes verifier", verdict.passed and verdict.residual <= 1e-5,
              f"residual {verdict.residual:.2e}")


class TestCriterion4NegativeControls:
    def test_qubit_classification(self, qubit_xy):
        _, _, _, report = pipeline(qubit_xy, THETA_QUBIT)
        check("4 qubit classification", report.classification == "NecessaryFailed")

    def test_every_pauli_basis_fails_saturation(self, qubit_xy):
        bundle, dec, slds, _ = pipeline(qubit_xy, THETA_QUBIT)
        for axis in "xyz":
            basis = np.linalg.eigh(pauli(axis))[1]
            effects = [np.outer(basis[:, j], basis[:, j].conj()) for j in range(2)]
            pv, _ = povm.make_povm(effects, bundle.rho, dec)
            out = povm.saturation_check(pv, slds, bundle)
            check(f"4 sigma_{axis} basis fails", not out.passed,
                  f"res_reg {out.res_regular:.2e}")

    def test_synthetic_condition3_violator(self):
        from test_conditions import make_slds

        lpz1 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        lpz2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        slds = make_slds([np.zeros((2, 2)), np.zeros((2, 2))], [lpz1, lpz2], [0.5, 0.5])
        verdict = conditions.check_condition3(slds)
        check("4 synthetic c3 violator", (not verdict.passed) and verdict.residual >= 0.1,
              f"residual {verdict.residual:.3f}")


class TestCriterion5OracleEquivalence:
    def test_fifty_random_rank2_families(self):
        worst_solve = 0.0
        worst_paths = 0.0
        theta = np.array([0.08, -0.12])
        for seed in range(50):
            mdl = rank2_path_model(seed)
            bundle = model.eval_bundle(mdl, theta)
            dec = blocks.decompose(bundle.spectrum)
            slds = sld.compute_slds(bundle, dec)
            for l in range(2):
                ours = embed_sld(slds, l)
                oracle = sylvester_sld(bundle.rho, bundle.drho[l])
                worst_solve = max(worst_solve, float(np.max(np.abs(ours - oracle))))
            v_f, y_f, _ = mdl.factorization(theta)
            aligned = aligned_offdiag(slds, v_f, y_f)
            route15 = sld.sld_offdiag_from_factorization(mdl, theta)
            for a, b in zip(aligned, route15):
                worst_paths = max(worst_paths, float(np.max(np.abs(a - b))))
        check("5 dense-solve oracle", worst_solve <= 1e-8, f"worst {worst_solve:.2e}")
        check("5 two-path agreement", worst_paths <= 1e-8, f"worst {worst_paths:.2e}")


class TestCriterion6InvarianceSuite:
    def _verdict_tuple(self, slds, bundle, dec, base_povm):
        report, _ = conditions.evaluate_conditions(slds)
        sat = povm.saturation_check(base_povm, slds, bundle)
        opt = povm.verify_optimality(base_povm, slds, dec)
        return (
            report.c1.passed,
            report.c3.passed,
            report.c4.certified,
            report.classification,
            sat.passed,
            opt.passed,
        )

    def test_invariances(self, example2):
        bundle, dec, slds, report = pipeline(example2, THETA_EX2)
        built = optimal_povm(bundle.rho, slds)
        base = self._verdict_tuple(slds, bundle, dec, built)

        rng = np.random.default_rng(606)
        ok_gauge = ok_perm = True
        for _ in range(20):
            phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dec.r_plus)))
            y_mix = random_unitary(rng, dec.r_zero)
            regauged = dec._replace(V=dec.V @ phases, Y=dec.Y @ y_mix)
            slds2 = sld.compute_slds(bundle, regauged)
            ok_gauge &= self._verdict_tuple(slds2, bundle, regauged, built) == base

            perm = rng.permutation(len(built.ranks))
            shuffled, _ = povm.make_povm([effects(built)[i] for i in perm], bundle.rho, dec)
            ok_perm &= self._verdict_tuple(slds, bundle, dec, shuffled) == base

        check("6b decomposition re-gauge", ok_gauge)
        check("6c effect permutation", ok_perm)


class TestCriterion7CanonicalStructure:
    def test_block_diagonal_and_canonicalize(self):
        cases = []
        for name, theta in (
            ("example2", THETA_EX2),
            ("fixed_range", THETA_FIXED),
            ("classical_diag", THETA_DIAG),
        ):
            mdl = model.build_model(name)
            bundle, dec, slds, report = pipeline(mdl, theta)
            built = optimal_povm(bundle.rho, slds)
            cases.append((name, bundle, dec, slds, built))
        # add a non-canonical optimal POVM: regular effects padded with
        # null-space mass (possible when the off-diagonal blocks vanish)
        mdl = model.build_model("fixed_range")
        bundle, dec, slds, report = pipeline(mdl, THETA_FIXED)
        built = optimal_povm(bundle.rho, slds)
        p_zero = dec.Y @ linalg.dag(dec.Y)
        padded = [effects(built)[k] + 0.5 * p_zero for k in built.regular_indices]
        pv, _ = povm.make_povm(padded, bundle.rho, dec)
        cases.append(("fixed_range padded", bundle, dec, slds, pv))

        all_blockdiag = True
        all_stable = True
        all_null_sums = True
        for name, bundle, dec, slds, pv in cases:
            out = povm.verify_optimality(pv, slds, dec)
            if not out.passed:
                continue
            all_blockdiag &= all(x <= 1e-8 for x in out.block_offdiag)
            canon = povm.canonicalize(pv, dec, slds)
            out_c = povm.verify_optimality(canon, slds, dec)
            sat_before = povm.saturation_check(pv, slds, bundle).passed
            sat_after = povm.saturation_check(canon, slds, bundle).passed
            all_stable &= out_c.passed == out.passed and sat_after == sat_before
            null_sum = sum(
                (block_of(effects(canon)[k], dec).ozz for k in canon.null_indices),
                np.zeros((dec.r_zero, dec.r_zero), dtype=complex),
            )
            all_null_sums &= linalg.fro(null_sum - np.eye(dec.r_zero)) <= 1e-8
        check("7 regular effects block-diagonal", all_blockdiag)
        check("7 canonicalize preserves verdicts", all_stable)
        check("7 null effects resolve the null space", all_null_sums)


class TestCriterion8MonteCarlo:
    def test_classical_diag_covariance(self, classical_diag):
        bundle, dec, slds, report = pipeline(classical_diag, THETA_DIAG)
        built = optimal_povm(bundle.rho, slds)
        result = estimate.run_trials(
            classical_diag, built, THETA_DIAG, SimConfig(seed=123, N=1000, R=2000)
        )
        check("8 classical_diag covariance", result.rel_err <= 0.1,
              f"rel_err {result.rel_err:.3f}")

    def test_example2_displaced_covariance(self, example2):
        bundle, dec, slds, report = pipeline(example2, THETA_EX2)
        built = optimal_povm(bundle.rho, slds)
        result = estimate.run_trials(
            example2, built, THETA_EX2,
            SimConfig(seed=123, N=1000, R=2000, delta=(0.0, 0.05)),
        )
        check("8 example2 displaced covariance", result.rel_err <= 0.1,
              f"rel_err {result.rel_err:.3f}")

    def test_convergence_study_and_plateau(self, example2):
        bundle, dec, slds, report = pipeline(example2, THETA_EX2)
        built = optimal_povm(bundle.rho, slds)
        fim = sld.qfim(slds)
        deltas = [t * np.array([1.0, 1.0]) / np.sqrt(2.0) for t in (1e-1, 1e-2, 1e-3)]
        rows = estimate.fc_convergence_study(example2, built, THETA_EX2, deltas, fim.F)
        devs = [r["max_abs_dev"] for r in rows]
        check("8 study decreasing", devs[0] > devs[1] > devs[2],
              "devs " + ", ".join(f"{d:.3e}" for d in devs))
        check("8 study floor", devs[2] <= 1e-2 * np.max(np.abs(fim.F)),
              f"final {devs[2]:.3e} bound {1e-2 * np.max(np.abs(fim.F)):.3e}")

        eff = effects(built)
        folded = [eff[built.regular_indices[0]] + eff[built.null_indices[0]],
                  eff[built.regular_indices[1]]]
        pv, _ = povm.make_povm(folded, bundle.rho, dec)
        rows_bad = estimate.fc_convergence_study(example2, pv, THETA_EX2, deltas, fim.F)
        floor = 0.5 * np.max(np.abs(fim.F_null))
        check("8 null-removed plateau", all(r["max_abs_dev"] >= floor for r in rows_bad),
              f"min dev {min(r['max_abs_dev'] for r in rows_bad):.3f} floor {floor:.3f}")

import numpy as np
import pytest

from qcrb import blocks, conditions, linalg, model, povm, sld
from qcrb.config import DEFAULT
from qcrb.errors import DegeneracyUnresolved, InvalidPovm, NotBlockDiagonal, ParseError

from conftest import THETA_EX2, THETA_QUBIT, WORKING_POINTS, pipeline
from util import (basis_povm, block_of, dense_saturable_config, effects, optimal_povm, pauli,
                  planted_groups, random_projective_povm, random_unitary, rotate_groups)

SATURABLE = ["example2", "fixed_range", "classical_diag"]


def construct_for(name):
    mdl = model.build_model(name)
    bundle, dec, slds, report = pipeline(mdl, WORKING_POINTS[name])
    built = optimal_povm(bundle.rho, slds)
    return mdl, bundle, dec, slds, report, built


class TestConstructOptimal:
    def test_example2_effects(self, ex2_pipeline, example2):
        bundle, dec, slds, report = ex2_pipeline
        built = optimal_povm(bundle.rho, slds)
        assert built.labels == ("regular", "regular", "null")
        assert built.projective
        v, y, _ = example2.factorization(THETA_EX2)
        psi1, psi2 = v[:, 0], v[:, 1]
        targets = [np.outer(c, c.conj()) for c in (psi1, psi2, y[:, 0])]
        for target in targets:
            assert any(np.max(np.abs(e - target)) <= 1e-9 for e in effects(built))

    def test_classical_diag_pure_regular(self, diag_pipeline):
        bundle, _, slds, report = diag_pipeline
        built = optimal_povm(bundle.rho, slds)
        assert built.labels == ("regular",) * 3
        assert built.projective

    def test_degenerate_blocks_give_single_range_cluster(self, ex2_pipeline):
        bundle, dec, slds, report = ex2_pipeline
        zeroed = slds._replace(Lpp=tuple(np.zeros_like(m) for m in slds.Lpp))
        built = optimal_povm(bundle.rho, zeroed)
        regular = [effects(built)[k] for k in built.regular_indices]
        assert len(regular) == 1
        assert np.allclose(regular[0], dec.V @ linalg.dag(dec.V), atol=1e-10)

    def test_completeness_and_projectivity(self):
        for name in SATURABLE:
            *_, built = construct_for(name)
            total = sum(effects(built))
            assert np.allclose(total, np.eye(total.shape[0]), atol=1e-10)
            for e in effects(built):
                assert linalg.fro(e @ e - e) <= 1e-8

    def test_condition1_gate(self, qubit_xy):
        # condition 1 is the classification's to decide, and the ++ blocks
        # are grouped only past it: non-commuting blocks leave no frame
        _, _, slds, report = pipeline(qubit_xy, THETA_QUBIT)
        joint = conditions.evaluate_conditions(slds)[1]
        assert report.classification == conditions.NECESSARY_FAILED
        assert joint == conditions.JointFrame(None)
        with pytest.raises(DegeneracyUnresolved):
            linalg.simultaneous_diagonalize(slds.Lpp, DEFAULT.cond)

    def test_uncertified_w_gate(self, ex2_pipeline):
        # a W that fails column verification leaves no frame to construct
        _, _, slds, _ = ex2_pipeline
        tilted = slds._replace(Lpz=(slds.Lpz[0], 1j * slds.Lpz[1]))
        report, joint = conditions.evaluate_conditions(tilted)
        assert report.c1.passed and not report.c4.certified
        assert report.classification != conditions.SATURABLE_PROJECTIVE
        assert joint.U is None and joint.note == ""


def _config_bundle(monkeypatch, name):
    config = dense_saturable_config(monkeypatch) if name == "dense_saturable" else planted_groups()
    mdl = model.model_from_config(config)
    return model.eval_bundle(mdl, mdl.default_theta)


def _written_bases(bundle, spectrum):
    """Y, c4.W and the constructed frame, from one spectrum of rho."""
    dec = blocks.decompose(spectrum)
    report, joint = conditions.evaluate_conditions(sld.compute_slds(bundle, dec))
    assert report.classification == conditions.SATURABLE_PROJECTIVE
    return dec.Y, report.c4.W, povm.construct_optimal(dec, report.c4.W, joint).matrix


@pytest.mark.parametrize("name", ["dense_saturable", "planted"])
def test_rotating_the_null_eigenvectors_moves_no_written_basis(monkeypatch, name):
    # Y, and so the coordinates of W, are gauged by the null projector alone
    bundle = _config_bundle(monkeypatch, name)
    null = bundle.spectrum.values < DEFAULT.rank
    assert null.sum() > 1
    vectors = bundle.spectrum.vectors.copy()
    vectors[:, null] = rotate_groups(vectors[:, null], (null.sum(),), np.random.default_rng(6))
    before = _written_bases(bundle, bundle.spectrum)
    after = _written_bases(bundle, bundle.spectrum._replace(vectors=vectors))
    for old, new in zip(before, after):
        assert np.max(np.abs(new - old)) <= 1e-12


@pytest.mark.parametrize("name", ["dense_saturable", "planted"])
def test_rotating_each_joint_group_leaves_the_constructed_frame(monkeypatch, name):
    bundle = _config_bundle(monkeypatch, name)
    dec = blocks.decompose(bundle.spectrum)
    report, joint = conditions.evaluate_conditions(sld.compute_slds(bundle, dec))
    assert max(joint.ranks) > 1
    rotated = joint._replace(U=rotate_groups(joint.U, joint.ranks, np.random.default_rng(7)))
    frame = povm.construct_optimal(dec, report.c4.W, joint).matrix
    again = povm.construct_optimal(dec, report.c4.W, rotated).matrix
    assert np.max(np.abs(again - frame)) <= 1e-12


def _classify(mats, rho, dec):
    factors, _ = povm.validate_effects(mats, rho.shape[0])
    return povm.classify(np.hstack(factors), [f.shape[1] for f in factors], rho, dec)


class TestClassify:
    def test_constructed_labels(self, ex2_pipeline):
        bundle, dec, slds, _ = ex2_pipeline
        report, joint = conditions.evaluate_conditions(slds)
        frame = povm.construct_optimal(dec, report.c4.W, joint)
        labels, flags = povm.classify(frame.matrix, frame.ranks, bundle.rho, dec)
        assert labels == ["regular", "regular", "null"]
        assert flags == []

    def test_identity_partition(self, ex2_pipeline):
        bundle, dec, _, _ = ex2_pipeline
        labels, flags = _classify([np.eye(3)], bundle.rho, dec)
        assert labels == ["regular"] and flags == []

    def test_null_projector_consistent(self, ex2_pipeline):
        bundle, dec, _, _ = ex2_pipeline
        labels, flags = _classify(
            [dec.V @ linalg.dag(dec.V), dec.Y @ linalg.dag(dec.Y)], bundle.rho, dec
        )
        assert labels == ["regular", "null"]
        assert flags == []

    def test_inconsistent_null_flagged(self, fixed_pipeline):
        bundle, dec, _, _ = fixed_pipeline
        # rank-one effect straddling range and null space with zero
        # probability mass: theta1-weighted component vanishes nowhere,
        # so build it from the zero-weight direction instead
        v = np.zeros(3, dtype=complex)
        v[2] = 1.0
        mix = (dec.V[:, 0] + dec.Y[:, 0]) / np.sqrt(2.0)
        effect = np.outer(mix, mix.conj())
        prob = float(np.real(np.trace(bundle.rho @ effect)))
        labels, flags = _classify([effect, np.eye(3) - effect], bundle.rho, dec)
        assert prob > 0  # touches the range, so it's regular; no flag
        assert labels[0] == "regular"
        assert flags == []

    def test_validation_rejects_incomplete(self, ex2_pipeline):
        bundle, dec, _, _ = ex2_pipeline
        with pytest.raises(InvalidPovm):
            povm.make_povm([np.eye(3) * 0.5], bundle.rho, dec)

    def test_non_projective_povm_is_reported(self, ex2_pipeline):
        bundle, dec, _, _ = ex2_pipeline
        half, _ = povm.make_povm([0.5 * np.eye(3), 0.5 * np.eye(3)], bundle.rho, dec)
        assert half.projective is False
        basis, _ = povm.make_povm(basis_povm(3), bundle.rho, dec)
        assert basis.projective is True

    def test_overlapping_projectors_fail_completeness(self, ex2_pipeline):
        # rank-one projectors with overlap 1e-4 miss I by sqrt(2) * 1e-4:
        # the completeness gate, not the projectivity test, rejects them
        bundle, dec, _, _ = ex2_pipeline
        eps = 1e-4
        v = np.array([eps, np.sqrt(1.0 - eps**2), 0.0], dtype=complex)
        effects = [np.diag([1.0, 0.0, 0.0]), np.outer(v, v.conj()), np.diag([0.0, 0.0, 1.0])]
        assert np.isclose(linalg.fro(effects[0] @ effects[1]), eps)
        with pytest.raises(InvalidPovm, match="defect 1.414e-04"):
            povm.make_povm(effects, bundle.rho, dec)

    def test_validation_clips_tiny_negatives(self, ex2_pipeline):
        bundle, dec, _, _ = ex2_pipeline
        eps = 5e-10
        e1 = np.diag([1.0 + 0.0j, eps, 0.5])
        e2 = np.eye(3) - e1
        mats, warnings = povm.validate_effects([e1, 2 * np.eye(3) - np.eye(3) - e1], 3)
        assert not warnings  # both PSD already
        bad = np.diag([1.0, -eps, 0.5])
        mats, warnings = povm.validate_effects([bad, np.eye(3) - bad], 3)
        assert warnings and "clipped" in warnings[0]

    def test_validation_rejects_large_negatives(self):
        bad = np.diag([1.2, -0.2, 0.0])
        with pytest.raises(InvalidPovm):
            povm.validate_effects([bad, np.eye(3) - bad], 3)


class TestVerifyOptimality:
    @pytest.mark.parametrize("name", SATURABLE)
    def test_constructed_povm_passes(self, name):
        _, bundle, dec, slds, report, built = construct_for(name)
        out = povm.verify_optimality(built, slds)
        assert out.passed
        assert all(x <= 1e-8 for x in out.block_offdiag)
        assert out.null_sum_residual <= 1e-8

    def test_example2_constants(self, ex2_pipeline):
        bundle, dec, slds, report = ex2_pipeline
        built = optimal_povm(bundle.rho, slds)
        out = povm.verify_optimality(built, slds)
        reg_consts = sorted(round(float(c.constants[0]), 6) for c in out.regular)
        assert reg_consts == [round(-4.0 / 3.0, 6), 4.0]
        assert all(np.allclose(c.constants[1], 0.0, atol=1e-9) for c in out.regular)
        null_c = out.null[0].constants
        assert np.isclose(null_c[0, 1], 0.5, atol=1e-9)
        assert np.isclose(null_c[1, 0], 2.0, atol=1e-9)

    def test_identity_povm_fails(self, ex2_pipeline):
        bundle, dec, slds, _ = ex2_pipeline
        ident, _ = povm.make_povm([np.eye(3)], bundle.rho, dec)
        out = povm.verify_optimality(ident, slds)
        assert not out.passed
        assert out.regular[0].residual > 1e-2

    def test_qubit_bases_fail(self, qubit_xy):
        bundle, dec, slds, _ = pipeline(qubit_xy, THETA_QUBIT)
        for axis in "xyz":
            eig = np.linalg.eigh(pauli(axis))[1]
            effects = [np.outer(eig[:, j], eig[:, j].conj()) for j in range(2)]
            pv, _ = povm.make_povm(effects, bundle.rho, dec)
            out = povm.verify_optimality(pv, slds)
            assert not out.passed


class TestCanonicalize:
    def test_padded_regular_effects_split(self, fixed_pipeline):
        bundle, dec, slds, report = fixed_pipeline
        built = optimal_povm(bundle.rho, slds)
        reg = [effects(built)[k] for k in built.regular_indices]
        padded = [r + 0.5 * (dec.Y @ linalg.dag(dec.Y)) for r in reg]
        pv, _ = povm.make_povm(padded, bundle.rho, dec)
        assert povm.verify_optimality(pv, slds).passed
        canon = povm.canonicalize(pv, dec)
        assert len(canon.ranks) == 4
        assert canon.labels.count("null") == 2
        null_sum = sum(
            block_of(effects(canon)[k], dec).ozz for k in canon.null_indices
        )
        assert np.allclose(null_sum, np.eye(1), atol=1e-8)
        # outcome probabilities of the regular effects are preserved
        probs_before = [np.real(np.trace(bundle.rho @ e)) for e in padded]
        probs_after = [
            np.real(np.trace(bundle.rho @ effects(canon)[k])) for k in canon.regular_indices
        ]
        assert np.allclose(sorted(probs_before), sorted(probs_after), atol=1e-12)
        assert povm.verify_optimality(canon, slds).passed

    def test_already_canonical_unchanged(self, ex2_pipeline):
        bundle, dec, slds, report = ex2_pipeline
        built = optimal_povm(bundle.rho, slds)
        canon = povm.canonicalize(built, dec)
        assert len(canon.ranks) == len(built.ranks)
        for a, b in zip(effects(canon), effects(built)):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_cross_block_rejected(self, fixed_pipeline):
        bundle, dec, slds, _ = fixed_pipeline
        mix = (dec.V[:, 0] + dec.Y[:, 0]) / np.sqrt(2.0)
        effect = np.outer(mix, mix.conj())
        pv, _ = povm.make_povm([effect, np.eye(3) - effect], bundle.rho, dec)
        with pytest.raises(NotBlockDiagonal):
            povm.canonicalize(pv, dec)


def classical_fi(pv, bundle):
    return povm.fisher_information(*povm.outcome_table(pv, bundle))


class TestClassicalFI:
    def test_example2_equals_regular_part(self, ex2_pipeline):
        bundle, dec, slds, report = ex2_pipeline
        built = optimal_povm(bundle.rho, slds)
        f_c = classical_fi(built, bundle)
        assert np.allclose(f_c, [[16.0 / 3.0, 0.0], [0.0, 0.0]], atol=1e-9)

    def test_classical_diag_full_saturation(self, diag_pipeline):
        bundle, dec, slds, _ = diag_pipeline
        pv, _ = povm.make_povm(basis_povm(3), bundle.rho, dec)
        f_c = classical_fi(pv, bundle)
        assert np.allclose(f_c, sld.qfim(slds).F, atol=1e-9)

    def test_identity_povm_is_blind(self, ex2_pipeline):
        bundle, dec, _, _ = ex2_pipeline
        pv, _ = povm.make_povm([np.eye(3)], bundle.rho, dec)
        assert np.max(np.abs(classical_fi(pv, bundle))) <= 1e-20

    @pytest.mark.parametrize("name", sorted(WORKING_POINTS))
    @pytest.mark.parametrize("seed", range(4))
    def test_never_exceeds_qfim(self, name, seed):
        mdl = model.build_model(name)
        bundle, dec, slds, _ = pipeline(mdl, WORKING_POINTS[name])
        rng = np.random.default_rng(seed)
        pv, _ = povm.make_povm(random_projective_povm(rng, mdl.n_s), bundle.rho, dec)
        gap = sld.qfim(slds).F - classical_fi(pv, bundle)
        assert np.min(np.linalg.eigvalsh(0.5 * (gap + gap.T))) >= -1e-6


class TestNullComponentSum:
    def test_example2_matches_null_part(self, ex2_pipeline):
        bundle, dec, slds, report = ex2_pipeline
        built = optimal_povm(bundle.rho, slds)
        n_sum = povm.null_component_sum(built, slds)
        assert np.allclose(n_sum, 0.6912 * np.array([[1.0, 2.0], [2.0, 4.0]]), atol=1e-9)

    def test_missing_null_effects_leave_gap(self, ex2_pipeline):
        bundle, dec, slds, report = ex2_pipeline
        built = optimal_povm(bundle.rho, slds)
        eff = effects(built)
        folded = [eff[0] + eff[2], eff[1]]
        pv, _ = povm.make_povm(folded, bundle.rho, dec)
        n_sum = povm.null_component_sum(pv, slds)
        assert np.max(np.abs(n_sum)) == 0.0
        assert not povm.saturation_check(pv, slds, bundle).passed

    def test_fixed_range_any_null_set_works(self, fixed_pipeline):
        bundle, dec, slds, _ = fixed_pipeline
        p_zero = dec.Y @ linalg.dag(dec.Y)
        pv, _ = povm.make_povm(
            [dec.V @ linalg.dag(dec.V), 0.25 * p_zero, 0.75 * p_zero], bundle.rho, dec
        )
        assert np.max(np.abs(povm.null_component_sum(pv, slds))) == 0.0
        fim = sld.qfim(slds)
        assert np.max(np.abs(fim.F_null)) == 0.0


class TestSaturation:
    @pytest.mark.parametrize("name", SATURABLE)
    def test_constructed_povm_saturates(self, name):
        _, bundle, dec, slds, report, built = construct_for(name)
        out = povm.saturation_check(built, slds, bundle)
        assert out.passed

    def test_sigma_z_basis_fails_on_qubit_xy(self, qubit_xy):
        bundle, dec, slds, _ = pipeline(qubit_xy, THETA_QUBIT)
        pv, _ = povm.make_povm(basis_povm(2), bundle.rho, dec)
        assert not povm.saturation_check(pv, slds, bundle).passed

    def test_eigenbasis_saturates_classical_diag(self, diag_pipeline):
        bundle, dec, slds, _ = diag_pipeline
        pv, _ = povm.make_povm(basis_povm(3), bundle.rho, dec)
        assert povm.saturation_check(pv, slds, bundle).passed

    def test_verdict_invariant_under_effect_permutation(self, ex2_pipeline):
        bundle, dec, slds, report = ex2_pipeline
        built = optimal_povm(bundle.rho, slds)
        rng = np.random.default_rng(9)
        perm = rng.permutation(len(built.ranks))
        shuffled, _ = povm.make_povm([effects(built)[i] for i in perm], bundle.rho, dec)
        assert povm.saturation_check(shuffled, slds, bundle).passed
        assert povm.verify_optimality(shuffled, slds).passed

    def test_verdict_invariant_under_regauge(self, ex2_pipeline, example2):
        bundle, dec, slds, report = ex2_pipeline
        built = optimal_povm(bundle.rho, slds)
        rng = np.random.default_rng(10)
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dec.r_plus)))
        y_mix = random_unitary(rng, dec.r_zero)
        regauged = dec._replace(V=dec.V @ phases, Y=dec.Y @ y_mix)
        slds2 = sld.compute_slds(bundle, regauged)
        assert povm.saturation_check(built, slds2, bundle).passed
        assert povm.verify_optimality(built, slds2).passed


class TestClosureProperties:
    def test_certified_construction_implies_necessary_conditions(self):
        # whenever a constructed POVM verifies and saturates, conditions
        # 1 and 3 must both have passed at that point
        for name in SATURABLE:
            _, bundle, dec, slds, report, built = construct_for(name)
            if (
                povm.verify_optimality(built, slds).passed
                and povm.saturation_check(built, slds, bundle).passed
            ):
                assert report.c1.passed and report.c3.passed

    def test_single_parameter_pure_state_saturates(self):
        # a pure state with one parameter is always saturable; exercises the
        # construct-then-verify closure on a rank-deficient state
        def psi(theta):
            return np.array([np.cos(theta[0]), np.exp(0.4j) * np.sin(theta[0])])

        def dpsi(theta, l):
            return np.array([-np.sin(theta[0]), np.exp(0.4j) * np.cos(theta[0])])

        mdl = model.StateModel(
            name="pure_single",
            n_s=2,
            p=1,
            box=((0.05, 1.5),),
            eval_rho=lambda th: np.outer(psi(th), psi(th).conj()),
            deriv=lambda th, l: np.outer(dpsi(th, l), psi(th).conj())
            + np.outer(psi(th), dpsi(th, l).conj()),
            factorization=lambda th: (
                psi(th).reshape(2, 1),
                np.array([[-np.exp(-0.4j) * np.sin(th[0])], [np.cos(th[0])]]),
                np.array([1.0]),
            ),
        )
        bundle, dec, slds, report = pipeline(mdl, np.array([0.7]))
        assert report.classification == "SaturableProjective"
        built = optimal_povm(bundle.rho, slds)
        assert povm.verify_optimality(built, slds).passed
        out = povm.saturation_check(built, slds, bundle)
        assert out.passed
        assert np.isclose(sld.qfim(slds).F[0, 0], 4.0, atol=1e-9)


class TestJsonRoundTrip:
    def test_effects_round_trip(self, ex2_pipeline):
        import json

        # the file holds the frame bit for bit, so the POVM read back is the
        # one that was built, effect for effect
        bundle, dec, slds, report = ex2_pipeline
        built = optimal_povm(bundle.rho, slds)
        payload = json.loads(json.dumps(povm.povm_to_json(built)))
        assert payload["ranks"] == [1, 1, 1]
        read, _ = povm.make_povm(povm.povm_from_json(payload), bundle.rho, dec)
        assert read.projective and read.labels == built.labels
        assert np.array_equal(read.G, built.G)
        for a, b in zip(effects(read), effects(built)):
            assert np.array_equal(a, b)

    def test_rejects_bad_payload(self):
        frame = linalg.matrix_to_json(np.eye(3))
        for bad in ({"effects": []}, [1, 2], {}, {"frame": frame, "ranks": [3], "effects": []}):
            with pytest.raises(InvalidPovm):
                povm.povm_from_json(bad)
        for bad in ({"frame": frame}, {"frame": frame, "ranks": [True, 2]},
                    {"frame": frame, "ranks": [1.0, 2]}, {"frame": [[[False, 0.0]]], "ranks": [1]}):
            with pytest.raises(ParseError):
                povm.povm_from_json(bad)

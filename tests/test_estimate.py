import numpy as np
import pytest

from qcrb import estimate, model, povm, sld
from qcrb.config import DEFAULT
from qcrb.errors import SingularFisher
from qcrb.estimate import SimConfig

from conftest import THETA_DIAG, THETA_EX2, pipeline
from util import basis_povm, effects, optimal_povm


@pytest.fixture(scope="module")
def diag_setup(classical_diag):
    bundle, dec, slds, report = pipeline(classical_diag, THETA_DIAG)
    built = optimal_povm(bundle.rho, slds)
    return classical_diag, bundle, dec, slds, built


@pytest.fixture(scope="module")
def ex2_setup(example2):
    bundle, dec, slds, report = pipeline(example2, THETA_EX2)
    built = optimal_povm(bundle.rho, slds)
    return example2, bundle, dec, slds, built


class TestOneStep:
    """The one-step estimator that run_trials forms in every trial."""

    def test_estimates_are_the_outcome_frequencies(self, diag_setup):
        # with the basis POVM on classical_diag the one-step estimate of
        # trial r is its outcome frequencies (counts_0, counts_1) / N, so the
        # counts rebuilt from the documented stream fix the result
        mdl, bundle, dec, _, _ = diag_setup
        pv, _ = povm.make_povm(basis_povm(3), bundle.rho, dec)
        seed, n, r = 29, 50, 40
        result = estimate.run_trials(mdl, pv, THETA_DIAG, SimConfig(seed=seed, N=n, R=r))
        p = np.array([THETA_DIAG[0], THETA_DIAG[1], 1.0 - THETA_DIAG.sum()])
        counts = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed))).multinomial(n, p, size=r)
        freqs = counts[:, :2] / n
        assert np.allclose(result.mean_shift, freqs.mean(axis=0) - THETA_DIAG, rtol=0, atol=1e-12)
        assert np.allclose(result.emp_cov, np.cov(freqs, rowvar=False), rtol=0, atol=1e-12)

    def test_identity_povm_singular(self, ex2_setup):
        mdl, bundle, dec, _, _ = ex2_setup
        pv, _ = povm.make_povm([np.eye(3)], bundle.rho, dec)
        with pytest.raises(SingularFisher):
            estimate.run_trials(mdl, pv, THETA_EX2, SimConfig(seed=0, N=10, R=5))


class TestRunTrials:
    def test_classical_diag_covariance(self, diag_setup):
        mdl, bundle, dec, slds, built = diag_setup
        result = estimate.run_trials(mdl, built, THETA_DIAG, SimConfig(seed=123, N=1000, R=2000))
        assert result.rel_err <= 0.1
        fim = sld.qfim(slds)
        assert np.allclose(result.pred_cov, np.linalg.inv(fim.F) / 1000, atol=1e-9)

    def test_example2_displaced_covariance(self, ex2_setup):
        mdl, _, _, _, built = ex2_setup
        result = estimate.run_trials(
            mdl, built, THETA_EX2, SimConfig(seed=123, N=1000, R=2000, delta=(0.0, 0.05))
        )
        assert result.rel_err <= 0.1
        assert result.excluded_outcome_mass == 0.0

    def test_example2_undisplaced_is_singular(self, ex2_setup):
        mdl, _, _, _, built = ex2_setup
        with pytest.raises(SingularFisher) as err:
            estimate.run_trials(mdl, built, THETA_EX2, SimConfig(seed=1, N=100, R=10))
        assert np.allclose(np.abs(err.value.direction), [0.0, 1.0], atol=1e-6)

    def test_bitwise_reproducible(self, diag_setup):
        mdl, _, _, _, built = diag_setup
        cfg = SimConfig(seed=77, N=200, R=50)
        a = estimate.run_trials(mdl, built, THETA_DIAG, cfg)
        b = estimate.run_trials(mdl, built, THETA_DIAG, cfg)
        assert np.array_equal(a.emp_cov, b.emp_cov)
        assert np.array_equal(a.mean_shift, b.mean_shift)
        assert a.rel_err == b.rel_err

    def test_seed_changes_the_draws(self, diag_setup):
        mdl, _, _, _, built = diag_setup
        a = estimate.run_trials(mdl, built, THETA_DIAG, SimConfig(seed=1, N=200, R=50))
        b = estimate.run_trials(mdl, built, THETA_DIAG, SimConfig(seed=2, N=200, R=50))
        assert not np.array_equal(a.emp_cov, b.emp_cov)

    @pytest.mark.parametrize("r", [2, 500])
    def test_one_generator_per_call(self, diag_setup, monkeypatch, r):
        # every trial is drawn from one stream: the number of generators
        # built does not grow with R
        mdl, _, _, _, built = diag_setup
        built_kinds = []

        def counting(cls):
            def make(*args, **kwargs):
                built_kinds.append(cls.__name__)
                return cls(*args, **kwargs)
            return make

        monkeypatch.setattr(np.random, "SeedSequence", counting(np.random.SeedSequence))
        monkeypatch.setattr(np.random, "Generator", counting(np.random.Generator))
        estimate.run_trials(mdl, built, THETA_DIAG, SimConfig(seed=3, N=100, R=r))
        assert sorted(built_kinds) == ["Generator", "SeedSequence"]

    def test_first_order_unbiased(self, diag_setup):
        mdl, _, _, _, built = diag_setup
        result = estimate.run_trials(mdl, built, THETA_DIAG, SimConfig(seed=5, N=1000, R=2000))
        bound = 3.0 * np.sqrt(np.max(np.diag(result.pred_cov)) / result.R)
        assert np.max(np.abs(result.mean_shift)) <= bound

    def test_qcrb_ordering(self, ex2_setup):
        mdl, _, _, _, built = ex2_setup
        delta = (0.0, 0.05)
        result = estimate.run_trials(
            mdl, built, THETA_EX2, SimConfig(seed=123, N=1000, R=2000, delta=delta)
        )
        bundle = model.eval_bundle(mdl, THETA_EX2 + np.asarray(delta))
        from qcrb import blocks

        dec = blocks.decompose(bundle.spectrum)
        fim = sld.qfim(sld.compute_slds(bundle, dec))
        qcrb_floor = np.linalg.inv(fim.F) / result.N
        gap = result.emp_cov - qcrb_floor
        error_bar = np.sqrt(2.0 / result.R) * np.max(np.abs(result.pred_cov))
        assert np.min(np.linalg.eigvalsh(0.5 * (gap + gap.T))) >= -3.0 * error_bar


class TestConvergenceStudy:
    def test_example2_deviation_shrinks(self, ex2_setup):
        mdl, _, _, slds, built = ex2_setup
        deltas = [t * np.array([1.0, 1.0]) / np.sqrt(2.0) for t in (1e-1, 1e-2, 1e-3)]
        rows = estimate.fc_convergence_study(mdl, built, THETA_EX2, deltas, sld.qfim(slds).F)
        devs = [r["max_abs_dev"] for r in rows]
        assert devs[0] > devs[1] > devs[2]
        f_max = np.max(np.abs(sld.qfim(slds).F))
        assert devs[2] <= 1e-2 * f_max

    def test_classical_diag_linear_shrinkage(self, diag_setup):
        mdl, _, _, slds, built = diag_setup
        deltas = [t * np.array([1.0, 1.0]) / np.sqrt(2.0) for t in (1e-1, 1e-2, 1e-3)]
        rows = estimate.fc_convergence_study(mdl, built, THETA_DIAG, deltas, sld.qfim(slds).F)
        devs = [r["max_abs_dev"] for r in rows]
        assert devs[0] > devs[1] > devs[2]
        # smooth full-rank family: deviation is O(delta)
        assert devs[1] / devs[0] < 0.5 and devs[2] / devs[1] < 0.5

    def test_dropped_null_effect_plateaus(self, ex2_setup):
        mdl, bundle, dec, slds, built = ex2_setup
        eff = effects(built)
        folded = [eff[built.regular_indices[0]] + eff[built.null_indices[0]],
                  eff[built.regular_indices[1]]]
        pv, _ = povm.make_povm(folded, bundle.rho, dec)
        deltas = [t * np.array([1.0, 1.0]) / np.sqrt(2.0) for t in (1e-1, 1e-2, 1e-3)]
        fim = sld.qfim(slds)
        rows = estimate.fc_convergence_study(mdl, pv, THETA_EX2, deltas, fim.F)
        floor = 0.5 * np.max(np.abs(fim.F_null))
        assert all(r["max_abs_dev"] >= floor for r in rows)

    def test_a_null_outcome_under_the_probability_threshold_drops_f_null(self, ex2_setup):
        # the study sums only outcomes above tol.prob: at delta = 1e-5 along
        # the uniform direction example2's null outcome has probability
        # 7.8e-11, so the row reads the whole null part of the QFIM
        mdl, _, _, slds, built = ex2_setup
        fim = sld.qfim(slds)
        delta = 1e-5 * np.ones(2) / np.sqrt(2.0)
        probs, _ = povm.outcome_table(built, model.eval_bundle(mdl, THETA_EX2 + delta))
        assert 0.0 < probs[built.null_indices[0]] < DEFAULT.prob
        [row, far] = estimate.fc_convergence_study(mdl, built, THETA_EX2, [delta, 1e4 * delta],
                                                   fim.F)
        assert abs(row["max_abs_dev"] - np.max(np.abs(fim.F_null))) <= 1e-6
        # the row says which outcomes it left out, as a simulation does
        assert row["excluded_outcome_mass"] == probs[built.null_indices[0]] > 0.0
        assert far["excluded_outcome_mass"] == 0.0

    def test_csv_format(self, ex2_setup):
        mdl, _, _, slds, built = ex2_setup
        rows = estimate.fc_convergence_study(
            mdl, built, THETA_EX2, [np.array([0.01, 0.01])], sld.qfim(slds).F
        )
        csv = estimate.study_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "delta,max_abs_dev"
        cells = lines[1].split(",")
        assert len(cells) == 2
        assert float(cells[0]) == rows[0]["delta"]
        assert float(cells[1]) == rows[0]["max_abs_dev"]
        # 17 significant digits survive the round trip exactly
        assert float(f"{rows[0]['delta']:.17g}") == rows[0]["delta"]

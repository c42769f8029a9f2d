"""Tests of the benchmark's own machinery: generator, statistics, checks, tracer."""

from __future__ import annotations

import json
import statistics

import numpy as np
import pytest

import checks
import families
import run
from checks import NECESSARY_FAILED, SATURABLE, Expect
from stats import percentile, relative_spread
from tracing import Tracer
from workloads import WORKLOADS, Op


def _bytes(configs: dict) -> dict[str, str]:
    return {name: json.dumps(payload) for name, payload in configs.items()}


def test_percentile_known_values():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert percentile([1, 2, 3], 0) == 1 and percentile([1, 2, 3], 100) == 3
    assert percentile([7.5], 90) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_relative_spread_matches_statistics_quartiles():
    # exclusive quartiles of 1..8 are 2.25 and 6.75 around a median of 4.5
    assert relative_spread(range(1, 9)) == pytest.approx(1.0)
    values = [10.0, 10.5, 9.8, 10.2, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_generator_is_deterministic_per_seed():
    assert _bytes(families.dense_configs(5)) == _bytes(families.dense_configs(5))
    assert _bytes(families.builtin_configs(5)) == _bytes(families.builtin_configs(5))
    other = _bytes(families.dense_configs(6))
    for name, text in _bytes(families.dense_configs(5)).items():
        assert other[name] != text
    assert _bytes(families.builtin_configs(6)) != _bytes(families.builtin_configs(5))


def test_rank_check_rejects_a_spectrum_near_the_threshold():
    from qcrb.linalg import matrix_to_json

    near = matrix_to_json(np.diag(np.r_[np.full(15, (1 - 1e-7) / 15), 1e-7, np.zeros(16)]))
    payload = {"rho_center": near, "rho_plus": [near], "rho_minus": [near]}
    with pytest.raises(AssertionError):
        families.check_rank_split(payload, families.GENERIC_RANK)


def test_stencil_qfim_matches_a_dense_sylvester_solve():
    from qcrb.linalg import matrix_to_json

    rng = np.random.default_rng(3)
    n, r, h = 5, 3, 1e-5
    gens = [families.random_hermitian(rng, n, 0.5) for _ in range(3)]
    q = np.r_[rng.uniform(1, 2, r), np.zeros(n - r)]
    q /= q.sum()

    def rho(t):
        u = families.expm_i_hermitian(gens[0] + t[0] * gens[1] + t[1] * gens[2])
        return (u * q) @ u.conj().T

    payload = {"h": h, "rho_center": matrix_to_json(rho([0.0, 0.0])),
               "rho_plus": [matrix_to_json(rho([h, 0.0])), matrix_to_json(rho([0.0, h]))],
               "rho_minus": [matrix_to_json(rho([-h, 0.0])), matrix_to_json(rho([0.0, -h]))]}
    # reference: vectorised (L rho + rho L)/2 = drho, minimum-norm least squares
    center = rho([0.0, 0.0])
    sylvester = 0.5 * (np.kron(np.eye(n), center.T) + np.kron(center, np.eye(n)))
    slds = []
    for hi, lo in zip(payload["rho_plus"], payload["rho_minus"]):
        d = (families.matrix(hi) - families.matrix(lo)) / (2 * h)
        sol = np.linalg.lstsq(sylvester, d.reshape(-1), rcond=1e-10)[0].reshape(n, n)
        slds.append(0.5 * (sol + sol.conj().T))
    expected = np.array([[np.real(np.trace(center @ (a @ b + b @ a))) / 2 for b in slds] for a in slds])
    assert np.allclose(checks.stencil_qfim(payload), expected, rtol=1e-7, atol=1e-9)


def test_dense_verdicts_hold_for_another_seed(tmp_path):
    from qcrb import cli

    configs = families.dense_configs(7)
    families.write_configs(configs, tmp_path)
    validator = checks.load_validator(run.SRC / "qcrb" / "report_schema.json")
    for op in WORKLOADS["cli-dense"].ops:
        if op.subcommand != "analyze":
            continue
        out = tmp_path / f"{op.model}.report.json"
        code = cli.main(["analyze", str(tmp_path / f"{op.model}.json"), "--out", str(out)])
        oracles = {op.model: checks.stencil_qfim(configs[op.model])}
        assert checks.check_report(op.expect, code, checks.load_report(out), validator, oracles) == []


@pytest.fixture
def runner(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    families.write_configs(families.builtin_configs(1), inputs)
    validator = checks.load_validator(run.SRC / "qcrb" / "report_schema.json")
    return run.Runner(tmp_path, inputs, 1, validator, {})


def test_wrong_expected_verdict_counts_as_failed(runner):
    good = Op("analyze", "qubit_xy", Expect(2, NECESSARY_FAILED))
    wrong = Op("analyze", "qubit_xy", Expect(0, SATURABLE))
    _, attempted, failed, _ = run.cold_run(runner, (good, wrong), seconds=0.0)
    assert (attempted, failed) == (2, 1)


def test_tracer_spans_follow_the_subcommand_and_are_removed(runner):
    from qcrb import cli, linalg

    original = linalg.herm_eigen
    tracer = Tracer()
    ops = [Op("analyze", "example2", Expect(0, SATURABLE)),
           Op("construct", "pure_state", Expect(2, error="ConditionFailed"))]
    with tracer.patched():
        for index, op in enumerate(ops):
            code = tracer.run_op(op.subcommand, lambda: cli.main(runner.argv(op, index)))
            problems, has_error = runner.check(op, index, code)
            assert problems == []
            tracer.note_outputs(runner.written(index)[0], has_error)
    assert linalg.herm_eigen is original
    top = [s.name for s in tracer.spans if s.op == 0 and s.parent is not None
           and tracer.spans[s.parent].parent is None]
    assert top == ["model.load_model", "model.eval_bundle", "blocks.decompose",
                   "sld.compute_slds", "sld.qfim", "conditions.evaluate_conditions"]
    assert any(s.name == "linalg.herm_eigen" for s in tracer.spans)
    assert tracer.raised == {"cli": 1}

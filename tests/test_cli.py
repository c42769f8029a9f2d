import ast
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qcrb
from qcrb import cli
from qcrb import linalg as qlinalg
from qcrb.cli import main
from qcrb.config import Tolerances
from qcrb.model import build_model, stencil_payload

from conftest import WORKING_POINTS
from util import dense_saturable_config, planted_stencil, random_unitary, scaled_planted

SCHEMA = json.loads(
    (Path(qcrb.__file__).parent / "report_schema.json").read_text(encoding="utf-8")
)
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)   # checks the schema once


@pytest.fixture()
def ex2_file(tmp_path):
    path = tmp_path / "example2.json"
    path.write_text(
        json.dumps({"model": "example2", "d": [0.6, 0], "c1": 1, "c2": 2, "theta": [0.25, 0.5]}),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture()
def qubit_file(tmp_path):
    path = tmp_path / "qubit.json"
    path.write_text(json.dumps({"model": "qubit_xy", "theta": [0.3, 0.2]}), encoding="utf-8")
    return str(path)


@pytest.fixture()
def diag_file(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(
        json.dumps({"model": "classical_diag", "theta": [0.2, 0.3]}), encoding="utf-8"
    )
    return str(path)


def run_to_file(tmp_path, args):
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    VALIDATOR.validate(report)
    assert report["exit_code"] == code
    return code, report


class TestAnalyze:
    def test_example2_saturable(self, tmp_path, ex2_file):
        code, report = run_to_file(tmp_path, ["analyze", ex2_file])
        assert code == 0
        assert report["conditions"]["classification"] == "SaturableProjective"
        assert report["decomposition"]["r_plus"] == 2
        assert report["decomposition"]["r_zero"] == 1
        assert np.allclose(report["qfim"]["F_reg"], [[16.0 / 3.0, 0.0], [0.0, 0.0]])
        assert report["conditions"]["c4"]["lambda"][0][1] == pytest.approx([0.5])

    def test_qubit_necessary_failed(self, tmp_path, qubit_file):
        code, report = run_to_file(tmp_path, ["analyze", qubit_file])
        assert code == 2
        assert report["conditions"]["classification"] == "NecessaryFailed"

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        code, report = run_to_file(tmp_path, ["analyze", str(bad)])
        assert code == 1
        assert report["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("content", [b"\xff{}", b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-utf-8", "nested-too-deep"])
    def test_undecodable_file(self, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, report = run_to_file(tmp_path, ["analyze", str(bad)])
        assert code == 1
        assert report["error"]["type"] == "ParseError"

    def test_theta_flag_overrides_file(self, tmp_path, ex2_file):
        code, report = run_to_file(tmp_path, ["analyze", ex2_file, "--theta", "0.4", "0.6"])
        assert code == 0
        assert report["theta"] == [0.4, 0.6]

    def test_tolerances_echoed_and_overridable(self, tmp_path, ex2_file):
        code, report = run_to_file(tmp_path, ["analyze", ex2_file, "--tol", "cond=1e-6"])
        assert report["tolerances"]["cond"] == 1e-6
        assert report["tolerances"]["rank"] == 1e-8
        assert list(report["tolerances"]) == list(Tolerances._fields)
        assert len(Tolerances._fields) == 11

    def test_unknown_tolerance_rejected(self, ex2_file, capsys):
        assert main(["analyze", ex2_file, "--tol", "bogus=1"]) == 1

    def test_stdout_default(self, ex2_file, capsys):
        code = main(["analyze", ex2_file])
        report = json.loads(capsys.readouterr().out)
        VALIDATOR.validate(report)
        assert code == 0

    def test_deterministic_output(self, tmp_path, ex2_file):
        # the seed drives only simulate: analyze and construct (report and
        # POVM file) are the same bytes under any seed
        outputs = {}
        for seed in ("3", "4"):
            files = [tmp_path / f"{name}-{seed}.json" for name in ("analyze", "report", "povm")]
            main(["analyze", ex2_file, "--seed", seed, "--out", str(files[0])])
            main(["construct", ex2_file, "--seed", seed, "--report", str(files[1]),
                  "--out", str(files[2])])
            outputs[seed] = [path.read_text() for path in files]
        assert outputs["3"] == outputs["4"]

    def test_report_sections_present(self, tmp_path, ex2_file):
        _, report = run_to_file(tmp_path, ["analyze", ex2_file])
        assert set(report) >= {
            "tool",
            "command",
            "model",
            "theta",
            "decomposition",
            "qfim",
            "conditions",
            "tolerances",
            "warnings",
            "exit_code",
        }
        assert report["tool"]["name"] == "qcrb"


class TestConstruct:
    def test_example2_writes_povm(self, tmp_path, ex2_file):
        povm_path = tmp_path / "povm.json"
        report_path = tmp_path / "report.json"
        code = main(
            ["construct", ex2_file, "--out", str(povm_path), "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        VALIDATOR.validate(report)
        assert report["saturation"]["passed"] is True
        assert report["optimality"]["passed"] is True
        payload = json.loads(povm_path.read_text())
        assert set(payload) == {"frame", "ranks"}
        assert np.array(payload["frame"]).shape == (3, 3, 2)
        assert payload["ranks"] == [1, 1, 1]
        assert report["povm"]["labels"].count("null") == 1

    def test_povm_file_is_compact_json(self, tmp_path, ex2_file, capsys):
        povm_path = tmp_path / "povm.json"
        report_path = tmp_path / "report.json"
        main(["construct", ex2_file, "--out", str(povm_path), "--report", str(report_path)])
        text = povm_path.read_text()
        assert text.count("\n") == 1 and " " not in text
        # the frame lives in the POVM file only; without --out the report carries it
        assert "frame" not in json.loads(report_path.read_text())["povm"]
        assert main(["construct", ex2_file]) == 0
        printed = json.loads(capsys.readouterr().out)
        VALIDATOR.validate(printed)
        povm = printed["povm"]
        assert json.loads(text) == {"frame": povm["frame"], "ranks": povm["ranks"]}

    def test_classical_diag_no_null_effects(self, tmp_path, diag_file):
        povm_path = tmp_path / "povm.json"
        report_path = tmp_path / "report.json"
        code = main(
            ["construct", diag_file, "--out", str(povm_path), "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["povm"]["labels"] == ["regular"] * 3

    def test_qubit_fails(self, tmp_path, qubit_file):
        report_path = tmp_path / "report.json"
        code = main(
            ["construct", qubit_file, "--out", str(tmp_path / "p.json"),
             "--report", str(report_path)]
        )
        assert code == 2
        report = json.loads(report_path.read_text())
        VALIDATOR.validate(report)
        assert report["error"]["type"] == "ConditionFailed"


class TestVerify:
    def _construct(self, tmp_path, model_file):
        povm_path = tmp_path / "povm.json"
        main(["construct", model_file, "--out", str(povm_path),
              "--report", str(tmp_path / "c.json")])
        return str(povm_path)

    def test_constructed_povm_verifies(self, tmp_path, ex2_file):
        povm_path = self._construct(tmp_path, ex2_file)
        code, report = run_to_file(tmp_path, ["verify", ex2_file, povm_path])
        assert code == 0
        assert report["saturation"]["passed"] is True

    def test_identity_povm_fails(self, tmp_path, ex2_file):
        povm_path = tmp_path / "ident.json"
        ident = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]
        povm_path.write_text(json.dumps({"effects": [ident]}), encoding="utf-8")
        code, report = run_to_file(tmp_path, ["verify", ex2_file, str(povm_path)])
        assert code == 2
        assert report["optimality"]["passed"] is False

    def test_split_projectors_verify_as_a_non_projective_povm(self, tmp_path, ex2_file):
        # halving every optimal effect into two copies keeps the Fisher
        # information: an effects file that is not projective still verifies
        povm_path = Path(self._construct(tmp_path, ex2_file))
        frame = json.loads(povm_path.read_text())["frame"]
        cols = np.array(frame)[..., 0] + 1j * np.array(frame)[..., 1]
        halves = [0.5 * np.outer(c, c.conj()) for c in cols.T] * 2
        povm_path.write_text(json.dumps({"effects": [qlinalg.matrix_to_json(e) for e in halves]}))
        code, report = run_to_file(tmp_path, ["verify", ex2_file, str(povm_path)])
        assert code == 0
        assert report["povm"]["projective"] is False
        assert report["povm"]["n_effects"] == 6
        assert report["optimality"]["passed"] and report["saturation"]["passed"]

    def test_incomplete_povm_is_an_error(self, tmp_path, ex2_file):
        povm_path = tmp_path / "half.json"
        half = [[[0.5, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]
        povm_path.write_text(json.dumps({"effects": [half]}), encoding="utf-8")
        code, report = run_to_file(tmp_path, ["verify", ex2_file, str(povm_path)])
        assert code == 1
        assert report["error"]["type"] == "InvalidPovm"


def _dense_saturable(tmp_path, monkeypatch) -> str:
    path = tmp_path / "dense_saturable.json"
    path.write_text(json.dumps(dense_saturable_config(monkeypatch)), encoding="utf-8")
    return str(path)


def _model_file(tmp_path, monkeypatch, name: str) -> str:
    """A config file for a built-in model at its working point, or for ``dense_saturable``."""
    if name == "dense_saturable":
        return _dense_saturable(tmp_path, monkeypatch)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"model": name, "theta": WORKING_POINTS[name].tolist()}))
    return str(path)


# example2 near theta_1 = 0: the regular effect of weight 1e-3 falls under an
# overridden probability threshold, so it is labelled null and saturation fails
_LOW_PROB = {"model": "example2", "theta": [0.001, 0.5]}, ["--tol", "prob=1e-2"]


@pytest.mark.parametrize("name", [*WORKING_POINTS, "dense_saturable", "example2-low-prob"])
def test_verify_reads_back_the_povm_construct_checked(tmp_path, monkeypatch, name):
    # the frame file holds the constructed POVM bit for bit, and one
    # make_povm labels it in both commands, so verify reproduces construct's
    # sections exactly under any tolerance table; models with no optimal
    # projective POVM write no file
    tol = _LOW_PROB[1] if name == "example2-low-prob" else []
    if name == "dense_saturable":
        model_path = _dense_saturable(tmp_path, monkeypatch)
    else:
        config = _LOW_PROB[0] if tol else {"model": name, "theta": WORKING_POINTS[name].tolist()}
        model_path = tmp_path / f"{name}.json"
        model_path.write_text(json.dumps(config))
    povm_path = tmp_path / "povm.json"
    code = main(["construct", str(model_path), "--out", str(povm_path),
                 "--report", str(tmp_path / "construct.json"), *tol])
    constructed = json.loads((tmp_path / "construct.json").read_text())
    VALIDATOR.validate(constructed)
    if name in ("qubit_xy", "pure_state"):
        assert code in (2, 3) and not povm_path.exists()
        return
    expected = 2 if tol else 0
    assert code == expected
    verify_code, verified = run_to_file(tmp_path, ["verify", str(model_path), str(povm_path), *tol])
    assert verify_code == expected
    for section in ("povm", "optimality", "saturation"):
        assert verified[section] == constructed[section]


# q = 0.5/0.3/0.2; states 0 and 1 sit a joint gap g apart in both ++ SLD
# blocks, state 2 far off (sum_i q_i L_ii = 0); the rank-deficient family
# adds one null state with real-proportional +0 columns
_GAP_Q = [0.5, 0.3, 0.2]
_GAP_NULL = np.array([[1.0], [0.5], [0.25]])


def _near_degenerate(gap: float, null: bool) -> dict:
    lpp = [[1.0, 1.0 + gap, -4.0 - 1.5 * gap], [-1.0, -1.0 + gap, 4.0 - 1.5 * gap]]
    return planted_stencil(_GAP_Q, lpp, [0.6 * _GAP_NULL, -0.4 * _GAP_NULL] if null else None)


def _analyze_and_construct(tmp_path, config: dict, *tol: str) -> tuple[int, dict, int, dict]:
    """Exit codes and reports of analyze and construct on one config.

    One frame serves both commands, so analyze exits 0 exactly when
    construct writes a POVM that passes both sections; otherwise construct
    writes none and exits 2.
    """
    model_path, povm_path = tmp_path / "model.json", tmp_path / "povm.json"
    model_path.write_text(json.dumps(config), encoding="utf-8")
    povm_path.unlink(missing_ok=True)
    code, analysis = run_to_file(tmp_path, ["analyze", str(model_path), *tol])
    built = main(["construct", str(model_path), "--out", str(povm_path),
                  "--report", str(tmp_path / "construct.json"), *tol])
    construction = json.loads((tmp_path / "construct.json").read_text(encoding="utf-8"))
    VALIDATOR.validate(construction)
    if code == 0:
        assert built == 0 and povm_path.exists(), construction
        assert construction["optimality"]["passed"] and construction["saturation"]["passed"]
    else:
        assert (built, construction["error"]["type"]) == (2, "ConditionFailed")
        assert not povm_path.exists()
    return code, analysis, built, construction


@pytest.mark.parametrize("null, tol", [
    pytest.param(null, ["--tol", f"cond={cond}"] if cond else [],
                 id=("rank-deficient" if null else "full-rank") + (f"-cond-{cond}" if cond else ""))
    for cond in (None, "1e-6", "1e-10") for null in (False, True)])
def test_construct_on_a_near_degenerate_joint_spectrum_never_fails_its_povm(tmp_path, null, tol):
    # at every gap, analyze certifies exactly the frame construct writes,
    # and that POVM passes both sections: the joint eigenvalues it merges,
    # and find_W's, are equal at the gate that judges the merged effect,
    # whatever that gate is
    outcomes = {}
    for gap in np.geomspace(1e-4, 1e-10, 25):
        code, _, _, report = _analyze_and_construct(tmp_path, _near_degenerate(gap, null), *tol)
        outcomes[gap] = report["povm"]["n_effects"] if code == 0 else code
    # far apart, states 0 and 1 get an effect each; within roundoff, one
    assert outcomes[1e-4] == 3 + null and outcomes[1e-10] == 2 + null, outcomes


def test_analyze_on_a_near_degenerate_ratio_spectrum_is_never_an_error(tmp_path):
    # Lpz_l = 0.3 diag(a_l) W^dag with a_0 = (1, 1, 1) and a_1 = (1, 1 + s, 1 + 2 s):
    # find_W's ratio operator has eigenvalues s apart, and a spread its
    # grouping cannot resolve leaves W uncertified (exit 3), not an error
    w_dag = random_unitary(np.random.default_rng(3), 3).conj().T
    codes = {}
    for s in np.geomspace(1e-6, 1e-10, 21):
        lpz = [0.3 * w_dag, 0.3 * np.diag([1.0, 1.0 + s, 1.0 + 2.0 * s]) @ w_dag]
        config = planted_stencil([0.5, 0.3, 0.2], [[1, -1, -1], [0, 0, 0]], lpz)
        codes[s], *_ = _analyze_and_construct(tmp_path, config)
    assert set(codes.values()) <= {0, 3} and codes[1e-6] == 0, codes


@pytest.mark.parametrize("s", np.geomspace(1.4e-8, 2.5e-8, 4), ids=lambda s: f"{s:.2e}")
def test_a_ratio_chain_that_a_third_parameter_separates_is_certified(tmp_path, s):
    # as above with a third parameter: ratio operator 0 steps s apart
    # (within its width, 2.7e-8) over a spread 2 s beyond it, and operator
    # 2 tells the three columns apart, so W is certified
    w_dag = random_unitary(np.random.default_rng(3), 3).conj().T
    lpz = [0.3 * w_dag, 0.3 * np.diag([1.0, 1.0 + s, 1.0 + 2.0 * s]) @ w_dag,
           0.3 * np.diag([0.5, 0.6, 0.7]) @ w_dag]
    config = planted_stencil([0.5, 0.3, 0.2], [[1, -1, -1], [0, 0, 0], [0, 0, 0]], lpz)
    code, analysis, _, _ = _analyze_and_construct(tmp_path, config)
    assert code == 0 and analysis["conditions"]["c4"]["certified"]


# a full-rank 4-level family, q = 0.4/0.3/0.2/0.1: ++ SLD block 0 puts
# states 0, 1 and 2 at 1, 1 + g and 1 + 2 g (sum_i q_i L_ii = 0 fixes state
# 3); at g = 9e-8 its steps lie within its width, 1.017e-7, and the chain
# they make spreads beyond it
_CHAIN_Q = [0.4, 0.3, 0.2, 0.1]


def _chain(g: float) -> list[float]:
    return [1.0, 1.0 + g, 1.0 + 2.0 * g, -(0.9 + 0.7 * g) / 0.1]


@pytest.mark.parametrize("second, g, n_effects", [
    pytest.param([1.0, -1.0, 2.0, -5.0], g, 4, id=f"all-apart-{g}") for g in (1e-6, 9e-8, 3e-8)] + [
    # block 1 parts state 1 from states 0 and 2, which block 0 then parts
    # 2 g apart; at g = 3e-8 they are one eigenvalue of both blocks
    pytest.param([1.0, -1.0, 1.0, -3.0], g, n, id=f"middle-apart-{g}")
    for g, n in ((1e-6, 4), (9e-8, 4), (3e-8, 3))])
def test_a_chain_that_another_block_separates_is_constructed(tmp_path, second, g, n_effects):
    # the chain is refined by block 1 instead of raising, in either order
    # of the parameters, and analyze and construct agree
    for lpp in ([_chain(g), second], [second, _chain(g)]):
        code, analysis, _, construction = _analyze_and_construct(tmp_path,
                                                                 planted_stencil(_CHAIN_Q, lpp))
        assert analysis["conditions"]["classification"] == "SaturableProjective"
        assert construction["povm"]["n_effects"] == n_effects


@pytest.mark.parametrize("g, n_effects", [(1e-6, 4), (9e-8, None), (3e-8, 2)])
def test_a_chain_that_no_block_separates_is_undetermined(tmp_path, g, n_effects):
    # block 1 is flat on states 0, 1 and 2: at g = 9e-8 the gate can tell
    # neither that they are one eigenvalue nor that they are three, so
    # analyze says Undetermined and why, and construct builds nothing
    lpp = [_chain(g), [2.0, 2.0, 2.0, -18.0]]
    code, analysis, built, construction = _analyze_and_construct(tmp_path,
                                                                 planted_stencil(_CHAIN_Q, lpp))
    if n_effects:
        assert construction["povm"]["n_effects"] == n_effects
        return
    conditions = analysis["conditions"]
    assert (code, conditions["classification"]) == (3, "Undetermined")
    assert all(conditions[c]["passed"] for c in ("c1", "c3")) and conditions["c4"]["certified"]
    assert [w for w in analysis["warnings"] if "++ blocks is unresolved" in w] != []
    assert construction["warnings"] == analysis["warnings"]


def _injective_family(r_plus: int, r_zero: int, p: int, tilt: float) -> dict:
    """Lpz_l = 0.3 B (W0 diag(a_l) W0^dag + tilt i K [l = 1]), a_0 = 1, with B injective.

    B is a random (non-orthogonal) r_plus x r_zero matrix, r_plus >= r_zero,
    and |a_l| is in [0.5, 2]; K is Hermitian.  At tilt 0 condition 3 holds
    and block 0 is injective, so condition 4 holds too (the conditions
    module's finding); a tilt leaves the ratio operator of parameter 1
    not Hermitian, and condition 3 fails.  The ++ blocks are diagonal,
    sum_i q_i lpp_l[i] = 0.
    """
    rng = np.random.default_rng(100 * r_plus + 10 * r_zero + p)
    b = rng.standard_normal((r_plus, r_zero)) + 1j * rng.standard_normal((r_plus, r_zero))
    w0 = random_unitary(rng, r_zero)
    k = rng.standard_normal((r_zero, r_zero)) + 1j * rng.standard_normal((r_zero, r_zero))
    ratios = [np.eye(r_zero)] + [
        w0 @ np.diag(rng.uniform(0.5, 2.0, r_zero) * rng.choice([-1.0, 1.0], r_zero))
        @ w0.conj().T for _ in range(p - 1)]
    ratios[1] = ratios[1] + tilt * 0.5j * (k + k.conj().T)
    q = np.arange(r_plus, 0, -1) / (r_plus * (r_plus + 1) / 2)
    lpp = [x - q @ x for x in rng.standard_normal((p, r_plus))]
    return planted_stencil(q, lpp, [0.3 * b @ g for g in ratios])


@pytest.mark.parametrize("r_plus, r_zero, p", [(2, 2, 2), (3, 2, 2), (3, 3, 3), (5, 3, 2)])
def test_an_injective_block_lets_condition3_decide_condition4(tmp_path, r_plus, r_zero, p):
    # the c3 family is saturable, and its POVM verifies; the tilted twin
    # fails c3 and is a negative verdict, not Undetermined
    shape = (r_plus, r_zero, p)
    code, analysis, _, _ = _analyze_and_construct(tmp_path, _injective_family(*shape, 0.0))
    assert (code, analysis["conditions"]["classification"]) == (0, "SaturableProjective")
    verified, _ = run_to_file(tmp_path, ["verify", str(tmp_path / "model.json"),
                                         str(tmp_path / "povm.json")])
    assert verified == 0
    code, analysis, _, _ = _analyze_and_construct(tmp_path, _injective_family(*shape, 1e-3))
    assert (code, analysis["conditions"]["classification"]) == (2, "NecessaryFailed")
    assert not analysis["conditions"]["c3"]["passed"]


def _verify_written(tmp_path) -> int:
    code, _ = run_to_file(tmp_path, ["verify", str(tmp_path / "model.json"),
                                     str(tmp_path / "povm.json")])
    return code


@pytest.mark.parametrize("shape, seed", [((2, 2, 2), 113), ((3, 3, 2), 126),
                                         ((2, 2, 3), 116), ((2, 2, 3), 121)])
def test_a_rescaled_parameter_keeps_analyze_and_construct_together(tmp_path, shape, seed):
    # theta_0 rescaled by 1e-6: a null effect's rows for parameters 0 and
    # 1 differ in length by about 1e6, so the imaginary part of their
    # ratio, in the ratio's units, is up to 1e6 times the real-angle
    # residual, and a gate on it failed effects whose residual passed;
    # with the residual the one judge, construct writes and verify accepts
    # the frame analyze certifies
    code, analysis, built, _ = _analyze_and_construct(tmp_path, scaled_planted(shape, seed, 1e-6))
    assert (code, analysis["conditions"]["classification"]) == (0, "SaturableProjective")
    assert built == 0 and _verify_written(tmp_path) == 0


def test_analyze_0_implies_construct_0_over_scaled_planted_families(tmp_path):
    # whenever analyze certifies a family, construct writes a POVM that
    # passes both sections (_analyze_and_construct) and verify accepts it
    codes = []
    for k in (1e-6, 1.0, 1e4):
        for shape in ((2, 2, 2), (3, 3, 2), (3, 2, 2), (2, 2, 3)):
            for seed in (100, 101):
                code, *_ = _analyze_and_construct(tmp_path, scaled_planted(shape, seed, k))
                assert code != 0 or _verify_written(tmp_path) == 0, (k, shape, seed)
                codes.append(code)
    assert codes.count(0) >= 20, codes


def test_one_cond_override_moves_every_identity_gate(tmp_path):
    # Lpz_l = C diag(a_l) W^dag, C of unit non-orthogonal columns, whose
    # second column is 1e-2 small and carries a 1e-9 complex ratio: c3
    # sees that defect times 1e-4, c4 and the null effect's ratio table see
    # it whole, so a cond between the two residuals fails only those gates
    c = np.array([[1.0, 0.6], [0.0, 0.8]])
    w_dag = random_unitary(np.random.default_rng(5), 2).conj().T
    lpz = [c @ np.diag([1.0, 1e-2]) @ w_dag, c @ np.diag([-0.5, 1e-2 * (0.7 + 1e-9j)]) @ w_dag]
    model_path, povm_path = tmp_path / "model.json", tmp_path / "povm.json"
    model_path.write_text(json.dumps(planted_stencil([0.6, 0.4], [[1.0, -1.5], [-2.0, 3.0]], lpz)),
                          encoding="utf-8")
    assert main(["construct", str(model_path), "--out", str(povm_path),
                 "--report", str(tmp_path / "construct.json")]) == 0
    code, report = run_to_file(tmp_path, ["analyze", str(model_path)])
    residual = {name: report["conditions"][name]["residual"] for name in ("c1", "c3", "c4")}
    assert code == 0 and residual["c4"] > 1e3 * max(residual["c1"], residual["c3"]), residual
    cond = ["--tol", f"cond={math.sqrt(max(residual['c1'], residual['c3']) * residual['c4'])!r}"]

    code, report = run_to_file(tmp_path, ["analyze", str(model_path), *cond])
    assert report["conditions"]["c1"]["passed"] and report["conditions"]["c3"]["passed"]
    assert report["conditions"]["c4"]["certified"] is False
    assert (code, report["conditions"]["classification"]) == (3, "Undetermined")
    code, report = run_to_file(tmp_path, ["verify", str(model_path), str(povm_path), *cond])
    assert [check["ok"] for check in report["optimality"]["regular"]] == [True, True]
    assert [check["ok"] for check in report["optimality"]["null"]] == [True, False]
    assert code == 2


def test_rho_is_held_to_one_hermiticity_gate(tmp_path):
    # a 1e-9 anti-Hermitian off-diagonal in rho fails tol.state at its
    # default and passes it at 1e-8: the eigensolve adds no second gate
    config = planted_stencil([0.6, 0.4], [[1.0, -1.5]])
    config["rho_center"][0][1], config["rho_center"][1][0] = [1e-9, 0.0], [-1e-9, 0.0]
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(config), encoding="utf-8")
    code, report = run_to_file(tmp_path, ["analyze", str(model_path)])
    assert (code, report["error"]["type"]) == (1, "InvalidState")
    code, report = run_to_file(tmp_path, ["analyze", str(model_path), "--tol", "state=1e-8"])
    assert (code, report["conditions"]["classification"]) == (0, "SaturableProjective")


def _agree(a, b) -> bool:
    """Whether two JSON values are equal, floats within 1e-12 (1 + |a|)."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-12 * (1.0 + abs(a))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_agree(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_agree, a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", [*WORKING_POINTS, "dense_saturable"])
def test_reports_do_not_move_with_the_phases_of_eigh(tmp_path, monkeypatch, name):
    # eigh fixes each eigenvector only up to a phase, and the eigensolvers
    # pass its vectors on as they come; every written basis (c4.W, the
    # POVM frame) is gauged where it is written, so seeded random phases on
    # eigh's vectors move no report beyond roundoff
    model_path = _model_file(tmp_path, monkeypatch, name)

    def reports() -> list:
        runs = []
        for command, flag in (("analyze", "--out"), ("construct", "--report")):
            path = tmp_path / f"{command}.json"
            code = main([command, model_path, flag, str(path)])
            runs.append((code, json.loads(path.read_text())))
        return runs

    plain = reports()
    eigh, rng, calls = np.linalg.eigh, np.random.default_rng(11), []

    def phased(a):
        values, vectors = eigh(a)
        calls.append(a)
        return values, vectors * np.exp(2j * np.pi * rng.random(vectors.shape[1]))

    monkeypatch.setattr(np.linalg, "eigh", phased)
    turned = reports()
    assert calls
    for (code, report), (turned_code, turned_report) in zip(plain, turned):
        assert turned_code == code
        assert _agree(report, turned_report)


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_a_global_unitary_moves_no_verdict(tmp_path, monkeypatch, seed):
    # rho -> W rho W^dag for one fixed unitary W changes no invariant the
    # report states: on the stencils of the benchmark's seeded points of the
    # five built-ins and on both dense families, analyze keeps its exit
    # code and classification, and F agrees within 1e-7 relative
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import families

    configs = {name: stencil_payload(build_model(name), cfg["theta"], families.STENCIL_H)
               for name, cfg in families.builtin_configs(seed).items()}
    configs.update(families.dense_configs(seed))
    rng = np.random.default_rng(seed)
    moved = []
    for name, payload in configs.items():
        w = random_unitary(rng, len(payload["rho_center"]))

        def turn(obj):
            return qlinalg.matrix_to_json(w @ qlinalg.matrix_from_json(obj) @ w.conj().T)

        turned = {**payload, "rho_center": turn(payload["rho_center"]),
                  "rho_plus": [turn(m) for m in payload["rho_plus"]],
                  "rho_minus": [turn(m) for m in payload["rho_minus"]]}
        runs = []
        for config in (payload, turned):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            code, report = run_to_file(tmp_path, ["analyze", str(path)])
            runs.append((code, report["conditions"]["classification"],
                         np.array(report["qfim"]["F"])))
        (code, verdict, f), (turned_code, turned_verdict, turned_f) = runs
        close = np.max(np.abs(turned_f - f)) <= 1e-7 * np.max(np.abs(f))
        if not close or (turned_code, turned_verdict) != (code, verdict):
            moved.append(name)
    assert moved == []


def _write_effects_of(frame_path: Path, effects_path: Path) -> None:
    """Write the effects F_k F_k^dag of a frame file's groups F_k as an effects file."""
    payload = json.loads(frame_path.read_text())
    frame = qlinalg.matrix_from_json(payload["frame"])
    edges = np.cumsum([0, *payload["ranks"]])
    effects = [frame[:, a:b] @ frame[:, a:b].conj().T for a, b in zip(edges, edges[1:])]
    effects_path.write_text(json.dumps({"effects": [qlinalg.matrix_to_json(e) for e in effects]}))


@pytest.mark.parametrize("name", ["example2", "dense_saturable"])
def test_an_effects_file_verifies_as_its_frame_file(tmp_path, monkeypatch, name):
    # both file shapes are checked on one path: the constructed frame's own
    # effects give the same labels and projectivity, and the same
    # optimality and saturation sections up to roundoff
    model_path = _model_file(tmp_path, monkeypatch, name)
    frame_path, effects_path = tmp_path / "frame.json", tmp_path / "effects.json"
    assert main(["construct", model_path, "--out", str(frame_path),
                 "--report", str(tmp_path / "construct.json")]) == 0
    _write_effects_of(frame_path, effects_path)
    (frame_code, by_frame), (effects_code, by_effects) = (
        run_to_file(tmp_path, ["verify", model_path, str(path)])
        for path in (frame_path, effects_path))
    assert frame_code == effects_code == 0
    for key in ("labels", "projective"):
        assert by_effects["povm"][key] == by_frame["povm"][key]
    for section in ("optimality", "saturation"):
        assert _agree(by_frame[section], by_effects[section])


def test_every_eigensolve_input_is_exactly_hermitian(tmp_path, monkeypatch):
    # linalg gates nothing it is handed: every matrix herm_eigen receives,
    # and every member of a family simultaneous_diagonalize receives, equals
    # its conjugate transpose bit for bit, through analyze, construct and
    # verify on the five built-ins, both dense families and an effects file
    herm_eigen, joint = qlinalg.herm_eigen, qlinalg.simultaneous_diagonalize
    calls, inexact = {"herm_eigen": 0, "simultaneous_diagonalize": 0}, []

    def check(name, mats):
        calls[name] += 1
        inexact.extend(name for m in mats if not np.array_equal(m, m.conj().T))

    def checked_eigen(a):
        check("herm_eigen", [a])
        return herm_eigen(a)

    def checked_joint(family, gate):
        check("simultaneous_diagonalize", family)
        return joint(family, gate)

    monkeypatch.setattr(qlinalg, "herm_eigen", checked_eigen)
    monkeypatch.setattr(qlinalg, "simultaneous_diagonalize", checked_joint)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import families

    configs = {name: {"model": name, "theta": theta.tolist()}
               for name, theta in WORKING_POINTS.items()}
    configs.update(families.dense_configs(1))
    report = str(tmp_path / "report.json")
    for name, config in configs.items():
        model_path, povm_path = tmp_path / f"{name}.json", tmp_path / f"{name}-povm.json"
        model_path.write_text(json.dumps(config))
        assert main(["analyze", str(model_path), "--out", report]) != 1
        if main(["construct", str(model_path), "--out", str(povm_path), "--report", report]) == 0:
            assert main(["verify", str(model_path), str(povm_path), "--out", report]) == 0
    effects_path = tmp_path / "effects.json"
    _write_effects_of(tmp_path / "example2-povm.json", effects_path)
    assert main(["verify", str(tmp_path / "example2.json"), str(effects_path),
                 "--out", report]) == 0
    assert inexact == [] and min(calls.values()) > 0, (inexact, calls)


class TestSimulate:
    def _povm(self, tmp_path, model_file):
        povm_path = tmp_path / "povm.json"
        main(["construct", model_file, "--out", str(povm_path),
              "--report", str(tmp_path / "c.json")])
        return str(povm_path)

    def test_displaced_simulation(self, tmp_path, ex2_file):
        povm_path = self._povm(tmp_path, ex2_file)
        code, report = run_to_file(
            tmp_path,
            ["simulate", ex2_file, povm_path, "--delta", "0", "0.05",
             "--N", "1000", "--R", "2000", "--seed", "123"],
        )
        assert code == 0
        assert report["simulation"]["rel_err"] <= 0.1
        assert report["simulation"]["theta_sim"] == [0.25, 0.55]

    def test_undisplaced_singular(self, tmp_path, ex2_file):
        povm_path = self._povm(tmp_path, ex2_file)
        code, report = run_to_file(
            tmp_path, ["simulate", ex2_file, povm_path, "--delta", "0", "0", "--N", "100", "--R", "10"]
        )
        assert code == 2
        assert report["error"]["type"] == "SingularFisher"
        assert "[0.0, 1.0]" in report["error"]["message"]

    def test_study_emits_decreasing_csv(self, tmp_path, ex2_file):
        povm_path = self._povm(tmp_path, ex2_file)
        csv_path = tmp_path / "study.csv"
        code, report = run_to_file(
            tmp_path,
            ["simulate", ex2_file, povm_path, "--study", "1e-1,1e-2,1e-3",
             "--csv", str(csv_path)],
        )
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "delta,max_abs_dev"
        devs = [float(line.split(",")[1]) for line in lines[1:]]
        assert devs[0] > devs[1] > devs[2]
        assert report["study"]["rows"][0]["delta"] == pytest.approx(0.1)

    def test_simulates_every_povm_that_verify_accepts(self, tmp_path, diag_file):
        # effects (1 + eps) e_k e_k^dag miss completeness by eps sqrt(3),
        # within tol.povm n_s: the probabilities then sum to 1 + eps
        effects = [qlinalg.matrix_to_json((1.0 + 1.5e-9) * np.diag(np.eye(3)[k])) for k in range(3)]
        povm_path = tmp_path / "povm.json"
        povm_path.write_text(json.dumps({"effects": effects}), encoding="utf-8")
        code, report = run_to_file(tmp_path, ["verify", diag_file, str(povm_path)])
        assert code == 0 and report["optimality"]["passed"] and report["saturation"]["passed"]
        code, report = run_to_file(tmp_path, ["simulate", diag_file, str(povm_path),
                                              "--R", "100", "--N", "10"])
        assert code == 0, report.get("error")

    def test_trials_beyond_memory_give_an_error_report(self, tmp_path, ex2_file):
        # 10**15 x 3 int64 counts exceed the address space, so nothing is allocated
        povm_path = self._povm(tmp_path, ex2_file)
        code, report = run_to_file(tmp_path, ["simulate", ex2_file, povm_path, "--delta", "0",
                                              "0.05", "--R", str(10**15), "--N", "10"])
        assert code == 1
        assert report["error"]["type"] == "ParseError"
        assert f"R = {10**15} trials of 3 outcome counts" in report["error"]["message"]


class TestRankDrift:
    def test_drifting_family_warns_and_errors(self, tmp_path):
        # stencil whose forward point leaks weight into the null space:
        # the derivative acquires null-null mass, and the SLD solve rejects
        # the family
        import qcrb.model as qmodel

        mdl = qmodel.build_model("example2")
        theta = np.array([0.25, 0.5])
        h = 1e-5
        payload = qmodel.stencil_payload(mdl, theta, h)
        phi = 1.25
        y = np.array([0.8, 0.0, -0.6 * np.exp(-1j * phi)])
        psi1 = np.array([0.0, 1.0, 0.0])
        eps = 1e-6
        bump = eps * (np.outer(y, y.conj()) - np.outer(psi1, psi1.conj()))
        from qcrb import linalg as qlinalg

        plus0 = qlinalg.matrix_from_json(payload["rho_plus"][0]) + bump
        payload["rho_plus"][0] = qlinalg.matrix_to_json(plus0)
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, report = run_to_file(tmp_path, ["analyze", str(path)])
        assert code == 1
        assert report["error"]["type"] == "RankDrift"

    @pytest.mark.parametrize("theta, tol", [
        pytest.param(["5e-9", "0.3"], [], id="weight-below-rank"),
        pytest.param(["1e-7", "0.3"], ["--tol", "rank=1e-6"], id="weight-below-overridden-rank"),
    ])
    def test_a_dropped_weight_is_rank_drift(self, tmp_path, diag_file, theta, tol):
        # classical_diag's weight theta_1 falls below tol.rank, so the rank
        # varies with theta; the kept weights' sum is no second trace gate
        code, report = run_to_file(tmp_path, ["analyze", diag_file, "--theta", *theta, *tol])
        assert code == 1
        assert report["error"]["type"] == "RankDrift"


class TestUndetermined:
    def test_no_injective_block_reports_undetermined(self, tmp_path):
        # pure state on C^3 whose +0 blocks are (1,0) and (0,1): a
        # certifying W exists, but neither block is injective on the
        # two-dimensional coimage, so find_W's ratio operators cannot find
        # it and the honest outcome is Undetermined (exit 3)
        h = 1e-5
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        d1 = np.zeros((3, 3), dtype=complex)
        d1[0, 1] = d1[1, 0] = 0.5
        d2 = np.zeros((3, 3), dtype=complex)
        d2[0, 2] = d2[2, 0] = 0.5
        from qcrb import linalg as qlinalg

        payload = {
            "model": "stencil",
            "h": h,
            "center": [0.0, 0.0],
            "rho_center": qlinalg.matrix_to_json(rho),
            "rho_plus": [qlinalg.matrix_to_json(rho + h * d) for d in (d1, d2)],
            "rho_minus": [qlinalg.matrix_to_json(rho - h * d) for d in (d1, d2)],
        }
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, report = run_to_file(tmp_path, ["analyze", str(path)])
        assert code == 3
        assert report["conditions"]["classification"] == "Undetermined"
        assert report["conditions"]["c1"]["passed"] is True
        assert report["conditions"]["c3"]["passed"] is True
        assert report["conditions"]["c4"]["certified"] is False


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("argv, command", [
        pytest.param(["simulate", "{model}", "{povm}", "--N", "abc"], "simulate", id="bad-int"),
        pytest.param(["analyze", "{model}", "--bogus"], "analyze", id="unknown-flag"),
        pytest.param(["analyze", "{model}", "--out", "{out}", "--bogus"], "analyze",
                     id="unknown-flag-with-out"),
        pytest.param(["verify", "{model}"], "verify", id="missing-positional"),
        pytest.param([], None, id="no-subcommand"),
        pytest.param(["inspect", "{model}"], None, id="unknown-subcommand"),
    ])
    def test_usage_error_gives_a_json_report(self, tmp_path, ex2_file, capsys, argv, command):
        # the usage line stays on stderr; the report always goes to stdout
        out = tmp_path / "report.json"
        code = main([arg.format(model=ex2_file, povm=tmp_path / "p.json", out=out) for arg in argv])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        VALIDATOR.validate(report)
        assert code == report["exit_code"] == 1
        assert (report["command"], report["error"]["type"]) == (command, "UsageError")
        assert captured.err.startswith("usage: qcrb") and not out.exists()

    def test_help_is_not_a_report(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qcrb")

    def test_flag_prefix_is_not_expanded(self, ex2_file, capsys):
        # --h is no flag; it must not be taken as an abbreviation of --help
        assert main(["analyze", ex2_file, "--h", "0.09"]) == 1
        assert "unrecognized arguments: --h" in capsys.readouterr().err

    def test_unknown_file(self, tmp_path):
        code, report = run_to_file(tmp_path, ["analyze", str(tmp_path / "nope.json")])
        assert code == 1
        assert report["error"]["type"] == "ParseError"

    def test_malformed_seed_variable(self, tmp_path, ex2_file, monkeypatch):
        # the seed comes from --seed alone; analyze, which never samples, ignores the environment
        monkeypatch.setenv("QCRB_SEED", "abc")
        code, report = run_to_file(tmp_path, ["analyze", ex2_file])
        assert code == 0
        assert "error" not in report

    def test_overflowing_model_constants_are_an_invalid_state(self, tmp_path):
        # finite constants whose phase c1 theta1 + c2 theta2 overflows to inf
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"model": "example2", "c1": 1e308, "c2": 1e308,
                                    "theta": [0.9, 0.9]}), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report = run_to_file(tmp_path, ["analyze", str(path)])
        assert code == 1
        assert report["error"]["type"] == "InvalidState"
        # the report is the only output: no RuntimeWarning on stderr
        assert [str(w.message) for w in caught] == []


GOOD = {"model": "example2", "theta": [0.25, 0.5]}
EYE = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]
EYE2 = [row[:2] for row in EYE[:2]]
HALF = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
STENCIL = {"model": "stencil", "h": 1e-3, "center": [0.2], "rho_center": HALF,
           "rho_plus": [HALF], "rho_minus": [HALF]}


def _identity_with(entry, at=(0, 0)) -> dict:
    effect = [list(row) for row in EYE]
    effect[at[0]][at[1]] = entry
    return {"effects": [effect]}


@pytest.mark.parametrize("config, povm_file, argv", [
    pytest.param({"model": "example2", "c1": "abc"}, None, ["analyze"], id="constant-not-a-number"),
    pytest.param({"model": "example2", "theta": ["x", 0.5]}, None, ["analyze"],
                 id="theta-not-a-number"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--N", "0"], id="no-copies"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--R", "1"], id="one-trial"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--study", "abc"], id="study-not-numbers"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--study", ","], id="study-empty"),
    pytest.param(GOOD, _identity_with(["a", 0]), ["verify"], id="povm-entry-not-a-number"),
    pytest.param(GOOD, _identity_with(1.0), ["verify"], id="povm-entry-not-a-pair"),
    pytest.param(GOOD, _identity_with([True, 0.0]), ["verify"], id="povm-entry-a-bool"),
    pytest.param(GOOD, _identity_with(["1", 0.0]), ["verify"], id="povm-entry-a-string"),
    pytest.param({**GOOD, "c1": True}, None, ["analyze"], id="constant-a-bool"),
    pytest.param({**GOOD, "d": [0.6, False]}, None, ["analyze"], id="complex-part-a-bool"),
    pytest.param({**GOOD, "c1": "1.5"}, None, ["analyze"], id="constant-a-string"),
    pytest.param({**GOOD, "c1": 10**400}, None, ["analyze"], id="constant-out-of-range"),
    pytest.param(GOOD, None, ["analyze", "--tol", "cond=0"], id="zero-tolerance"),
    pytest.param(GOOD, None, ["analyze", "--tol", "consistency=1e-6"], id="removed-tolerance"),
    pytest.param(GOOD, None, ["analyze", "--tol", "cluster=1e-7"], id="removed-cluster"),
    pytest.param(GOOD, None, ["analyze", "--tol", "diag=1e-8"], id="removed-diag"),
    pytest.param(GOOD, None, ["analyze", "--tol", "sv=1e-8"], id="removed-sv"),
    pytest.param(GOOD, None, ["analyze", "--tol", "herm=1e-10"], id="removed-herm"),
    pytest.param(GOOD, None, ["analyze", "--tol", "c4=1e-8"], id="removed-c4"),
    pytest.param(GOOD, None, ["analyze", "--tol", "projective=1e-8"], id="removed-projective"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--delta", "0.01"], id="delta-not-p-long"),
    pytest.param(GOOD, {"effects": [EYE]},
                 ["simulate", "--study", "1e-2", "--direction", "1", "0", "0"],
                 id="direction-not-p-long"),
    pytest.param(GOOD, None, ["analyze", "--tol", "rank=-1"], id="negative-tolerance"),
    pytest.param(GOOD, None, ["analyze", "--tol", "cond=nan"], id="nan-tolerance"),
    pytest.param(GOOD, None, ["analyze", "--tol", "cond=inf"], id="infinite-tolerance"),
    pytest.param(GOOD, None, ["analyze", "--tol", "gap=1"], id="gap-not-above-one"),
    pytest.param(GOOD, None, ["analyze", "--seed", "-1"], id="negative-seed"),
    pytest.param({**STENCIL, "h": math.nan}, None, ["analyze"], id="stencil-h-not-finite"),
    pytest.param({**STENCIL, "h": 0}, None, ["analyze"], id="stencil-h-zero"),
    pytest.param({"model": "example2"}, None, ["analyze"], id="no-theta"),
    pytest.param({**STENCIL, "center": [math.inf]}, None, ["analyze"],
                 id="stencil-center-not-finite"),
    pytest.param({**STENCIL, "center": [], "rho_plus": [], "rho_minus": []}, None, ["analyze"],
                 id="stencil-no-parameters"),
    pytest.param({"model": ["x"]}, None, ["analyze"], id="model-name-a-list"),
    pytest.param({"model": {"a": 1}}, None, ["analyze"], id="model-name-an-object"),
    pytest.param({**STENCIL, "junk": 1}, None, ["analyze"], id="stencil-unknown-key"),
    pytest.param({**STENCIL, "theta": [0.2]}, None, ["analyze"], id="stencil-theta-key"),
    pytest.param(GOOD, {"effects": [EYE], "ranks": [1]}, ["verify"], id="effects-file-with-ranks"),
    pytest.param(GOOD, None, ["analyze", "--theta", "nan", "0.5"], id="theta-flag-not-finite"),
    pytest.param(GOOD, None, ["analyze", "--theta", "0.5"], id="theta-flag-not-p-long"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--delta", "inf", "0"],
                 id="delta-not-finite"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--study", "1e-2,nan"],
                 id="study-not-finite"),
    pytest.param(GOOD, {"effects": [EYE]},
                 ["simulate", "--study", "1e-2", "--direction", "nan", "1"],
                 id="direction-not-finite"),
    pytest.param(GOOD, {"effects": [EYE]},
                 ["simulate", "--study", "1e-2", "--direction", "1e308", "1e308"],
                 id="direction-norm-overflows"),
    # values of 2**63 and above fail before anything is allocated; a large R
    # that fits in int64 asks for R x K counts (TestSimulate)
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--N", str(2**63), "--R", "2"],
                 id="copies-out-of-range"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--N", "99999999999999999999"],
                 id="copies-beyond-int64"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--R", str(2**63)],
                 id="trials-out-of-range"),
])
def test_malformed_input_gives_an_error_report(tmp_path, config, povm_file, argv):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(config), encoding="utf-8")
    command, *options = argv
    files = [str(model_path)]
    if povm_file is not None:
        povm_path = tmp_path / "povm.json"
        povm_path.write_text(json.dumps(povm_file), encoding="utf-8")
        files.append(str(povm_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run_to_file(tmp_path, [command, *files, *options])
    assert code == 1
    assert report["error"]["type"] == "ParseError"
    assert [str(w.message) for w in caught] == []


def _ex2_frame_file(**change) -> dict:
    u = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
    return {"frame": qlinalg.matrix_to_json(u), "ranks": [1, 2], **change}


def _stencil_with(rho_center=HALF, plus=HALF, minus=HALF, h=1e-3) -> dict:
    return {**STENCIL, "h": h, "rho_center": rho_center, "rho_plus": [plus], "rho_minus": [minus]}


def _half_tilted(s: float) -> list:
    """HALF plus the anti-Hermitian off-diagonal i s."""
    return [[[0.5, 0.0], [0.0, s]], [[0.0, s], [0.5, 0.0]]]


@pytest.mark.parametrize("config, povm_file, error", [
    pytest.param(GOOD, _ex2_frame_file(frame=qlinalg.matrix_to_json(1.001 * np.eye(3))),
                 "InvalidPovm", id="not-unitary"),
    pytest.param(GOOD, _ex2_frame_file(ranks=[1, 1]), "InvalidPovm", id="ranks-not-n_s"),
    pytest.param(GOOD, _ex2_frame_file(ranks=[0, 1, 2]), "InvalidPovm", id="rank-zero"),
    pytest.param(GOOD, _ex2_frame_file(ranks=[True, 2]), "ParseError", id="rank-a-bool"),
    pytest.param(GOOD, _ex2_frame_file(ranks=[1.0, 2]), "ParseError", id="rank-a-float"),
    pytest.param(GOOD, _ex2_frame_file(effects=[EYE]), "InvalidPovm", id="frame-and-effects"),
    pytest.param(GOOD, _ex2_frame_file(junk=1), "ParseError", id="unknown-key"),
    pytest.param(GOOD, {"ranks": [3]}, "InvalidPovm", id="neither-key"),
    pytest.param(GOOD, _ex2_frame_file(frame=qlinalg.matrix_to_json(np.eye(2))), "InvalidPovm",
                 id="frame-not-n_s"),
    pytest.param(GOOD, {"effects": [EYE2]}, "InvalidPovm", id="effect-not-n_s"),
    pytest.param(GOOD, _identity_with([0.1, 0.0], at=(0, 1)), "InvalidPovm",
                 id="effect-not-hermitian"),
    pytest.param({**GOOD, "box": [[0.3, 0.3], [0.0, 1.0]]}, {"effects": [EYE]}, "InvalidState",
                 id="box-empty-interval"),
    pytest.param(_stencil_with(rho_center=[[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]]),
                 {"effects": [EYE2]}, "InvalidState", id="stencil-center-negative"),
    # each neighbour is Hermitian within tol.state, their difference over 2h is not
    pytest.param(_stencil_with(plus=_half_tilted(2e-11), minus=_half_tilted(-2e-11), h=1e-5),
                 {"effects": [EYE2]}, "InvalidState: derivative 0 is not Hermitian",
                 id="stencil-derivative-not-hermitian"),
])
def test_a_bad_input_gives_a_typed_error_report(tmp_path, ex2_file, config, povm_file, error):
    # the frame is unitary for ranks [1, 2] on C^3: each POVM case breaks one of its gates,
    # and each model case one gate of the model file; ``error`` begins "type: message"
    assert main(["verify", ex2_file, _write_povm(tmp_path, _ex2_frame_file())]) == 2
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(config), encoding="utf-8")
    povm_path = _write_povm(tmp_path, povm_file)
    code, report = run_to_file(tmp_path, ["verify", str(model_path), povm_path])
    assert code == 1
    assert f"{report['error']['type']}: {report['error']['message']}".startswith(error)


def _write_povm(tmp_path, payload: dict) -> str:
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# arbitrary small JSON values; NaN and Infinity are written as the tokens
# Python's json module reads back
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10,
)
EX2_FULL = {**GOOD, "d": [0.6, 0], "c1": 1, "c2": 2, "box": [[0, 1], [0, 1]]}
EX2_STENCIL = stencil_payload(build_model("example2"), [0.25, 0.5], 1e-5)
_DROP = object()


def _mutated(base: dict):
    """``base`` with one to three keys, known or new, set to a JSON value or dropped."""
    edit = st.tuples(st.sampled_from(sorted(base)) | st.text(max_size=6),
                     JSON_VALUES | st.just(_DROP))

    def apply(edits) -> dict:
        out = dict(base)
        for key, value in edits:
            if value is _DROP:
                out.pop(key, None)
            else:
                out[key] = value
        return out

    return st.lists(edit, min_size=1, max_size=3).map(apply)


# (model config, POVM file): one of the two arbitrary or mutated, the other valid
INPUTS = st.one_of(
    st.tuples(JSON_VALUES, st.just({"effects": [EYE]})),
    st.tuples(_mutated(EX2_FULL), st.just({"effects": [EYE]})),
    st.tuples(_mutated(EX2_STENCIL), st.just({"effects": [EYE]})),
    st.tuples(st.just(GOOD), JSON_VALUES),
    st.tuples(st.just(GOOD), _mutated({"effects": [EYE]})),
    st.tuples(st.just(GOOD), _mutated(_ex2_frame_file())),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=st.sampled_from(["analyze", "construct", "verify", "simulate"]), inputs=INPUTS)
def test_any_input_gives_a_report_and_an_exit_code(tmp_path, command, inputs):
    # every file is rewritten for each example, so the shared tmp_path holds no state
    config, povm_file = inputs
    model_path, povm_path, report = (tmp_path / name for name in ("m.json", "p.json", "r.json"))
    model_path.write_text(json.dumps(config), encoding="utf-8")
    povm_path.write_text(json.dumps(povm_file), encoding="utf-8")
    report.unlink(missing_ok=True)
    files = [str(model_path)] + ([str(povm_path)] if command in ("verify", "simulate") else [])
    options = {"construct": ["--report", str(report)],
               "simulate": ["--R", "3", "--N", "5", "--out", str(report)]}
    code = main([command, *files, *options.get(command, ["--out", str(report)])])
    written = json.loads(report.read_text(encoding="utf-8"))
    VALIDATOR.validate(written)
    assert code in (0, 1, 2, 3)
    assert written["exit_code"] == code


@pytest.mark.parametrize("argv, reported", [
    pytest.param(["construct", "{model}", "--out", "{missing}/p.json", "--report", "{report}"],
                 True, id="povm-file"),
    pytest.param(["simulate", "{model}", "{povm}", "--study", "1e-1", "--csv", "{missing}/s.csv",
                  "--out", "{report}"], True, id="study-csv"),
    pytest.param(["analyze", "{model}", "--out", "{missing}/r.json"], False, id="report"),
])
def test_an_unwritable_output_path_exits_1_without_a_traceback(tmp_path, ex2_file, capsys,
                                                                argv, reported):
    # a POVM file or CSV that cannot be written is an error report; a report
    # that cannot be written leaves one error line on stderr
    povm, report = tmp_path / "povm.json", tmp_path / "report.json"
    assert main(["construct", ex2_file, "--out", str(povm), "--report", str(report)]) == 0
    report.unlink()
    capsys.readouterr()
    paths = {"model": ex2_file, "povm": povm, "missing": tmp_path / "missing", "report": report}
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    if reported:
        written = json.loads(report.read_text(encoding="utf-8"))
        VALIDATOR.validate(written)
        assert written["exit_code"] == 1
        assert written["error"]["type"] == "ParseError"
        assert captured.err == ""
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1


def test_json_writes_records_arrays_and_numpy_scalars():
    from qcrb.conditions import Verdict

    assert cli._json(Verdict(passed=np.bool_(False), residual=np.float64("nan"))) == {
        "passed": False, "residual": None}
    assert cli._json(np.zeros((0, 0), dtype=complex)) == []
    assert cli._json(np.array([[1.0 + 2.0j, -0.5j]])) == [[[1.0, 2.0], [0.0, -0.5]]]
    assert cli._json(np.array([[0.5, np.nan]])) == [[0.5, None]]
    assert json.dumps(cli._json((np.bool_(True), np.int64(3), (np.float64(0.25),)))) == (
        "[true, 3, [0.25]]")


def test_only_the_simulation_draws_random_numbers():
    # analysis results must not depend on the seed, so no other module may
    # reach a random number generator
    src = Path(qcrb.__file__).resolve().parent
    pattern = re.compile(r"np\.random|numpy\.random|default_rng|\bimport random\b|\bfrom random\b")
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "estimate.py" and pattern.search(path.read_text(encoding="utf-8"))]
    assert offenders == []


# library entry points that only the acceptance criteria call: canonical
# structure (7) and the condition-2 verifier (2)
_CRITERION_ONLY = {"canonicalize", "verify_condition2_U", "solve_U_fixed_range"}


def _public_names(tree: ast.Module):
    """Public top-level functions and classes, and the public properties of the classes."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        properties = [m for m in members if isinstance(m, ast.FunctionDef)
                      and any(isinstance(d, ast.Name) and d.id == "property"
                              for d in m.decorator_list)]
        for item in [node, *properties]:
            if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and not item.name.startswith("_"):
                yield item.name


def test_every_public_function_has_a_caller():
    # a public top-level function or class, or a public property, that only
    # tests reach is dead code
    src = Path(qcrb.__file__).resolve().parent
    bench = Path(__file__).resolve().parent.parent / "bench"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*src.glob("*.py"), *bench.glob("*.py")]
             if not path.name.startswith("test_")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    defined = {name for path, tree in trees.items() if path.parent == src
               for name in _public_names(tree)}
    assert _CRITERION_ONLY <= defined
    assert sorted(defined - used - _CRITERION_ONLY) == []


def test_every_echoed_tolerance_is_read():
    # the report echoes every Tolerances field, so each must gate something
    src = Path(qcrb.__file__).resolve().parent
    text = "\n".join(path.read_text(encoding="utf-8") for path in src.glob("*.py"))
    unread = [f for f in Tolerances._fields
              if not re.search(rf"\b(tol|DEFAULT)\.{f}\b", text)]
    assert unread == []


def test_one_central_difference_and_one_factorization_gate():
    # every difference is model.central_difference, every gate model.factorization_at
    src = Path(qcrb.__file__).resolve().parent
    text = "\n".join(path.read_text(encoding="utf-8") for path in src.glob("*.py"))
    assert text.count("/ (2.0 * h)") == 1
    assert text.count("raise NoFactorization") == 1


def test_only_make_povm_and_canonicalize_construct_a_povm():
    # a frame built or read, and effects read, are labelled and checked by one make_povm
    src = Path(qcrb.__file__).resolve().parent
    makers = [node.name for path in src.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.FunctionDef)
              for call in ast.walk(node)
              if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Povm"]
    assert sorted(makers) == ["canonicalize", "make_povm"]


# Runs analyze and construct on every built-in model in one interpreter and
# prints each report and POVM file, tagged with its name.
_BUILTIN_REPORTS = """
import json, pathlib, sys
from qcrb.cli import main
work = pathlib.Path(sys.argv[1])
for name, theta in json.loads(sys.argv[2]).items():
    cfg = work / (name + ".json")
    cfg.write_text(json.dumps({"model": name, "theta": theta}))
    main(["analyze", str(cfg), "--out", str(work / (name + ".analyze"))])
    main(["construct", str(cfg), "--out", str(work / (name + ".povm")),
          "--report", str(work / (name + ".construct"))])
for path in sorted(work.glob("*.*")):
    print(path.name, path.read_text())
"""


def test_builtin_reports_do_not_depend_on_blas_threads(tmp_path):
    points = json.dumps({name: theta.tolist() for name, theta in WORKING_POINTS.items()})
    src = str(Path(qcrb.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env.update(PYTHONPATH=src, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _BUILTIN_REPORTS, str(work), points],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert outputs[0].count(".analyze ") == len(WORKING_POINTS)
    assert outputs[0] == outputs[1]


class TestEntry:
    def test_freezes_once_before_main_and_exits_with_its_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert calls == ["freeze", "main"]
        assert exc.value.code == 3

    def test_main_leaves_the_heap_collectable(self, tmp_path, ex2_file):
        before = gc.get_freeze_count()
        code, _ = run_to_file(tmp_path, ["analyze", ex2_file])
        assert code == 0
        assert gc.get_freeze_count() == before

    def test_closed_stdout_exits_1_without_a_traceback(self, ex2_file):
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(Path(qcrb.__file__).resolve().parents[1]))
        try:
            proc = subprocess.run([sys.executable, "-m", "qcrb.cli", "analyze", ex2_file],
                                  env=env, stdout=write, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == b""

    def test_cold_process_writes_the_in_process_report(self, tmp_path, ex2_file):
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        env = dict(os.environ, PYTHONPATH=str(Path(qcrb.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qcrb.cli", "analyze", ex2_file,
                               "--out", str(cold)], env=env, timeout=120)
        code = main(["analyze", ex2_file, "--out", str(warm)])
        assert proc.returncode == code == 0
        assert cold.read_bytes() == warm.read_bytes()

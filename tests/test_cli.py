import ast
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import qcrb
from qcrb import cli
from qcrb.cli import main
from qcrb.config import Tolerances

from conftest import WORKING_POINTS

SCHEMA = json.loads(
    (Path(qcrb.__file__).parent / "report_schema.json").read_text(encoding="utf-8")
)


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
    jsonschema.validate(report, SCHEMA)
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

    def test_theta_flag_overrides_file(self, tmp_path, ex2_file):
        code, report = run_to_file(tmp_path, ["analyze", ex2_file, "--theta", "0.4", "0.6"])
        assert code == 0
        assert report["theta"] == [0.4, 0.6]

    def test_tolerances_echoed_and_overridable(self, tmp_path, ex2_file):
        code, report = run_to_file(tmp_path, ["analyze", ex2_file, "--tol", "cond=1e-6"])
        assert report["tolerances"]["cond"] == 1e-6
        assert report["tolerances"]["rank"] == 1e-8

    def test_unknown_tolerance_rejected(self, ex2_file, capsys):
        assert main(["analyze", ex2_file, "--tol", "bogus=1"]) == 1

    def test_stdout_default(self, ex2_file, capsys):
        code = main(["analyze", ex2_file])
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
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
        jsonschema.validate(report, SCHEMA)
        assert report["saturation"]["passed"] is True
        assert report["optimality"]["passed"] is True
        payload = json.loads(povm_path.read_text())
        assert len(payload["effects"]) == 3
        assert report["povm"]["labels"].count("null") == 1

    def test_povm_file_is_compact_json(self, tmp_path, ex2_file, capsys):
        povm_path = tmp_path / "povm.json"
        report_path = tmp_path / "report.json"
        main(["construct", ex2_file, "--out", str(povm_path), "--report", str(report_path)])
        text = povm_path.read_text()
        assert text.count("\n") == 1 and " " not in text
        # the effects live in the POVM file only; without --out the report carries them
        assert "effects" not in json.loads(report_path.read_text())["povm"]
        assert main(["construct", ex2_file]) == 0
        printed = json.loads(capsys.readouterr().out)
        jsonschema.validate(printed, SCHEMA)
        assert json.loads(text) == {"effects": printed["povm"]["effects"]}

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
        jsonschema.validate(report, SCHEMA)
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

    def test_incomplete_povm_is_an_error(self, tmp_path, ex2_file):
        povm_path = tmp_path / "half.json"
        half = [[[0.5, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]
        povm_path.write_text(json.dumps({"effects": [half]}), encoding="utf-8")
        code, report = run_to_file(tmp_path, ["verify", ex2_file, str(povm_path)])
        assert code == 1
        assert report["error"]["type"] == "InvalidPovm"


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

    def test_env_seed_fallback(self, tmp_path, ex2_file, monkeypatch):
        povm_path = self._povm(tmp_path, ex2_file)
        monkeypatch.setenv("QCRB_SEED", "321")
        code, report = run_to_file(
            tmp_path,
            ["simulate", ex2_file, povm_path, "--delta", "0", "0.05", "--N", "200", "--R", "50"],
        )
        assert code == 0
        assert report["simulation"]["seed"] == 321


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


class TestUndetermined:
    def test_heuristic_gap_reports_undetermined(self, tmp_path):
        # pure state on C^3 whose +0 blocks are (1,0) and (0,1): a
        # certifying W exists, but the pinv-ratio heuristic cannot find it
        # and the honest outcome is Undetermined (exit 3)
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

    def test_flag_prefix_is_not_expanded(self, ex2_file, capsys):
        # --h is no flag; it must not be taken as an abbreviation of --help
        assert main(["analyze", ex2_file, "--h", "0.09"]) == 1
        assert "unrecognized arguments: --h" in capsys.readouterr().err

    def test_unknown_file(self, tmp_path):
        code, report = run_to_file(tmp_path, ["analyze", str(tmp_path / "nope.json")])
        assert code == 1
        assert report["error"]["type"] == "ParseError"

    def test_malformed_seed_variable(self, tmp_path, ex2_file, monkeypatch):
        monkeypatch.setenv("QCRB_SEED", "abc")
        code, report = run_to_file(tmp_path, ["analyze", ex2_file])
        assert code == 1
        assert report["error"]["type"] == "ParseError"


GOOD = {"model": "example2", "theta": [0.25, 0.5]}
EYE = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]


def _identity_with(entry) -> dict:
    effect = [list(row) for row in EYE]
    effect[0][0] = entry
    return {"effects": [effect]}


@pytest.mark.parametrize("config, povm_file, argv", [
    pytest.param({"model": "example2", "c1": "abc"}, None, ["analyze"], id="constant-not-a-number"),
    pytest.param({"model": "example2", "theta": ["x", 0.5]}, None, ["analyze"],
                 id="theta-not-a-number"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--N", "0"], id="no-copies"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--study", "abc"], id="study-not-numbers"),
    pytest.param(GOOD, _identity_with(["a", 0]), ["verify"], id="povm-entry-not-a-number"),
    pytest.param(GOOD, _identity_with(1.0), ["verify"], id="povm-entry-not-a-pair"),
    pytest.param(GOOD, None, ["analyze", "--tol", "fd_step=0"], id="zero-fd-step"),
    pytest.param(GOOD, {"effects": [EYE]}, ["simulate", "--delta", "0.01"], id="delta-not-p-long"),
    pytest.param(GOOD, {"effects": [EYE]},
                 ["simulate", "--study", "1e-2", "--direction", "1", "0", "0"],
                 id="direction-not-p-long"),
    pytest.param(GOOD, None, ["analyze", "--tol", "rank=-1"], id="negative-tolerance"),
    pytest.param(GOOD, None, ["analyze", "--tol", "cond=nan"], id="nan-tolerance"),
    pytest.param(GOOD, None, ["analyze", "--tol", "cond=inf"], id="infinite-tolerance"),
    pytest.param(GOOD, None, ["analyze", "--tol", "gap=1"], id="gap-not-above-one"),
    pytest.param(GOOD, None, ["analyze", "--seed", "-1"], id="negative-seed"),
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
    code, report = run_to_file(tmp_path, [command, *files, *options])
    assert code == 1
    assert report["error"]["type"] == "ParseError"


def test_only_the_simulation_draws_random_numbers():
    # analysis results must not depend on the seed, so no other module may
    # reach a random number generator
    src = Path(qcrb.__file__).resolve().parent
    pattern = re.compile(r"np\.random|numpy\.random|default_rng|\bimport random\b|\bfrom random\b")
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "estimate.py" and pattern.search(path.read_text(encoding="utf-8"))]
    assert offenders == []


# library entry points that only the acceptance criteria call: canonical
# structure (7), invariance under Lzz (6) and the condition-2 verifier (2)
_CRITERION_ONLY = {"canonicalize", "with_lzz", "verify_condition2_U", "solve_U_fixed_range"}


def test_every_public_function_has_a_caller():
    # a public top-level function or class that only tests reach is dead code
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
    defined = {node.name for path, tree in trees.items() if path.parent == src
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    assert _CRITERION_ONLY <= defined
    assert sorted(defined - used - _CRITERION_ONLY) == []


def test_every_echoed_tolerance_is_read():
    # the report echoes every Tolerances field, so each must gate something
    src = Path(qcrb.__file__).resolve().parent
    text = "\n".join(path.read_text(encoding="utf-8") for path in src.glob("*.py"))
    unread = [f for f in Tolerances._fields
              if not re.search(rf"\b(tol|DEFAULT)\.{f}\b", text)]
    assert unread == []


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
               if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "QCRB_SEED")}
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

    def test_cold_process_writes_the_in_process_report(self, tmp_path, ex2_file):
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        env = dict(os.environ, PYTHONPATH=str(Path(qcrb.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qcrb.cli", "analyze", ex2_file,
                               "--out", str(cold)], env=env, timeout=120)
        code = main(["analyze", ex2_file, "--out", str(warm)])
        assert proc.returncode == code == 0
        assert cold.read_bytes() == warm.read_bytes()

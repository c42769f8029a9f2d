"""Cold-CLI benchmark of qcrb, with a separate traced run for per-layer numbers.

Usage (from the root of a checkout):

    python3 bench/run.py --workload cli-dense --seed 1 --seconds 30 --trace 0

One client drives ``python -m qcrb.cli`` of this checkout's ``src/`` in a
closed loop: each operation is a fresh subprocess, so interpreter start
and imports are paid as a user pays them.  ``--trace 1`` instead runs the
same op mix in process, alternating untraced passes with passes under
the span tracer of ``tracing.py``, and reports per-layer metrics.  Every
operation's report is checked (``checks.py``); the last line of stdout is
the JSON result.  Set-up, the op mix and expectations live in
``workloads.py``; working files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from stats import percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
STARTUP_PROBES = 7
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    drop = {"PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "QCRB_SEED"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(argv: list[str], cwd: Path, env: dict[str, str]) -> tuple[int, float, float]:
    """Run one subprocess to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 rather than wait: it returns this child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


class Runner:
    """Turns ops into argv lists inside one run directory and checks their outputs."""

    def __init__(self, directory: Path, inputs: Path, cli_seed: int, validator, oracles):
        self.directory = directory
        self.inputs = inputs
        self.out = directory / "out"
        self.out.mkdir()
        self.cli_seed = cli_seed
        self.validator = validator
        self.oracles = oracles
        self.env = child_env()

    def outputs(self, index: int) -> dict[str, Path]:
        stem = self.out / str(index)
        return {"report": stem.with_suffix(".json"), "povm": stem.with_suffix(".povm.json"),
                "csv": stem.with_suffix(".csv")}

    def argv(self, op, index: int) -> list[str]:
        files = self.outputs(index)
        for path in files.values():
            path.unlink(missing_ok=True)
        argv = [op.subcommand, str(self.inputs / f"{op.model}.json")]
        if op.povm:
            argv.append(str(self.inputs / f"{op.model}.povm.json"))
        argv += [*op.extra, "--seed", str(self.cli_seed)]
        if op.subcommand == "construct":
            argv += ["--report", str(files["report"]), "--out", str(files["povm"])]
        else:
            argv += ["--out", str(files["report"])]
        if "--study" in op.extra:
            argv += ["--csv", str(files["csv"])]
        return argv

    def run_cold(self, op, index: int) -> tuple[int, float, float]:
        argv = [sys.executable, "-m", "qcrb.cli", *self.argv(op, index)]
        return run_child(argv, self.directory, self.env)

    def check(self, op, index: int, code: int) -> tuple[list[str], bool]:
        """(problems, whether the report carries an error section)."""
        import checks

        report = checks.load_report(self.outputs(index)["report"])
        problems = checks.check_report(op.expect, code, report, self.validator, self.oracles)
        if problems:
            print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
        return problems, report is None or "error" in report

    def written(self, index: int) -> tuple[int, str]:
        """Total bytes and a digest of every file the op wrote."""
        digest = hashlib.sha256()
        size = 0
        for path in self.outputs(index).values():
            if path.exists():
                data = path.read_bytes()
                size += len(data)
                digest.update(path.name.encode() + b"\0" + data)
        return size, digest.hexdigest()


def setup(workload, seed: int, cli_seed: int, directory: Path, env) -> tuple[float, dict, object]:
    """Generate the seeded configs, warm the bytecode cache, build POVMs, load the schema."""
    import checks
    import families

    start = time.perf_counter()
    inputs = directory / "inputs"
    inputs.mkdir(parents=True)
    configs = workload.configs(seed)
    families.write_configs(configs, inputs)
    code, _, _ = run_child([sys.executable, "-c", "import qcrb.cli"], directory, env)
    if code != 0:
        raise RuntimeError("cannot import qcrb.cli from the checkout")
    for name in workload.povms:
        argv = [sys.executable, "-m", "qcrb.cli", "construct", str(inputs / f"{name}.json"),
                "--out", str(inputs / f"{name}.povm.json"),
                "--report", str(inputs / f"{name}.construct.json"), "--seed", str(cli_seed)]
        code, _, _ = run_child(argv, directory, env)
        if code != 0:
            raise RuntimeError(f"set-up construct of {name} exited {code}")
    validator = checks.load_validator(SRC / "qcrb" / "report_schema.json")
    return time.perf_counter() - start, configs, validator


def cold_run(runner: Runner, ops, seconds: float) -> tuple[dict, int, int, dict]:
    """Closed loop of whole op-mix passes, one cold CLI process per op."""
    by_op: dict[str, list[float]] = {op.label: [] for op in ops}
    peak_rss = 0.0
    failed = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for index, op in enumerate(ops):
            code, secs, rss = runner.run_cold(op, index)
            problems, _ = runner.check(op, index, code)
            failed += bool(problems)
            by_op[op.label].append(secs)
            peak_rss = max(peak_rss, rss)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    times = [t for series in by_op.values() for t in series]
    p90 = percentile(times, 90)
    metrics = {
        "op_ms.p50": (1e3 * statistics.median(times), "ms"),
        "op_ms.p90": (1e3 * p90, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    info = {"samples": len(times), "samples_beyond_p90": sum(t > p90 for t in times),
            "op_ms_p50_by_op": {k: round(1e3 * statistics.median(v), 3) for k, v in by_op.items()}}
    return metrics, len(times), failed, info


def measure_startup(directory: Path, env) -> dict[str, float]:
    """Median cold interpreter start, and cold ``import qcrb.cli`` beyond it, in ms."""
    bare, imported = [], []
    for _ in range(STARTUP_PROBES):
        bare.append(run_child([sys.executable, "-c", "pass"], directory, env)[1])
        imported.append(run_child([sys.executable, "-c", "import qcrb.cli"], directory, env)[1])
    interpreter = statistics.median(bare)
    return {"interpreter_ms": 1e3 * interpreter,
            "import_ms": 1e3 * (statistics.median(imported) - interpreter)}


def traced_run(runner: Runner, ops, seconds: float) -> tuple[dict, int, int, dict, list]:
    """In-process passes, untraced and traced in turn; traced outputs must equal untraced."""
    from qcrb import cli
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    start = time.perf_counter()
    startup = measure_startup(runner.directory, runner.env)
    digests: dict[int, str] = {}
    attempted = failed = passes = 0
    untraced_s = 0.0

    def untraced_pass() -> float:
        nonlocal attempted, failed
        spent = 0.0
        for index, op in enumerate(ops):
            argv = runner.argv(op, index)
            t0 = time.perf_counter()
            code = cli.main(argv)
            spent += time.perf_counter() - t0
            problems, _ = runner.check(op, index, code)
            digests[index] = runner.written(index)[1]
            attempted += 1
            failed += bool(problems)
        return spent

    untraced_pass()   # warm-up: first calls into numpy and the package
    while True:
        pass_start = time.perf_counter()
        untraced_s += untraced_pass()
        with tracer.patched():
            for index, op in enumerate(ops):
                argv = runner.argv(op, index)
                code = tracer.run_op(op.subcommand, lambda: cli.main(argv))
                problems, has_error = runner.check(op, index, code)
                size, digest = runner.written(index)
                if digest != digests[index]:
                    problems.append("traced outputs differ from untraced ones")
                    print(f"FAILED {op.label}: traced outputs differ", file=sys.stderr)
                tracer.note_outputs(size, has_error)
                attempted += 1
                failed += bool(problems)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    metrics = layer_metrics(tracer, passes, startup, untraced_s)
    return metrics, attempted, failed, {"passes": passes, "spans": len(tracer.spans)}, tracer.dump()


def provenance() -> dict:
    import numpy

    def git(*args: str) -> str:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return done.stdout.strip() if done.returncode == 0 else ""

    sha = git("rev-parse", "HEAD")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if sha else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # single-threaded baseline; the pins must precede the first numpy import
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if not (SRC / "qcrb" / "cli.py").is_file():
        print(f"error: no qcrb sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cli_seed = args.seed % 2**31
    env = child_env()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        directory = Path(tmp)
        setup_times = []
        for i in range(SETUP_REPEATS):
            elapsed, configs, validator = setup(workload, args.seed, cli_seed, directory / f"setup{i}", env)
            setup_times.append(elapsed)
        inputs = directory / f"setup{SETUP_REPEATS - 1}" / "inputs"
        oracles = {name: checks.stencil_qfim(cfg) for name, cfg in configs.items()
                   if cfg.get("model") == "stencil"}
        runner = Runner(directory, inputs, cli_seed, validator, oracles)
        previous = os.getcwd()
        os.chdir(directory)
        try:
            if args.trace:
                metrics, attempted, failed, info, spans = traced_run(runner, workload.ops, args.seconds)
            else:
                metrics, attempted, failed, info = cold_run(runner, workload.ops, args.seconds)
                metrics["setup_s"] = (statistics.median(setup_times), "s")
                spans = None
        finally:
            os.chdir(previous)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "failed_ratio": failed / attempted,
            "setup_s": setup_times, **info, **provenance()}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

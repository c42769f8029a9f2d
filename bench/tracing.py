"""In-process spans around the public functions of each qcrb layer.

Inside ``with tracer.patched():`` every module-level binding of a function
listed in ``TRACED`` is replaced by a wrapper that records a span.  The
name is rebound in every qcrb module, not only the defining one, so the
calls ``cli`` makes through its ``from .x import f`` names are caught as
well as calls through module attributes such as ``linalg.herm_eigen``,
including the calls ``linalg`` makes to itself.  Spans are kept in memory;
the benchmark writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# layer -> public functions given a span, in the order the subcommands call
# them; small helpers (dag, fro, matrix_to_json, ...) stay in their caller's
# self time, so JSON encoding of reports and POVM files lands in cli
TRACED = {
    "model": ("load_model", "eval_bundle"),
    "blocks": ("decompose",),
    "sld": ("compute_slds", "qfim"),
    "conditions": ("evaluate_conditions", "find_W"),
    "povm": ("make_povm", "construct_optimal", "verify_optimality", "saturation_check"),
    "estimate": ("run_trials", "fc_convergence_study"),
    "linalg": ("herm_eigen", "svd", "pinv", "simultaneous_diagonalize"),
}
LAYERS = ("cli", *TRACED)
SUBCOMMANDS = ("analyze", "construct", "verify", "simulate")
ROOT = "cli.main"


@dataclass
class Span:
    name: str
    layer: str
    parent: Optional[int]
    op: int
    start: float
    end: float = 0.0
    note: object = None      # find_W: certified; run_trials: R

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class OpRecord:
    subcommand: str
    seconds: float
    out_bytes: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    ops: list[OpRecord] = field(default_factory=list)
    raised: dict[str, int] = field(default_factory=dict)
    eigen_repeats: int = 0
    _stack: list[int] = field(default_factory=list)
    _seen: set = field(default_factory=set)
    _escaped: bool = False

    @contextmanager
    def patched(self):
        """Rebind every traced function in every qcrb module; restore on exit."""
        from qcrb.errors import QcrbError

        modules = [importlib.import_module(f"qcrb.{m}") for m in LAYERS]
        undo = []
        try:
            for layer, names in TRACED.items():
                home = importlib.import_module(f"qcrb.{layer}")
                for name in names:
                    original = getattr(home, name)
                    wrapper = self._wrap(layer, name, original, QcrbError)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def run_op(self, subcommand: str, call) -> int:
        """Run one in-process CLI invocation ``call()`` under a root span."""
        self._seen.clear()
        self._escaped = False
        root = self._open(ROOT, "cli")
        try:
            code = call()
        finally:
            self._close(root)
        self.ops.append(OpRecord(subcommand, self.spans[root].seconds))
        return code

    def note_outputs(self, out_bytes: int, reported_error: bool) -> None:
        """Record what the last op wrote; an error no layer raised is the CLI's own."""
        self.ops[-1].out_bytes = out_bytes
        if reported_error and not self._escaped:
            self.raised["cli"] = self.raised.get("cli", 0) + 1

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, parent, len(self.ops), time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, name: str, fn, error_type):
        tracer = self
        label = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "herm_eigen":
                tracer._note_eigen_input(args[0] if args else kwargs["a"])
            index = tracer._open(label, layer)
            span = tracer.spans[index]
            try:
                result = fn(*args, **kwargs)
            except error_type:
                parent = tracer.spans[span.parent]
                if parent.layer != layer:
                    tracer.raised[layer] = tracer.raised.get(layer, 0) + 1
                if parent.name == ROOT:
                    tracer._escaped = True
                raise
            finally:
                tracer._close(index)
            if name == "find_W":
                span.note = bool(result.certified)
            elif name == "run_trials":
                span.note = int(result.R)
            return result

        return traced

    def _note_eigen_input(self, a) -> None:
        # a repeat is a matrix already decomposed earlier in the same op
        m = np.ascontiguousarray(np.asarray(a, dtype=complex))
        key = (m.shape, m.tobytes())
        if key in self._seen:
            self.eigen_repeats += 1
        else:
            self._seen.add(key)

    def dump(self) -> list:
        """Spans as [op, name, parent index, start ms, duration ms] rows."""
        return [[s.op, s.name, s.parent, round(s.start * 1e3, 4), round(s.seconds * 1e3, 4)]
                for s in self.spans]


def layer_metrics(tracer: Tracer, passes: int, startup_ms: dict[str, float],
                  untraced_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit), from ``passes`` traced passes.

    Times are per-op means over every op of the mix; counts are per pass
    of the mix.  A traced op costs the cold start plus its in-process time.
    """
    spans, ops = tracer.spans, tracer.ops
    n_ops = len(ops)
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    self_s = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        self_s[s.layer] += s.seconds - child[i]
        by_name.setdefault(s.name, []).append(i)

    def per_op_ms(name: str) -> float:
        return 1e3 * sum(spans[i].seconds for i in by_name.get(name, ())) / n_ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    startup = startup_ms["interpreter_ms"] + startup_ms["import_ms"]
    main_s = sum(o.seconds for o in ops)
    op_ms = startup + 1e3 * main_s / n_ops
    out = {
        "startup.interpreter_ms": (startup_ms["interpreter_ms"], "ms"),
        "startup.import_ms": (startup_ms["import_ms"], "ms"),
        "startup.share": (startup / op_ms, "ratio"),
        "cli.self_ms": (1e3 * self_s["cli"] / n_ops, "ms"),
        "cli.report_bytes": (sum(o.out_bytes for o in ops) / n_ops, "B"),
    }
    for sub in SUBCOMMANDS:
        times = [o.seconds for o in ops if o.subcommand == sub]
        out[f"cli.{sub}_ms.p50"] = (1e3 * statistics.median(times) if times else 0.0, "ms")
    for layer, names in TRACED.items():
        for name in names:
            out[f"{layer}.{name}_ms"] = (per_op_ms(f"{layer}.{name}"), "ms")
        out[f"{layer}.self_ms"] = (1e3 * self_s[layer] / n_ops, "ms")

    eigen = by_name.get("linalg.herm_eigen", [])
    joint = set(by_name.get("linalg.simultaneous_diagonalize", []))
    find_w = [spans[i] for i in by_name.get("conditions.find_W", [])]
    trials = [spans[i] for i in by_name.get("estimate.run_trials", []) if spans[i].note]
    out.update({
        "linalg.herm_eigen.calls": (len(eigen) / passes, "count/pass"),
        "linalg.herm_eigen.repeat_ratio": (ratio(tracer.eigen_repeats, len(eigen)), "ratio"),
        "linalg.herm_eigen.share": (per_op_ms("linalg.herm_eigen") / op_ms, "ratio"),
        "linalg.svd.calls": (len(by_name.get("linalg.svd", [])) / passes, "count/pass"),
        "linalg.joint_diag.attempts_per_call": (
            ratio(sum(1 for i in eigen if spans[i].parent in joint), len(joint)), "count"),
        "conditions.find_W.certified_ratio": (
            ratio(sum(1 for s in find_w if s.note), len(find_w)), "ratio"),
        "estimate.trials_per_s": (
            ratio(sum(s.note for s in trials), sum(s.seconds for s in trials)), "1/s"),
        "estimate.run_trials.share": (per_op_ms("estimate.run_trials") / op_ms, "ratio"),
        "trace.overhead_ratio": (main_s / untraced_seconds, "ratio"),
    })
    for layer in LAYERS:
        out[f"{layer}.raised"] = (tracer.raised.get(layer, 0) / passes, "count/pass")
    return out

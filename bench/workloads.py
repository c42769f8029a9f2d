"""The three workloads: their seeded inputs, op mixes and expected outcomes.

cli-builtin  README walkthrough over the five built-in models.  Ops take
             0.24-0.40 s, mostly interpreter start and imports: exercises
             startup and cli, bypasses the eigensolver.
cli-dense    Two seeded stencil families, a saturable n_s=33 one and a
             generic rank-16 n_s=32 one.  Ops take 1.2-2 s, dominated by
             the Jacobi eigensolver through model, blocks, conditions, povm.
cli-simulate Monte Carlo runs on POVMs built in set-up, in a many-trials
             shape and a many-copies shape, so per-trial overhead and
             per-copy sampling in estimate.run_trials both show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import families
from checks import NECESSARY_FAILED, SATURABLE, Expect

SATURABLE_BUILTINS = ("example2", "fixed_range", "classical_diag")
STUDY = "1e-1,1e-2,1e-3"
# fixed_range does not depend on theta2, so its covariance run stops at a
# singular Fisher matrix (exit 2); the other two simulate normally
WALKTHROUGH_DELTA = {
    "example2": ("0", "0.05"),
    "fixed_range": ("0", "0.05"),
    "classical_diag": ("0", "0"),
}
SIMULATE_DELTA = {"example2": ("0", "0.05"), "classical_diag": ("0", "0")}
SIMULATE_SHAPES = (("20000", "1000"), ("2000", "20000"))   # (R trials, N copies)


@dataclass(frozen=True)
class Op:
    subcommand: str
    model: str                      # config name
    expect: Expect
    povm: bool = False              # pass the POVM file built in set-up
    extra: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return " ".join((self.subcommand, self.model, *self.extra))


@dataclass(frozen=True)
class Workload:
    configs: Callable[[int], dict]  # seed -> config name -> JSON payload
    ops: tuple[Op, ...]
    povms: tuple[str, ...]          # configs whose POVM file set-up builds


def _builtin_ops() -> tuple[Op, ...]:
    ops = []
    for name in families.BUILTIN_THETA:
        if name in SATURABLE_BUILTINS:
            ops.append(Op("analyze", name, Expect(0, SATURABLE)))
            ops.append(Op("construct", name, Expect(0, SATURABLE, passed=True)))
        else:
            ops.append(Op("analyze", name, Expect(2, NECESSARY_FAILED)))
            ops.append(Op("construct", name, Expect(2, error="ConditionFailed")))
    for name in SATURABLE_BUILTINS:
        sim = Expect(2, error="SingularFisher") if name == "fixed_range" else Expect(0)
        ops.append(Op("verify", name, Expect(0, SATURABLE, passed=True), povm=True))
        ops.append(Op("simulate", name, sim, povm=True, extra=("--delta", *WALKTHROUGH_DELTA[name])))
        ops.append(Op("simulate", name, Expect(0), povm=True, extra=("--study", STUDY)))
    return tuple(ops)


def _dense_ops() -> tuple[Op, ...]:
    sat, gen = "dense_saturable", "dense_generic"
    return (
        Op("analyze", sat, Expect(0, SATURABLE, oracle=sat)),
        Op("construct", sat, Expect(0, SATURABLE, passed=True, oracle=sat)),
        Op("verify", sat, Expect(0, SATURABLE, passed=True, oracle=sat), povm=True),
        Op("analyze", gen, Expect(2, NECESSARY_FAILED, oracle=gen)),
    )


def _simulate_ops() -> tuple[Op, ...]:
    return tuple(
        Op("simulate", name, Expect(0), povm=True, extra=("--delta", *delta, "--R", r, "--N", n))
        for name, delta in SIMULATE_DELTA.items()
        for r, n in SIMULATE_SHAPES
    )


def _simulate_configs(seed: int) -> dict:
    configs = families.builtin_configs(seed)
    return {name: configs[name] for name in SIMULATE_DELTA}


WORKLOADS = {
    "cli-builtin": Workload(families.builtin_configs, _builtin_ops(), SATURABLE_BUILTINS),
    "cli-dense": Workload(families.dense_configs, _dense_ops(), ("dense_saturable",)),
    "cli-simulate": Workload(_simulate_configs, _simulate_ops(), tuple(SIMULATE_DELTA)),
}

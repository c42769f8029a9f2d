"""Check that two source trees of qcrb write the same outputs.

Usage: python tools/same_outputs.py PARENT_TREE CHANGE_TREE

The benchmark's seeded configs (``bench/families.py`` of PARENT_TREE:
the five built-in models and the two dense stencil families, seeds 1 and
7) and four planted stencils built with PARENT_TREE's ``tests/util``
(one with a two-column W group and a kernel column, one with p = 3 and a
non-orthogonal +0 factor, and two whose ++ block 0 is a chain of
eigenvalue steps, which block 1 separates in one and not in the other)
are written once.  Each tree then runs the same commands in the same
working directory, as cold ``python -m qcrb.cli`` processes with one
BLAS thread: ``analyze``; ``construct`` with ``--out``/``--report`` and
to stdout; and, for every config whose POVM file was written,
``verify``, ``simulate``, ``simulate --delta`` and ``simulate --study``,
then ``verify`` and ``simulate --delta`` on two effects-form copies of
that file: the effects E_k = F_k F_k^dag for each group F_k of its
frame, which exercise the effects path, ``validate_effects``, and a
split copy in which each E_k becomes two effects 0.5 E_k, a POVM that
is not projective and has repeated null effects.  The copies are made
from the POVM file PARENT_TREE writes, so both trees read the same
effects files.

Exit codes and stderr are compared byte for byte.  Reports (on stdout or
in files), POVM files and study CSVs are compared by value: every field
that is not a float must be equal, and floats a, b must agree within
``TOL (1 + |a|)``.  A written basis (a POVM frame, ``c4.W``) depends only
on the measurement, so it is compared entry by entry like any other
float.  For each output that is not byte-identical the largest deviation
``|a - b| / (1 + |a|)`` is printed, then each output that differs; the
exit code is 1 if any does.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOL = 1e-12   # roundoff of the reports and frames of an n_s <= 33 model is ~1e-15


def planted_configs(util) -> dict[str, dict]:
    """Planted stencils that reach find_W's grouping, kernel and p = 3 paths and a ++ chain.

    ``planted-groups`` is ``util.planted_groups()``; ``planted-p3`` has
    +0 blocks 0.3 B W0 diag(a_l) W0^dag with a non-orthogonal B (3 x 2)
    and three parameters, at q = (0.5, 0.3, 0.2).  The two chain configs
    are full rank at q = (0.4, 0.3, 0.2, 0.1), with ++ block 0 the chain
    of ``tests/test_cli.py::_chain`` at g = 9e-8: states 0, 1 and 2 at 1,
    1 + g and 1 + 2 g, steps within its width that spread beyond it.  In
    ``planted-chain`` block 1 parts state 1 from states 0 and 2, which
    block 0 then parts; in ``planted-chain-flat`` block 1 is flat on all
    three, so the ++ spectrum is unresolved and the model Undetermined.
    """
    rng = np.random.default_rng(5)
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    w0 = util.random_unitary(rng, 2)
    lpz = [0.3 * b @ np.diag(a) @ w0.conj().T for a in ([1.0, 1.0], [1.0, -1.5], [0.5, 2.0])]
    lpp = [[1.0, 1.0, -4.0], [2.0, -1.0, -3.5], [0.0, 0.0, 0.0]]
    g, chain_q = 9e-8, [0.4, 0.3, 0.2, 0.1]
    chain = [1.0, 1.0 + g, 1.0 + 2.0 * g, -(0.9 + 0.7 * g) / 0.1]
    return {"planted-groups": util.planted_groups(),
            "planted-p3": util.planted_stencil([0.5, 0.3, 0.2], lpp, lpz),
            "planted-chain": util.planted_stencil(chain_q, [chain, [1.0, -1.0, 1.0, -3.0]]),
            "planted-chain-flat": util.planted_stencil(chain_q, [chain, [2.0, 2.0, 2.0, -18.0]])}


def write_configs(tree: Path, work: Path) -> dict[str, int]:
    """Write ``<name>.json`` for each config; return each name's parameter count."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench"), str(tree / "tests")]
    import families
    import util

    configs = {}
    for seed in (1, 7):
        seeded = {**families.builtin_configs(seed), **families.dense_configs(seed)}
        configs.update({f"{k}-{seed}": v for k, v in seeded.items()})
    configs.update(planted_configs(util))
    families.write_configs(configs, work)
    return {k: len(v.get("theta") or v["center"]) for k, v in configs.items()}


def write_effects(povm: Path, path: Path, split: bool) -> None:
    """Write the frame file ``povm``'s effects G_k G_k^dag as an effects-form POVM file.

    With ``split`` each effect E_k is written as two effects 0.5 E_k.
    """
    payload = json.loads(povm.read_text())
    parts = np.array(payload["frame"])
    frame = parts[..., 0] + 1j * parts[..., 1]
    edges = np.cumsum([0, *payload["ranks"]])
    effects = [frame[:, a:b] @ frame[:, a:b].conj().T for a, b in zip(edges, edges[1:])]
    if split:
        effects = [0.5 * e for e in effects for _ in range(2)]
    path.write_text(json.dumps({"effects": [np.stack((e.real, e.imag), -1).tolist()
                                            for e in effects]}))


def outputs(tree: Path, work: Path, counts: dict[str, int]) -> dict[str, bytes]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out, got = work / "out", {}
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()

    def run(label: str, *args: str) -> None:
        proc = subprocess.run([sys.executable, "-m", "qcrb.cli", *args], cwd=work, env=env,
                              capture_output=True, timeout=600)
        got.update({f"{label}.exit": b"%d" % proc.returncode,
                    f"{label}.stdout": proc.stdout, f"{label}.stderr": proc.stderr})

    for name, p in counts.items():
        cfg, povm = f"{name}.json", f"out/{name}.povm.json"
        run(f"{name}.analyze", "analyze", cfg, "--out", f"out/{name}.analyze.json")
        run(f"{name}.construct", "construct", cfg, "--out", povm,
            "--report", f"out/{name}.construct.json")
        run(f"{name}.construct-stdout", "construct", cfg)
        if not (work / povm).exists():
            continue
        run(f"{name}.verify", "verify", cfg, povm, "--out", f"out/{name}.verify.json")
        run(f"{name}.simulate", "simulate", cfg, povm, "--N", "500", "--R", "400", "--seed", "3")
        run(f"{name}.delta", "simulate", cfg, povm, "--delta", *["0"] * (p - 1), "0.05",
            "--out", f"out/{name}.delta.json")
        run(f"{name}.study", "simulate", cfg, povm, "--study", "1e-1,1e-2,1e-3",
            "--csv", f"out/{name}.csv", "--out", f"out/{name}.study.json")
        for form in ("effects", "split"):
            effects = f"{name}.{form}.json"   # outside out/: the first tree's copy is kept
            if not (work / effects).exists():
                write_effects(work / povm, work / effects, split=form == "split")
            run(f"{name}.{form}-verify", "verify", cfg, effects,
                "--out", f"out/{name}.{form}-verify.json")
            run(f"{name}.{form}-delta", "simulate", cfg, effects, "--delta", *["0"] * (p - 1),
                "0.05", "--out", f"out/{name}.{form}-delta.json")
    got.update({f"file {path.name}": path.read_bytes() for path in sorted(out.iterdir())})
    return got


def deviation(old, new) -> float:
    """Largest |a - b| / (1 + |a|) over two JSON values' floats; inf if anything else differs."""
    if type(old) is not type(new):
        return math.inf
    if isinstance(old, float):
        return abs(old - new) / (1.0 + abs(old))
    if isinstance(old, dict):
        if old.keys() != new.keys():
            return math.inf
        old, new = list(old.values()), [new[key] for key in old]
    if isinstance(old, list):
        if len(old) != len(new):
            return math.inf
        return max(map(deviation, old, new), default=0.0)
    return 0.0 if old == new else math.inf


def csv_values(text: bytes) -> list:
    """A CSV's rows, each numeric field as a float."""
    def value(field: str):
        try:
            return float(field)
        except ValueError:
            return field

    return [[value(field) for field in line.split(",")] for line in text.decode().splitlines()]


def output_deviation(key: str, before: dict[str, bytes], after: dict[str, bytes]) -> float:
    """Largest deviation between the two trees' output ``key``: 0 if byte-identical."""
    old, new = before.get(key), after.get(key)
    if old == new:
        return 0.0
    if old is None or new is None or key.endswith((".exit", ".stderr")):
        return math.inf
    try:
        if key.endswith(".csv"):
            return deviation(csv_values(old), csv_values(new))
        return deviation(json.loads(old), json.loads(new))
    except ValueError:
        return math.inf


def main() -> int:
    parent, change = (Path(arg).resolve() for arg in sys.argv[1:3])
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        counts = write_configs(parent, work)
        before, after = outputs(parent, work, counts), outputs(change, work, counts)
    deviations = {key: output_deviation(key, before, after)
                  for key in sorted(before.keys() | after.keys())}
    for key, dev in deviations.items():
        if dev > 0.0:
            print(f"{key}: largest deviation {dev:.1e}")
    differ = [key for key, dev in deviations.items() if dev > TOL]
    for key in differ:
        print(f"differs: {key}")
    moved = sum(dev > 0.0 for dev in deviations.values())
    print(f"{len(deviations)} outputs of {len(counts)} configs compared, "
          f"{moved} not byte-identical, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

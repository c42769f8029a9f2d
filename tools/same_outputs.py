"""Check that two source trees of qcrb write the same outputs.

Usage: python tools/same_outputs.py PARENT_TREE CHANGE_TREE

The benchmark's seeded configs (``bench/families.py`` of PARENT_TREE: the
five built-in models and the two dense stencil families, seeds 1 and 7)
are written once.  Each tree then runs the same commands in the same
working directory, as cold ``python -m qcrb.cli`` processes with one
BLAS thread: ``analyze``; ``construct`` with ``--out``/``--report`` and to
stdout; and, for every config whose POVM file was written, ``verify``,
``simulate``, ``simulate --delta`` and ``simulate --study``.  Every exit
code, stdout, stderr, report and CSV is compared byte for byte.  A POVM
file is compared by the effects it describes, so that a ``frame`` file and
an ``effects`` file of the same POVM agree: the largest entry deviation
is printed, and the files differ when the effect shapes do or it exceeds
POVM_ATOL.  Each difference is printed and the exit code is 1 if there
is any.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

POVM_ATOL = 1e-12   # roundoff of an n_s <= 33 product F_k F_k^dag is ~1e-15


def write_configs(tree: Path, work: Path) -> dict[str, int]:
    """Write ``<name>-<seed>.json`` for each config; return each name's parameter count."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import families

    counts = {}
    for seed in (1, 7):
        configs = {**families.builtin_configs(seed), **families.dense_configs(seed)}
        families.write_configs({f"{k}-{seed}": v for k, v in configs.items()}, work)
        counts.update({f"{k}-{seed}": len(v.get("theta") or v["center"]) for k, v in configs.items()})
    return counts


def outputs(tree: Path, work: Path, counts: dict[str, int]) -> dict[str, bytes]:
    env = {k: v for k, v in os.environ.items() if k != "QCRB_SEED"}
    env.update(PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1")
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
    got.update({f"file {path.name}": path.read_bytes() for path in sorted(out.iterdir())})
    return got


def povm_effects(text: bytes) -> list[np.ndarray]:
    """The effect matrices of a POVM file, in either entry shape."""
    obj = json.loads(text)

    def matrix(rows) -> np.ndarray:
        parts = np.asarray(rows, dtype=float)
        return parts[..., 0] + 1j * parts[..., 1]

    if "effects" in obj:
        return [matrix(e) for e in obj["effects"]]
    frame, edges = matrix(obj["frame"]), np.cumsum([0, *obj["ranks"]])
    return [frame[:, a:b] @ frame[:, a:b].conj().T for a, b in zip(edges, edges[1:])]


def povm_deviation(before: bytes, after: bytes) -> float:
    """Largest entry deviation between the effects of two POVM files (inf if shapes differ)."""
    old, new = povm_effects(before), povm_effects(after)
    if [e.shape for e in old] != [e.shape for e in new]:
        return float("inf")
    return max(float(np.max(np.abs(a - b))) for a, b in zip(old, new))


def same(key: str, before: dict[str, bytes], after: dict[str, bytes]) -> bool:
    if before.get(key) == after.get(key):
        return True
    if not (key.endswith(".povm.json") and key in before and key in after):
        return False
    deviation = povm_deviation(before[key], after[key])
    print(f"{key}: largest effect deviation {deviation:.1e}")
    return deviation <= POVM_ATOL


def main() -> int:
    parent, change = (Path(arg).resolve() for arg in sys.argv[1:3])
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        counts = write_configs(parent, work)
        before, after = outputs(parent, work, counts), outputs(change, work, counts)
    differ = sorted(k for k in before.keys() | after.keys() if not same(k, before, after))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(before)} outputs of {len(counts)} configs compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

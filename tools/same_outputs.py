"""Check that two source trees of qcrb write byte-identical outputs.

Usage: python tools/same_outputs.py PARENT_TREE CHANGE_TREE

The benchmark's seeded configs (``bench/families.py`` of PARENT_TREE: the
five built-in models and the two dense stencil families, seeds 1 and 7)
are written once.  Each tree then runs the same commands in the same
working directory, as cold ``python -m qcrb.cli`` processes with one
BLAS thread: ``analyze``; ``construct`` with ``--out``/``--report`` and to
stdout; and, for every config whose POVM file was written, ``verify``,
``simulate``, ``simulate --delta`` and ``simulate --study``.  Every exit
code, stdout, stderr, POVM file, report and CSV is compared; each
difference is printed and the exit code is 1 if there is any.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


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


def main() -> int:
    parent, change = (Path(arg).resolve() for arg in sys.argv[1:3])
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        counts = write_configs(parent, work)
        before, after = outputs(parent, work, counts), outputs(change, work, counts)
    differ = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(before)} outputs of {len(counts)} configs compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

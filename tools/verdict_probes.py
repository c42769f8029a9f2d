"""Probe the verdicts of planted families across the units of parameter 0.

Usage: python tools/verdict_probes.py

Every family is ``tests/util.scaled_planted(shape, seed, k)``: a planted
stencil that saturates by construction, with parameter 0 rescaled by k.
The shapes (r_plus, r_zero, p) are (2,2,2), (3,3,2), (3,2,2) and
(2,2,3), the seeds 100-139, so each k has 160 families.  Each family is
run through ``cli.main``: ``analyze``, then ``construct`` where
``analyze`` exits 0.  Per k the table gives the number of families that
``analyze`` classifies SaturableProjective, and the number where
``analyze`` exits 0 and ``construct`` does not.  The exit code is 1 if
that second number is above 0 for any k: a certified family must get
its measurement.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from qcrb.cli import main as cli   # noqa: E402
from util import scaled_planted    # noqa: E402

SHAPES = ((2, 2, 2), (3, 3, 2), (3, 2, 2), (2, 2, 3))
SEEDS = range(100, 140)
KS = (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4)


def probe(work: Path, k: float) -> tuple[int, int]:
    """(SaturableProjective count, contract violations) over every shape and seed at k."""
    model, report, povm = work / "model.json", work / "report.json", work / "povm.json"
    saturable = violations = 0
    for shape in SHAPES:
        for seed in SEEDS:
            model.write_text(json.dumps(scaled_planted(shape, seed, k)), encoding="utf-8")
            code = cli(["analyze", str(model), "--out", str(report)])
            verdict = json.loads(report.read_text(encoding="utf-8"))
            saturable += verdict.get("conditions", {}).get("classification") == "SaturableProjective"
            if code == 0 and cli(["construct", str(model), "--out", str(povm),
                                  "--report", str(report)]) != 0:
                violations += 1
                print(f"  analyze 0, construct not: shape {shape} seed {seed} k {k:g}")
    return saturable, violations


def run() -> int:
    total = len(SHAPES) * len(SEEDS)
    print(f"{'k':>6}  SaturableProjective (of {total})  analyze 0, construct not 0")
    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k in KS:
            saturable, violations = probe(Path(tmp), k)
            worst = max(worst, violations)
            print(f"{k:>6g}  {saturable:>31}  {violations:>26}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(run())

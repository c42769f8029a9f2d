"""Output checks: every operation's report is held against an expectation.

An operation counts as failed when any check below reports a problem:
schema validity, exit code and verdicts against the expected table, the
reported QFIM against an independent numpy solve of the SLD equation (dense
families), the Monte Carlo error against a statistical bound, and the
convergence study shrinking towards the working point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from families import matrix

SATURABLE = "SaturableProjective"
NECESSARY_FAILED = "NecessaryFailed"

QFIM_RTOL = 1e-6
REL_ERR_SIGMAS = 5.0


@dataclass(frozen=True)
class Expect:
    """Expected outcome of one CLI operation."""

    code: int
    classification: Optional[str] = None
    passed: Optional[bool] = None       # optimality.passed and saturation.passed
    error: Optional[str] = None         # error.type
    oracle: Optional[str] = None        # config whose independent QFIM the report must match


def load_validator(schema_path: Path):
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def stencil_qfim(payload: dict) -> np.ndarray:
    """QFIM of a stencil config from numpy.linalg.eigh alone.

    The SLD equation (L rho + rho L)/2 = d_l rho is solved densely in the
    eigenbasis of rho, where it is diagonal: L_jk = 2 D_jk / (q_j + q_k)
    for every pair with q_j + q_k > 0, the null-null block left at zero.
    Derivatives are the central differences the program itself forms.
    """
    h = float(payload["h"])
    rho = matrix(payload["rho_center"])
    q, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    drho = [
        (matrix(hi) - matrix(lo)) / (2.0 * h)
        for hi, lo in zip(payload["rho_plus"], payload["rho_minus"])
    ]
    dd = [v.conj().T @ d @ v for d in drho]
    denom = q[:, None] + q[None, :]
    keep = denom > 1e-10 * q.max()
    p = len(dd)
    f = np.zeros((p, p))
    for l in range(p):
        for m in range(p):
            f[l, m] = float(np.sum(2.0 * np.real(dd[l] * dd[m].conj())[keep] / denom[keep]))
    return f


def load_report(path: Path) -> Optional[dict]:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return report if isinstance(report, dict) else None


def check_report(expect: Expect, code: int, report: Optional[dict], validator,
                 oracles: dict[str, np.ndarray]) -> list[str]:
    """Problems found with one operation's exit code and report ([] when correct)."""
    if report is None:
        return ["no readable JSON report"]
    problems = [f"schema: {err.message}" for err in validator.iter_errors(report)][:3]
    if problems:
        return problems   # the checks below rely on the schema's shapes
    if code != expect.code or report.get("exit_code") != code:
        problems.append(f"exit code {code} (report {report.get('exit_code')}), expected {expect.code}")
    error = report.get("error", {}).get("type")
    if error != expect.error:
        problems.append(f"error {error!r}, expected {expect.error!r}")
    if expect.classification is not None:
        got = report.get("conditions", {}).get("classification")
        if got != expect.classification:
            problems.append(f"classification {got!r}, expected {expect.classification!r}")
    if expect.passed is not None:
        for section in ("optimality", "saturation"):
            got = report.get(section, {}).get("passed")
            if got is not expect.passed:
                problems.append(f"{section}.passed {got!r}, expected {expect.passed!r}")
    if expect.oracle is not None:
        problems += _check_qfim(report, oracles[expect.oracle])
    if "simulation" in report:
        problems += _check_simulation(report["simulation"])
    if "study" in report:
        problems += _check_study(report["study"]["rows"])
    return problems


def _check_qfim(report: dict, reference: np.ndarray) -> list[str]:
    try:
        f = np.asarray(report["qfim"]["F"], dtype=float)
    except (KeyError, TypeError, ValueError):
        return ["report has no QFIM"]
    if f.shape != reference.shape:
        return [f"QFIM shape {f.shape}, expected {reference.shape}"]
    gap = float(np.max(np.abs(f - reference)))
    if not gap <= QFIM_RTOL * (1.0 + float(np.max(np.abs(reference)))):
        return [f"QFIM differs from the numpy reference by {gap:.3e}"]
    return []


def _check_simulation(sim: dict) -> list[str]:
    bound = REL_ERR_SIGMAS * math.sqrt(2.0 / sim["R"])
    if not sim["rel_err"] <= bound:
        return [f"simulation rel_err {sim['rel_err']:.4f} above {bound:.4f}"]
    return []


def _check_study(rows: list[dict]) -> list[str]:
    for near, far in zip(rows[1:], rows):
        if not (near["delta"] < far["delta"] and near["max_abs_dev"] < far["max_abs_dev"]):
            return [f"study deviation does not shrink with delta: {rows}"]
    return []

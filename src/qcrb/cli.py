"""Command-line entry point: analyze | construct | verify | simulate.

Reports are JSON documents validating against ``report_schema.json``;
every tolerance in force is echoed so numerical verdicts are auditable.
Exit codes: 0 success/saturable, 1 error (bad files, invalid inputs),
2 negative verdict (conditions failed, verification failed, singular
Fisher matrix), 3 undetermined.

Run as a command (``qcrb`` or ``python -m qcrb.cli``), :func:`entry`
freezes the objects the imports created before it calls :func:`main`, so
the cyclic collector never walks them again, at exit included.  ``main``
does not freeze: tests and the benchmark call it in process, and a freeze
there would keep their garbage for the life of the process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, blocks, linalg
from .conditions import SATURABLE_PROJECTIVE, UNDETERMINED, ConditionReport, evaluate_conditions
from .config import DEFAULT, Tolerances, parse_overrides
from .errors import ConditionFailed, ParseError, QcrbError, SingularFisher
from .estimate import SimConfig, fc_convergence_study, run_trials, study_csv
from .model import StateModel, eval_bundle, load_model
from .povm import (
    Povm,
    construct_optimal,
    effects_from_json,
    effects_to_json,
    make_povm,
    outcome_table,
    saturation_check,
    verify_optimality,
)
from .sld import compute_slds, qfim

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILED = 2
EXIT_UNDETERMINED = 3

_ERROR_EXIT = {ConditionFailed: EXIT_FAILED, SingularFisher: EXIT_FAILED}
_VERDICT_EXIT = {SATURABLE_PROJECTIVE: EXIT_OK, UNDETERMINED: EXIT_UNDETERMINED}


class _Parser(argparse.ArgumentParser):
    # no prefix matching: an unknown flag such as --h must be an error, not --help
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # usage problems map to the generic error exit, keeping the code lattice total
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _real_matrix(a) -> list:
    return [[float(x) for x in row] for row in np.asarray(a, dtype=float)]


def _real_vector(a) -> list:
    return [float(x) for x in np.asarray(a, dtype=float)]


def _nan_to_none(value: float):
    return None if math.isnan(value) else float(value)


def _verdict_json(v) -> dict:
    return {"passed": bool(v.passed), "residual": float(v.residual)}


def _conditions_json(report: ConditionReport) -> dict:
    c4 = report.c4
    lam = None
    if c4.lam is not None:
        lam = [[[_nan_to_none(x) for x in col] for col in row] for row in c4.lam]
    if c4.W is None:
        w_payload = None
    elif c4.W.size == 0:
        w_payload = []
    else:
        w_payload = linalg.matrix_to_json(c4.W)
    return {
        "c1": _verdict_json(report.c1),
        "c3": _verdict_json(report.c3),
        "c4": {
            "certified": bool(c4.certified),
            "residual": float(c4.residual),
            "W": w_payload,
            "lambda": lam,
            "zero_columns": list(c4.zero_columns),
            "note": c4.note,
        },
        "classification": report.classification,
    }


def _effect_check_json(check) -> dict:
    constants = np.asarray(check.constants)
    if constants.ndim == 1:
        consts = [_nan_to_none(x) for x in constants]
    else:
        consts = [[_nan_to_none(x) for x in row] for row in constants]
    return {
        "index": int(check.index),
        "label": check.label,
        "constants": consts,
        "residual": float(check.residual),
        "imag_defect": float(check.imag_defect),
        "ok": bool(check.ok),
    }


def _optimality_json(report) -> dict:
    return {
        "passed": bool(report.passed),
        "regular": [_effect_check_json(c) for c in report.regular],
        "null": [_effect_check_json(c) for c in report.null],
        "block_offdiag": [float(x) for x in report.block_offdiag],
        "null_sum_residual": float(report.null_sum_residual),
    }


def _saturation_json(report) -> dict:
    return {
        "passed": bool(report.passed),
        "F_c": _real_matrix(report.F_c),
        "null_sum": _real_matrix(report.null_sum),
        "res_regular": float(report.res_regular),
        "res_null": float(report.res_null),
    }


def _model_json(model: StateModel) -> dict:
    constants = {}
    for key, value in model.constants.items():
        if isinstance(value, complex):
            constants[key] = [value.real, value.imag]
        else:
            constants[key] = value
    return {
        "name": model.name,
        "n_s": model.n_s,
        "p": model.p,
        "constants": constants,
        "box": [list(b) for b in model.box],
    }


def _factorization_order(model: StateModel, theta, dec) -> Optional[list]:
    """Map the descending eigenvalues back to the model's own weight order."""
    if model.factorization is None:
        return None
    try:
        _, _, q_model = model.factorization(np.asarray(theta, dtype=float))
    except QcrbError:
        return None
    if len(q_model) != dec.r_plus:
        return None
    return [float(x) for x in q_model]


def _resolve_theta(model: StateModel, override) -> np.ndarray:
    if override is not None:
        return np.asarray(override, dtype=float)
    if model.default_theta is not None:
        return np.asarray(model.default_theta, dtype=float)
    raise ParseError("no theta: pass --theta or put a 'theta' entry in the model file")


def _simulation_inputs(args, p: int, seed: int) -> tuple[SimConfig, Optional[tuple]]:
    """The simulate options as a trial config and, with --study, (direction, magnitudes)."""
    for flag in ("delta", "direction"):
        value = getattr(args, flag)
        if value is not None and len(value) != p:
            raise ParseError(f"--{flag} needs {p} values, got {len(value)}")
    config = SimConfig(seed=seed, N=args.N, R=args.R, delta=tuple(args.delta or ()))
    if not args.study:
        return config, None
    try:
        magnitudes = [float(x) for x in args.study.split(",") if x]
    except ValueError as exc:
        raise ParseError(f"--study needs comma-separated numbers: {exc}") from exc
    direction = np.ones(p) if args.direction is None else np.asarray(args.direction, dtype=float)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ParseError("--direction must be non-zero")
    return config, (direction / norm, magnitudes)


def _analysis_sections(model, theta, bundle, dec, fim, conditions) -> dict:
    return {
        "decomposition": {
            "r_plus": dec.r_plus,
            "r_zero": dec.r_zero,
            "q": _real_vector(dec.q),
            "q_factorization_order": _factorization_order(model, theta, dec),
            "inverse_weight_condition": float(1.0 / dec.q[-1]),
            "null_block_residuals": [
                float(blocks.null_block_residual(d, dec)) for d in bundle.drho
            ],
        },
        "qfim": {
            "F": _real_matrix(fim.F),
            "F_reg": _real_matrix(fim.F_reg),
            "F_null": _real_matrix(fim.F_null),
        },
        "conditions": _conditions_json(conditions),
    }


def _simulation_sections(model, povm, theta, bundle, dec, config, study, args, tol) -> dict:
    if study is not None:
        direction, magnitudes = study
        f_theta = qfim(compute_slds(bundle, dec, tol)).F
        rows = fc_convergence_study(
            model, povm, theta, [m * direction for m in magnitudes], f_theta, tol=tol
        )
        csv_path = args.csv or "fc_study.csv"
        Path(csv_path).write_text(study_csv(rows), encoding="utf-8")
        return {"study": {"direction": _real_vector(direction), "rows": rows, "csv_path": csv_path}}
    result = run_trials(model, povm, theta, config, tol=tol)
    return {
        "simulation": {
            "theta_sim": _real_vector(result.theta_sim),
            "N": result.N,
            "R": result.R,
            "seed": result.seed,
            "rel_err": result.rel_err,
            "emp_cov": _real_matrix(result.emp_cov),
            "pred_cov": _real_matrix(result.pred_cov),
            "mean_shift": _real_vector(result.mean_shift),
            "excluded_outcome_mass": result.excluded_outcome_mass,
        }
    }


def _emit(report: dict, out_path: Optional[str]) -> None:
    payload = json.dumps(report, indent=2)
    if out_path:
        Path(out_path).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)


def _load_povm_file(path: str, rho, dec, tol: Tolerances) -> tuple[Povm, list[str]]:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read POVM file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"POVM file {path} is not valid JSON: {exc}") from exc
    effects = effects_from_json(obj)
    return make_povm(effects, rho, dec, tol)


def _run(args, tol: Tolerances, seed: int, warnings: list[str]) -> tuple[dict, int]:
    """The one pipeline behind every subcommand; returns the report sections and exit code.

    load -> theta -> state bundle -> decomposition -> SLDs, QFIM and
    conditions (not for simulate) -> POVM, built or read from a file ->
    optimality and saturation, or the simulation.
    """
    model = load_model(args.model, tol)
    theta = _resolve_theta(model, args.theta)
    if args.command == "simulate":
        config, study = _simulation_inputs(args, model.p, seed)
    bundle = eval_bundle(model, theta, tol=tol)
    dec = blocks.decompose(bundle.rho, tol, bundle.spectrum)
    report: dict = {"model": _model_json(model), "theta": _real_vector(theta)}
    if args.command != "simulate":
        slds = compute_slds(bundle, dec, tol)
        fim = qfim(slds)
        conditions = evaluate_conditions(slds, tol)
        report.update(_analysis_sections(model, theta, bundle, dec, fim, conditions))
        if args.command == "analyze":
            return report, _VERDICT_EXIT.get(conditions.classification, EXIT_FAILED)

    if args.command == "construct":
        if conditions.classification != SATURABLE_PROJECTIVE:
            raise ConditionFailed(
                f"classification is {conditions.classification}; nothing to construct")
        povm = construct_optimal(slds, conditions.c4, tol)
    else:
        povm, flags = _load_povm_file(args.povm, bundle.rho, dec, tol)
        warnings.extend(flags)
    if args.command == "simulate":
        report.update(_simulation_sections(model, povm, theta, bundle, dec, config, study, args, tol))
        return report, EXIT_OK

    optimality = verify_optimality(povm, slds, dec, tol)
    saturation = saturation_check(povm, slds, bundle, tol)
    report["povm"] = {
        "n_effects": len(povm),
        "labels": list(povm.labels),
        "projective": povm.projective,
        "probabilities": _real_vector(outcome_table(povm, bundle)[0]),
    }
    report["optimality"] = _optimality_json(optimality)
    report["saturation"] = _saturation_json(saturation)
    if args.command == "construct" and args.out:
        # compact: indent would force json's pure-Python encoder on a file
        # only programs read
        payload = json.dumps(effects_to_json(povm), separators=(",", ":"))
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    elif args.command == "construct":
        report["povm"].update(effects_to_json(povm))
    return report, EXIT_OK if (optimality.passed and saturation.passed) else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    # --help stops before the docstring's last paragraph, which is for readers of the code
    parser = _Parser(prog="qcrb", description=(__doc__ or "").rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, povm_file: bool = False):
        p.add_argument("model", help="model config JSON file")
        if povm_file:
            p.add_argument("povm", help="POVM JSON file")
        p.add_argument("--theta", type=float, nargs="+", help="working point (overrides the file)")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="tolerance override (repeatable)")
        p.add_argument("--seed", type=int, default=None,
                       help="simulate's sampling seed (falls back to QCRB_SEED, then 0)")

    p_analyze = sub.add_parser("analyze", help="decomposition, SLDs, QFIM and condition checks")
    common(p_analyze)
    p_analyze.add_argument("--out", help="write the JSON report here instead of stdout")

    p_construct = sub.add_parser("construct", help="build the optimal projective POVM")
    common(p_construct)
    p_construct.add_argument("--out", help="write the POVM JSON file here")
    p_construct.add_argument("--report", help="write the JSON report here instead of stdout")

    p_verify = sub.add_parser("verify", help="verify a POVM against the optimality identities")
    common(p_verify, povm_file=True)
    p_verify.add_argument("--out", help="write the JSON report here instead of stdout")

    p_sim = sub.add_parser("simulate", help="Monte Carlo covariance versus the predicted bound")
    common(p_sim, povm_file=True)
    p_sim.add_argument("--N", type=int, default=1000, help="copies per trial")
    p_sim.add_argument("--R", type=int, default=2000, help="number of trials")
    p_sim.add_argument("--delta", type=float, nargs="+", help="displacement of the simulated point")
    p_sim.add_argument("--study", help="comma-separated magnitudes for the convergence study")
    p_sim.add_argument("--direction", type=float, nargs="+",
                       help="study displacement direction (default uniform)")
    p_sim.add_argument("--csv", help="CSV output path for the study (default fc_study.csv)")
    p_sim.add_argument("--out", help="write the JSON report here instead of stdout")
    return parser


def _check_seed(args) -> int:
    """The seed: --seed, else QCRB_SEED, else 0; checked on every subcommand."""
    text = os.environ.get("QCRB_SEED", "0") if args.seed is None else args.seed
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ParseError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    report: dict = {
        "tool": {"name": "qcrb", "version": __version__},
        "command": args.command,
        "tolerances": DEFAULT._asdict(),
        "warnings": [],
    }
    out_path = args.report if args.command == "construct" else args.out
    try:
        tol = DEFAULT._replace(**parse_overrides(args.tol))
        report["tolerances"] = tol._asdict()
        seed = _check_seed(args)
        sections, code = _run(args, tol, seed, report["warnings"])
        report.update(sections)
    except QcrbError as exc:
        code = _ERROR_EXIT.get(type(exc), EXIT_ERROR)
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    report["exit_code"] = code
    _emit(report, out_path)
    return code


def entry() -> None:
    # the heap the imports built lives until exit; frozen, no collection walks it (~35 ms)
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()

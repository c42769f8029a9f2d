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

from . import __version__, linalg
from .blocks import decompose
from .conditions import SATURABLE_PROJECTIVE, UNDETERMINED, evaluate_conditions
from .config import DEFAULT, Tolerances, parse_overrides
from .errors import ConditionFailed, ParseError, QcrbError, SingularFisher, UsageError
from .estimate import SimConfig, fc_convergence_study, run_trials, study_csv
from .model import StateModel, eval_bundle, factorization_at, load_model, read_json
from .povm import (
    construct_optimal,
    make_povm,
    outcome_table,
    povm_from_json,
    povm_to_json,
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

    # usage problems are error reports with the generic error exit, keeping the code lattice total
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise UsageError(message)


_COMMANDS = ("analyze", "construct", "verify", "simulate")


def _json(value):
    """A value as JSON data: a record becomes an object of its fields, NaN becomes null.

    A trailing ``_`` is dropped from a field name, so a Python keyword can
    be a key.  Complex arrays are written by :func:`linalg.matrix_to_json`
    and a complex number as its ``[re, im]`` pair.
    """
    if hasattr(value, "_asdict"):
        return {key.removesuffix("_"): _json(v) for key, v in value._asdict().items()}
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return linalg.matrix_to_json(value)
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, complex):
        return [value.real, value.imag]
    return None if isinstance(value, float) and math.isnan(value) else value


def _model_json(model: StateModel) -> dict:
    return {
        "name": model.name,
        "n_s": model.n_s,
        "p": model.p,
        "constants": {key: _json(value) for key, value in model.constants.items()},
        "box": _json(model.box),
    }


def _factorization_order(model: StateModel, theta, dec) -> Optional[np.ndarray]:
    """The model factorization's weights at theta, in its own order (not ``dec.q``'s), or None.

    None for a model without one (stencils, ``qubit_xy``) or a count other than ``dec.r_plus``.
    """
    try:
        _, _, q_model = factorization_at(model, np.asarray(theta, dtype=float))
    except QcrbError:   # NoFactorization included
        return None
    return q_model if len(q_model) == dec.r_plus else None


def _resolve_theta(model: StateModel, override) -> np.ndarray:
    if override is not None:
        return linalg.from_json(override, (model.p,), "--theta")
    if model.default_theta is not None:
        return np.asarray(model.default_theta, dtype=float)
    raise ParseError("no theta: pass --theta or put a 'theta' entry in the model file")


def _simulation_inputs(args, p: int) -> tuple[SimConfig, Optional[tuple]]:
    """The simulate options as a trial config and, with --study, (direction, magnitudes)."""
    # 2**63 bounds what the sampler's int64 counts can hold
    if not (1 <= args.N < 2**63 and 2 <= args.R < 2**63):
        raise ParseError("need 1 <= N < 2**63 copies and 2 <= R < 2**63 trials")
    delta = () if args.delta is None else linalg.from_json(args.delta, (p,), "--delta").tolist()
    config = SimConfig(seed=args.seed, N=args.N, R=args.R, delta=tuple(delta))
    if not args.study:
        return config, None
    try:
        magnitudes = [float(x) for x in args.study.split(",") if x]
    except ValueError as exc:
        raise ParseError(f"--study needs comma-separated numbers: {exc}") from exc
    magnitudes = linalg.from_json(magnitudes, (None,), "--study").tolist()
    direction = (np.ones(p) if args.direction is None
                 else linalg.from_json(args.direction, (p,), "--direction"))
    with np.errstate(over="ignore"):   # an overflowing norm is the error below
        norm = float(np.linalg.norm(direction))
    if not 0.0 < norm < math.inf:
        raise ParseError(f"--direction must be non-zero with a finite norm, got norm {norm}")
    return config, (direction / norm, magnitudes)


def _analysis_sections(model, theta, slds, fim, conditions) -> dict:
    dec = slds.dec
    return {
        "decomposition": {
            "r_plus": dec.r_plus,
            "r_zero": dec.r_zero,
            "q": _json(dec.q),
            "q_factorization_order": _json(_factorization_order(model, theta, dec)),
            "inverse_weight_condition": float(1.0 / dec.q[-1]),
            "null_block_residuals": list(slds.null_mass),
        },
        "qfim": _json(fim),
        "conditions": _json(conditions),
    }


def _simulation_sections(model, povm, theta, bundle, dec, config, study, args, tol) -> dict:
    if study is None:
        return {"simulation": _json(run_trials(model, povm, theta, config, tol=tol))}
    direction, magnitudes = study
    f_theta = qfim(compute_slds(bundle, dec, tol)).F
    rows = fc_convergence_study(
        model, povm, theta, [m * direction for m in magnitudes], f_theta, tol=tol
    )
    csv_path = args.csv or "fc_study.csv"
    _write(csv_path, study_csv(rows))
    return {"study": {"direction": _json(direction), "rows": rows, "csv_path": csv_path}}


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _run(args, tol: Tolerances, warnings: list[str]) -> tuple[dict, int]:
    """The one pipeline behind every subcommand; returns the report sections and exit code.

    load -> theta -> state bundle -> decomposition -> SLDs, QFIM and
    conditions (not for simulate) -> POVM, built from the frame the
    conditions certified or read from a file, and labelled by one
    make_povm -> optimality and saturation, or the simulation.
    """
    model = load_model(args.model, tol)
    theta = _resolve_theta(model, args.theta)
    if args.command == "simulate":
        config, study = _simulation_inputs(args, model.p)
    bundle = eval_bundle(model, theta, tol=tol)
    dec = decompose(bundle.spectrum, tol)
    report: dict = {"model": _model_json(model), "theta": _json(theta)}
    if args.command != "simulate":
        slds = compute_slds(bundle, dec, tol)
        fim = qfim(slds)
        conditions, joint = evaluate_conditions(slds, tol)
        if joint.note:
            warnings.append(joint.note)
        report.update(_analysis_sections(model, theta, slds, fim, conditions))
        if args.command == "analyze":
            return report, _VERDICT_EXIT.get(conditions.classification, EXIT_FAILED)

    if args.command == "construct":
        # one rule: a frame comes only with a SaturableProjective verdict
        if joint.U is None:
            raise ConditionFailed(
                f"classification is {conditions.classification}; nothing to construct")
        source = construct_optimal(dec, conditions.c4.W, joint)
    else:
        source = povm_from_json(read_json(args.povm, "POVM file"))
    povm, flags = make_povm(source, bundle.rho, dec, tol)
    warnings.extend(flags)
    if args.command == "simulate":
        report.update(_simulation_sections(model, povm, theta, bundle, dec, config, study, args, tol))
        return report, EXIT_OK

    optimality = verify_optimality(povm, slds, tol)
    saturation = saturation_check(povm, slds, bundle, tol)
    report["povm"] = {
        "n_effects": len(povm.ranks),
        "labels": list(povm.labels),
        "projective": povm.projective,
        "probabilities": _json(outcome_table(povm, bundle)[0]),
    }
    report["optimality"] = _json(optimality)
    report["saturation"] = _json(saturation)
    if args.command == "construct" and args.out:
        # compact: indent would force json's pure-Python encoder on a file
        # only programs read
        payload = json.dumps(povm_to_json(povm), separators=(",", ":"))
        _write(args.out, payload + "\n")
    elif args.command == "construct":
        report["povm"].update(povm_to_json(povm))
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
        p.add_argument("--seed", type=int, default=0, help="simulate's sampling seed")

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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    report: dict = {
        "tool": {"name": "qcrb", "version": __version__},
        # the subcommand argv names, known also when argparse rejects the rest
        "command": next((word for word in argv if word in _COMMANDS), None),
        "tolerances": DEFAULT._asdict(),
        "warnings": [],
    }
    out_path = None
    try:
        args = build_parser().parse_args(argv)
        out_path = args.report if args.command == "construct" else args.out
        tol = DEFAULT._replace(**parse_overrides(args.tol))
        report["tolerances"] = tol._asdict()
        if args.seed < 0:   # checked on every subcommand, though only simulate samples
            raise ParseError(f"seed must be a non-negative integer, got {args.seed!r}")
        sections, code = _run(args, tol, report["warnings"])
        report.update(sections)
    except QcrbError as exc:
        code = _ERROR_EXIT.get(type(exc), EXIT_ERROR)
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    report["exit_code"] = code
    payload = json.dumps(report, indent=2)
    if not out_path:
        try:
            print(payload, flush=True)
        except BrokenPipeError:
            # nothing reads the report; a stdout on devnull keeps the flush at exit quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_ERROR
        return code
    try:
        _write(out_path, payload + "\n")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


def entry() -> None:
    # the heap the imports built lives until exit; frozen, no collection walks it (~35 ms)
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()

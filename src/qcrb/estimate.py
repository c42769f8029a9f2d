"""Monte Carlo demonstration that an optimal measurement attains the bound.

The one-step estimator depends on a trial only through its outcome
counts, so all R trials are drawn at once: one numpy PCG64 generator
seeded by ``SeedSequence(seed)`` gives the R x K count table
``multinomial(N, p, size=R)`` for the K outcome probabilities p at the
(possibly displaced) parameter point, clipped at 0 and normalised.
Runs are reproducible bit for bit from the seed, and sampling costs
O(R K) whatever N is; a count table too large for memory is a
ParseError that names R and K.  Every trial forms

    theta_hat = theta_sim + F_c^{-1} s / N,
    s_l = sum_k counts_k * d_l ln p_k   (outcomes with p_k > threshold)

whose exact covariance is F_c^{-1}/N, and the empirical covariance over
trials is compared against that prediction.  The discontinuity of the
classical information at vanishing outcome probabilities is surfaced,
not hidden: a singular F_c raises, and the convergence study
F_c(theta + delta) -> F(theta) exhibits the limiting null contribution.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import NegativeProbability, NoConvergence, ParseError, SingularFisher
from .model import StateModel, eval_bundle
from .povm import Povm, classical_fi, fisher_information, outcome_table

Array = np.ndarray


class SimConfig(NamedTuple):
    """Trial settings; ``cli`` gates N and R where they come in from outside."""

    seed: int
    N: int
    R: int
    delta: tuple[float, ...] = ()


# reported field by field: the order is the report's
class SimResult(NamedTuple):
    theta_sim: Array
    N: int
    R: int
    seed: int
    rel_err: float
    emp_cov: Array
    pred_cov: Array
    mean_shift: Array
    excluded_outcome_mass: float


def _fisher_inverse(f_c: Array, tol: Tolerances) -> Array:
    # the absolute floor rejects information matrices that are pure
    # roundoff (e.g. a constant outcome distribution) at desk scale
    try:
        values, vecs = np.linalg.eigh(f_c)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc
    lo, hi = float(values[0]), float(values[-1])
    if lo <= 0.0 or hi <= 1e-18 or hi / lo > tol.fisher_cond:
        # canonical sign (largest-magnitude entry positive); "+ 0.0" below
        # turns the negative zeros that rounding leaves into 0.0
        direction = vecs[:, 0] * np.sign(vecs[np.argmax(np.abs(vecs[:, 0])), 0])
        raise SingularFisher(
            "classical Fisher matrix is singular along direction "
            f"{(np.round(direction, 6) + 0.0).tolist()}",
            direction=direction,
        )
    return (vecs / values) @ vecs.T


def run_trials(model: StateModel, povm: Povm, theta, config: SimConfig,
               tol: Tolerances = DEFAULT) -> SimResult:
    """Repeated-trial comparison of empirical covariance with F_c^{-1}/N."""
    theta = np.asarray(theta, dtype=float)
    delta = np.asarray(config.delta if config.delta else np.zeros_like(theta), dtype=float)
    theta_sim = theta + delta
    bundle = eval_bundle(model, theta_sim, tol=tol)
    raw, grads = outcome_table(povm, bundle)
    if np.min(raw) < -tol.povm:
        raise NegativeProbability(f"outcome probability {np.min(raw):.3e} below -{tol.povm}")
    # make_povm's completeness gate already bounds |sum(p) - 1|
    probs = np.clip(raw, 0.0, None)
    probs = probs / probs.sum()
    kept = probs > tol.prob
    f_c_inv = _fisher_inverse(fisher_information(raw, grads, tol), tol)
    pred_cov = f_c_inv / config.N

    dlnp = np.zeros_like(grads)
    dlnp[kept] = grads[kept] / probs[kept, None]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    try:
        counts = rng.multinomial(config.N, probs, size=config.R)
        estimates = theta_sim + counts @ dlnp @ f_c_inv / config.N
    except MemoryError as exc:
        raise ParseError(f"R = {config.R} trials of {probs.size} outcome counts "
                         "do not fit in memory") from exc

    centered = estimates - estimates.mean(axis=0)
    emp_cov = (centered.T @ centered) / (config.R - 1)
    rel_err = float(np.max(np.abs(emp_cov - pred_cov)) / np.max(np.abs(pred_cov)))
    return SimResult(
        theta_sim=theta_sim,
        emp_cov=emp_cov,
        pred_cov=pred_cov,
        rel_err=rel_err,
        excluded_outcome_mass=float(probs[~kept].sum()),
        mean_shift=estimates.mean(axis=0) - theta_sim,
        N=config.N,
        R=config.R,
        seed=config.seed,
    )


def fc_convergence_study(model: StateModel, povm: Povm, theta, deltas, f_theta,
                         tol: Tolerances = DEFAULT) -> list[dict]:
    """Deviation of the displaced classical information from the QFIM.

    For each displacement vector delta, evaluates the full classical
    Fisher matrix at theta + delta (every outcome with positive
    probability contributes) and tabulates the max-norm deviation from
    ``f_theta``, the QFIM F(theta).  For an optimal POVM the deviation
    shrinks as delta -> 0, recovering the null contribution in the limit.
    """
    theta = np.asarray(theta, dtype=float)
    rows = []
    for delta in deltas:
        delta = np.asarray(delta, dtype=float)
        bundle = eval_bundle(model, theta + delta, tol=tol)
        f_c = classical_fi(povm, bundle, tol)
        rows.append(
            {
                "delta": float(np.linalg.norm(delta)),
                "max_abs_dev": float(np.max(np.abs(f_c - f_theta))),
            }
        )
    return rows


def study_csv(rows: list[dict]) -> str:
    """CSV payload for the convergence study (17 significant digits)."""
    lines = ["delta,max_abs_dev"]
    for row in rows:
        lines.append(f"{row['delta']:.17g},{row['max_abs_dev']:.17g}")
    return "\n".join(lines) + "\n"

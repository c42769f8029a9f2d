"""Seeded model configs for the benchmark workloads.

Everything here is built with numpy alone from the workload seed; the
program under test only ever sees the JSON files written from it.  The
two dense families are checked with ``numpy.linalg`` (independently of
``qcrb.linalg``) before any timing, so that no seed lands near the rank
threshold or on a degenerate range spectrum.
"""

from __future__ import annotations

import json

import numpy as np

from qcrb.config import DEFAULT
from qcrb.model import StateModel, stencil_payload

# built-in models of the README walkthrough: theta ranges that keep every
# verdict and the study displacements well inside each model's box
BUILTIN_THETA = {
    "example2": ((0.20, 0.40), (0.30, 0.60)),
    "fixed_range": ((0.25, 0.45), (0.50, 0.90)),
    "classical_diag": ((0.15, 0.25), (0.20, 0.30)),
    "qubit_xy": ((0.25, 0.35), (0.15, 0.25)),
    "pure_state": ((0.50, 0.70), (0.30, 0.50)),
}

STENCIL_H = 1e-5
SATURABLE_COPIES = 11          # 11 example2 blocks: n_s = 33, rank 22
GENERIC_DIM, GENERIC_RANK = 32, 16

# self-check margins: the smallest kept eigenvalue sits >= 1e4 above
# tol.rank, dropped ones stay below the 1e-14 floor where decompose skips
# its gap test, the gap ratio is >= 1e4 times tol.gap, and kept
# eigenvalues are pairwise separated
KEPT_MARGIN = 1e4
DROPPED_FLOOR = 1e-14
MIN_REL_SPACING = 1e-3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63, stream])


def builtin_configs(seed: int) -> dict[str, dict]:
    """One config per built-in model, with a seeded working point."""
    rng = _rng(seed, 0)
    return {
        name: {"model": name, "theta": [round(float(rng.uniform(lo, hi)), 6) for lo, hi in ranges]}
        for name, ranges in BUILTIN_THETA.items()
    }


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def expm_i_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i h) for Hermitian h, from its eigendecomposition (no scipy)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def saturable_model(seed: int) -> tuple[StateModel, np.ndarray]:
    """Direct sum of example2 copies, conjugated by a fixed seeded unitary.

    Copy k is w_k (theta1 |psi1><psi1| + (1 - theta1) |psi2_k><psi2_k|)
    with psi2_k = (d_k e^{i(c1_k theta1 + c2_k theta2)}, 0, sqrt(1-|d_k|^2)).
    Weights lie in [1, 1.4] before normalisation and theta1 in
    [0.25, 0.4], so theta1 w_j never meets (1 - theta1) w_k; the ratios
    c1_k / c2_k are distinct, so the null-space unitary W is unique.
    """
    rng = _rng(seed, 1)
    k = SATURABLE_COPIES
    weights = 1.0 + 0.4 * (np.arange(k) + rng.uniform(0.2, 0.8, k)) / k
    weights = rng.permutation(weights) / weights.sum()
    d = rng.uniform(0.3, 0.8, k) * np.exp(2j * np.pi * rng.random(k))
    c1 = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 2.0, k)
    ratio = 0.4 + 2.0 * (np.arange(k) + rng.uniform(0.2, 0.8, k)) / k
    c2 = c1 / rng.permutation(ratio)
    frame = random_unitary(rng, 3 * k)
    theta = np.array([rng.uniform(0.25, 0.4), rng.uniform(0.3, 0.7)])

    def eval_rho(t: np.ndarray) -> np.ndarray:
        rho = np.zeros((3 * k, 3 * k), dtype=complex)
        for j in range(k):
            psi1 = np.array([0.0, 1.0, 0.0], dtype=complex)
            phi = c1[j] * t[0] + c2[j] * t[1]
            psi2 = np.array([d[j] * np.exp(1j * phi), 0.0, np.sqrt(1.0 - abs(d[j]) ** 2)])
            block = t[0] * np.outer(psi1, psi1.conj()) + (1.0 - t[0]) * np.outer(psi2, psi2.conj())
            rho[3 * j:3 * j + 3, 3 * j:3 * j + 3] = weights[j] * block
        return frame @ rho @ frame.conj().T

    return _stencil_model("dense_saturable", 3 * k, theta, eval_rho), theta


def generic_model(seed: int) -> tuple[StateModel, np.ndarray]:
    """U(theta) diag(q) U(theta)^dag with U = exp(i(G0 + theta1 G1 + theta2 G2))."""
    rng = _rng(seed, 2)
    n, r = GENERIC_DIM, GENERIC_RANK
    gens = [random_hermitian(rng, n, 1.0 / np.sqrt(n)) for _ in range(3)]
    q = 1.0 + (np.arange(r) + rng.uniform(0.2, 0.8, r)) / r
    spectrum = np.concatenate([rng.permutation(q) / q.sum(), np.zeros(n - r)])
    theta = rng.uniform(-0.5, 0.5, 2)

    def eval_rho(t: np.ndarray) -> np.ndarray:
        u = expm_i_hermitian(gens[0] + t[0] * gens[1] + t[1] * gens[2])
        return (u * spectrum) @ u.conj().T

    return _stencil_model("dense_generic", n, theta, eval_rho), theta


def _stencil_model(name: str, n_s: int, theta: np.ndarray, eval_rho) -> StateModel:
    box = tuple((float(t) - 1.0, float(t) + 1.0) for t in theta)
    return StateModel(name=name, n_s=n_s, p=theta.size, box=box, eval_rho=eval_rho)


def check_rank_split(payload: dict, rank: int, tol=DEFAULT) -> None:
    """Assert the stated rank and a clear spectral gap at every stencil point."""
    mats = [payload["rho_center"], *payload["rho_plus"], *payload["rho_minus"]]
    for obj in mats:
        rho = matrix(obj)
        evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[::-1]
        kept, dropped = evals[:rank], evals[rank:]
        if kept[-1] < KEPT_MARGIN * tol.rank:
            raise AssertionError(f"smallest kept eigenvalue {kept[-1]:.3e} is near tol.rank")
        if dropped.size and np.max(np.abs(dropped)) > DROPPED_FLOOR:
            raise AssertionError(f"dropped eigenvalue {np.max(np.abs(dropped)):.3e} above {DROPPED_FLOOR}")
        spacing = np.min(-np.diff(kept)) / kept[0] if rank > 1 else 1.0
        if spacing < MIN_REL_SPACING:
            raise AssertionError(f"kept spectrum nearly degenerate (relative spacing {spacing:.3e})")
        if kept[-1] / max(float(np.max(np.abs(dropped), initial=0.0)), 1e-300) < KEPT_MARGIN * tol.gap:
            raise AssertionError("spectral gap ratio near tol.gap")


def dense_configs(seed: int) -> dict[str, dict]:
    """The saturable n_s=33 and generic n_s=32 stencil configs, self-checked."""
    out = {}
    for name, build, rank in (
        ("dense_saturable", saturable_model, 2 * SATURABLE_COPIES),
        ("dense_generic", generic_model, GENERIC_RANK),
    ):
        model, theta = build(seed)
        payload = stencil_payload(model, theta, STENCIL_H)
        check_rank_split(payload, rank)
        out[name] = payload
    return out


def matrix(obj) -> np.ndarray:
    """Decode a matrix in the program's [re, im] row format with numpy."""
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def write_configs(configs: dict[str, dict], directory) -> None:
    """Write each config as ``<directory>/<name>.json``."""
    for name, payload in configs.items():
        (directory / f"{name}.json").write_text(json.dumps(payload) + "\n", encoding="utf-8")

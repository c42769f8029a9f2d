"""Shared test helpers: independent oracles and random-object factories.

Oracles are independent constructions (dense Sylvester solves, explicit
series, characteristic-polynomial roots) that call numpy.linalg directly
and share no code with the package's own gauge-fixed routines.  The
full-space views (embedded blocks and SLDs, dense POVM effects) are what
the package itself never forms; the four blocks of any operator
(``block_of``) and the decomposition of a bare rho (``decompose_rho``)
are reference views of what it forms only for state derivatives, inside
``sld.compute_slds``, and from the state gate's spectrum.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from qcrb import blocks, conditions, linalg, povm
from qcrb.blocks import BlockDecomposition
from qcrb.config import DEFAULT
from qcrb.errors import DimensionMismatch
from qcrb.model import StateModel, validate_state


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def charpoly_roots(a: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier coefficients and np.roots.

    Independent brute-force route: builds the characteristic polynomial
    recursively, then finds its roots through the companion matrix.
    """
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def expm_series(m: np.ndarray, terms: int = 64) -> np.ndarray:
    """Matrix exponential by plain Taylor series (smooth in the entries)."""
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def sylvester_sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Minimum-norm dense solve of (L rho + rho L)/2 = drho.

    Vectorizes the Sylvester operator row-major and uses numpy's lstsq;
    the minimum-norm solution zeroes the null-null component, matching
    the package's default gauge for the free block.
    """
    n = rho.shape[0]
    op = 0.5 * (np.kron(np.eye(n), rho.T) + np.kron(rho, np.eye(n)))
    sol, *_ = np.linalg.lstsq(op, drho.reshape(-1), rcond=None)
    l_hat = sol.reshape(n, n)
    return 0.5 * (l_hat + l_hat.conj().T)


def rank2_path_model(seed: int) -> StateModel:
    """Random 3x3 rank-2 family: fixed spectrum, smooth unitary path.

    U(theta) = exp(i (G0 + theta1 G1 + theta2 G2)) with the exponential
    computed by series, so the frame is globally smooth and gauge-fixed.
    """
    rng = np.random.default_rng(seed)
    gens = [random_hermitian(rng, 3, scale=0.6) for _ in range(3)]
    s1 = 0.25 + 0.4 * rng.random()
    spectrum = np.array([s1, 1.0 - s1, 0.0])

    def frame(theta):
        h = gens[0] + theta[0] * gens[1] + theta[1] * gens[2]
        return expm_series(1j * h)

    def eval_rho(theta):
        u = frame(theta)
        return (u * spectrum) @ u.conj().T

    def factorization(theta):
        u = frame(theta)
        return u[:, :2], u[:, 2:], spectrum[:2].copy()

    return StateModel(
        name=f"rank2path{seed}",
        n_s=3,
        p=2,
        box=((-1.0, 1.0), (-1.0, 1.0)),
        eval_rho=eval_rho,
        factorization=factorization,
    )


def planted_stencil(q, lpp, lpz=None, h: float = 1e-3) -> dict:
    """A stencil config at rho = diag(q, 0) whose SLDs are planted exactly.

    ``lpp[l]`` is the diagonal of SLD l's ++ block (sum_i q_i lpp[l][i]
    must vanish: it is tr d_l rho) and ``lpz[l]`` its r_plus x r_zero +0
    block (``None``: full rank), so d_l rho = [[diag(q lpp_l), Q lpz_l / 2],
    [h.c., 0]].  The neighbours are rho +- h d_l rho + h^2 K_l, with K_l
    putting 2 B^dag Q^-1 B (B the +0 block) on the null-null block to keep
    them positive, and taking its trace off the range.  The central
    difference cancels K_l, so the derivative is exact up to roundoff.
    """
    q = np.asarray(q, dtype=float)
    r_plus = q.size
    r_zero = 0 if lpz is None else np.shape(lpz[0])[1]
    n = r_plus + r_zero
    rho = np.zeros((n, n), dtype=complex)
    rho[:r_plus, :r_plus] = np.diag(q)
    plus, minus = [], []
    for l, diagonal in enumerate(lpp):
        d = np.zeros((n, n), dtype=complex)
        d[:r_plus, :r_plus] = np.diag(q * np.asarray(diagonal))
        k = np.zeros((n, n), dtype=complex)
        if r_zero:
            b = 0.5 * q[:, None] * np.asarray(lpz[l])
            d[:r_plus, r_plus:], d[r_plus:, :r_plus] = b, linalg.dag(b)
            c = 2.0 * linalg.dag(b) @ (b / q[:, None])
            k[r_plus:, r_plus:] = c
            k[:r_plus, :r_plus] = -np.trace(c).real / r_plus * np.eye(r_plus)
        plus.append(linalg.matrix_to_json(rho + h * d + h * h * k))
        minus.append(linalg.matrix_to_json(rho - h * d + h * h * k))
    return {"model": "stencil", "h": h, "center": [0.5] * len(lpp),
            "rho_center": linalg.matrix_to_json(rho), "rho_plus": plus, "rho_minus": minus}


def planted_groups() -> dict:
    """A saturable planted stencil, r_zero = 4, with a two-column group in U and in W.

    The ++ blocks are diag(1, -1, -1) and 0, so U has a group of two; the
    +0 blocks 0.3 [diag(a_l) | 0] W0^dag have a_1 = (1, 1, 1) and
    a_2 = (1, 1, 2), so W has a group of two, a group of one and a
    one-column kernel.
    """
    w_dag = random_unitary(np.random.default_rng(11), 4).conj().T
    lpz = [0.3 * np.hstack([np.diag(a), np.zeros((3, 1))]) @ w_dag
           for a in ([1.0, 1.0, 1.0], [1.0, 1.0, 2.0])]
    return planted_stencil([0.5, 0.3, 0.2], [[1, -1, -1], [0, 0, 0]], lpz)


def dense_saturable_config(monkeypatch) -> dict:
    """The benchmark's dense_saturable stencil (n_s = 33, joint ranks (11, 11)) at seed 1."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import families

    return families.dense_configs(1)["dense_saturable"]


def rotate_groups(u: np.ndarray, ranks, rng: np.random.Generator) -> np.ndarray:
    """``u`` with each consecutive group of ``ranks[k]`` columns turned by a random unitary."""
    out = np.array(u, dtype=complex)
    for start, r in zip(np.cumsum((0, *ranks)), ranks):
        out[:, start:start + r] = out[:, start:start + r] @ random_unitary(rng, r)
    return out


def random_projective_povm(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    u = random_unitary(rng, n)
    return [np.outer(u[:, j], u[:, j].conj()) for j in range(n)]


def aligned_offdiag(slds, v_other: np.ndarray, y_other: np.ndarray) -> list[np.ndarray]:
    """Express the +0 SLD blocks in another (range, null) frame.

    With T = V^dag V_other and S = Y^dag Y_other, a +0 block transforms as
    O_pz -> T^dag O_pz S.
    """
    t = linalg.dag(slds.dec.V) @ v_other
    s = linalg.dag(slds.dec.Y) @ y_other
    return [linalg.dag(t) @ lpz @ s for lpz in slds.Lpz]


def basis_povm(n: int) -> list[np.ndarray]:
    return [np.diag((np.arange(n) == k).astype(complex)) for k in range(n)]


def pauli(which: str) -> np.ndarray:
    return {
        "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        "y": np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
        "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    }[which]


def decompose_rho(rho, tol=DEFAULT) -> BlockDecomposition:
    """The decomposition of a bare rho: its state gate's spectrum, split by ``blocks.decompose``."""
    rho = linalg.as_matrix(rho)
    return blocks.decompose(validate_state(rho, rho.shape[0], tol), tol)


class BlockView(NamedTuple):
    opp: np.ndarray
    opz: np.ndarray
    ozp: np.ndarray
    ozz: np.ndarray


def block_of(op, dec: BlockDecomposition) -> BlockView:
    """The four range/null blocks of a full operator."""
    v, y = dec.V, dec.Y
    return BlockView(opp=linalg.dag(v) @ op @ v, opz=linalg.dag(v) @ op @ y,
                     ozp=linalg.dag(y) @ op @ v, ozz=linalg.dag(y) @ op @ y)


def embed(bv: BlockView, dec: BlockDecomposition) -> np.ndarray:
    """Reassemble a full operator from its four blocks."""
    rp, rz = dec.r_plus, dec.r_zero
    if bv.opp.shape != (rp, rp) or bv.opz.shape != (rp, rz):
        raise DimensionMismatch("block shapes do not match the decomposition")
    if bv.ozp.shape != (rz, rp) or bv.ozz.shape != (rz, rz):
        raise DimensionMismatch("block shapes do not match the decomposition")
    v, y = dec.V, dec.Y
    return (
        v @ bv.opp @ linalg.dag(v)
        + v @ bv.opz @ linalg.dag(y)
        + y @ bv.ozp @ linalg.dag(v)
        + y @ bv.ozz @ linalg.dag(y)
    )


def embed_parts(dec: BlockDecomposition, opp=None, opz=None, ozz=None) -> np.ndarray:
    """Embed selected blocks of a Hermitian operator; the 0+ block is opz^dag."""
    rp, rz = dec.r_plus, dec.r_zero
    opp_m = np.zeros((rp, rp), dtype=complex) if opp is None else np.asarray(opp, dtype=complex)
    opz_m = np.zeros((rp, rz), dtype=complex) if opz is None else np.asarray(opz, dtype=complex)
    ozz_m = np.zeros((rz, rz), dtype=complex) if ozz is None else np.asarray(ozz, dtype=complex)
    return embed(BlockView(opp=opp_m, opz=opz_m, ozp=linalg.dag(opz_m), ozz=ozz_m), dec)


def embed_sld(slds, l: int) -> np.ndarray:
    """Full-space Hermitian SLD for parameter l, its free 00 block zero."""
    return embed_parts(slds.dec, opp=slds.Lpp[l], opz=slds.Lpz[l])


def optimal_povm(rho: np.ndarray, slds) -> povm.Povm:
    """The optimal POVM as ``construct`` builds it: the certified frame, labelled by make_povm."""
    report, joint = conditions.evaluate_conditions(slds)
    frame = povm.construct_optimal(slds.dec, report.c4.W, joint)
    built, _ = povm.make_povm(frame, rho, slds.dec)
    return built


def effects(povm) -> list[np.ndarray]:
    """The dense effects G_k G_k^dag of a POVM held as column factors."""
    return [povm.G[:, s] @ povm.G[:, s].conj().T for s in povm.groups]

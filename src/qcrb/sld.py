"""Symmetric logarithmic derivatives in block form, and the QFIM.

For a rank-deficient state the SLD equation only constrains the ++ and
+0 blocks of each L; the 00 block is free and defaults to zero here.  In
the eigenbasis where rho_++ = diag(q) the solution is entrywise:

    (L_++)_jk = 2 (drho_++)_jk / (q_j + q_k)
    L_+0      = 2 diag(1/q) drho_+0

The quantum Fisher information matrix splits into a regular part (from
the ++ blocks) and a null part (from the +0 blocks); both are computed
here along with the off-diagonal route that uses only the derivative of
a model-supplied range frame.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import blocks, linalg
from .blocks import BlockDecomposition
from .config import DEFAULT, Tolerances
from .errors import NoFactorization, RankDrift
from .model import StateBundle, StateModel

Array = np.ndarray


class SldSet(NamedTuple):
    """Per-parameter SLD blocks in the gauge of ``dec``."""

    Lpp: tuple[Array, ...]   # p Hermitian r+ x r+ blocks
    Lpz: tuple[Array, ...]   # p r+ x r0 blocks
    Lzz: tuple[Array, ...]   # p Hermitian r0 x r0 blocks (free choice, default 0)
    dec: BlockDecomposition

    @property
    def p(self) -> int:
        return len(self.Lpp)


class Qfim(NamedTuple):
    F: Array
    F_reg: Array
    F_null: Array


def compute_slds(bundle: StateBundle, dec: BlockDecomposition, tol: Tolerances = DEFAULT) -> SldSet:
    """Solve the block SLD equations for every parameter.

    Raises RankDrift when a derivative has null-null mass above
    ``tol.nullblock`` (the family's rank is not locally constant).
    """
    lpp: list[Array] = []
    lpz: list[Array] = []
    q = dec.q
    denom = q[:, None] + q[None, :]
    for l, drho in enumerate(bundle.drho):
        bv = blocks.block_of(drho, dec)
        zz_mass = linalg.fro(bv.ozz)
        if zz_mass > tol.nullblock * (1.0 + linalg.fro(drho)):
            raise RankDrift(
                f"derivative {l} has null-null mass {zz_mass:.3e}; rank varies with theta"
            )
        app = 0.5 * (bv.opp + linalg.dag(bv.opp))
        lpp.append(2.0 * app / denom)
        lpz.append(2.0 * (bv.opz / q[:, None]))
    lzz = tuple(np.zeros((dec.r_zero, dec.r_zero), dtype=complex) for _ in bundle.drho)
    return SldSet(Lpp=tuple(lpp), Lpz=tuple(lpz), Lzz=lzz, dec=dec)


def with_lzz(slds: SldSet, lzz_list) -> SldSet:
    """Replace the free 00 blocks (used to test invariance of verdicts)."""
    lzz = tuple(linalg.require_hermitian(m) for m in lzz_list)
    if len(lzz) != slds.p:
        raise ValueError("need one 00 block per parameter")
    return slds._replace(Lzz=lzz)


def embed_sld(slds: SldSet, l: int) -> Array:
    """Full-space Hermitian SLD for parameter l."""
    dec = slds.dec
    return blocks.embed_parts(dec, opp=slds.Lpp[l], opz=slds.Lpz[l], ozz=slds.Lzz[l])


def sld_offdiag_from_factorization(
    model: StateModel,
    theta,
    h: float | None = None,
    tol: Tolerances = DEFAULT,
) -> list[Array]:
    """+0 SLD blocks computed as 2 (d_l V)^dag Y in the factorization frame.

    This route uses only the derivative of the range frame and is
    independent of the weights; it serves as a second path against the
    block-equation solution.
    """
    if model.factorization is None:
        raise NoFactorization(f"model {model.name!r} exposes no factorization")
    theta = np.asarray(theta, dtype=float)
    h = tol.fd_step if h is None else float(h)
    v, y, _ = model.factorization(theta)
    out = []
    for l in range(model.p):
        if model.dfactorization is not None:
            dv = model.dfactorization(theta, l)
        else:
            step = np.zeros_like(theta)
            step[l] = h
            v_hi, _, _ = model.factorization(theta + step)
            v_lo, _, _ = model.factorization(theta - step)
            dv = (v_hi - v_lo) / (2.0 * h)
        out.append(2.0 * linalg.dag(dv) @ y)
    return out


def qfim(slds: SldSet) -> Qfim:
    """QFIM with its regular/null split.

    F_reg[l, m] = tr(diag(q) {Lpp_l, Lpp_m}) / 2 and
    F_null[l, m] = tr(diag(q) (Lpz_l Lpz_m^dag + Lpz_m Lpz_l^dag)) / 2;
    the free 00 blocks never enter.
    """
    p = slds.p
    q = slds.dec.q
    f_reg = np.zeros((p, p))
    f_null = np.zeros((p, p))
    for l in range(p):
        for m in range(l, p):
            anti = slds.Lpp[l] @ slds.Lpp[m] + slds.Lpp[m] @ slds.Lpp[l]
            f_reg[l, m] = f_reg[m, l] = 0.5 * float(np.real(np.sum(q * np.diagonal(anti))))
            cross = slds.Lpz[l] @ linalg.dag(slds.Lpz[m]) + slds.Lpz[m] @ linalg.dag(slds.Lpz[l])
            f_null[l, m] = f_null[m, l] = 0.5 * float(np.real(np.sum(q * np.diagonal(cross))))
    return Qfim(F=f_reg + f_null, F_reg=f_reg, F_null=f_null)

"""Symmetric logarithmic derivatives in block form, and the QFIM.

For a rank-deficient state the SLD equation only constrains the ++ and
+0 blocks of each L; the 00 block is free, and no check reads it, so it
is not held.  In the eigenbasis where rho_++ = diag(q) the solution is
entrywise:

    (L_++)_jk = 2 (drho_++)_jk / (q_j + q_k)
    L_+0      = 2 diag(1/q) drho_+0

The quantum Fisher information matrix splits into a regular part (from
the ++ blocks) and a null part (:func:`null_information` of the +0
blocks); both are computed here along with the off-diagonal route that
uses only the derivative of a model-supplied range frame.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .blocks import BlockDecomposition
from .config import DEFAULT, Tolerances
from .errors import RankDrift
from .model import StateBundle, StateModel, factorization_at, frame_derivative

Array = np.ndarray


class SldSet(NamedTuple):
    """Per-parameter SLD blocks in the gauge of ``dec``."""

    Lpp: tuple[Array, ...]   # p Hermitian r+ x r+ blocks
    Lpz: tuple[Array, ...]   # p r+ x r0 blocks
    dec: BlockDecomposition
    null_mass: tuple[float, ...]   # per-derivative Frobenius mass of its 00 block

    @property
    def p(self) -> int:
        return len(self.Lpp)


class Qfim(NamedTuple):
    F: Array
    F_reg: Array
    F_null: Array


def compute_slds(bundle: StateBundle, dec: BlockDecomposition, tol: Tolerances = DEFAULT) -> SldSet:
    """Solve the block SLD equations for every parameter.

    The one place a derivative is split into range/null blocks.  Raises
    RankDrift when a derivative has null-null mass above
    ``tol.nullblock`` (the family's rank is not locally constant).
    """
    lpp: list[Array] = []
    lpz: list[Array] = []
    null_mass: list[float] = []
    v, y, q = dec.V, dec.Y, dec.q
    vd, yd = linalg.dag(v), linalg.dag(y)
    denom = q[:, None] + q[None, :]
    for l, drho in enumerate(bundle.drho):
        zz_mass = linalg.fro(yd @ drho @ y)
        if zz_mass > tol.nullblock * (1.0 + linalg.fro(drho)):
            raise RankDrift(
                f"derivative {l} has null-null mass {zz_mass:.3e}; rank varies with theta"
            )
        left = vd @ drho
        dpp = left @ v
        app = 0.5 * (dpp + linalg.dag(dpp))
        lpp.append(2.0 * app / denom)
        lpz.append(2.0 * ((left @ y) / q[:, None]))
        null_mass.append(zz_mass)
    return SldSet(Lpp=tuple(lpp), Lpz=tuple(lpz), dec=dec, null_mass=tuple(null_mass))


def sld_offdiag_from_factorization(model: StateModel, theta) -> list[Array]:
    """+0 SLD blocks computed as 2 (d_l V)^dag Y in the factorization frame.

    This route uses only the derivative of the range frame and is
    independent of the weights; it serves as a second path against the
    block-equation solution.  d_l V is :func:`model.frame_derivative`.
    """
    theta = np.asarray(theta, dtype=float)
    _, y, _ = factorization_at(model, theta)
    return [2.0 * linalg.dag(frame_derivative(model, theta, l)) @ y for l in range(model.p)]


def null_information(slds: SldSet, b: Array) -> Array:
    """Re tr(diag(q) C_l C_m^dag) over C_l = Lpz_l b, symmetrized.

    F_null at b = I; the null effects' limiting information at b = Y^dag G_null.
    """
    c = np.stack(slds.Lpz) @ b
    out = np.real(np.einsum("i,lij,mij->lm", slds.dec.q, c, c.conj()))
    return 0.5 * (out + out.T)


def qfim(slds: SldSet) -> Qfim:
    """QFIM with its regular/null split.

    F_reg[l, m] = Re sum_i q_i (Lpp_l Lpp_m)_ii and F_null is
    :func:`null_information` at B = I; the free 00 blocks never enter.
    At B = Y^dag G_null it equals F_null exactly when the null 00 blocks of
    a POVM sum to the identity on the null space (B B^dag = I).
    """
    lpp = np.stack(slds.Lpp)
    f_reg = np.real(np.einsum("i,lij,mji->lm", slds.dec.q, lpp, lpp))
    f_reg = 0.5 * (f_reg + f_reg.T)
    f_null = null_information(slds, np.eye(slds.dec.r_zero))
    return Qfim(F=f_reg + f_null, F_reg=f_reg, F_null=f_null)

"""Symmetric logarithmic derivatives in block form, and the QFIM.

For a rank-deficient state the SLD equation only constrains the ++ and
+0 blocks of each L; the 00 block is free, and no check reads it, so it
is not held.  In the eigenbasis where rho_++ = diag(q) the solution is
entrywise:

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

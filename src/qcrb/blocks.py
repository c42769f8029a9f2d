"""Range/null decomposition of a density matrix and 2x2 block views.

The support of rho induces a split of the Hilbert space into range and
null subspaces; any operator then has four blocks (++, +0, 0+, 00) with
respect to that split.  The range basis is rho's eigenvectors as LAPACK
returns them, in descending eigenvalue order, so that rho V = V diag(q);
no output depends on V's gauge, since every written basis of the range
is gauged after V.  The null basis Y is :func:`linalg.fix_gauge` of the
null eigenvectors as one group, so a W written in its coordinates
depends only on the measurement.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, IllDeterminedRank, InvalidState
from .model import validate_state

Array = np.ndarray


class BlockDecomposition(NamedTuple):
    r_plus: int
    r_zero: int
    V: Array          # n_s x r_plus orthonormal range basis
    Y: Array          # n_s x r_zero orthonormal null basis
    q: Array          # r_plus positive eigenvalues, descending

    @property
    def n_s(self) -> int:
        return self.V.shape[0]


class BlockView(NamedTuple):
    opp: Array
    opz: Array
    ozp: Array
    ozz: Array


def decompose(rho, tol: Tolerances = DEFAULT,
              spectrum: linalg.HermEigen | None = None) -> BlockDecomposition:
    """Split rho into range and null subspaces.

    Eigenvalues >= ``tol.rank`` form the range.  The rank is numerically
    ambiguous, and IllDeterminedRank is raised, when an eigenvalue lies
    within the eigensolver's absolute error (10 n eps max|lambda|) of
    ``tol.rank``, or when anything is dropped and the ratio (smallest
    kept)/(largest dropped) is below ``tol.gap`` while the largest dropped
    value is at least 1e-14.

    A bare rho goes through :func:`model.validate_state`, the one gate for
    hermiticity, unit trace and positivity.  ``spectrum`` is the
    eigendecomposition that gate returned when the caller already holds
    one (``StateBundle.spectrum``); it is trusted and rho is not read.
    """
    eig = spectrum
    if eig is None:
        rho = linalg.as_matrix(rho)
        eig = validate_state(rho, rho.shape[0], tol)
    n = eig.values.size
    kept = eig.values >= tol.rank
    if not np.any(kept):
        raise InvalidState("state has no eigenvalue above the rank threshold")
    band = 10.0 * n * np.finfo(float).eps * float(np.max(np.abs(eig.values)))
    near = eig.values[np.abs(eig.values - tol.rank) <= band]
    if near.size:
        raise IllDeterminedRank(
            f"eigenvalue {near[0]:.3e} lies within {band:.1e} of the rank threshold {tol.rank:.1e}"
        )
    dropped = eig.values[~kept]
    if dropped.size:
        largest_dropped = float(np.max(dropped))
        smallest_kept = float(np.min(eig.values[kept]))
        if largest_dropped >= 1e-14 and smallest_kept / largest_dropped < tol.gap:
            raise IllDeterminedRank(
                f"spectral gap ratio {smallest_kept / largest_dropped:.3e} below {tol.gap:.1e}"
            )

    q = eig.values[kept][::-1]             # eigh's values ascend
    v = eig.vectors[:, kept][:, ::-1]
    y = linalg.fix_gauge(eig.vectors[:, ~kept], (n - v.shape[1],))
    return BlockDecomposition(r_plus=int(v.shape[1]), r_zero=int(y.shape[1]), V=v, Y=y, q=q)


def block_of(op, dec: BlockDecomposition) -> BlockView:
    """Project an operator onto the four range/null blocks."""
    op = linalg.as_matrix(op)
    n = dec.n_s
    if op.shape != (n, n):
        raise DimensionMismatch(f"operator has shape {op.shape}, expected {(n, n)}")
    vd = linalg.dag(dec.V)
    yd = linalg.dag(dec.Y)
    return BlockView(
        opp=vd @ op @ dec.V,
        opz=vd @ op @ dec.Y,
        ozp=yd @ op @ dec.V,
        ozz=yd @ op @ dec.Y,
    )


def null_block_residual(drho, dec: BlockDecomposition) -> float:
    """Frobenius mass of the null-null block of a state derivative."""
    return linalg.fro(block_of(drho, dec).ozz)

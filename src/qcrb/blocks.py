"""Range/null decomposition of a density matrix and 2x2 block views.

The support of rho induces a split of the Hilbert space into range and
null subspaces; any operator then has four blocks (++, +0, 0+, 00) with
respect to that split.  The gauge of the bases is fixed deterministically
(descending eigenvalue, largest entry real positive, lexicographic order
inside degenerate eigenspaces) so repeated runs produce identical output.
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

    @property
    def P_plus(self) -> Array:
        return self.V @ linalg.dag(self.V)

    @property
    def P_zero(self) -> Array:
        return self.Y @ linalg.dag(self.Y)


class BlockView(NamedTuple):
    opp: Array
    opz: Array
    ozp: Array
    ozz: Array


def _lex_key(col: Array) -> tuple:
    return tuple(x for z in col for x in (round(z.real, 12), round(z.imag, 12)))


def _order_degenerate(vectors: Array, values: Array, width: float) -> Array:
    """Within clusters of equal eigenvalue, sort columns lexicographically."""
    out = vectors.copy()
    start = 0
    n = values.size
    for end in range(1, n + 1):
        if end == n or abs(values[end] - values[start]) > width:
            if end - start > 1:
                cols = sorted(range(start, end), key=lambda j: _lex_key(out[:, j]), reverse=True)
                out[:, start:end] = out[:, cols]
            start = end
    return out


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

    order = np.argsort(eig.values[kept], kind="stable")[::-1]
    q = eig.values[kept][order]
    v = eig.vectors[:, kept][:, order]
    width = tol.rank * (1.0 + float(q[0]))
    v = _order_degenerate(v, q, width)
    y = eig.vectors[:, ~kept]
    qsum = float(np.sum(q))
    if abs(qsum - 1.0) > 1e-9:
        raise InvalidState(f"retained eigenvalues sum to {qsum}, expected 1")
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


def embed(bv: BlockView, dec: BlockDecomposition) -> Array:
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


def embed_parts(
    dec: BlockDecomposition,
    opp: Array | None = None,
    opz: Array | None = None,
    ozz: Array | None = None,
) -> Array:
    """Embed selected blocks of a Hermitian operator; the 0+ block is opz^dag."""
    rp, rz = dec.r_plus, dec.r_zero
    opp_m = np.zeros((rp, rp), dtype=complex) if opp is None else np.asarray(opp, dtype=complex)
    opz_m = np.zeros((rp, rz), dtype=complex) if opz is None else np.asarray(opz, dtype=complex)
    ozz_m = np.zeros((rz, rz), dtype=complex) if ozz is None else np.asarray(ozz, dtype=complex)
    return embed(BlockView(opp=opp_m, opz=opz_m, ozp=linalg.dag(opz_m), ozz=ozz_m), dec)


def null_block_residual(drho, dec: BlockDecomposition) -> float:
    """Frobenius mass of the null-null block of a state derivative."""
    return linalg.fro(block_of(drho, dec).ozz)

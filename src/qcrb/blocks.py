"""Range/null decomposition of a density matrix.

The support of rho induces a split of the Hilbert space into range and
null subspaces; any operator then has four blocks (++, +0, 0+, 00) with
respect to that split, and :func:`sld.compute_slds` is the one place a
derivative is split into them.  The split is read off the spectrum that
:func:`model.validate_state` returned for rho's gate, so rho is
eigensolved once.  The range basis is rho's eigenvectors as LAPACK
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
from .errors import IllDeterminedRank, InvalidState

Array = np.ndarray


class BlockDecomposition(NamedTuple):
    r_plus: int
    r_zero: int
    V: Array          # n_s x r_plus orthonormal range basis
    Y: Array          # n_s x r_zero orthonormal null basis
    q: Array          # r_plus positive eigenvalues, descending


def decompose(eig: linalg.HermEigen, tol: Tolerances = DEFAULT) -> BlockDecomposition:
    """Split rho into range and null subspaces, given its gated spectrum.

    Eigenvalues >= ``tol.rank`` form the range.  The rank is numerically
    ambiguous, and IllDeterminedRank is raised, when an eigenvalue lies
    within the eigensolver's absolute error (10 n eps max|lambda|) of
    ``tol.rank``, or when anything is dropped and the ratio (smallest
    kept)/(largest dropped) is below ``tol.gap`` while the largest dropped
    value is at least 1e-14.

    ``eig`` is the eigendecomposition that :func:`model.validate_state`,
    the one gate for hermiticity, unit trace and positivity, returned
    (``StateBundle.spectrum``).
    """
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

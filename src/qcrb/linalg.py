"""Dense complex linear algebra with a deterministic gauge.

All routines work on plain complex ``numpy`` arrays.  The factorizations
come from LAPACK through ``numpy.linalg``; this module adds the gates and
the gauge that make their output deterministic:

* Hermitian eigendecomposition (``eigh``) behind a hermiticity gate, with
  ascending eigenvalues and each eigenvector's phase fixed so that its
  largest-magnitude entry is real positive.  LAPACK is backward stable, so
  an eigenvalue is accurate to about n*eps*||A|| in absolute terms, not
  relative to its own size; callers that cut a spectrum at a threshold
  must treat values within that band of it as ambiguous.
* SVD (``svd``) with the full right basis, and the Moore-Penrose
  pseudoinverse built on it with relative singular-value truncation.
* Joint diagonalization of a commuting Hermitian family, one operator at
  a time inside the degenerate eigenspaces the operators before it left;
  the result depends only on the family.

Matrices serialize to JSON as arrays of rows, each entry a two-element
``[re, im]`` array; 64-bit floats round-trip exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    DegeneracyUnresolved,
    DimensionMismatch,
    NoConvergence,
    NotCommuting,
    NotHermitian,
)

Array = np.ndarray


def as_matrix(a) -> Array:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"expected a non-empty 2-d array, got shape {np.shape(a)}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


def dag(a: Array) -> Array:
    return a.conj().T


def fro(a: Array) -> float:
    """Frobenius norm."""
    return float(math.sqrt(float((np.abs(a) ** 2).sum())))


def hs_inner(a: Array, b: Array) -> complex:
    """Hilbert-Schmidt inner product tr(a^dag b)."""
    return complex((a.conj() * b).sum())


def herm_defect(a: Array) -> float:
    """Relative deviation from hermiticity, ||A - A^dag|| / (1 + ||A||)."""
    return fro(a - dag(a)) / (1.0 + fro(a))


def require_hermitian(a: Array, tol: float = DEFAULT.herm) -> Array:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {a.shape}")
    if herm_defect(a) > tol:
        raise NotHermitian(f"hermiticity defect {herm_defect(a):.3e} exceeds {tol:.3e}")
    return 0.5 * (a + dag(a))


def offdiag_norm(a: Array) -> float:
    off = a - np.diag(np.diag(a))
    return fro(off)


def fix_phases(v: Array) -> Array:
    """Rotate each column so its largest-magnitude entry is real positive."""
    w = np.array(v, dtype=complex)
    for j in range(w.shape[1]):
        col = w[:, j]
        k = int(np.argmax(np.abs(col)))
        z = col[k]
        if abs(z) > 1e-300:
            w[:, j] = col * (z.conjugate() / abs(z))
    return w


class HermEigen(NamedTuple):
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    values: Array
    vectors: Array


def herm_eigen(a, tol: Tolerances = DEFAULT) -> HermEigen:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    Values ascend; each eigenvector's largest-magnitude entry is real
    positive.  Raises NotHermitian when the input fails the hermiticity
    gate and NoConvergence when LAPACK reports that it did not converge.
    """
    work = require_hermitian(a, tol.herm)
    try:
        values, vectors = np.linalg.eigh(work)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc
    return HermEigen(values, fix_phases(vectors))


def svd(a) -> tuple[Array, Array, Array]:
    """Singular value decomposition by LAPACK (``numpy.linalg.svd``).

    Returns (U, s, Vh) with U of shape m x n, s descending and zero-padded
    to length n, and the full right basis (Vh is n x n, including the
    kernel).  Columns of U beyond min(m, n) are zero.
    """
    a = as_matrix(a)
    m, n = a.shape
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=m < n)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd did not converge: {exc}") from exc
    if m < n:
        u = np.hstack([u, np.zeros((m, n - m), dtype=complex)])
        s = np.concatenate([s, np.zeros(n - m)])
    return u, s, vh


def pinv(a, sv_cut: float = DEFAULT.sv) -> Array:
    """Moore-Penrose pseudoinverse with relative singular-value truncation.

    Singular values below ``sv_cut * s_max`` are treated as zero; the zero
    matrix maps to the zero matrix.
    """
    if not sv_cut > 0.0:
        raise ValueError("sv_cut must be positive")
    a = as_matrix(a)
    m, n = a.shape
    u, s, vh = svd(a)
    if s[0] <= 0.0:
        return np.zeros((n, m), dtype=complex)
    keep = s > sv_cut * s[0]
    v = dag(vh)[:, keep]
    return (v / s[keep]) @ dag(u[:, keep])


def comm_norm(a, b) -> float:
    """Frobenius norm of the commutator AB - BA."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    return fro(a @ b - b @ a)


def real_ratio(u: Array, v: Array, zero: float,
               gate: float) -> tuple[float, float, float, bool] | None:
    """Fit ``u ~ c v`` with a real constant c, for the real-proportionality tests.

    Returns None when both u and v are zero (norm <= ``zero``): the pair is
    unconstrained.  Otherwise returns ``(c, residual, imag, ok)`` with
    c = Re<v,u>/|v|^2, residual = |u - c v| / max(|u|, |v|), imag =
    |Im<v,u>|/|v|^2, and ok when both are within ``gate``.  When exactly one
    of them is zero, c is NaN, the residual is 1 and the pair fails.
    """
    nu, nv = fro(u), fro(v)
    if max(nu, nv) <= zero:
        return None
    if min(nu, nv) <= zero:
        return math.nan, 1.0, 0.0, False
    raw = hs_inner(v, u) / (nv * nv)
    resid = fro(u - raw.real * v) / max(nu, nv)
    return raw.real, resid, abs(raw.imag), resid <= gate and abs(raw.imag) <= gate


def _family_diagonal(u: Array, mats: list[Array], tol_diag: float) -> bool:
    for mat in mats:
        conj = dag(u) @ mat @ u
        if offdiag_norm(conj) > tol_diag * (1.0 + fro(mat)):
            return False
    return True


def gap_clusters(values, width: float) -> list[list[int]]:
    """Cluster the rows of ``values`` (length n, or n x k) at gaps wider than ``width``.

    Column 0 splits first, then each cluster is split by column 1, and so
    on (single linkage between neighbours in sorted order).  Clusters come
    in ascending order; inside a cluster the indices keep their original
    order, so differences below ``width`` never decide an order.
    """
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    clusters = [list(range(values.shape[0]))]
    for col in values.T:
        refined: list[list[int]] = []
        for cluster in clusters:
            ranked = sorted(cluster, key=lambda i: col[i])
            part = [ranked[0]]
            for prev, idx in zip(ranked, ranked[1:]):
                if col[idx] - col[prev] > width:
                    refined.append(sorted(part))
                    part = []
                part.append(idx)
            refined.append(sorted(part))
        clusters = refined
    return clusters


def joint_width(joint: Array, tol: Tolerances) -> float:
    """Width at which joint eigenvalues count as equal."""
    return tol.cluster * (1.0 + float(np.max(np.abs(joint))))


def _finish_joint(u: Array, mats: list[Array], tol: Tolerances) -> tuple[Array, Array]:
    n = u.shape[0]
    joint = np.zeros((n, len(mats)))
    for l, mat in enumerate(mats):
        joint[:, l] = (dag(u) @ mat @ u).diagonal().real
    order = [i for cluster in gap_clusters(joint, joint_width(joint, tol)) for i in cluster]
    return fix_phases(u[:, order]), joint[order, :]


def simultaneous_diagonalize(family, tol: Tolerances = DEFAULT) -> tuple[Array, Array]:
    """Jointly diagonalize a commuting family of Hermitian matrices.

    Returns ``(U, joint)`` where the columns of the unitary U are common
    eigenvectors and ``joint[s, l]`` is the eigenvalue of the l-th operator
    on column s.  Columns are ordered by :func:`gap_clusters` of ``joint``
    at :func:`joint_width`: ascending in operator 0, ties within the width
    broken by operator 1, and so on, so roundoff never decides the order.

    Operator 0 is diagonalized first; each following operator is then
    diagonalized inside every cluster of equal eigenvalues that the
    operators before it left.  Raises DegeneracyUnresolved when the result
    still leaves some member off-diagonal.
    """
    mats = [require_hermitian(m, tol.herm) for m in family]
    if not mats:
        raise DimensionMismatch("need at least one matrix")
    n = mats[0].shape[0]
    for mat in mats:
        if mat.shape != (n, n):
            raise DimensionMismatch("family members differ in dimension")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            scale = 1.0 + fro(mats[i]) * fro(mats[j])
            if comm_norm(mats[i], mats[j]) > tol.comm * scale:
                raise NotCommuting(f"operators {i} and {j} do not commute")

    eig = herm_eigen(mats[0])
    u = eig.vectors
    clusters = gap_clusters(eig.values, joint_width(eig.values, tol))
    for mat in mats[1:]:
        refined: list[list[int]] = []
        for cluster in clusters:
            if len(cluster) == 1:
                refined.append(cluster)
                continue
            cols = u[:, cluster]
            eig = herm_eigen(dag(cols) @ mat @ cols)
            u[:, cluster] = cols @ eig.vectors
            for part in gap_clusters(eig.values, joint_width(eig.values, tol)):
                refined.append([cluster[i] for i in part])
        clusters = refined
    if not _family_diagonal(u, mats, tol.diag):
        raise DegeneracyUnresolved("could not split degenerate joint eigenspaces")
    return _finish_joint(u, mats, tol)


def matrix_to_json(a) -> list:
    """Serialize a complex matrix as rows of [re, im] pairs."""
    m = as_matrix(a)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def matrix_from_json(obj) -> Array:
    """Inverse of :func:`matrix_to_json`, validating shape and finiteness.

    Any malformed payload raises ValueError.
    """
    try:
        parts = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix JSON must be rows of [re, im] number pairs: {exc}") from exc
    if parts.ndim != 3 or parts.shape[2] != 2:
        raise ValueError("matrix JSON must be a non-empty list of rows of [re, im] pairs")
    out = np.empty(parts.shape[:2], dtype=complex)
    out.real, out.imag = parts[..., 0], parts[..., 1]
    return as_matrix(out)

"""Dense complex linear algebra: LAPACK factorizations and one gauge rule.

All routines work on plain complex ``numpy`` arrays that the package
built.  The factorizations come from LAPACK through ``numpy.linalg``;
this module maps a LAPACK failure to NoConvergence, adds the one gauge
rule, gates nothing else and reads no tolerance table.  Outside input
is gated where it enters (:func:`as_matrix`, :func:`from_json`).

* One gauge rule, :func:`fix_gauge`, for every written basis of a subspace:
  each group's columns become a basis that depends only on its projector,
  so a written basis depends only on the measurement, not on LAPACK.
* Hermitian eigendecomposition (``eigh``) of a matrix its caller made
  exactly Hermitian, with ascending eigenvalues and LAPACK's
  eigenvectors, ungauged.  LAPACK is backward stable, so an eigenvalue
  is accurate to about n*eps*||A|| in absolute terms, not relative to
  its own size; callers that cut a spectrum at a threshold must treat
  values within that band of it as ambiguous.
* SVD (``svd``) and the Moore-Penrose pseudoinverse (``pinv``) with
  relative singular-value truncation at a cut the caller passes: plain
  ``numpy.linalg`` calls that map a LAPACK failure to NoConvergence.
* Joint diagonalization of a commuting Hermitian family as a fixpoint:
  every group of columns is split by every operator where its eigenvalues
  step wider than that operator's width, pass after pass, until a pass
  splits nothing.  Eigenvalues count as equal at the gate the caller
  judges its result by, so the grouping depends only on the family and
  that gate, not on the order of its members.

Matrices serialize to JSON as arrays of rows, each entry a two-element
``[re, im]`` array; 64-bit floats round-trip exactly.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DegeneracyUnresolved,
    DimensionMismatch,
    InvalidState,
    NoConvergence,
    ParseError,
)

Array = np.ndarray


def as_matrix(a) -> Array:
    """Coerce to a 2-d complex array; a non-finite entry (overflow) is InvalidState."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"expected a non-empty 2-d array, got shape {np.shape(a)}")
    if not np.isfinite(m).all():
        raise InvalidState("matrix has non-finite entries")
    return m


def dag(a: Array) -> Array:
    return a.conj().T


def fro(a: Array) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def herm_defect(a: Array) -> float:
    """Relative deviation from hermiticity, ||A - A^dag|| / (1 + ||A||)."""
    return fro(a - dag(a)) / (1.0 + fro(a))


def is_unitary(u: Array) -> bool:
    """Whether ``u`` is square, r x r, with ||u^dag u - I||_F <= 1e-8 (1 + r)."""
    r = u.shape[0]
    return u.shape == (r, r) and fro(dag(u) @ u - np.eye(r)) <= 1e-8 * (1.0 + r)


def fix_gauge(g, ranks) -> Array:
    """``g``'s columns, in consecutive groups of ``ranks[k]``, in a canonical basis of each span.

    A group G_k's pivot rows S are chosen greedily, ``ranks[k]`` times:
    the row of largest norm (ties to the lower index), whose direction is
    then projected out of every row.  G_k becomes G_k polar(G_k^dag E_S),
    the polar factor U Vh from :func:`svd`, so its rows at S
    (ascending) form a Hermitian positive-definite block.  For orthonormal
    columns that depends only on the projector G_k G_k^dag.  A one-column
    group gets its largest-magnitude entry real positive; a zero-width one is skipped.
    """
    out = np.array(g, dtype=complex)
    for start, r in zip(np.cumsum((0, *ranks)), ranks):
        if r:
            block = out[:, start:start + r]
            rows, pivots = block.copy(), []
            for _ in range(r):
                norms = np.linalg.norm(rows, axis=1)
                pivots.append(int(np.argmax(norms)))
                unit = rows[pivots[-1]] / norms[pivots[-1]]
                rows -= np.outer(rows @ unit.conj(), unit)
            u, _, vh = svd(dag(block[sorted(pivots)]))
            out[:, start:start + r] = block @ (u @ vh)
    return out


class HermEigen(NamedTuple):
    """Eigenvalues (ascending) and orthonormal eigenvector columns, as LAPACK returns them."""

    values: Array
    vectors: Array


def herm_eigen(a: Array) -> HermEigen:
    """Eigendecomposition of an exactly Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    Values ascend and the vectors are LAPACK's, ungauged.  ``eigh`` reads
    one triangle, so the caller makes ``a`` exactly Hermitian.  Raises
    NoConvergence when LAPACK reports that it did not converge.
    """
    try:
        return HermEigen(*np.linalg.eigh(a))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc


def svd(a: Array) -> tuple[Array, Array, Array]:
    """``numpy.linalg.svd``: (U, s, Vh) with s descending and the full bases."""
    try:
        return np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd did not converge: {exc}") from exc


def pinv(a: Array, sv_cut: float) -> Array:
    """``numpy.linalg.pinv``: singular values at or below ``sv_cut * s_max`` count as zero.

    The zero matrix maps to the zero matrix.
    """
    try:
        # positional: numpy 2 names this cut rtol, numpy 1 (still supported) rcond
        return np.linalg.pinv(a, sv_cut)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"pinv did not converge: {exc}") from exc


def comm_norm(a: Array, b: Array) -> float:
    """Frobenius norm of the commutator AB - BA."""
    return fro(a @ b - b @ a)


def real_ratio(u: Array, v: Array, zero: float, gate: float) -> tuple[float, float, bool] | None:
    """Fit ``u ~ c v`` with a real constant c, for the real-proportionality tests.

    Returns None when both u and v are zero (norm <= ``zero``): the pair is
    unconstrained.  Otherwise returns ``(c, residual, ok)`` with
    c = Re<v,u>/|v|^2, residual = |u - c v| / max(|u|, |v|), and ok when
    the residual is within ``gate``.  When exactly one of them is zero, c
    is NaN, the residual is 1 and the pair fails.

    The residual alone judges realness.  As real vectors, c v is u's
    projection onto v and Im<v,u> / |v| its component along i v, which is
    orthogonal to v; so in the order |u| >= |v|, where the residual is the
    sine of the real angle, Cauchy-Schwarz gives |Im<v,u>| / (|u| |v|) <=
    residual, and u = i v has c = 0 and residual 1.

    The two orders of a pair agree: with c' the constant of ``v ~ c' u``,
    1 - c c' = |u - c v|^2/|u|^2 = |v - c' u|^2/|v|^2, so when both fits
    pass, 0 <= 1 - c c' <= gate^2.
    """
    nu, nv = fro(u), fro(v)
    if max(nu, nv) <= zero:
        return None
    if min(nu, nv) <= zero:
        return math.nan, 1.0, False
    c = float(np.vdot(v, u).real) / (nv * nv)
    resid = fro(u - c * v) / max(nu, nv)
    return c, resid, resid <= gate


def ratio_table(vecs: list[Array], zero: float, gate: float) -> tuple[Array, float, bool]:
    """:func:`real_ratio` over every ordered pair (l, m) of ``vecs``.

    Returns the p x p table of constants c_lm (1 on the diagonal, NaN where
    the pair is unconstrained), the worst residual, and whether every pair
    passed.
    """
    p = len(vecs)
    table = np.full((p, p), np.nan)
    np.fill_diagonal(table, 1.0)
    worst, ok = 0.0, True
    for l, m in itertools.permutations(range(p), 2):
        fit = real_ratio(vecs[l], vecs[m], zero, gate)
        if fit is not None:
            table[l, m], resid, pair_ok = fit
            worst, ok = max(worst, resid), ok and pair_ok
    return table, worst, ok


def _split(block: Array, mat: Array, width: float) -> tuple[list[Array], float]:
    """Rotate ``block`` onto ``mat``'s eigenbasis on its span; split where values step past ``width``.

    Returns the parts and the spread of the eigenvalues.  B^dag M B is
    Hermitian only to roundoff, so it is symmetrized first.
    """
    m = dag(block) @ mat @ block
    eig = herm_eigen(0.5 * (m + dag(m)))
    cuts = np.flatnonzero(np.diff(eig.values) > width) + 1
    return np.split(block @ eig.vectors, cuts, axis=1), eig.values[-1] - eig.values[0]


def simultaneous_diagonalize(family, gate: float) -> tuple[Array, tuple[int, ...]]:
    """Jointly diagonalize a non-empty commuting family of exactly Hermitian n x n matrices.

    Returns ``(U, ranks)``: the columns of the unitary U are common
    eigenvectors, ungauged, in consecutive groups of ``ranks[k]`` columns,
    one group per joint eigenvalue tuple.  ``gate`` is the relative
    residual at which the caller judges its result (``tol.cond`` at both
    callers), and it alone decides equality: eigenvalues of an operator A
    are told apart at gaps wider than its width ``gate * (1 + ||A||_F)``.

    The groups are a fixpoint.  Starting from one group of all columns,
    each pass rotates every group with more than one column onto each
    operator's eigenbasis in turn and splits it at that operator's wide
    gaps; passes repeat until one splits nothing.  Every group then has
    no wide gap in any operator, whatever order the family came in.
    Groups ascend in operator 0, then operator 1, and so on, so roundoff
    within a width never decides the order.  A group whose eigenvalues
    in that last pass still spread wider than some operator's width (a
    chain of steps each within it) raises DegeneracyUnresolved, so every
    group's residual, at most half its spread, stays inside the gate.
    Commutation is not gated separately: a family that does not commute
    leaves some member off-diagonal beyond its width, and that raises
    DegeneracyUnresolved too.
    """
    ops = [(mat, gate * (1.0 + fro(mat))) for mat in family]

    groups, count = [np.eye(len(family[0]), dtype=complex)], 0
    while len(groups) > count:
        count, chains = len(groups), []
        for mat, width in ops:
            split = [_split(g, mat, width) if g.shape[1] > 1 else ([g], 0.0) for g in groups]
            groups = [part for parts, _ in split for part in parts]
            chains += [f"a chain of eigenvalue gaps within {width:.3e} spreads {spread:.3e}"
                       for _, spread in split if spread > width]
    if chains:
        raise DegeneracyUnresolved(chains[0])
    u = np.hstack(groups)
    for mat, width in ops:
        conj = dag(u) @ mat @ u
        if fro(conj - np.diag(np.diag(conj))) > width:
            raise DegeneracyUnresolved("could not split degenerate joint eigenspaces")
    return u, tuple(g.shape[1] for g in groups)


def matrix_to_json(a) -> list:
    """Serialize a complex matrix as rows of [re, im] pairs; a 0 x 0 matrix is ``[]``."""
    m = np.asarray(a, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return np.stack((m.real, m.imag), axis=-1).tolist()


def from_json(value, shape: tuple, what: str, kind: type = float) -> Array:
    """A JSON value as an array of ``shape``; ``None`` in ``shape`` matches any length >= 1.

    Only JSON numbers pass, and only integers when ``kind`` is ``int``.  A
    boolean (an int subclass), a string, a null, a ragged or misshapen
    list, a non-finite value or an integer too large for ``kind`` raises a
    ParseError that names ``what``.  The whole array is checked at once.
    """
    dims = str(tuple("n" if m is None else m for m in shape)).replace("'", "")
    numbers = "integers" if kind is int else "finite numbers"
    expected = f"{what}: expected {numbers} in shape {dims}"
    raw = np.array(value, dtype=object)
    fits = raw.ndim == len(shape) and all(n >= 1 and m in (None, n) for n, m in zip(raw.shape, shape))
    if not fits:
        raise ParseError(f"{expected}, got shape {raw.shape}")
    wrong = {type(x) for x in raw.flat} - ({int} if kind is int else {int, float})
    if wrong:
        raise ParseError(f"{expected}, got {', '.join(sorted(t.__name__ for t in wrong))}")
    try:
        out = raw.astype(kind)
    except OverflowError as exc:
        raise ParseError(f"{expected}, got an integer out of range") from exc
    if not np.isfinite(out).all():
        raise ParseError(f"{expected}, got a non-finite value")
    return out


def matrix_from_json(obj, what: str = "matrix") -> Array:
    """Inverse of :func:`matrix_to_json`, read by :func:`from_json`.

    The parts are assigned, not summed as re + 1j im, so -0.0 round-trips.
    """
    parts = from_json(obj, (None, None, 2), what)
    out = np.empty(parts.shape[:2], dtype=complex)
    out.real, out.imag = parts[..., 0], parts[..., 1]
    return out

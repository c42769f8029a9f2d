"""Saturability conditions for the single-copy multiparameter QCRB.

Four conditions on the SLD blocks are checked, numbered as is standard
for this problem:

1. the ++ blocks commute pairwise;
2. a supplied unitary frame change U(theta) on the range solves the
   coupled PDE system  d_l U = U V^dag d_l V,  i.e.
   M_l = U^dag d_l U - V^dag d_l V = 0  for every l, checked as
   max_l ||M_l||_F (library verification only, not part of the reports
   or the classification — and only the fixed-range special case is
   solved here);
3. Lpz_l Lpz_m^dag is Hermitian for every pair (l, m);
4. some unitary W on the null space makes corresponding columns of
   Lpz_l W and Lpz_m W real multiples of each other (or jointly zero).

Conditions 1+4 are necessary and sufficient for saturation by a
projective measurement; failure of 1 or 3 rules saturation out entirely.
Condition 4 implies condition 3, and where one block is injective the
converse holds.  Restrict every block to the coimage C of the stacked
Lpz (condition 3 reads the same there) and let Lpz_r C have a trivial
kernel.  Condition 3 on (l, r) says Lpz_l Lpz_r^dag = Lpz_r Lpz_l^dag;
since Lpz_r^dag is onto, range(Lpz_l) lies in range(Lpz_r), so
Lpz_l C = Lpz_r C G_l with G_l = pinv(Lpz_r C) Lpz_l C.  The same pair
makes Lpz_r G_l Lpz_r^dag Hermitian, so G_l is Hermitian (X -> Lpz_r X
Lpz_r^dag is injective); the pair (l, m) makes G_l G_m Hermitian, so the
G_l commute; and their joint eigenbasis, with the common kernel of the
Lpz, is a W.  Conversely a column w of a certifying W with C-part c != 0
has Lpz_r w != 0, so each ratio reads G_l c = a_l c: every such W is a
joint eigenbasis.  Hence if some G_l is singular (Lpz_l C not injective
while Lpz_r C is), a column has exactly one vanishing partner, which
:func:`verify_W` rejects, and no W is certified although condition 3
holds.  :func:`find_W` builds this W against an injective reference
block whenever there is one, so it then decides condition 4 at the rank
cut ``tol.zero``, short of a joint spectrum it cannot group.  It is
incomplete only where no block is injective on C.  A
candidate is reported as certified only after passing :func:`verify_W`,
and "not certified" never claims condition 4 is violated.

The optimal measurement is the joint eigenbasis U of the ++ blocks plus
W; :func:`evaluate_conditions` groups that spectrum once and certifies a
model only with the frame that ``construct`` writes.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import DegeneracyUnresolved, NotUnitary
from .model import StateModel, central_difference, factorization_at, frame_derivative
from .sld import SldSet, sld_offdiag_from_factorization

Array = np.ndarray

SATURABLE_PROJECTIVE = "SaturableProjective"
NECESSARY_FAILED = "NecessaryFailed"
UNDETERMINED = "Undetermined"

# absolute gate on verify_condition2_U's PDE residual, which central
# differences limit to O(h^2); no CLI run reads it, so it is not a tolerance
PDE_GATE = 1e-5


class Verdict(NamedTuple):
    passed: bool
    residual: float


class WCandidate(NamedTuple):
    """Null-space unitary candidate with extracted column ratios.

    ``lambda_[l, m, s]`` is the real ratio of column s of Lpz_l W to that
    of Lpz_m W (NaN when both columns vanish).  ``certified`` is True only
    when :func:`verify_W` passed; an uncertified candidate carries the
    reason in ``note``.  Fields are in the order of the report's
    ``conditions.c4`` section.
    """

    certified: bool
    residual: float
    W: Optional[Array] = None
    lambda_: Optional[Array] = None
    zero_columns: tuple[int, ...] = ()
    note: str = ""


class ConditionReport(NamedTuple):
    c1: Verdict
    c3: Verdict
    c4: WCandidate
    classification: str


class JointFrame(NamedTuple):
    """The ++ blocks' joint eigenbasis in groups of ``ranks`` columns; not reported.

    U is None unless the model is SaturableProjective; ``note`` says why
    when c1, c3 and c4 passed but the ++ spectrum could not be grouped.
    """

    U: Optional[Array]
    ranks: tuple[int, ...] = ()
    note: str = ""


def _worst_pair(mats, defect: Callable[[Array, Array], float]) -> float:
    """Largest defect(a, b) / (1 + ||a|| ||b||) over the pairs a, b of ``mats``."""
    return max((defect(a, b) / (1.0 + linalg.fro(a) * linalg.fro(b))
                for a, b in itertools.combinations(mats, 2)), default=0.0)


def check_condition1(slds: SldSet, tol: Tolerances = DEFAULT) -> Verdict:
    """Pairwise commutators of the ++ blocks, normalized."""
    worst = _worst_pair(slds.Lpp, linalg.comm_norm)
    return Verdict(passed=worst <= tol.cond, residual=worst)


def check_condition3(slds: SldSet, tol: Tolerances = DEFAULT) -> Verdict:
    """Hermiticity of Lpz_l Lpz_m^dag for all pairs; vacuous when r0 = 0."""
    worst = _worst_pair(slds.Lpz, lambda a, b: linalg.fro(a @ linalg.dag(b) - b @ linalg.dag(a)))
    return Verdict(passed=worst <= tol.cond, residual=worst)


def verify_W(slds: SldSet, w: Array, tol: Tolerances = DEFAULT) -> WCandidate:
    """Check column-wise real proportionality of the Lpz blocks under W.

    Each column s goes through :func:`linalg.ratio_table` at ``tol.zero``
    and ``tol.cond``: a pair whose columns both vanish is unconstrained,
    one with exactly one vanishing fails, otherwise the residual of the
    real fit, the sine of the real angle between the columns, must be
    small.  Returns W as a candidate, certified when every column passes,
    with the worst residual, the lam table (p x p x r0, NaN where
    unconstrained, 1 on the diagonal) and the columns s at which every
    Lpz_l W vanishes (norm at most ``tol.zero``).
    """
    w = linalg.as_matrix(w)
    r0 = slds.dec.r_zero
    if w.shape != (r0, r0):
        raise NotUnitary(f"W has shape {w.shape}, expected {(r0, r0)}")
    if not linalg.is_unitary(w):
        raise NotUnitary("W is not unitary within 1e-8")

    cols = np.stack([lpz @ w for lpz in slds.Lpz])
    lam = np.full((slds.p, slds.p, r0), np.nan)
    worst, passed = 0.0, True
    for s in range(r0):
        lam[:, :, s], resid, ok = linalg.ratio_table(list(cols[:, :, s]), tol.zero, tol.cond)
        worst, passed = max(worst, resid), passed and ok
    zero = np.all(np.linalg.norm(cols, axis=1) <= tol.zero, axis=0)
    return WCandidate(certified=passed, residual=worst, W=w, lambda_=lam,
                      zero_columns=tuple(np.flatnonzero(zero).tolist()))


def find_W(slds: SldSet, tol: Tolerances = DEFAULT) -> WCandidate:
    """Search for a certifying null-space unitary through ratio operators.

    The common kernel of all Lpz is split off (those directions give
    jointly-vanishing columns).  On its complement C, the coimage of the
    stacked blocks, take as reference r the block of largest Frobenius
    norm among those injective on C (full column rank at the cut
    ``tol.zero * s_max`` that :func:`linalg.pinv` applies), or among all
    blocks when none is, and form the Hermitian parts of
    G_l = pinv(Lpz_r C) Lpz_l C.  Their joint
    eigenbasis, grouped at ``tol.cond`` by
    :func:`linalg.simultaneous_diagonalize`, supplies the remaining
    columns.  Nothing else gates: a family that does not commute, or a
    joint spectrum that grouping cannot resolve, raises there and leaves
    W uncertified with the worst commutator defect as its residual, and
    the candidate is certified only if :func:`verify_W` passes.  Each
    joint eigenspace and the kernel is one group of
    :func:`linalg.fix_gauge`, so W depends only on the Lpz blocks; a
    rotation inside a group keeps every column ratio.

    Where some block is injective on C this decides condition 4 (the
    module docstring gives the argument): Lpz_r C is then injective,
    condition 3 makes every G_l Hermitian and the family commuting, and
    its joint eigenbasis is the W, unique up to rotations inside its
    groups.  If another block is singular on C, some G_l is, and every
    candidate has a column that vanishes under Lpz_l alone, so no W
    passes verify_W and the note says the candidate failed, however the
    blocks are scaled.  Where no block is injective, an uncertified
    result says nothing about condition 4.
    """
    r0 = slds.dec.r_zero
    if r0 == 0:
        return WCandidate(certified=True, residual=0.0, W=np.zeros((0, 0), dtype=complex),
                          lambda_=np.full((slds.p, slds.p, 0), np.nan), note="no null space")

    norms = [linalg.fro(lpz) for lpz in slds.Lpz]
    if max(norms, default=0.0) <= tol.zero:
        c4 = verify_W(slds, np.eye(r0, dtype=complex), tol)
        return c4._replace(note="all off-diagonal blocks vanish")

    _, svals, vh = linalg.svd(np.vstack(slds.Lpz))
    rank = int(np.sum(svals > tol.zero * svals[0]))
    coimage, kernel = linalg.dag(vh[:rank]), linalg.dag(vh[rank:])

    blocks = [lpz @ coimage for lpz in slds.Lpz]
    sv = [linalg.svd(block)[1] for block in blocks]
    injective = [l for l, s in enumerate(sv) if len(s) == rank and s[-1] > tol.zero * s[0]]
    ref = max(injective or range(slds.p), key=norms.__getitem__)
    base_pinv = linalg.pinv(blocks[ref], tol.zero)
    gs = [0.5 * (g + linalg.dag(g)) for g in (base_pinv @ block for block in blocks)]
    try:
        z, ranks = linalg.simultaneous_diagonalize(gs, tol.cond)
    except DegeneracyUnresolved as exc:
        return WCandidate(certified=False, residual=_worst_pair(gs, linalg.comm_norm),
                          note=f"joint spectrum of the ratio operators is unresolved: {exc}")
    w = linalg.fix_gauge(np.hstack([coimage @ z, kernel]), ranks + (r0 - rank,))
    c4 = verify_W(slds, w, tol)
    return c4 if c4.certified else c4._replace(note="candidate failed column verification")


def verify_condition2_U(
    model: StateModel,
    theta,
    u_eval: Callable[[Array], Array],
) -> Verdict:
    """Residual of the frame-change PDE for a supplied U(theta).

    The residual is max_l ||M_l||_F with M_l = U^dag d_l U - V^dag d_l V;
    the PDE d_l U = U V^dag d_l V holds exactly when every M_l vanishes.
    M_l is not weighted by rho_++: both terms are anti-Hermitian, so the
    form M_l rho_++ + h.c. is the commutator [M_l, rho_++] and cannot see
    the part of M_l that is diagonal in the weight basis, and M_l rho_++
    alone would scale the residual with the smallest kept weight.  The
    PDE, and so the residual, is invariant under U -> C U for a constant
    unitary C.

    d_l U and d_l V are :func:`model.central_difference` at
    ``model.FD_STEP`` (d_l V through :func:`model.frame_derivative`).  The
    gate is absolute at :data:`PDE_GATE`.
    """
    theta = np.asarray(theta, dtype=float)
    v0, _, _ = factorization_at(model, theta)

    def unitary_at(point: Array) -> Array:
        u = linalg.as_matrix(u_eval(point))
        if not linalg.is_unitary(u):
            raise NotUnitary(f"U at {point.tolist()} is not unitary within 1e-8")
        return u

    u0 = unitary_at(theta)
    worst = 0.0
    for l in range(model.p):
        du = central_difference(unitary_at, theta, l)
        dv = frame_derivative(model, theta, l)
        m_l = linalg.dag(u0) @ du - linalg.dag(v0) @ dv
        worst = max(worst, linalg.fro(m_l))
    return Verdict(passed=worst <= PDE_GATE, residual=worst)


def solve_U_fixed_range(
    model: StateModel,
    theta,
    theta_ref=None,
    tol: Tolerances = DEFAULT,
) -> Optional[Array]:
    """Closed-form frame change for models whose range is a fixed subspace.

    When (d_l V)^dag Y vanishes for every l, the range never rotates into
    the null space and U(theta) = B^dag V(theta) solves the PDE, with B
    the range frame at a fixed anchor point.  Returns None when the
    special case does not apply.
    """
    theta = np.asarray(theta, dtype=float)
    offdiag = sld_offdiag_from_factorization(model, theta)
    if any(linalg.fro(b) > 2.0 * tol.zero for b in offdiag):
        return None
    anchor = np.asarray(
        theta_ref if theta_ref is not None else [0.5 * (lo + hi) for lo, hi in model.box],
        dtype=float,
    )
    b_plus, _, _ = factorization_at(model, anchor)
    v, _, _ = factorization_at(model, theta)
    u = linalg.dag(b_plus) @ v
    return u if linalg.is_unitary(u) else None


def evaluate_conditions(slds: SldSet,
                        tol: Tolerances = DEFAULT) -> tuple[ConditionReport, JointFrame]:
    """Run all block-level checks, classify the model at this point, and group its ++ spectrum.

    A failed c1 or c3 is NecessaryFailed.  Past them and a certified W,
    the ++ blocks are jointly diagonalized at ``tol.cond``, the gate that
    :func:`povm.verify_optimality` holds every regular effect to, and the
    model is SaturableProjective when that grouping resolves.  Otherwise
    it is Undetermined, with an unresolved spectrum named in the
    :class:`JointFrame`'s note.
    """
    c1 = check_condition1(slds, tol)
    c3 = check_condition3(slds, tol)
    c4 = find_W(slds, tol)
    classification, joint = UNDETERMINED, JointFrame(None)
    if not c1.passed or not c3.passed:
        classification = NECESSARY_FAILED
    elif c4.certified:
        try:
            joint = JointFrame(*linalg.simultaneous_diagonalize(slds.Lpp, tol.cond))
            classification = SATURABLE_PROJECTIVE
        except DegeneracyUnresolved as exc:
            joint = JointFrame(None, note=f"joint spectrum of the ++ blocks is unresolved: {exc}")
    return ConditionReport(c1=c1, c3=c3, c4=c4, classification=classification), joint

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
The W finder is a sound-but-incomplete heuristic: a candidate is only
reported as certified after passing :func:`verify_W`, and "not certified"
never claims condition 4 is violated.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import NoFactorization, NotUnitary
from .model import StateModel
from .sld import SldSet

Array = np.ndarray

SATURABLE_PROJECTIVE = "SaturableProjective"
NECESSARY_FAILED = "NecessaryFailed"
UNDETERMINED = "Undetermined"


class Verdict(NamedTuple):
    passed: bool
    residual: float


class WCandidate(NamedTuple):
    """Null-space unitary candidate with extracted column ratios.

    ``lam[l, m, s]`` is the real ratio of column s of Lpz_l W to that of
    Lpz_m W (NaN when both columns vanish).  ``certified`` is True only
    when :func:`verify_W` passed; an uncertified candidate carries the
    reason in ``note``.
    """

    W: Optional[Array]
    lam: Optional[Array]
    zero_columns: tuple[int, ...]
    certified: bool
    residual: float
    note: str = ""


class ConditionReport(NamedTuple):
    c1: Verdict
    c3: Verdict
    c4: WCandidate
    classification: str


def check_condition1(slds: SldSet, tol: Tolerances = DEFAULT) -> Verdict:
    """Pairwise commutators of the ++ blocks, normalized."""
    worst = 0.0
    for l in range(slds.p):
        for m in range(l + 1, slds.p):
            scale = 1.0 + linalg.fro(slds.Lpp[l]) * linalg.fro(slds.Lpp[m])
            worst = max(worst, linalg.comm_norm(slds.Lpp[l], slds.Lpp[m]) / scale)
    return Verdict(passed=worst <= tol.cond, residual=worst)


def check_condition3(slds: SldSet, tol: Tolerances = DEFAULT) -> Verdict:
    """Hermiticity of Lpz_l Lpz_m^dag for all pairs; vacuous when r0 = 0."""
    worst = 0.0
    for l in range(slds.p):
        for m in range(l + 1, slds.p):
            cross = slds.Lpz[l] @ linalg.dag(slds.Lpz[m]) - slds.Lpz[m] @ linalg.dag(slds.Lpz[l])
            scale = 1.0 + linalg.fro(slds.Lpz[l]) * linalg.fro(slds.Lpz[m])
            worst = max(worst, linalg.fro(cross) / scale)
    return Verdict(passed=worst <= tol.cond, residual=worst)


def verify_W(slds: SldSet, w: Array, tol: Tolerances = DEFAULT) -> tuple[Verdict, Array]:
    """Check column-wise real proportionality of the Lpz blocks under W.

    Each column s and ordered pair (l, m) goes through
    :func:`linalg.real_ratio` at ``tol.zero`` and ``tol.c4``: both columns
    vanishing passes unconstrained, exactly one vanishing fails, otherwise
    the ratio must be real and the relative residual small.  Returns the
    verdict and the lam table (p x p x r0, NaN where unconstrained, 1 on
    the diagonal).
    """
    w = linalg.as_matrix(w)
    r0 = slds.dec.r_zero
    if w.shape != (r0, r0):
        raise NotUnitary(f"W has shape {w.shape}, expected {(r0, r0)}")
    if linalg.fro(linalg.dag(w) @ w - np.eye(r0)) > 1e-8 * (1.0 + r0):
        raise NotUnitary("W is not unitary within 1e-8")

    p = slds.p
    cols = [slds.Lpz[l] @ w for l in range(p)]
    lam = np.full((p, p, r0), np.nan)
    for l in range(p):
        lam[l, l, :] = 1.0
    worst = 0.0
    passed = True
    for s in range(r0):
        for l, m in itertools.permutations(range(p), 2):
            fit = linalg.real_ratio(cols[l][:, s], cols[m][:, s], tol.zero, tol.c4)
            if fit is not None:
                lam[l, m, s], resid, imag, ok = fit
                worst = max(worst, resid, imag)
                passed = passed and ok
    return Verdict(passed=passed, residual=worst), lam


def _zero_column_indices(slds: SldSet, w: Array, tol: Tolerances) -> tuple[int, ...]:
    cols = [slds.Lpz[l] @ w for l in range(slds.p)]
    out = []
    for s in range(w.shape[1]):
        if all(float(np.linalg.norm(c[:, s])) <= tol.zero for c in cols):
            out.append(s)
    return tuple(out)


def find_W(slds: SldSet, tol: Tolerances = DEFAULT) -> WCandidate:
    """Heuristic search for a certifying null-space unitary.

    Strategy: split off the common kernel of all Lpz (those directions
    give jointly-vanishing columns); on the complement, form
    G_l = pinv(Lpz_r) Lpz_l against the largest block r.  When the G_l
    are Hermitian and commute, their joint eigenbasis supplies the
    remaining columns.  The result is certified only if verify_W passes.
    """
    r0 = slds.dec.r_zero
    if r0 == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return WCandidate(
            W=empty,
            lam=np.full((slds.p, slds.p, 0), np.nan),
            zero_columns=(),
            certified=True,
            residual=0.0,
            note="no null space",
        )

    norms = [linalg.fro(lpz) for lpz in slds.Lpz]
    if max(norms, default=0.0) <= tol.zero:
        w = np.eye(r0, dtype=complex)
        verdict, lam = verify_W(slds, w, tol)
        return WCandidate(
            W=w,
            lam=lam,
            zero_columns=tuple(range(r0)),
            certified=verdict.passed,
            residual=verdict.residual,
            note="all off-diagonal blocks vanish",
        )

    stacked = np.vstack(slds.Lpz)
    _, svals, vh = linalg.svd(stacked)
    kernel_mask = svals <= tol.zero * svals[0]
    v_full = linalg.dag(vh)
    kernel = v_full[:, kernel_mask]
    coimage = v_full[:, ~kernel_mask]

    ref = int(np.argmax(norms))
    base = slds.Lpz[ref] @ coimage
    base_pinv = linalg.pinv(base, tol.sv)
    gs = []
    for l in range(slds.p):
        g = base_pinv @ (slds.Lpz[l] @ coimage)
        if linalg.herm_defect(g) > tol.c4:
            return WCandidate(
                W=None,
                lam=None,
                zero_columns=(),
                certified=False,
                residual=linalg.herm_defect(g),
                note=f"ratio operator for parameter {l} is not Hermitian",
            )
        gs.append(0.5 * (g + linalg.dag(g)))
    for i in range(len(gs)):
        for j in range(i + 1, len(gs)):
            scale = 1.0 + linalg.fro(gs[i]) * linalg.fro(gs[j])
            if linalg.comm_norm(gs[i], gs[j]) > tol.c4 * scale:
                return WCandidate(
                    W=None,
                    lam=None,
                    zero_columns=(),
                    certified=False,
                    residual=linalg.comm_norm(gs[i], gs[j]) / scale,
                    note=f"ratio operators {i} and {j} do not commute",
                )
    z, _ = linalg.simultaneous_diagonalize(gs, tol)
    w = np.hstack([coimage @ z, kernel])
    verdict, lam = verify_W(slds, w, tol)
    return WCandidate(
        W=w,
        lam=lam,
        zero_columns=_zero_column_indices(slds, w, tol),
        certified=verdict.passed,
        residual=verdict.residual,
        note="" if verdict.passed else "candidate failed column verification",
    )


def verify_condition2_U(
    model: StateModel,
    theta,
    u_eval: Callable[[Array], Array],
    h: float | None = None,
    tol: Tolerances = DEFAULT,
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

    d_l U is taken by central differences; V^dag d_l V comes from the
    model factorization (analytic when available).  The gate is absolute
    at ``tol.pde`` since the residual is limited by O(h^2) differencing.
    """
    if model.factorization is None:
        raise NoFactorization(f"model {model.name!r} exposes no factorization")
    theta = np.asarray(theta, dtype=float)
    h = tol.fd_step if h is None else float(h)

    def unitary_at(point: Array) -> Array:
        u = linalg.as_matrix(u_eval(point))
        r = u.shape[0]
        if u.shape != (r, r) or linalg.fro(linalg.dag(u) @ u - np.eye(r)) > 1e-8 * (1.0 + r):
            raise NotUnitary(f"U at {point.tolist()} is not unitary within 1e-8")
        return u

    u0 = unitary_at(theta)
    v0, _, _ = model.factorization(theta)
    worst = 0.0
    for l in range(model.p):
        step = np.zeros_like(theta)
        step[l] = h
        du = (unitary_at(theta + step) - unitary_at(theta - step)) / (2.0 * h)
        if model.dfactorization is not None:
            dv = model.dfactorization(theta, l)
        else:
            v_hi, _, _ = model.factorization(theta + step)
            v_lo, _, _ = model.factorization(theta - step)
            dv = (v_hi - v_lo) / (2.0 * h)
        m_l = linalg.dag(u0) @ du - linalg.dag(v0) @ dv
        worst = max(worst, linalg.fro(m_l))
    return Verdict(passed=worst <= tol.pde, residual=worst)


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
    if model.factorization is None:
        raise NoFactorization(f"model {model.name!r} exposes no factorization")
    theta = np.asarray(theta, dtype=float)
    from .sld import sld_offdiag_from_factorization

    offdiag = sld_offdiag_from_factorization(model, theta, tol=tol)
    if any(linalg.fro(b) > 2.0 * tol.zero for b in offdiag):
        return None
    anchor = np.asarray(
        theta_ref if theta_ref is not None else [0.5 * (lo + hi) for lo, hi in model.box],
        dtype=float,
    )
    b_plus, _, _ = model.factorization(anchor)
    v, _, _ = model.factorization(theta)
    u = linalg.dag(b_plus) @ v
    r = u.shape[0]
    if linalg.fro(linalg.dag(u) @ u - np.eye(r)) > 1e-8 * (1.0 + r):
        return None
    return u


def classify(c1: Verdict, c3: Verdict, c4: WCandidate) -> str:
    if not c1.passed or not c3.passed:
        return NECESSARY_FAILED
    if c4.certified:
        return SATURABLE_PROJECTIVE
    return UNDETERMINED


def evaluate_conditions(slds: SldSet, tol: Tolerances = DEFAULT) -> ConditionReport:
    """Run all block-level checks and classify the model at this point."""
    c1 = check_condition1(slds, tol)
    c3 = check_condition3(slds, tol)
    c4 = find_W(slds, tol)
    return ConditionReport(
        c1=c1,
        c3=c3,
        c4=c4,
        classification=classify(c1, c3, c4),
    )

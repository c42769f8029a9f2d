"""POVMs: construction of the optimal projective measurement, effect
classification, canonicalization, and optimality/saturation verification.

An effect is *regular* at rho when tr(rho E) exceeds the probability
threshold and *null* otherwise.  A measurement saturates the QCRB exactly
when every regular effect reproduces each SLD on the range up to a real
constant and every null effect relates the +0 blocks of each SLD pair by
a real constant — those constants are extracted here by least squares
with explicit realness gates, and the resulting classical information is
compared against the regular/null split of the QFIM.

The optimal measurement is one orthonormal basis, a :class:`Frame` whose
column groups span the effects.  POVM files hold that frame, or explicit
effects for a POVM that need not be projective.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import blocks, linalg
from .blocks import BlockDecomposition
from .conditions import WCandidate, check_condition1
from .config import DEFAULT, Tolerances
from .errors import ConditionFailed, InvalidPovm, NotBlockDiagonal, ParseError
from .model import StateBundle
from .sld import SldSet, embed_sld, qfim

Array = np.ndarray

REGULAR = "regular"
NULL = "null"


class Frame(NamedTuple):
    """A projective POVM as one unitary: effect k is F_k F_k^dag.

    F_k is the k-th group of ``ranks[k]`` columns of ``matrix``.
    """

    matrix: Array
    ranks: tuple[int, ...]

    def effects(self) -> tuple[Array, ...]:
        groups = np.split(self.matrix, np.cumsum(self.ranks)[:-1], axis=1)
        return tuple(f @ linalg.dag(f) for f in groups)


# a dataclass, not a NamedTuple: len() counts effects here, while
# NamedTuple._make (behind _replace) needs len() to count fields
@dataclass(frozen=True)
class Povm:
    effects: tuple[Array, ...]
    labels: tuple[str, ...]
    projective: bool
    frame: Optional[Frame] = None   # set when the effects were built from a frame

    def __len__(self) -> int:
        return len(self.effects)

    @property
    def regular_indices(self) -> tuple[int, ...]:
        return tuple(k for k, lab in enumerate(self.labels) if lab == REGULAR)

    @property
    def null_indices(self) -> tuple[int, ...]:
        return tuple(k for k, lab in enumerate(self.labels) if lab == NULL)


class EffectCheck(NamedTuple):
    index: int
    label: str
    constants: Array          # p vector (regular) or p x p table (null)
    residual: float
    imag_defect: float
    ok: bool


# reported field by field: the order is the report's
class OptimalityReport(NamedTuple):
    passed: bool
    regular: tuple[EffectCheck, ...]
    null: tuple[EffectCheck, ...]
    block_offdiag: tuple[float, ...]   # per-regular-effect +0 mass
    null_sum_residual: float


class SaturationReport(NamedTuple):
    passed: bool
    F_c: Array
    null_sum: Array
    res_regular: float
    res_null: float


def validate_effects(effects, n_s: int, tol: Tolerances = DEFAULT) -> tuple[list[Array], list[str]]:
    """Gate shape, hermiticity and positivity; clip tiny negative eigenvalues.

    Eigenvalues in [-tol.povm, 0) beyond the roundoff floor (1e-13
    relative) are clipped to zero with a warning entry.
    """
    mats = []
    warnings: list[str] = []
    for k, e in enumerate(effects):
        m = linalg.as_matrix(e)
        if m.shape != (n_s, n_s):
            raise InvalidPovm(f"effect {k} has shape {m.shape}, expected {(n_s, n_s)}")
        if linalg.herm_defect(m) > tol.povm:
            raise InvalidPovm(f"effect {k} is not Hermitian")
        m = 0.5 * (m + linalg.dag(m))
        eig = linalg.herm_eigen(m)
        if eig.values[0] < -tol.povm * (1.0 + eig.values[-1]):
            raise InvalidPovm(f"effect {k} has negative eigenvalue {eig.values[0]:.3e}")
        # an effect that is PSD up to roundoff is kept as given: rebuilding it
        # from its eigenvectors would only swap in the eigensolver's roundoff
        if eig.values[0] < -1e-13 * (1.0 + eig.values[-1]):
            clipped = np.clip(eig.values, 0.0, None)
            m = (eig.vectors * clipped) @ linalg.dag(eig.vectors)
            warnings.append(f"effect {k}: clipped eigenvalue {eig.values[0]:.3e} to zero")
        mats.append(m)
    return mats, warnings


def _is_projective(mats: list[Array], tol: Tolerances) -> bool:
    # idempotency only: projectors summing to I are mutually orthogonal, so the
    # completeness gate bounds every E_j E_k (canonicalize skips validate_effects)
    return all(linalg.fro(e @ e - e) <= tol.projective * (1.0 + linalg.fro(e)) for e in mats)


def classify(mats: list[Array], rho: Array, dec: BlockDecomposition,
             tol: Tolerances = DEFAULT) -> tuple[list[str], list[str]]:
    """Label effects regular/null by tr(rho E) and sanity-check null blocks.

    Null effects must live entirely in the 00 block; violations are
    reported as flags, not errors.
    """
    labels = []
    flags: list[str] = []
    for k, e in enumerate(mats):
        prob = float(np.real(np.trace(rho @ e)))
        if prob > tol.prob:
            labels.append(REGULAR)
            continue
        labels.append(NULL)
        bv = blocks.block_of(e, dec)
        mass = max(linalg.fro(bv.opp), linalg.fro(bv.opz))
        if mass > 1e-8 * (1.0 + linalg.fro(e)):
            flags.append(f"InconsistentNull: effect {k} has range-block mass {mass:.3e}")
    return labels, flags


def make_povm(source, rho: Array, dec: BlockDecomposition,
              tol: Tolerances = DEFAULT) -> tuple[Povm, list[str]]:
    """Validate, classify and wrap raw effect matrices or a :class:`Frame`.

    A frame's effects are projectors by construction: it is checked for
    shape and ranks, not eigensolved.  All effects must sum to I.
    """
    rho = linalg.as_matrix(rho)
    n_s = rho.shape[0]
    frame = source if isinstance(source, Frame) else None
    if frame and (frame.matrix.shape != (n_s, n_s) or sum(frame.ranks) != n_s or min(frame.ranks) < 1):
        raise InvalidPovm(f"a frame must be {n_s} x {n_s} with positive ranks summing to {n_s}")
    mats, warnings = (list(frame.effects()), []) if frame else validate_effects(source, n_s, tol)
    defect = linalg.fro(sum(mats) - np.eye(n_s))
    if defect > tol.povm * n_s:
        raise InvalidPovm(f"effects sum to identity with defect {defect:.3e}")
    labels, flags = classify(mats, rho, dec, tol)
    projective = frame is not None or _is_projective(mats, tol)
    return Povm(tuple(mats), tuple(labels), projective, frame), warnings + flags


def construct_optimal(slds: SldSet, w: Optional[WCandidate] = None,
                      tol: Tolerances = DEFAULT) -> Povm:
    """Build the optimal projective POVM from commuting ++ blocks and W.

    Its :class:`Frame` holds the common eigenvectors of the ++ SLD blocks,
    embedded in the range and grouped by joint eigenvalue tuple (one
    regular effect per group), then the columns of Y W (one rank-one null
    effect each), every column's phase fixed by :func:`linalg.fix_phases`.
    Raises ConditionFailed when the ++ blocks do not commute or, with a
    non-trivial null space, when no certified W is supplied.
    """
    dec = slds.dec
    c1 = check_condition1(slds, tol)
    if not c1.passed:
        raise ConditionFailed(f"++ blocks do not commute (residual {c1.residual:.3e})")
    if dec.r_zero > 0:
        if w is None or not w.certified or w.W is None:
            raise ConditionFailed("no certified null-space unitary supplied")

    u, joint = linalg.simultaneous_diagonalize(list(slds.Lpp), tol)
    clusters = linalg.gap_clusters(joint, linalg.joint_width(joint, tol))
    order = [i for cluster in clusters for i in cluster]
    null = dec.Y @ w.W if dec.r_zero > 0 else dec.Y
    frame = Frame(linalg.fix_phases(np.hstack([dec.V @ u[:, order], null])),
                  tuple(len(cluster) for cluster in clusters) + (1,) * dec.r_zero)
    labels = (REGULAR,) * len(clusters) + (NULL,) * dec.r_zero
    return Povm(effects=frame.effects(), labels=labels, projective=True, frame=frame)


def canonicalize(povm: Povm, dec: BlockDecomposition, slds: SldSet,
                 tol: Tolerances = DEFAULT) -> Povm:
    """Strip 00-block mass off regular effects into separate null effects.

    Assumes the POVM already passes the regular optimality checks; a
    regular effect with a non-vanishing +0 block contradicts that and
    raises NotBlockDiagonal.
    """
    effects: list[Array] = []
    labels: list[str] = []
    extra_null: list[Array] = []
    for e, lab in zip(povm.effects, povm.labels):
        if lab != REGULAR:
            effects.append(e)
            labels.append(lab)
            continue
        bv = blocks.block_of(e, dec)
        if linalg.fro(bv.opz) > tol.zero * (1.0 + linalg.fro(e)):
            raise NotBlockDiagonal(
                f"regular effect has +0 mass {linalg.fro(bv.opz):.3e}; not an optimal form"
            )
        if linalg.fro(bv.ozz) > tol.zero:
            effects.append(blocks.embed_parts(dec, opp=bv.opp))
            extra_null.append(blocks.embed_parts(dec, ozz=bv.ozz))
        else:
            effects.append(e)
        labels.append(REGULAR)
    effects.extend(extra_null)
    labels.extend([NULL] * len(extra_null))
    mats = [0.5 * (m + linalg.dag(m)) for m in effects]
    return Povm(effects=tuple(mats), labels=tuple(labels), projective=_is_projective(mats, tol))


def verify_optimality(povm: Povm, slds: SldSet, dec: BlockDecomposition,
                      tol: Tolerances = DEFAULT) -> OptimalityReport:
    """Extract the per-effect constants and residuals of the optimality identities.

    Regular effects: E L_l P_+ = c_l E P_+ with c_l real, for every l.
    Null effects: E_00 (Lpz_l^dag - c_lm Lpz_m^dag) = 0 with c_lm real,
    for every pair; paired constants must satisfy c_lm * c_ml ~ 1.
    """
    p = slds.p
    p_plus = dec.P_plus
    l_full = [embed_sld(slds, l) for l in range(p)]
    regular_checks: list[EffectCheck] = []
    null_checks: list[EffectCheck] = []
    offdiag: list[float] = []

    for k in povm.regular_indices:
        e = povm.effects[k]
        base = e @ p_plus
        base_sq = linalg.fro(base) ** 2
        consts = np.zeros(p)
        worst = 0.0
        imag_worst = 0.0
        ok = base_sq > 0.0
        for l in range(p):
            target = e @ l_full[l] @ p_plus
            raw = linalg.hs_inner(base, target) / base_sq
            consts[l] = raw.real
            resid = linalg.fro(target - raw.real * base) / (
                linalg.fro(base) * (1.0 + linalg.fro(l_full[l] @ p_plus))
            )
            worst = max(worst, resid)
            imag_worst = max(imag_worst, abs(raw.imag))
            if resid > tol.cond or abs(raw.imag) > tol.cond:
                ok = False
        regular_checks.append(
            EffectCheck(index=k, label=REGULAR, constants=consts, residual=worst,
                        imag_defect=imag_worst, ok=ok)
        )
        offdiag.append(linalg.fro(blocks.block_of(e, dec).opz))

    for k in povm.null_indices:
        e00 = blocks.block_of(povm.effects[k], dec).ozz
        prods = [e00 @ linalg.dag(slds.Lpz[l]) for l in range(p)]
        consts = np.full((p, p), np.nan)
        np.fill_diagonal(consts, 1.0)
        worst = 0.0
        imag_worst = 0.0
        ok = True
        for l, m in itertools.permutations(range(p), 2):
            fit = linalg.real_ratio(prods[l], prods[m], tol.zero, tol.c4)
            if fit is not None:
                consts[l, m], resid, imag, pair_ok = fit
                worst = max(worst, resid)
                imag_worst = max(imag_worst, imag)
                ok = ok and pair_ok
        for l in range(p):
            for m in range(l + 1, p):
                if np.isnan(consts[l, m]) or np.isnan(consts[m, l]):
                    continue
                if abs(consts[l, m] * consts[m, l] - 1.0) > tol.consistency * (
                    1.0 + consts[l, m] ** 2
                ):
                    ok = False
        null_checks.append(
            EffectCheck(index=k, label=NULL, constants=consts, residual=worst,
                        imag_defect=imag_worst, ok=ok)
        )

    null_sum = sum(
        (blocks.block_of(povm.effects[k], dec).ozz for k in povm.null_indices),
        np.zeros((dec.r_zero, dec.r_zero), dtype=complex),
    )
    null_sum_residual = linalg.fro(null_sum - np.eye(dec.r_zero))
    passed = all(c.ok for c in regular_checks) and all(c.ok for c in null_checks)
    return OptimalityReport(
        regular=tuple(regular_checks),
        null=tuple(null_checks),
        block_offdiag=tuple(offdiag),
        null_sum_residual=float(null_sum_residual),
        passed=passed,
    )


def outcome_table(povm: Povm, bundle: StateBundle) -> tuple[Array, Array]:
    """Outcome probabilities tr(rho E_k) and gradients Re tr(d_l rho E_k) (K x p)."""
    # traces of full products, not an O(n^2) einsum, so each entry rounds as
    # tr(A @ E) does: near a null outcome F_c divides by p_k ~ delta^2, and a
    # reordered sum moves the study's rows at 1e-9
    products = np.stack((bundle.rho, *bundle.drho)) @ np.stack(povm.effects)[:, None]
    table = np.real(np.trace(products, axis1=-2, axis2=-1))
    return table[:, 0], table[:, 1:]


def fisher_information(probs: Array, grads: Array, tol: Tolerances = DEFAULT) -> Array:
    """Classical Fisher information sum_k grad_k grad_k^T / p_k of an outcome table.

    Outcomes with probability at or below ``tol.prob`` are excluded from
    the sum; their limiting contribution is what
    :func:`null_component_sum` accounts for algebraically.
    """
    kept = probs > tol.prob
    g = grads[kept]
    return (g[:, :, None] * g[:, None, :] / probs[kept, None, None]).sum(axis=0)


def classical_fi(povm: Povm, bundle: StateBundle, tol: Tolerances = DEFAULT) -> Array:
    """Classical Fisher information of the outcome distribution of ``povm`` at ``bundle``."""
    return fisher_information(*outcome_table(povm, bundle), tol)


def null_component_sum(povm: Povm, slds: SldSet, tol: Tolerances = DEFAULT) -> Array:
    """Limiting information carried by the null effects.

    N[l, m] = sum over null effects of Re tr(diag(q) Lpz_l E_00 Lpz_m^dag);
    equal to the null QFIM component when the null 00 blocks sum to the
    identity on the null space.
    """
    p = slds.p
    dec = slds.dec
    q = dec.q
    out = np.zeros((p, p))
    for k in povm.null_indices:
        e00 = blocks.block_of(povm.effects[k], dec).ozz
        for l in range(p):
            for m in range(p):
                term = slds.Lpz[l] @ e00 @ linalg.dag(slds.Lpz[m])
                out[l, m] += float(np.real(np.sum(q * np.diagonal(term))))
    return 0.5 * (out + out.T)


def saturation_check(povm: Povm, slds: SldSet, bundle: StateBundle,
                     tol: Tolerances = DEFAULT) -> SaturationReport:
    """Compare classical information against the QFIM split.

    Passes when the classical Fisher matrix matches the regular component
    and the null-effect sum matches the null component, both in max norm
    relative to 1 + ||F||_max.
    """
    fim = qfim(slds)
    f_c = classical_fi(povm, bundle, tol)
    n_sum = null_component_sum(povm, slds, tol)
    scale = tol.sat * (1.0 + float(np.max(np.abs(fim.F))))
    res_reg = float(np.max(np.abs(f_c - fim.F_reg)))
    res_null = float(np.max(np.abs(n_sum - fim.F_null)))
    return SaturationReport(
        passed=(res_reg <= scale and res_null <= scale),
        F_c=f_c,
        null_sum=n_sum,
        res_regular=res_reg,
        res_null=res_null,
    )


def povm_to_json(povm: Povm) -> dict:
    """A constructed POVM as ``{"frame": matrix, "ranks": [r_1, ...]}``."""
    return {"frame": linalg.matrix_to_json(povm.frame.matrix), "ranks": list(povm.frame.ranks)}


def povm_from_json(obj) -> "Frame | list[Array]":
    """The :class:`Frame` or the effect matrices a POVM file's object holds.

    The object has either ``frame`` and ``ranks`` (as :func:`povm_to_json`
    writes them) or ``effects``, for a POVM that need not be projective.
    """
    if not isinstance(obj, dict) or ("frame" in obj) == ("effects" in obj):
        raise InvalidPovm("POVM JSON must be an object with either a 'frame' or an 'effects' key")
    ranks, effects = obj.get("ranks"), obj.get("effects")
    if "frame" in obj and not (isinstance(ranks, list) and all(type(r) is int for r in ranks)):
        raise ParseError(f"POVM 'ranks' must be a list of integers, got {ranks!r}")
    if "effects" in obj and not (isinstance(effects, list) and effects):
        raise InvalidPovm("POVM 'effects' must be a non-empty list")
    try:
        if "frame" in obj:
            return Frame(linalg.matrix_from_json(obj["frame"]), tuple(ranks))
        return [linalg.matrix_from_json(e) for e in effects]
    except ValueError as exc:
        raise ParseError(f"bad POVM matrix: {exc}") from exc

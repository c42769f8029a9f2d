"""POVMs: construction of the optimal projective measurement, effect
classification, canonicalization, and optimality/saturation verification.

An effect is *regular* at rho when tr(rho E) exceeds the probability
threshold and *null* otherwise.  A measurement saturates the QCRB exactly
when every regular effect reproduces each SLD on the range up to a real
constant and every null effect relates the +0 blocks of each SLD pair by
a real constant — those constants are extracted here by real least
squares, whose residual alone gates them, and the resulting classical
information is compared against the regular/null split of the QFIM.

A :class:`Povm` is held as column factors: effect k is G_k G_k^dag, G_k
the k-th group of ``ranks[k]`` columns of one n_s x R matrix G.  The
optimal measurement is one orthonormal basis, a unitary G held as a
:class:`Frame`, whether :func:`construct_optimal` built it or a POVM file
holds it; an effect given explicitly is factored as its eigenvectors
times the square roots of its positive eigenvalues.  Checks work from
V^dag G, Y^dag G and G^dag X G, one product per operator X, and take a
norm ||E_k X|| as ||G_k (G_k^dag X)||.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .blocks import BlockDecomposition
from .conditions import JointFrame
from .config import DEFAULT, Tolerances
from .errors import InvalidPovm, NotBlockDiagonal, ParseError
from .model import StateBundle
from .sld import SldSet, null_information, qfim

Array = np.ndarray

REGULAR = "regular"
NULL = "null"


class Frame(NamedTuple):
    """A projective POVM file's content: one unitary whose column groups span the effects."""

    matrix: Array
    ranks: tuple[int, ...]


def _groups(ranks) -> list[slice]:
    edges = np.cumsum((0, *ranks))
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


class Povm(NamedTuple):
    """Effects as column factors; ``len(ranks)`` counts them, ``len()`` the fields."""

    G: Array                  # n_s x R column factors: effect k is G_k G_k^dag
    ranks: tuple[int, ...]    # G_k is the k-th group of ranks[k] columns
    labels: tuple[str, ...]
    projective: bool

    @property
    def groups(self) -> list[slice]:
        return _groups(self.ranks)

    @property
    def regular_indices(self) -> tuple[int, ...]:
        return tuple(k for k, lab in enumerate(self.labels) if lab == REGULAR)

    @property
    def null_indices(self) -> tuple[int, ...]:
        return tuple(k for k, lab in enumerate(self.labels) if lab == NULL)

    @property
    def null_mask(self) -> Array:
        """Which columns of G factor null effects."""
        return np.repeat(np.array(self.labels) == NULL, self.ranks)


class EffectCheck(NamedTuple):
    index: int
    label: str
    constants: Array          # p vector (regular) or p x p table (null)
    residual: float
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
    """Gate shape, hermiticity and positivity; return each effect's factor.

    An effect's factor is its eigenvectors times the square roots of its
    positive eigenvalues (n_s x 0 for a zero effect).  Negative
    eigenvalues down to -tol.povm (relative) are dropped, with a warning
    entry when they lie beyond the roundoff floor (1e-13 relative).
    """
    factors = []
    warnings: list[str] = []
    for k, e in enumerate(effects):
        m = linalg.as_matrix(e)
        if m.shape != (n_s, n_s):
            raise InvalidPovm(f"effect {k} has shape {m.shape}, expected {(n_s, n_s)}")
        if linalg.herm_defect(m) > tol.povm:
            raise InvalidPovm(f"effect {k} is not Hermitian")
        eig = linalg.herm_eigen(0.5 * (m + linalg.dag(m)))
        if eig.values[0] < -tol.povm * (1.0 + eig.values[-1]):
            raise InvalidPovm(f"effect {k} has negative eigenvalue {eig.values[0]:.3e}")
        if eig.values[0] < -1e-13 * (1.0 + eig.values[-1]):
            warnings.append(f"effect {k}: clipped eigenvalue {eig.values[0]:.3e} to zero")
        kept = eig.values > 0.0
        factors.append(eig.vectors[:, kept] * np.sqrt(eig.values[kept]))
    return factors, warnings


def _is_projective(g: Array, ranks, tol: Tolerances) -> bool:
    # ||E^2 - E|| = ||Gamma^2 - Gamma|| and ||E|| = ||Gamma|| for E = G_k G_k^dag
    # and Gamma = G_k^dag G_k.  Idempotency only: projectors summing to I are
    # mutually orthogonal, so the completeness gate bounds every E_j E_k
    # (canonicalize skips that gate)
    gram = linalg.dag(g) @ g
    return all(linalg.fro(gk @ gk - gk) <= tol.cond * (1.0 + linalg.fro(gk))
               for gk in (gram[s, s] for s in _groups(ranks)))


def _traces(g: Array, ranks, ops: Array) -> Array:
    """Re tr(X E_k) for each operator X of the stack ``ops`` (rows) and effect k (columns)."""
    cols = np.real(np.sum(g.conj() * (ops @ g), axis=-2))   # Re (G^dag X G)_jj
    return np.stack([cols[:, s].sum(axis=1) for s in _groups(ranks)], axis=1)


def classify(g: Array, ranks, rho: Array, dec: BlockDecomposition,
             tol: Tolerances = DEFAULT) -> tuple[list[str], list[str]]:
    """Label the effects G_k G_k^dag regular/null by tr(rho E) and sanity-check null blocks.

    Null effects must live entirely in the 00 block: range-block mass above
    ``tol.zero * (1 + ||Gamma_k||)``, as in :func:`canonicalize`, is a flag.
    """
    probs = _traces(g, ranks, rho[None])[0]
    a, b = linalg.dag(dec.V) @ g, linalg.dag(dec.Y) @ g
    labels = []
    flags: list[str] = []
    for k, (s, prob) in enumerate(zip(_groups(ranks), probs)):
        if prob > tol.prob:
            labels.append(REGULAR)
            continue
        labels.append(NULL)
        # with A = V^dag G and B = Y^dag G, the ++ and +0 blocks of E_k
        # are A_k A_k^dag and A_k B_k^dag
        mass = max(linalg.fro(a[:, s] @ linalg.dag(a[:, s])),
                   linalg.fro(a[:, s] @ linalg.dag(b[:, s])))
        if mass > tol.zero * (1.0 + linalg.fro(linalg.dag(g[:, s]) @ g[:, s])):
            flags.append(f"InconsistentNull: effect {k} has range-block mass {mass:.3e}")
    return labels, flags


def make_povm(source, rho: Array, dec: BlockDecomposition,
              tol: Tolerances = DEFAULT) -> tuple[Povm, list[str]]:
    """Validate, factor and classify raw effect matrices or a :class:`Frame`.

    A frame is its own factor: it is checked for shape and ranks, not
    eigensolved.  Either way the effects must sum to I, ||G G^dag - I||
    within tol.povm * n_s.
    """
    rho = linalg.as_matrix(rho)
    n_s = rho.shape[0]
    if isinstance(source, Frame):
        g, ranks, warnings = source.matrix, source.ranks, []
        if g.shape != (n_s, n_s) or sum(ranks) != n_s or min(ranks) < 1:
            raise InvalidPovm(f"a frame must be {n_s} x {n_s} with positive ranks summing to {n_s}")
    else:
        factors, warnings = validate_effects(source, n_s, tol)
        g, ranks = np.hstack(factors), tuple(f.shape[1] for f in factors)
    defect = linalg.fro(g @ linalg.dag(g) - np.eye(n_s))
    if defect > tol.povm * n_s:
        raise InvalidPovm(f"effects sum to identity with defect {defect:.3e}")
    labels, flags = classify(g, ranks, rho, dec, tol)
    return Povm(g, ranks, tuple(labels), _is_projective(g, ranks, tol)), warnings + flags


def construct_optimal(dec: BlockDecomposition, w: Array, joint: JointFrame) -> Frame:
    """The optimal projective POVM's :class:`Frame`, :func:`linalg.fix_gauge` of ``[V U | Y W]``.

    ``joint`` is the grouped ++ eigenbasis U that
    :func:`conditions.evaluate_conditions` certified (one effect per
    group) and ``w`` the certified W (one rank-one effect per column of Y
    W).  Each effect's columns are gauged as one group, so the frame
    depends only on the effects.  Nothing is solved here; :func:`make_povm`
    labels and checks the frame as it does one read from a file.
    """
    ranks = joint.ranks + (1,) * dec.r_zero
    return Frame(linalg.fix_gauge(np.hstack([dec.V @ joint.U, dec.Y @ w]), ranks), ranks)


def canonicalize(povm: Povm, dec: BlockDecomposition, tol: Tolerances = DEFAULT) -> Povm:
    """Strip 00-block mass off regular effects into separate null effects.

    A regular effect with a 00 block is split into the effects factored
    by P_+ G_k and P_0 G_k.  Assumes the POVM already passes the regular
    optimality checks; a regular effect with a non-vanishing +0 block
    contradicts that and raises NotBlockDiagonal.
    """
    a, b = linalg.dag(dec.V) @ povm.G, linalg.dag(dec.Y) @ povm.G
    factors: list[Array] = []
    extra_null: list[Array] = []
    for s, lab in zip(povm.groups, povm.labels):
        gk = povm.G[:, s]
        if lab == REGULAR:
            opz = linalg.fro(a[:, s] @ linalg.dag(b[:, s]))
            if opz > tol.zero * (1.0 + linalg.fro(linalg.dag(gk) @ gk)):
                raise NotBlockDiagonal(f"regular effect has +0 mass {opz:.3e}; not an optimal form")
            if linalg.fro(b[:, s] @ linalg.dag(b[:, s])) > tol.zero:
                gk = dec.V @ a[:, s]
                extra_null.append(dec.Y @ b[:, s])
        factors.append(gk)
    g = np.hstack(factors + extra_null)
    ranks = tuple(f.shape[1] for f in factors + extra_null)
    labels = povm.labels + (NULL,) * len(extra_null)
    return Povm(g, ranks, labels, _is_projective(g, ranks, tol))


def verify_optimality(povm: Povm, slds: SldSet, tol: Tolerances = DEFAULT) -> OptimalityReport:
    """Extract the per-effect constants and residuals of the optimality identities.

    Regular effects: E L_l P_+ = c_l E P_+ with c_l real, for every l.
    Null effects: E_00 (Lpz_l^dag - c_lm Lpz_m^dag) = 0 with c_lm real,
    for every ordered pair, by :func:`linalg.ratio_table` at ``tol.cond``.
    With A = V^dag G and B = Y^dag G, E_k P_+ V = G_k A_k^dag, E_k L_l P_+ V
    = G_k (A_k^dag Lpp_l + B_k^dag Lpz_l^dag) and E_00 = B_k B_k^dag.
    A regular effect's residual |E L_l P_+ - c_l E P_+| / (|E P_+| (1 +
    ||L_l||)), at the real least-squares c_l, alone judges it: the ratio's
    imaginary part is the component along i E P_+, so |Im c_l| <=
    residual (1 + ||L_l||).
    """
    p, dec = slds.p, slds.dec
    g = povm.G
    a, b = linalg.dag(dec.V) @ g, linalg.dag(dec.Y) @ g
    # G^dag L_l V, and ||L_l P_+|| = ||L_l V||
    l_range = [linalg.dag(a) @ slds.Lpp[l] + linalg.dag(b) @ linalg.dag(slds.Lpz[l])
               for l in range(p)]
    l_norm = [math.hypot(linalg.fro(slds.Lpp[l]), linalg.fro(slds.Lpz[l])) for l in range(p)]
    groups = povm.groups
    regular_checks: list[EffectCheck] = []
    null_checks: list[EffectCheck] = []
    offdiag: list[float] = []

    for k in povm.regular_indices:
        s = groups[k]
        base = g[:, s] @ linalg.dag(a[:, s])
        targets = [g[:, s] @ l_range[l][s] for l in range(p)]
        consts = np.array([np.vdot(base, t).real for t in targets]) / linalg.fro(base) ** 2
        worst = max(linalg.fro(t - c * base) / (linalg.fro(base) * (1.0 + n))
                    for t, c, n in zip(targets, consts, l_norm))
        regular_checks.append(EffectCheck(index=k, label=REGULAR, constants=consts,
                                          residual=worst, ok=worst <= tol.cond))
        offdiag.append(linalg.fro(a[:, s] @ linalg.dag(b[:, s])))

    for k in povm.null_indices:
        e00 = b[:, groups[k]] @ linalg.dag(b[:, groups[k]])
        consts, worst, ok = linalg.ratio_table(
            [e00 @ linalg.dag(lpz) for lpz in slds.Lpz], tol.zero, tol.cond)
        null_checks.append(EffectCheck(index=k, label=NULL, constants=consts,
                                       residual=worst, ok=ok))

    b_null = b[:, povm.null_mask]
    return OptimalityReport(
        passed=all(c.ok for c in regular_checks) and all(c.ok for c in null_checks),
        regular=tuple(regular_checks),
        null=tuple(null_checks),
        block_offdiag=tuple(offdiag),
        null_sum_residual=linalg.fro(b_null @ linalg.dag(b_null) - np.eye(dec.r_zero)),
    )


def outcome_table(povm: Povm, bundle: StateBundle) -> tuple[Array, Array]:
    """Outcome probabilities tr(rho E_k) and gradients Re tr(d_l rho E_k) (K x p)."""
    # near a null outcome F_c divides by p_k ~ delta^2, a sum of O(1) terms
    # g^dag (rho g) that cancel: a study row at small delta keeps only about
    # 9 digits, and the rest moves with the order of the sums
    table = _traces(povm.G, povm.ranks, np.stack((bundle.rho, *bundle.drho)))
    return table[0], table[1:].T


def fisher_information(probs: Array, grads: Array, tol: Tolerances = DEFAULT) -> Array:
    """Classical Fisher information sum_k grad_k grad_k^T / p_k of an outcome table.

    Outcomes with probability at or below ``tol.prob`` are excluded from
    the sum; their limiting contribution is what
    :func:`null_component_sum` accounts for algebraically.
    """
    kept = probs > tol.prob
    g = grads[kept]
    return (g[:, :, None] * g[:, None, :] / probs[kept, None, None]).sum(axis=0)


def null_component_sum(povm: Povm, slds: SldSet) -> Array:
    """Limiting information carried by the null effects.

    N[l, m] = sum over null effects of Re tr(diag(q) Lpz_l E_00 Lpz_m^dag),
    :func:`sld.null_information` at B = Y^dag G_null (E_00 = B_k B_k^dag).
    N equals F_null, the same form at B = I, exactly when the null 00
    blocks sum to the identity on the null space.
    """
    return null_information(slds, linalg.dag(slds.dec.Y) @ povm.G[:, povm.null_mask])


def saturation_check(povm: Povm, slds: SldSet, bundle: StateBundle,
                     tol: Tolerances = DEFAULT) -> SaturationReport:
    """Compare classical information against the QFIM split.

    Passes when the classical Fisher matrix matches the regular component
    and the null-effect sum matches the null component, both in max norm
    relative to 1 + ||F||_max.  The null-effect sum is F_null exactly
    when the null 00 blocks sum to the identity on the null space.
    """
    fim = qfim(slds)
    f_c = fisher_information(*outcome_table(povm, bundle), tol)
    n_sum = null_component_sum(povm, slds)
    scale = tol.sat * (1.0 + float(np.max(np.abs(fim.F))))
    res_reg = float(np.max(np.abs(f_c - fim.F_reg)))
    res_null = float(np.max(np.abs(n_sum - fim.F_null)))
    return SaturationReport(passed=(res_reg <= scale and res_null <= scale), F_c=f_c,
                            null_sum=n_sum, res_regular=res_reg, res_null=res_null)


def povm_to_json(povm: Povm) -> dict:
    """A constructed POVM as ``{"frame": G, "ranks": [r_1, ...]}``."""
    return {"frame": linalg.matrix_to_json(povm.G), "ranks": list(povm.ranks)}


def povm_from_json(obj) -> "Frame | list[Array]":
    """The :class:`Frame` or the effect matrices a POVM file's object holds.

    The object has either ``frame`` and ``ranks`` (as :func:`povm_to_json`
    writes them) or ``effects``, for a POVM that need not be projective,
    and no other key.
    """
    if not isinstance(obj, dict) or ("frame" in obj) == ("effects" in obj):
        raise InvalidPovm("POVM JSON must be an object with either a 'frame' or an 'effects' key")
    keys = {"frame", "ranks"} if "frame" in obj else {"effects"}
    if not obj.keys() <= keys:
        raise ParseError(f"a POVM file takes only the keys {sorted(keys)}, got {sorted(obj)}")
    if "frame" in obj:
        ranks = linalg.from_json(obj.get("ranks"), (None,), "POVM 'ranks'", kind=int)
        return Frame(linalg.matrix_from_json(obj["frame"], "POVM 'frame'"), tuple(ranks.tolist()))
    effects = obj["effects"]
    if not (isinstance(effects, list) and effects):
        raise InvalidPovm("POVM 'effects' must be a non-empty list")
    return [linalg.matrix_from_json(e, f"POVM effect {k}") for k, e in enumerate(effects)]

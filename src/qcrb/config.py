"""Central table of numerical tolerances.

Every verdict produced by this package is gated by one of the values
below.  They are all overridable (CLI ``--tol name=value``) and every
report echoes the table that was actually used, so numerical decisions
stay auditable.  Unless stated otherwise a tolerance is applied
relative to ``1 + ||.||_F`` of the operands.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ParseError


class Tolerances(NamedTuple):
    herm: float = 1e-10          # hermiticity gate
    diag: float = 1e-8           # off-diagonal mass after joint diagonalization
    comm: float = 1e-8           # commutativity gate for joint diagonalization
    sv: float = 1e-8             # relative singular-value truncation in pinv
    state: float = 1e-10         # density-matrix invariants
    trace: float = 1e-7          # trace of state derivatives
    rank: float = 1e-8           # eigenvalue threshold separating range from null space
    gap: float = 1e4             # minimum ratio (smallest kept)/(largest dropped)
    nullblock: float = 1e-6      # allowed null-null mass of state derivatives
    cond: float = 1e-8           # condition residuals (commutators, effect constants)
    c4: float = 1e-8             # column-proportionality residuals
    consistency: float = 1e-6    # |c_lm * c_ml - 1| gate for paired constants
    zero: float = 1e-8           # "this block/column is zero" threshold
    prob: float = 1e-10          # regular/null outcome probability threshold
    povm: float = 1e-9           # POVM completeness and PSD slack
    projective: float = 1e-8     # E^2 = E per effect (completeness implies orthogonality)
    cluster: float = 1e-7        # joint-eigenvalue clustering width
    pde: float = 1e-5            # residual gate for the frame-change PDE (FD-limited)
    sat: float = 1e-7            # saturation identity gates
    fd_step: float = 1e-5        # default central-difference step
    fisher_cond: float = 1e12    # max condition number of an invertible Fisher matrix


DEFAULT = Tolerances()


def parse_overrides(pairs: list[str]) -> dict[str, float]:
    """Parse ``name=value`` strings into a tolerance override dict.

    Every value must be a finite positive number, and ``gap`` above 1.
    """
    names = set(Tolerances._fields)
    out: dict[str, float] = {}
    for item in pairs:
        name, _, text = item.partition("=")
        name = name.strip()
        if name not in names or not text:
            raise ParseError(f"unknown tolerance override {item!r}")
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > (1.0 if name == "gap" else 0.0)):
            bound = "finite and above 1" if name == "gap" else "finite and positive"
            raise ParseError(f"tolerance override {item!r} must be {bound}")
        out[name] = value
    return out

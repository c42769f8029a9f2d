"""Parameterized density-matrix families.

A :class:`StateModel` bundles the map theta -> rho with optional analytic
derivatives and an optional smooth spectral factorization
``theta -> (V, Y, q)`` (orthonormal range basis, orthonormal null basis,
positive weights with rho = V diag(q) V^dag).  Built-in models cover the
situations exercised by the test-suite; user models are loaded from JSON
config files, either as registry instances with bound constants or as
"stencil" tables that tabulate rho at a center point and its 2p
central-difference neighbours.  A stencil model answers only at its
center, which is its whole box: the neighbours are read once, at load,
for the difference.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import linalg
from .config import DEFAULT, Tolerances
from .errors import (
    DimensionMismatch,
    InvalidState,
    NoFactorization,
    OutOfDomain,
    ParseError,
    StencilIncomplete,
    UnknownModel,
)

Array = np.ndarray
Box = tuple[tuple[float, float], ...]

# step of every library central difference; a stencil's tabulated h is the only other
FD_STEP = 1e-5


class StateModel(NamedTuple):
    """A family rho_theta on an open parameter box.

    ``eval_rho`` and ``deriv`` are read only inside the box: every package
    caller checks theta through :func:`_require_in_box` first, so neither
    needs a domain check of its own.
    """

    name: str
    n_s: int
    p: int
    box: Box
    eval_rho: Callable[[Array], Array]
    deriv: Optional[Callable[[Array, int], Array]] = None
    factorization: Optional[Callable[[Array], tuple[Array, Array, Array]]] = None
    constants: Mapping = MappingProxyType({})   # one shared default, so read-only
    default_theta: Optional[tuple[float, ...]] = None


class StateBundle(NamedTuple):
    """State and its parameter derivatives at one point."""

    theta: Array
    rho: Array
    drho: tuple[Array, ...]
    spectrum: Optional[linalg.HermEigen] = None   # eigendecomposition of rho


def _require_in_box(model: StateModel, theta, margin: float = 0.0) -> Array:
    """theta as a float array; OutOfDomain unless it sits ``margin`` inside the open box."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.p,) or not all(
            lo + margin < t < hi - margin for t, (lo, hi) in zip(theta, model.box)):
        raise OutOfDomain(
            f"theta {theta.tolist()} not inside the open box of {model.name!r}"
            + (f" with margin {margin}" if margin else "")
        )
    return theta


def validate_state(rho: Array, n_s: int, tol: Tolerances = DEFAULT) -> linalg.HermEigen:
    """Gate hermiticity (at ``tol.state`` only), positivity and unit trace of rho.

    Returns the eigendecomposition of rho's Hermitian part made for the
    positivity gate, so that ``blocks.decompose`` need not make a second one.
    """
    rho = linalg.as_matrix(rho)
    if rho.shape != (n_s, n_s):
        raise InvalidState(f"state has shape {rho.shape}, expected {(n_s, n_s)}")
    if linalg.herm_defect(rho) > tol.state:
        raise InvalidState(f"state is not Hermitian (defect {linalg.herm_defect(rho):.3e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 10.0 * tol.state:
        raise InvalidState(f"state trace {tr} deviates from 1")
    spectrum = linalg.herm_eigen(0.5 * (rho + linalg.dag(rho)))
    if spectrum.values[0] < -tol.state:
        raise InvalidState(f"state has negative eigenvalue {spectrum.values[0]:.3e}")
    return spectrum


def central_difference(f: Callable[[Array], Array], theta: Array, l: int,
                       h: float = FD_STEP) -> Array:
    """(f(theta + h e_l) - f(theta - h e_l)) / 2h, the one difference of the package."""
    step = np.zeros_like(theta)
    step[l] = h
    return (f(theta + step) - f(theta - step)) / (2.0 * h)


def factorization_at(model: StateModel, theta: Array) -> tuple[Array, Array, Array]:
    """The model's factorization (V, Y, q) at theta; NoFactorization if it has none."""
    if model.factorization is None:
        raise NoFactorization(f"model {model.name!r} exposes no factorization")
    return model.factorization(theta)


def frame_derivative(model: StateModel, theta: Array, l: int) -> Array:
    """d_l V at theta: the central difference of the factorization's range frame V."""
    return central_difference(lambda point: factorization_at(model, point)[0], theta, l)


def eval_bundle(model: StateModel, theta, tol: Tolerances = DEFAULT) -> StateBundle:
    """Evaluate rho and all first derivatives at theta.

    theta must lie inside the model's open box, the one domain rule; a
    stencil's box is its centre.  The derivatives are the model's
    ``deriv`` when it has one, else :func:`central_difference` at
    ``FD_STEP`` (theta must then sit at least ``FD_STEP`` inside the
    box).  rho and each derivative are copied; each derivative must have
    rho's shape, be Hermitian at ``tol.state`` and have trace within
    ``tol.trace``.
    """
    theta = _require_in_box(model, theta, FD_STEP if model.deriv is None else 0.0)

    rho = linalg.as_matrix(model.eval_rho(theta))
    spectrum = validate_state(rho, model.n_s, tol)

    deriv = model.deriv or (lambda point, l: central_difference(model.eval_rho, point, l))
    drho = [linalg.as_matrix(deriv(theta, l)) for l in range(model.p)]
    for l, d in enumerate(drho):
        if d.shape != rho.shape:
            raise DimensionMismatch(f"derivative {l} has shape {d.shape}, expected {rho.shape}")
        if linalg.herm_defect(d) > tol.state:
            raise InvalidState(f"derivative {l} is not Hermitian")
        if abs(complex(np.trace(d))) > tol.trace:
            raise InvalidState(f"derivative {l} has trace {complex(np.trace(d)):.3e}")
    return StateBundle(theta=theta, rho=rho, drho=tuple(drho), spectrum=spectrum)


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------


def make_example2(d: complex = 0.6, c1: float = 1.0, c2: float = 2.0) -> StateModel:
    """Rank-2 state on C^3 with a parameter-dependent range.

    rho = theta1 |psi1><psi1| + (1 - theta1) |psi2><psi2| with
    psi1 = (0, 1, 0) and psi2 = (d e^{i phi}, 0, sqrt(1-|d|^2)),
    phi = c1 theta1 + c2 theta2.  Requires 0 < |d| < 1 and c1, c2 != 0.
    """
    d = complex(d)
    if not 0.0 < abs(d) < 1.0:
        raise InvalidState(f"example2 requires 0 < |d| < 1, got |d| = {abs(d)}")
    if c1 == 0.0 or c2 == 0.0:
        raise InvalidState("example2 requires non-zero c1 and c2")
    c = (float(c1), float(c2))
    root = math.sqrt(1.0 - abs(d) ** 2)
    psi1 = np.array([0.0, 1.0, 0.0], dtype=complex)

    def phase(theta: Array) -> float:
        # Python floats overflow to inf without a numpy RuntimeWarning; the
        # non-finite rho is then an InvalidState
        return c[0] * float(theta[0]) + c[1] * float(theta[1])

    def psi2(theta: Array) -> Array:
        phi = phase(theta)
        return np.array([d * cmath.exp(1j * phi), 0.0, root], dtype=complex)

    def dpsi2(theta: Array, l: int) -> Array:
        phi = phase(theta)
        return np.array([1j * c[l] * d * cmath.exp(1j * phi), 0.0, 0.0], dtype=complex)

    def eval_rho(theta: Array) -> Array:
        v2 = psi2(theta)
        return theta[0] * np.outer(psi1, psi1.conj()) + (1.0 - theta[0]) * np.outer(v2, v2.conj())

    def deriv(theta: Array, l: int) -> Array:
        v2 = psi2(theta)
        dv2 = dpsi2(theta, l)
        out = (1.0 - theta[0]) * (np.outer(dv2, v2.conj()) + np.outer(v2, dv2.conj()))
        if l == 0:
            out = out + np.outer(psi1, psi1.conj()) - np.outer(v2, v2.conj())
        return out

    def factorization(theta: Array) -> tuple[Array, Array, Array]:
        phi = phase(theta)
        v = np.column_stack([psi1, psi2(theta)])
        y = np.array([[root], [0.0], [-d.conjugate() * cmath.exp(-1j * phi)]], dtype=complex)
        q = np.array([theta[0], 1.0 - theta[0]])
        return v, y, q

    return StateModel(name="example2", n_s=3, p=2, box=((0.0, 1.0), (0.0, 1.0)),
                      eval_rho=eval_rho, deriv=deriv, factorization=factorization,
                      constants={"d": d, "c1": c[0], "c2": c[1]})


def make_fixed_range() -> StateModel:
    """Rank-2 state on C^3 whose range is the fixed span of e1, e2.

    V = [e1, e^{i theta2} e2] with weights (theta1, 1 - theta1); the state
    itself is diag(theta1, 1-theta1, 0) and does not depend on theta2.
    """

    def eval_rho(theta: Array) -> Array:
        return np.diag(np.array([theta[0], 1.0 - theta[0], 0.0], dtype=complex))

    def deriv(theta: Array, l: int) -> Array:
        if l == 0:
            return np.diag(np.array([1.0, -1.0, 0.0], dtype=complex))
        return np.zeros((3, 3), dtype=complex)

    def factorization(theta: Array) -> tuple[Array, Array, Array]:
        v = np.zeros((3, 2), dtype=complex)
        v[0, 0] = 1.0
        v[1, 1] = cmath.exp(1j * theta[1])
        y = np.zeros((3, 1), dtype=complex)
        y[2, 0] = 1.0
        return v, y, np.array([theta[0], 1.0 - theta[0]])

    return StateModel(name="fixed_range", n_s=3, p=2,
                      box=((0.0, 1.0), (-2.0 * math.pi, 2.0 * math.pi)),
                      eval_rho=eval_rho, deriv=deriv, factorization=factorization)


def make_classical_diag() -> StateModel:
    """Full-rank commuting family diag(theta1, theta2, 1 - theta1 - theta2)."""

    def eval_rho(theta: Array) -> Array:
        return np.diag(np.array([theta[0], theta[1], 1.0 - theta[0] - theta[1]], dtype=complex))

    def deriv(theta: Array, l: int) -> Array:
        if l == 0:
            return np.diag(np.array([1.0, 0.0, -1.0], dtype=complex))
        return np.diag(np.array([0.0, 1.0, -1.0], dtype=complex))

    def factorization(theta: Array) -> tuple[Array, Array, Array]:
        return (
            np.eye(3, dtype=complex),
            np.zeros((3, 0), dtype=complex),
            np.array([theta[0], theta[1], 1.0 - theta[0] - theta[1]]),
        )

    # box keeps theta1 + theta2 < 1 so the third weight stays positive
    return StateModel(name="classical_diag", n_s=3, p=2, box=((0.0, 0.5), (0.0, 0.5)),
                      eval_rho=eval_rho, deriv=deriv, factorization=factorization)


def make_qubit_xy() -> StateModel:
    """Full-rank qubit family (I + theta1 X + theta2 Y) / 2 with non-commuting SLDs."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)

    def eval_rho(theta: Array) -> Array:
        return 0.5 * (np.eye(2, dtype=complex) + theta[0] * sx + theta[1] * sy)

    def deriv(theta: Array, l: int) -> Array:
        return 0.5 * (sx if l == 0 else sy)

    return StateModel(name="qubit_xy", n_s=2, p=2, box=((-0.6, 0.6), (-0.6, 0.6)),
                      eval_rho=eval_rho, deriv=deriv)


def make_pure_state() -> StateModel:
    """Pure qubit family (cos theta1, e^{i theta2} sin theta1)."""

    def psi(theta: Array) -> Array:
        return np.array([math.cos(theta[0]), cmath.exp(1j * theta[1]) * math.sin(theta[0])])

    def dpsi(theta: Array, l: int) -> Array:
        if l == 0:
            return np.array(
                [-math.sin(theta[0]), cmath.exp(1j * theta[1]) * math.cos(theta[0])]
            )
        return np.array([0.0, 1j * cmath.exp(1j * theta[1]) * math.sin(theta[0])])

    def eval_rho(theta: Array) -> Array:
        v = psi(theta)
        return np.outer(v, v.conj())

    def deriv(theta: Array, l: int) -> Array:
        v = psi(theta)
        dv = dpsi(theta, l)
        return np.outer(dv, v.conj()) + np.outer(v, dv.conj())

    def factorization(theta: Array) -> tuple[Array, Array, Array]:
        v = psi(theta).reshape(2, 1)
        y = np.array(
            [[-cmath.exp(-1j * theta[1]) * math.sin(theta[0])], [math.cos(theta[0])]]
        )
        return v, y, np.array([1.0])

    return StateModel(name="pure_state", n_s=2, p=2, box=((0.05, 1.5), (-3.0, 3.0)),
                      eval_rho=eval_rho, deriv=deriv, factorization=factorization)


# name -> (factory, constants a config file may bind)
_REGISTRY: dict[str, tuple[Callable[..., StateModel], tuple[str, ...]]] = {
    "example2": (make_example2, ("d", "c1", "c2")),
    "fixed_range": (make_fixed_range, ()),
    "classical_diag": (make_classical_diag, ()),
    "qubit_xy": (make_qubit_xy, ()),
    "pure_state": (make_pure_state, ()),
}


def build_model(name: str, **constants) -> StateModel:
    if name not in _REGISTRY:
        raise UnknownModel(f"no built-in model named {name!r}")
    return _REGISTRY[name][0](**constants)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


_STENCIL_KEYS = {"model", "h", "center", "rho_center", "rho_plus", "rho_minus"}


def read_json(path, what: str):
    """The JSON value in the file at ``path``; any failure to read it is a ParseError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    # ValueError covers JSONDecodeError and bytes that are not UTF-8;
    # RecursionError, nesting too deep for the decoder
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from exc


def _make_stencil_model(obj: dict, tol: Tolerances) -> StateModel:
    if obj.keys() != _STENCIL_KEYS:
        raise ParseError(f"a stencil config has exactly the keys {sorted(_STENCIL_KEYS)}, "
                         f"got {sorted(obj)}")
    h = float(linalg.from_json(obj["h"], (), "stencil 'h'"))
    if h <= 0.0:
        raise ParseError("stencil step h must be positive")
    center = linalg.from_json(obj["center"], (None,), "stencil 'center'")
    rho_center = linalg.matrix_from_json(obj["rho_center"], "stencil 'rho_center'")
    plus, minus = obj["rho_plus"], obj["rho_minus"]
    p = center.size
    if not isinstance(plus, list) or not isinstance(minus, list) or len(plus) != p or len(minus) != p:
        raise StencilIncomplete(f"stencil needs {p} forward and {p} backward points")
    # the centre is gated where eval_bundle reads it; the neighbours are
    # gated here and read once, for the derivatives
    n_s = rho_center.shape[0]
    drho = []
    for l in range(p):
        hi = linalg.matrix_from_json(plus[l], f"stencil 'rho_plus' entry {l}")
        lo = linalg.matrix_from_json(minus[l], f"stencil 'rho_minus' entry {l}")
        validate_state(hi, n_s, tol)
        validate_state(lo, n_s, tol)
        drho.append(central_difference(lambda point: hi if point[l] > center[l] else lo,
                                       center, l, h))

    # the box is the centre alone, widened by a roundoff tolerance; every
    # caller checks it before it reads rho or a derivative
    w = 1e-12 * (1.0 + max(map(abs, center)))
    box = tuple((float(c - w), float(c + w)) for c in center)
    return StateModel(name="stencil", n_s=n_s, p=p, box=box, eval_rho=lambda theta: rho_center,
                      deriv=lambda theta, l: drho[l],
                      constants={"h": h}, default_theta=tuple(float(c) for c in center))


def model_from_config(obj: dict, tol: Tolerances = DEFAULT) -> StateModel:
    """Build a model from a parsed config dict (see :func:`load_model`)."""
    if not isinstance(obj, dict) or not isinstance(obj.get("model"), str):
        raise ParseError("model config must be an object with a string 'model' key")
    name = obj["model"]
    if name == "stencil":
        return _make_stencil_model(obj, tol)
    if name not in _REGISTRY:
        raise UnknownModel(f"no built-in model named {name!r}")
    constants = {}
    for key, value in obj.items():
        if key in ("model", "theta", "box"):
            continue
        if key not in _REGISTRY[name][1]:
            raise ParseError(f"model {name!r} does not take a constant {key!r}")
        if key == "d" and isinstance(value, list):
            constants[key] = complex(*linalg.from_json(value, (2,), "'d' as [re, im]"))
        else:
            constants[key] = float(linalg.from_json(value, (), repr(key)))
    built = build_model(name, **constants)
    box = built.box
    if "box" in obj:
        box = tuple(map(tuple, linalg.from_json(obj["box"], (built.p, 2), "'box'").tolist()))
        if any(not lo < hi for lo, hi in box):
            raise InvalidState("box intervals must be non-empty")
    built = built._replace(box=box)
    if obj.get("theta") is None:
        return built
    theta = _require_in_box(built, linalg.from_json(obj["theta"], (built.p,), "'theta'"))
    return built._replace(default_theta=tuple(theta.tolist()))


def load_model(path, tol: Tolerances = DEFAULT) -> StateModel:
    """Load a model from a JSON config file."""
    return model_from_config(read_json(path, "model file"), tol)


def stencil_payload(model: StateModel, theta, h: float) -> dict:
    """Serialize a model to the stencil config format around one point."""
    theta = _require_in_box(model, theta, h)
    steps = h * np.eye(model.p)
    return {
        "model": "stencil",
        "h": float(h),
        "center": [float(t) for t in theta],
        "rho_center": linalg.matrix_to_json(model.eval_rho(theta)),
        "rho_plus": [linalg.matrix_to_json(model.eval_rho(theta + step)) for step in steps],
        "rho_minus": [linalg.matrix_to_json(model.eval_rho(theta - step)) for step in steps],
    }

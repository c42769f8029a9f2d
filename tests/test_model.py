import cmath
import json
import math

import numpy as np
import pytest

from qcrb import linalg, model
from qcrb.config import DEFAULT
from qcrb.errors import (
    InvalidState,
    QcrbError,
    NoFactorization,
    OutOfDomain,
    ParseError,
    StencilIncomplete,
    UnknownModel,
)

from conftest import THETA_QUBIT, WORKING_POINTS
from util import dense_saturable_config


def _box_interior_points(mdl, count, seed):
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in mdl.box])
    hi = np.array([b[1] for b in mdl.box])
    width = hi - lo
    return lo + width * (0.05 + 0.9 * rng.random((count, mdl.p)))


class TestEvalBundle:
    def test_example2_spectrum(self, example2):
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        assert abs(np.trace(bundle.rho) - 1.0) < 1e-12
        evals = np.sort(linalg.herm_eigen(bundle.rho).values)
        assert np.allclose(evals, [0.0, 0.25, 0.75], atol=1e-12)

    def test_classical_diag_derivative_exact(self, classical_diag):
        bundle = model.eval_bundle(classical_diag, [0.2, 0.3])
        assert np.array_equal(bundle.drho[0], np.diag([1.0, 0.0, -1.0]).astype(complex))

    def test_pure_state_fd_matches_analytic(self, pure_state):
        theta = np.array([0.6, 0.4])
        analytic = model.eval_bundle(pure_state, theta)
        fd = model.eval_bundle(pure_state._replace(deriv=None), theta)
        for a, f in zip(analytic.drho, fd.drho):
            assert np.max(np.abs(a - f)) <= 1e-9

    def test_cross_check_catches_bad_derivative(self, example2):
        broken = example2._replace(
            deriv=lambda theta, l: example2.deriv(theta, l) + 0.1 * np.eye(3))
        # the +0.1 I shift gives the derivative trace 0.3: the trace gate rejects it
        with pytest.raises(InvalidState, match="trace"):
            model.eval_bundle(broken, [0.25, 0.5])

    def test_out_of_domain(self, example2):
        with pytest.raises(OutOfDomain):
            model.eval_bundle(example2, [1.5, 0.5])

    def test_fd_margin_enforced(self, example2):
        theta = [1e-7, 0.5]
        model.eval_bundle(example2, theta)  # analytic path needs no margin
        with pytest.raises(OutOfDomain):
            model.eval_bundle(example2._replace(deriv=None), theta)

    def test_derivative_of_the_wrong_shape_is_rejected(self, example2):
        # a derivative one row and column too large is a package error, not numpy's ValueError
        broken = example2._replace(deriv=lambda theta, l: np.zeros((4, 4), dtype=complex))
        with pytest.raises(QcrbError, match="shape"):
            model.eval_bundle(broken, [0.25, 0.5])

    def test_derivative_traceless(self, example2):
        bundle = model.eval_bundle(example2, [0.37, 0.21])
        for d in bundle.drho:
            assert abs(np.trace(d)) <= DEFAULT.trace


def _closed_form_dv(name: str, theta, l: int) -> np.ndarray:
    """d_l V of a built-in model's factorization at its default constants, by hand."""
    t0, t1 = theta
    if name == "example2":   # V = [e2, (d e^{i phi}, 0, root)], phi = theta1 + 2 theta2
        dv = np.zeros((3, 2), dtype=complex)
        dv[0, 1] = 1j * (1.0, 2.0)[l] * 0.6 * cmath.exp(1j * (t0 + 2.0 * t1))
    elif name == "fixed_range":   # V = [e1, e^{i theta2} e2]
        dv = np.zeros((3, 2), dtype=complex)
        dv[1, 1] = 1j * cmath.exp(1j * t1) if l == 1 else 0.0
    elif name == "classical_diag":   # V = I
        dv = np.zeros((3, 3), dtype=complex)
    else:   # pure_state: V = (cos theta1, e^{i theta2} sin theta1)
        dv = np.array([[-math.sin(t0)], [cmath.exp(1j * t1) * math.cos(t0)]] if l == 0
                      else [[0.0], [1j * cmath.exp(1j * t1) * math.sin(t0)]])
    return dv


class TestBuiltinInvariants:
    @pytest.mark.parametrize("name", sorted(WORKING_POINTS))
    def test_state_invariants_on_random_points(self, name):
        mdl = model.build_model(name)
        for theta in _box_interior_points(mdl, 100, seed=hash(name) % 2**32):
            rho = mdl.eval_rho(theta)
            model.validate_state(rho, mdl.n_s)

    @pytest.mark.parametrize("name", ["example2", "fixed_range", "classical_diag", "pure_state"])
    def test_factorization_invariants(self, name):
        mdl = model.build_model(name)
        for theta in _box_interior_points(mdl, 25, seed=len(name)):
            v, y, q = mdl.factorization(theta)
            r_plus = v.shape[1]
            assert np.allclose(linalg.dag(v) @ v, np.eye(r_plus), atol=1e-10)
            if y.shape[1]:
                assert np.allclose(linalg.dag(y) @ y, np.eye(y.shape[1]), atol=1e-10)
                assert np.max(np.abs(linalg.dag(v) @ y)) <= 1e-10
            assert np.min(q) > 0
            rho = mdl.eval_rho(theta)
            assert np.allclose((v * q) @ linalg.dag(v), rho, atol=1e-10)

    def test_fixed_range_frame_never_leaves_subspace(self, fixed_range):
        for theta in _box_interior_points(fixed_range, 10, seed=4):
            y = fixed_range.factorization(theta)[1]
            for l in range(2):
                dv = model.frame_derivative(fixed_range, theta, l)
                assert np.max(np.abs(linalg.dag(dv) @ y)) == 0.0

    @pytest.mark.parametrize("name", ["example2", "fixed_range", "classical_diag", "pure_state"])
    def test_analytic_frame_derivative_matches_the_difference(self, name):
        mdl = model.build_model(name)
        theta = WORKING_POINTS[name]
        for l in range(mdl.p):
            dv = model.frame_derivative(mdl, theta, l)
            assert np.allclose(dv, _closed_form_dv(name, theta, l), rtol=0.0, atol=1e-8)

    def test_frame_derivative_needs_a_factorization(self, qubit_xy):
        with pytest.raises(NoFactorization):
            model.frame_derivative(qubit_xy, THETA_QUBIT, 0)

    def test_qubit_xy_closed_form_spectrum(self, qubit_xy):
        bundle = model.eval_bundle(qubit_xy, [0.3, 0.2])
        evals = linalg.herm_eigen(bundle.rho).values
        r = np.sqrt(0.09 + 0.04)
        assert np.allclose(evals, [0.5 * (1 - r), 0.5 * (1 + r)], atol=1e-12)

    @pytest.mark.parametrize("name", ["example2", "pure_state", "fixed_range"])
    def test_fd_second_order_convergence(self, name):
        mdl = model.build_model(name)
        theta = WORKING_POINTS[name]
        ratios = {}
        for h in (1e-4, 1e-5):
            analytic = model.eval_bundle(mdl, theta)
            fd = [model.central_difference(mdl.eval_rho, analytic.theta, l, h)
                  for l in range(mdl.p)]
            err = max(np.max(np.abs(a - f)) for a, f in zip(analytic.drho, fd))
            ratios[h] = err / h**2
        if ratios[1e-4] < 1e-4 and ratios[1e-5] < 1e-2:
            return  # derivative is exactly linear in theta; FD is exact
        assert 0.2 <= ratios[1e-4] / ratios[1e-5] <= 5.0

    def test_registry_descriptors(self):
        for name in WORKING_POINTS:
            assert model.build_model(name).name == name
        ex2 = model.build_model("example2")
        assert ex2.n_s == 3 and ex2.p == 2
        assert set(ex2.constants) == {"d", "c1", "c2"}

    def test_unknown_model(self):
        with pytest.raises(UnknownModel):
            model.build_model("nope")

    def test_example2_constant_validation(self):
        with pytest.raises(InvalidState):
            model.build_model("example2", d=1.2)
        with pytest.raises(InvalidState):
            model.build_model("example2", d=0.5, c1=0.0)


class TestLoadModel:
    def _load(self, tmp_path, obj):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return model.load_model(path)

    def test_example2_config(self, tmp_path):
        mdl = self._load(
            tmp_path,
            {"model": "example2", "d": [0.6, 0], "c1": 1, "c2": 2, "theta": [0.25, 0.5]},
        )
        assert mdl.name == "example2"
        assert mdl.default_theta == (0.25, 0.5)
        assert mdl.constants["d"] == 0.6 + 0j

    def test_invalid_constant(self, tmp_path):
        with pytest.raises(InvalidState):
            self._load(tmp_path, {"model": "example2", "d": [1.2, 0], "c1": 1, "c2": 2})

    def test_unknown_name(self, tmp_path):
        with pytest.raises(UnknownModel):
            self._load(tmp_path, {"model": "mystery"})

    def test_unknown_constant_key(self, tmp_path):
        with pytest.raises(ParseError):
            self._load(tmp_path, {"model": "example2", "gamma": 2})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            model.load_model(path)

    def test_theta_outside_box(self, tmp_path):
        with pytest.raises(OutOfDomain):
            self._load(tmp_path, {"model": "example2", "theta": [1.5, 0.5]})

    def test_box_override(self, tmp_path):
        mdl = self._load(
            tmp_path,
            {"model": "example2", "box": [[0.1, 0.9], [0.2, 0.8]], "theta": [0.5, 0.5]},
        )
        assert mdl.box == ((0.1, 0.9), (0.2, 0.8))
        with pytest.raises(OutOfDomain):
            model.eval_bundle(mdl, [0.05, 0.5])

    def test_bad_box_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            self._load(tmp_path, {"model": "example2", "box": [[0.1, 0.9]]})


class TestStencil:
    def test_round_trip_matches_fd_path(self, tmp_path, example2):
        theta = np.array([0.25, 0.5])
        h = 1e-5
        payload = model.stencil_payload(example2, theta, h)
        path = tmp_path / "stencil.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        stencil = model.load_model(path)
        direct = model.eval_bundle(example2._replace(deriv=None), theta)
        tabulated = model.eval_bundle(stencil, theta)
        assert np.max(np.abs(direct.rho - tabulated.rho)) <= 1e-12
        for a, b in zip(direct.drho, tabulated.drho):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_usable_only_at_its_center(self, tmp_path, example2):
        payload = model.stencil_payload(example2, [0.25, 0.5], 1e-5)
        path = tmp_path / "stencil.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        stencil = model.load_model(path)
        with pytest.raises(OutOfDomain):
            model.eval_bundle(stencil, [0.26, 0.5])

    def test_derivative_is_the_tabulated_difference(self, monkeypatch):
        config = dense_saturable_config(monkeypatch)
        stencil = model.model_from_config(config)
        h = config["h"]
        for l in range(stencil.p):
            plus = linalg.matrix_from_json(config["rho_plus"][l])
            minus = linalg.matrix_from_json(config["rho_minus"][l])
            assert np.array_equal(stencil.deriv(np.asarray(config["center"]), l),
                                  (plus - minus) / (2 * h))

    def test_neighbours_are_not_evaluation_points(self, tmp_path, example2):
        payload = model.stencil_payload(example2, [0.25, 0.5], 1e-5)
        path = tmp_path / "stencil.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        stencil = model.load_model(path)
        for neighbour in ([0.25 + 1e-5, 0.5], [0.25, 0.5 - 1e-5]):
            with pytest.raises(OutOfDomain):
                model.eval_bundle(stencil, neighbour)

    def test_a_stencil_has_no_neighbours_to_tabulate(self, example2):
        stencil = model.model_from_config(model.stencil_payload(example2, [0.25, 0.5], 1e-5))
        with pytest.raises(OutOfDomain):
            model.stencil_payload(stencil, [0.25, 0.5], 1e-5)

    def test_state_and_derivative_share_one_centre_rule(self, tmp_path, example2):
        payload = model.stencil_payload(example2, [0.25, 0.5], 1e-5)
        path = tmp_path / "stencil.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        stencil = model.load_model(path)
        centre = model.eval_bundle(stencil, [0.25, 0.5])
        # within 1e-12 (1 + max|centre|) = 1.5e-12 of the centre: rho and drho are both read
        near = model.eval_bundle(stencil, [0.25 + 1.2e-12, 0.5])
        assert np.array_equal(near.rho, centre.rho)
        for a, b in zip(near.drho, centre.drho):
            assert np.array_equal(a, b)
        with pytest.raises(OutOfDomain):
            model.eval_bundle(stencil, [0.25 + 3e-12, 0.5])

    def test_missing_point_rejected(self, tmp_path, example2):
        payload = model.stencil_payload(example2, [0.25, 0.5], 1e-5)
        payload["rho_plus"] = payload["rho_plus"][:1]
        path = tmp_path / "stencil.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StencilIncomplete):
            model.load_model(path)

    def test_invalid_state_rejected(self, tmp_path, example2):
        payload = model.stencil_payload(example2, [0.25, 0.5], 1e-5)
        bad = np.array(payload["rho_center"], dtype=float)
        bad[0][0][0] += 0.3
        payload["rho_center"] = bad.tolist()
        path = tmp_path / "stencil.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        # load_model checks only the neighbours; eval_bundle gates the centre
        stencil = model.load_model(path)
        with pytest.raises(InvalidState, match="state trace .* deviates from 1"):
            model.eval_bundle(stencil, [0.25, 0.5])

import numpy as np
import pytest

from qcrb import blocks, conditions, model, sld

THETA_EX2 = np.array([0.25, 0.5])
THETA_FIXED = np.array([0.3, 0.7])
THETA_DIAG = np.array([0.2, 0.3])
THETA_QUBIT = np.array([0.3, 0.2])
THETA_PURE = np.array([0.6, 0.4])

WORKING_POINTS = {
    "example2": THETA_EX2,
    "fixed_range": THETA_FIXED,
    "classical_diag": THETA_DIAG,
    "qubit_xy": THETA_QUBIT,
    "pure_state": THETA_PURE,
}


@pytest.fixture(scope="session")
def example2():
    return model.build_model("example2")


@pytest.fixture(scope="session")
def fixed_range():
    return model.build_model("fixed_range")


@pytest.fixture(scope="session")
def classical_diag():
    return model.build_model("classical_diag")


@pytest.fixture(scope="session")
def qubit_xy():
    return model.build_model("qubit_xy")


@pytest.fixture(scope="session")
def pure_state():
    return model.build_model("pure_state")


def pipeline(mdl, theta):
    """bundle, decomposition, SLD set, condition report at one point."""
    bundle = model.eval_bundle(mdl, theta)
    dec = blocks.decompose(bundle.rho)
    slds = sld.compute_slds(bundle, dec)
    report, _ = conditions.evaluate_conditions(slds)
    return bundle, dec, slds, report


@pytest.fixture(scope="session")
def ex2_pipeline(example2):
    return pipeline(example2, THETA_EX2)


@pytest.fixture(scope="session")
def diag_pipeline(classical_diag):
    return pipeline(classical_diag, THETA_DIAG)


@pytest.fixture(scope="session")
def fixed_pipeline(fixed_range):
    return pipeline(fixed_range, THETA_FIXED)

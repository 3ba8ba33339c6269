import os

# One BLAS thread, set before numpy loads: the KKT systems are small, and a
# second thread only slows them under load.  A caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import dataclasses  # noqa: E402
from importlib import resources  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from gridshed.ao1_opf import solve_ao1  # noqa: E402
from gridshed.grid_model import Branch, ScenarioConfig, apply_scenario, parse_case  # noqa: E402
from gridshed.power_equations import SwitchVector, network  # noqa: E402


def _case_text(name):
    return resources.files("gridshed").joinpath(f"cases/{name}.m").read_text()


@pytest.fixture(scope="session")
def case5_text():
    return _case_text("case5")


@pytest.fixture(scope="session")
def case30_text():
    return _case_text("case30")


@pytest.fixture(scope="session")
def case5(case5_text):
    return parse_case(case5_text)


@pytest.fixture(scope="session")
def case30(case30_text):
    return parse_case(case30_text)


@pytest.fixture(scope="session")
def stressed30(case30):
    """30-bus case under the default mismatch scenario (demand > capacity)."""
    return apply_scenario(case30, ScenarioConfig())


@pytest.fixture(scope="session")
def stressed30_start(stressed30):
    """Continuous stage at full service on the stressed case.

    Generation parks at its caps because demand exceeds capacity; the result
    still carries a usable iterate, and its balance multipliers are the
    closed form -y r at any fit end, so the switching stage can use both.
    """
    y = SwitchVector(np.ones(network(stressed30).n_dem))
    res = solve_ao1(stressed30, y)
    return res, (res.state, res.input, y)


@pytest.fixture(scope="session")
def shortfall5_case(case5):
    """case5 under the criterion-3 scenario: any two demands fit, all three do not."""
    return apply_scenario(case5, ScenarioConfig(
        shift_mode="multiplicative", pd_shift=1.0, qd_shift=1.0,
        pg_upper_scale=0.5, qg_bound_scale=0.5,
        rank_seed=2, demand_set_mode="loaded-buses",
    ))


@pytest.fixture(scope="session")
def negative_g5(shortfall5_case):
    """The shortfall case with its first branch rebuilt at conductance -g.

    Network losses can be negative there, so the active-capacity screen never
    fires, and AO1's fit at all-ones ends stationary with the balance
    residual above TOL_FEAS: an "infeasible" verdict with certificate
    "restoration".
    """
    first, *rest = shortfall5_case.branches
    flipped = Branch(from_bus=first.from_bus, to_bus=first.to_bus, g=-first.g, b=first.b)
    return dataclasses.replace(shortfall5_case, branches=(flipped, *rest))

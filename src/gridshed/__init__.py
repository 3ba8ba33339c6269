"""gridshed: optimal demand shut-off for islanded AC microgrids."""

import os

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# every dense solve here is small (130 x 130 on case30), and a second thread
# buys nothing and slows each solve many times over on a loaded host.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .ao1_opf import Ao1Result, solve_ao1  # noqa: E402
from .ao2_sbqp import (  # noqa: E402
    Ao2Error,
    Ao2Variant,
    PenaltySchedule,
    SbqpTrace,
    SbqpTraceRow,
    run_ao2,
)
from .checks import self_check  # noqa: E402
from .cli_driver import (  # noqa: E402
    DriverError,
    OracleEntry,
    SolveResult,
    SolverConfig,
    enumerate_oracle,
    main,
    run_ao_sbqp,
)
from .documents import emit_outputs  # noqa: E402
from .grid_model import (  # noqa: E402
    AdmittanceMatrix,
    Branch,
    Bus,
    CaseError,
    DemandSpec,
    Generator,
    GridCase,
    ParseError,
    ScenarioConfig,
    ScenarioError,
    apply_scenario,
    build_admittance,
    parse_case,
    serialize_case,
)
from .power_equations import (  # noqa: E402
    InputVector,
    State,
    SwitchVector,
    constraints_C,
    jacobians,
    network,
    objective_E,
    phi,
)
from .qp_core import QpProblem, QpSolution, solve_qp  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "AdmittanceMatrix",
    "Ao1Result",
    "Ao2Error",
    "Ao2Variant",
    "Branch",
    "Bus",
    "CaseError",
    "DemandSpec",
    "DriverError",
    "Generator",
    "GridCase",
    "InputVector",
    "OracleEntry",
    "ParseError",
    "PenaltySchedule",
    "QpProblem",
    "QpSolution",
    "SbqpTrace",
    "SbqpTraceRow",
    "ScenarioConfig",
    "ScenarioError",
    "SolveResult",
    "SolverConfig",
    "State",
    "SwitchVector",
    "apply_scenario",
    "build_admittance",
    "constraints_C",
    "emit_outputs",
    "enumerate_oracle",
    "jacobians",
    "main",
    "network",
    "objective_E",
    "parse_case",
    "phi",
    "run_ao2",
    "run_ao_sbqp",
    "self_check",
    "serialize_case",
    "solve_ao1",
    "solve_qp",
]

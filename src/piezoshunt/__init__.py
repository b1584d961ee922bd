"""Passive electric damping of cantilever beams by piezo transducer networks.

Pipeline: cantilever modal basis -> piezo patch coupling -> RL interconnection
netlist -> coupled electromechanical state space -> two-DOF reduction and
electrical tuning -> full-model validation in the frequency and time domains.
"""

from .beam import BeamSpec, ModalBasis, eval_mode, modal_basis, modal_force_vector, solve_wavenumbers
from .circuits import (
    Netlist,
    NetworkMatrices,
    build_multi_shunt,
    build_single_shunt,
    build_transmission_line,
    network_matrices,
    parse_netlist,
)
from .config import ScenarioConfig, load_config
from .coupled import CoupledSystem, EigenSolution, FRFTable, assemble, eigen, frf, state_matrix, total_energy
from .errors import ConfigError, NetlistError, NumericalError, ParameterError
from .patches import PatchArray, coupling_matrix, uniform_layout
from .reduction import (
    ElectricalModeSet,
    ReducedModel,
    TuningResult,
    ValidationReport,
    closed_form_seed,
    electrical_modes,
    reduce,
    tune,
    validate_reduction,
)
from .timesim import Trajectory, energy_history, energy_residual, integrate

__version__ = "0.1.0"

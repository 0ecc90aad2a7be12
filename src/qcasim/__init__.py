"""Quantum-dot cellular automata circuit simulator.

Electrostatic kink energies between four-dot cells, bistable relaxation
under a four-phase adiabatic clock, standard test circuits, a plain-text
layout format, and a command line front end.
"""

from .electrostatics import (
    COULOMB_K,
    ELEMENTARY_CHARGE,
    KinkPair,
    KinkReport,
    PointCharge,
    ZeroDistanceError,
    cell_charges,
    circuit_kink_energy,
    coulomb_energy,
    kink_energy,
    pair_energy,
)
from .engine import (
    TRUTH_MARGIN,
    ClockConfig,
    ConvergenceFailure,
    InputSchedule,
    Measurement,
    NoOutputError,
    OutputReading,
    OutputVerdict,
    Trace,
    TraceSample,
    TruthResult,
    VectorVerdict,
    bistable_response,
    coupling_map,
    gamma_at,
    measure,
    relax,
    simulate,
    truth_check,
)
from .model import (
    Cell,
    ChargeModel,
    GeometryParams,
    Layout,
    Role,
    RoleKind,
    Violation,
    dot_positions,
    electron_positions,
    validate,
)
from .qcl import (
    ParseError,
    kink_report_csv,
    measurement_csv,
    parse_qcl,
    parse_vectors,
    serialize_qcl,
    trace_csv,
)
from .stdcells import (
    gen_conventional_inverter,
    gen_majority,
    gen_minimal_inverter,
    gen_wire,
)

__version__ = "0.1.0"

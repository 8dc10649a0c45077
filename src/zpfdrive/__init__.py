"""Momentum exchange between magneto-electric matter and zero-point fields.

Design-and-simulation toolkit: per-maneuver velocity gains from rotating or
aggregating magneto-electric particles, classical-vs-vacuum force
decomposition, an independent vacuum mode-summation oracle, and a satellite
attitude-correction planner.
"""

from .quantities import Quantity
from .material import (
    ImproperRotationError,
    MagnetoElectricTensor,
    Particle,
    ParticleState,
    rotate_tensor,
    rotation_about,
)
from .vacuum import (
    CutoffConvention,
    ModeGrid,
    VacuumModel,
    convergence_study,
    mode_sum_oracle,
    vacuum_momentum_closed_form,
)
from .dynamics import (
    Aggregation,
    CavityModulation,
    FieldModulation,
    FieldTimeSeries,
    ForceDecomposition,
    ImpulseLedger,
    ManeuverError,
    Rotation,
    channel_cavity,
    delta_v_aggregation,
    delta_v_rotation,
    force_decomposed,
    force_direct,
    run_maneuver_sequence,
)
from .mission import (
    InfeasibleError,
    MissionReport,
    MissionSpec,
    MissionSpecError,
    SweepMode,
    analytic_solve_for_unknown,
    evaluate_mission,
    solve_for_unknown,
    sweep,
    tangential_v_to_rate,
)

__version__ = "0.1.0"

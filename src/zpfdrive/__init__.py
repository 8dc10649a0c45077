"""Momentum exchange between magneto-electric matter and zero-point fields.

Design-and-simulation toolkit: per-maneuver velocity gains from rotating or
aggregating magneto-electric particles, classical-vs-vacuum force
decomposition, an independent vacuum mode-summation oracle, and a satellite
attitude-correction planner.

``import zpfdrive`` loads no submodule: each public name below is imported
from its module on its first read (PEP 562), so that a CLI command loads only
the modules it runs.
"""

import sys

__version__ = "0.1.0"

# each public name, by the module that defines it
_NAMES = {
    "quantities": ("Quantity",),
    "material": (
        "ImproperRotationError", "MagnetoElectricTensor", "Particle", "ParticleState",
        "rotate_tensor", "rotation_about",
    ),
    "vacuum": (
        "CutoffConvention", "ModeGrid", "VacuumModel", "convergence_study", "mode_sum_oracle",
        "vacuum_momentum_closed_form",
    ),
    "dynamics": (
        "Aggregation", "CavityModulation", "FieldModulation", "FieldTimeSeries",
        "ForceDecomposition", "ImpulseLedger", "ManeuverError", "Rotation", "channel_cavity",
        "delta_v_aggregation", "delta_v_rotation", "force_decomposed", "force_direct",
        "run_maneuver_sequence",
    ),
    "mission": (
        "InfeasibleError", "MissionReport", "MissionSpec", "MissionSpecError", "SweepMode",
        "analytic_solve_for_unknown", "evaluate_mission", "solve_for_unknown", "sweep",
        "tangential_v_to_rate",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_MODULE_OF[name]}"
    __import__(module)  # the import statement's path, which -X importtime reports
    value = globals()[name] = getattr(sys.modules[module], name)  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Satellite attitude-correction planner.

Converts an attitude-rate requirement (degrees per day at a lever-arm
radius) into a required tangential velocity, evaluates the achievable
payload velocity for one full pi-rotation cycle of the active
magneto-electric mass, inverts the design chain for any single unknown, and
sweeps parameter grids to CSV.

One cycle means one pi-rotation of all active particles; sustained cycling
rates are out of scope.  The achieved velocity is

    dV = fraction * A * hbar * 2 * chi0 / (rho * a^4)

so the total satellite mass cancels and the margin is linear in chi0 and
fraction and falls as 1/a^4 at fixed density (the mass-per-particle form
hbar/(m*a) with m = rho*a^3 expanded).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence, Union

from .dynamics import delta_v_rotation, payload_delta_v
from .material import MagnetoElectricTensor, Particle
from .quantities import HBAR_J_S, VELOCITY, Quantity, si_value
from .vacuum import VacuumModel

__all__ = [
    "MissionSpec",
    "MissionReport",
    "MissionSpecError",
    "InfeasibleError",
    "SweepCapError",
    "SweepMode",
    "rate_to_tangential_v",
    "tangential_v_to_rate",
    "evaluate_mission",
    "solve_for_unknown",
    "analytic_solve_for_unknown",
    "sweep",
    "SWEEP_CSV_HEADER",
    "SOLVE_BRACKETS",
    "SUBATOMIC_SIZE_M",
]

RAD_PER_DEG = math.pi / 180.0
SECONDS_PER_DAY = 86400.0
SUBATOMIC_SIZE_M = 1e-10

SOLVE_BRACKETS: dict[str, tuple[float, float]] = {
    "chi0": (1e-8, 1.0),
    "active_mass_fraction": (1e-8, 1.0),
    "particle_size": (1e-11, 1e-6),
}

SWEEP_CSV_HEADER = (
    "chi0",
    "a_m",
    "rho_kg_m3",
    "fraction",
    "A",
    "dv_m_s",
    "dV_m_s",
    "rate_deg_day",
    "feasible",
)


class MissionSpecError(ValueError):
    """Invalid mission spec; message enumerates every offending field."""


class InfeasibleError(ValueError):
    """No value of the unknown inside its bracket meets the requirement."""


class SweepCapError(ValueError):
    """Requested sweep exceeds the configured combination cap."""


@dataclass(frozen=True)
class MissionSpec:
    """Design point for one attitude-correction cycle.

    Field names double as the JSON schema keys.  A field may be None only
    while it is the unknown being solved for.
    """

    target_rate: float  # deg/day
    wheel_radius: float  # m
    satellite_mass: float  # kg
    active_mass_fraction: float | None  # in (0, 1]
    particle_size: float | None  # m
    particle_density: float  # kg/m^3
    chi0: float | None
    prefactor_A: float

    def field_errors(self, allow_unknown: str | None = None) -> list[str]:
        errors = []
        checks = {
            "target_rate": lambda v: v > 0,
            "wheel_radius": lambda v: v > 0,
            "satellite_mass": lambda v: v > 0,
            "active_mass_fraction": lambda v: 0 < v <= 1,
            "particle_size": lambda v: v > 0,
            "particle_density": lambda v: v > 0,
            "chi0": lambda v: v > 0,
            "prefactor_A": lambda v: v > 0,
        }
        for name, ok in checks.items():
            value = getattr(self, name)
            if name == allow_unknown:
                continue
            if value is None:
                errors.append(f"{name} is not set")
            elif not (math.isfinite(value) and ok(value)):
                errors.append(f"{name} = {value} is out of range")
        return errors

    def validated(self, allow_unknown: str | None = None) -> "MissionSpec":
        errors = self.field_errors(allow_unknown)
        if errors:
            raise MissionSpecError("invalid mission spec: " + "; ".join(errors))
        return self

    @classmethod
    def from_dict(cls, d: Mapping) -> "MissionSpec":
        if not isinstance(d, Mapping):
            raise MissionSpecError(f"mission spec must be a JSON object, got {type(d).__name__}")
        known = {
            "target_rate",
            "wheel_radius",
            "satellite_mass",
            "active_mass_fraction",
            "particle_size",
            "particle_density",
            "chi0",
            "prefactor_A",
        }
        unknown_keys = set(d) - known
        if unknown_keys:
            raise MissionSpecError(f"unknown mission spec fields: {sorted(unknown_keys)}")
        values = {}
        for k in known:
            raw = d.get(k)
            if raw is None:
                values[k] = None
                continue
            try:
                values[k] = float(raw)
            except (TypeError, ValueError):
                raise MissionSpecError(f"field {k!r} is not a number: {raw!r}") from None
        missing = [k for k, v in values.items() if v is None and k not in SOLVE_BRACKETS]
        if missing:
            raise MissionSpecError(f"mission spec is missing fields: {sorted(missing)}")
        return cls(**values)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, source: Union[str, Path, io.TextIOBase]) -> "MissionSpec":
        if isinstance(source, (str, Path)):
            with open(source) as fh:
                return cls.from_dict(json.load(fh))
        return cls.from_dict(json.load(source))

    def to_dict(self) -> dict:
        return {
            "target_rate": self.target_rate,
            "wheel_radius": self.wheel_radius,
            "satellite_mass": self.satellite_mass,
            "active_mass_fraction": self.active_mass_fraction,
            "particle_size": self.particle_size,
            "particle_density": self.particle_density,
            "chi0": self.chi0,
            "prefactor_A": self.prefactor_A,
        }


@dataclass(frozen=True)
class MissionReport:
    required_tangential_v: float  # m/s
    achieved_tangential_v: float  # m/s
    feasible: bool
    margin: float  # achieved / required
    solved_unknown: tuple[str, float] | None = None

    def to_dict(self) -> dict:
        d = {
            "required_tangential_v_m_s": self.required_tangential_v,
            "achieved_tangential_v_m_s": self.achieved_tangential_v,
            "feasible": self.feasible,
            "margin": self.margin,
        }
        if self.solved_unknown is not None:
            d["solved_unknown"] = {
                "name": self.solved_unknown[0],
                "value": self.solved_unknown[1],
            }
        return d


def rate_to_tangential_v(rate_deg_day: float, radius: float) -> Quantity:
    """Tangential velocity at ``radius`` for an attitude rate in deg/day."""
    if not (radius > 0):
        raise ValueError("radius must be positive")
    return Quantity(rate_deg_day * RAD_PER_DEG / SECONDS_PER_DAY * radius, VELOCITY)


def tangential_v_to_rate(v: Union[Quantity, float], radius: float) -> float:
    """Attitude rate in deg/day equivalent to tangential velocity ``v``."""
    if not (radius > 0):
        raise ValueError("radius must be positive")
    v_si = si_value(v, VELOCITY, "v")
    return v_si / radius * SECONDS_PER_DAY / RAD_PER_DEG


def _achieved_v(spec: MissionSpec) -> float:
    particle = Particle(
        size_a=spec.particle_size,
        density_rho=spec.particle_density,
        tensor=MagnetoElectricTensor.from_xy(spec.chi0),
    )
    model = VacuumModel(prefactor_a=spec.prefactor_A)
    dv = delta_v_rotation(particle, model)
    active = spec.active_mass_fraction * spec.satellite_mass
    return payload_delta_v(dv, active, spec.satellite_mass).value


def evaluate_mission(spec: MissionSpec) -> MissionReport:
    """Achieved vs required tangential velocity for one pi-rotation cycle."""
    spec = spec.validated()
    required = rate_to_tangential_v(spec.target_rate, spec.wheel_radius).value
    achieved = _achieved_v(spec)
    return MissionReport(
        required_tangential_v=required,
        achieved_tangential_v=achieved,
        feasible=achieved >= required,
        margin=achieved / required,
    )


def analytic_solve_for_unknown(spec: MissionSpec, unknown: str) -> float:
    """Closed-form inversion of the design chain, used to cross-check bisection."""
    if unknown not in SOLVE_BRACKETS:
        raise ValueError(f"unknown must be one of {sorted(SOLVE_BRACKETS)}")
    spec.validated(allow_unknown=unknown)
    required = rate_to_tangential_v(spec.target_rate, spec.wheel_radius).value
    if unknown == "chi0":
        return (
            required
            * spec.particle_density
            * spec.particle_size**4
            / (2.0 * spec.prefactor_A * HBAR_J_S * spec.active_mass_fraction)
        )
    if unknown == "active_mass_fraction":
        return (
            required
            * spec.particle_density
            * spec.particle_size**4
            / (2.0 * spec.prefactor_A * HBAR_J_S * spec.chi0)
        )
    return (
        2.0
        * spec.prefactor_A
        * HBAR_J_S
        * spec.chi0
        * spec.active_mass_fraction
        / (spec.particle_density * required)
    ) ** 0.25


# a decade tighter than the 1e-9 the round-trip contract demands
_RESIDUAL_TOL = 1e-10
_MAX_BISECTIONS = 300


def solve_for_unknown(spec: MissionSpec, unknown: str) -> float:
    """Value of one unknown field making achieved equal required.

    Bisection on the bracket from SOLVE_BRACKETS, exploiting monotonicity:
    achieved is increasing in chi0 and fraction and decreasing in size.  If
    the requirement is already met at the least demanding bracket end, that
    end is returned; if it cannot be met anywhere in the bracket an
    :class:`InfeasibleError` is raised.  Solved sizes below
    SUBATOMIC_SIZE_M are returned with a physical-plausibility warning.
    """
    if unknown not in SOLVE_BRACKETS:
        raise ValueError(f"unknown must be one of {sorted(SOLVE_BRACKETS)}")
    spec.validated(allow_unknown=unknown)
    required = rate_to_tangential_v(spec.target_rate, spec.wheel_radius).value

    def excess(x: float) -> float:
        return _achieved_v(replace(spec, **{unknown: x})) - required

    lo, hi = SOLVE_BRACKETS[unknown]
    increasing = unknown != "particle_size"
    easy, hard = (lo, hi) if increasing else (hi, lo)
    if excess(easy) >= 0:
        result = easy
    elif excess(hard) < 0:
        raise InfeasibleError(f"{unknown}: infeasible for any value in [{lo}, {hi}]")
    else:
        result = None
        for _ in range(_MAX_BISECTIONS):
            mid = 0.5 * (lo + hi)
            g = excess(mid)
            if abs(g) <= _RESIDUAL_TOL * required:
                result = mid
                break
            if (g < 0) == increasing:
                lo = mid
            else:
                hi = mid
        if result is None:
            raise RuntimeError("bisection failed to meet the residual tolerance")
    if unknown == "particle_size" and result < SUBATOMIC_SIZE_M:
        warnings.warn(
            f"solved particle_size {result:g} m is below the atomic scale "
            f"({SUBATOMIC_SIZE_M:g} m); physically implausible",
            stacklevel=2,
        )
    return result


class SweepMode(Enum):
    """How particle size enters the swept delta-v.

    MASS_BUDGET recomputes the particle mass rho*a^3 per row (delta-v falls
    as 1/a^4); FIXED_PARTICLE_MASS pins the mass to the base spec's size
    (rho_row * a_base^3), isolating the 1/a cutoff scaling.
    """

    MASS_BUDGET = "mass-budget"
    FIXED_PARTICLE_MASS = "fixed-particle-mass"


_SWEEP_AXES = ("chi0", "particle_size", "particle_density", "active_mass_fraction", "prefactor_A")
DEFAULT_SWEEP_CAP = 10_000_000


def _sweep_row(
    base: MissionSpec, combo: tuple[float, ...], mode: SweepMode, required: float
) -> str:
    chi0, a_m, rho, fraction, pref_a = combo
    if mode is SweepMode.MASS_BUDGET:
        dv = 2.0 * pref_a * HBAR_J_S * chi0 / (rho * a_m**4)
    else:
        mass = rho * base.particle_size**3
        dv = 2.0 * pref_a * HBAR_J_S * chi0 / (mass * a_m)
    dv_payload = fraction * dv
    rate = tangential_v_to_rate(dv_payload, base.wheel_radius)
    feasible = dv_payload >= required
    cells = [
        repr(float(chi0)),
        repr(float(a_m)),
        repr(float(rho)),
        repr(float(fraction)),
        repr(float(pref_a)),
        repr(float(dv)),
        repr(float(dv_payload)),
        repr(float(rate)),
        "true" if feasible else "false",
    ]
    return ",".join(cells)


def sweep(
    base: MissionSpec,
    axes: Mapping[str, Sequence[float]],
    out: Union[str, Path, io.TextIOBase, None] = None,
    mode: SweepMode = SweepMode.MASS_BUDGET,
    max_rows: int = DEFAULT_SWEEP_CAP,
    jobs: int = 1,
) -> int:
    """Cartesian-product sweep over design parameters, emitted as CSV rows.

    Rows appear in deterministic lexicographic grid order (axis order
    chi0, size, density, fraction, prefactor) regardless of ``jobs``; the
    output is byte-identical across runs and parallelism levels.  Returns
    the row count.
    """
    base = base.validated()
    bad = set(axes) - set(_SWEEP_AXES)
    if bad:
        raise ValueError(f"unsweepable parameters: {sorted(bad)}")
    lists = []
    for name in _SWEEP_AXES:
        values = [float(v) for v in axes.get(name, [getattr(base, name)])]
        if not values:
            raise ValueError(f"sweep axis {name} is empty")
        lists.append(values)
    total = math.prod(len(v) for v in lists)
    if total > max_rows:
        raise SweepCapError(f"sweep of {total} combinations exceeds cap {max_rows}")
    required = rate_to_tangential_v(base.target_rate, base.wheel_radius).value

    combos = itertools.product(*lists)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(
                pool.map(lambda c: _sweep_row(base, c, mode, required), combos, chunksize=256)
            )
    else:
        rows = [_sweep_row(base, c, mode, required) for c in combos]

    if out is not None:
        if isinstance(out, (str, Path)):
            with open(out, "w", newline="") as fh:
                _write_rows(fh, rows)
        else:
            _write_rows(out, rows)
    return len(rows)


def _write_rows(fh, rows: list[str]) -> None:
    fh.write(",".join(SWEEP_CSV_HEADER) + "\n")
    for row in rows:
        fh.write(row + "\n")

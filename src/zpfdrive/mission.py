"""Satellite attitude-correction planner.

Converts an attitude-rate requirement (degrees per day at a lever-arm
radius) into a required tangential velocity, evaluates the achievable
payload velocity for one full pi-rotation cycle of the active
magneto-electric mass, inverts the design chain for any single unknown, and
sweeps parameter grids to CSV or JSON.

One cycle means one pi-rotation of all active particles; sustained cycling
rates are out of scope.  The achieved velocity is the payload share of the
rotation kernel :func:`~zpfdrive.vacuum.rotation_dv`,

    dV = fraction * dv,    dv = 2 * A * hbar * chi0 / (m * a),    m * a = rho * a^4

so the total satellite mass cancels and the margin is linear in chi0 and
fraction and falls as 1/a^4 at fixed density.  The mission evaluation, the
solver, the closed-form inversion and the sweep all call that one kernel,
so a mission's achieved velocity equals the sweep's dV_m_s cell for the
same row, bit for bit.

A sweep is one numpy broadcasting kernel over the five axis arrays, run on
blocks of at most 2^15 grid rows that the shared block writer (``_io``)
formats and writes before the next is computed, so memory does not grow with
the row count.  The kernel keeps the scalar formula's operation order (a^4
by Python's float pow), so every row is bit-identical to a per-row
evaluation; the floats keep their shortest round-trip ``repr``, which
dominates the run time.  Axis values obey the spec's per-field rules (a size
must have a finite, non-zero a^4 and 1/a^4), and a non-finite row is refused
before its block is written.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
import warnings
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence, Union

from . import _io
from ._deferred import OnFirstUse
from .material import REQUIRED, RULES, check, read_record
from .quantities import ValueRecord
from .vacuum import checked_rotation_dv, rotation_dv

np = OnFirstUse(globals(), "numpy", "np")

__all__ = [
    "MissionSpec",
    "MissionReport",
    "MissionSpecError",
    "InfeasibleError",
    "SweepCapError",
    "SweepValueError",
    "SweepMode",
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

# the fields of one design row: the sweep's axes, in order, and the arguments of _payload_v
_SWEEP_AXES = ("chi0", "particle_size", "particle_density", "active_mass_fraction", "prefactor_A")

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
# a JSON object per row, laid out as json.dumps writes it: the CSV cells
# (float reprs, true/false) are JSON tokens already
_SWEEP_JSON_ROW = "{" + ", ".join(f'"{k}": %s' for k in SWEEP_CSV_HEADER) + "}"
# per output format: text before the rows, row formatter, row separator, text after
_SWEEP_FORMATS = {
    "csv": (",".join(SWEEP_CSV_HEADER) + "\n", ",".join, "\n", "\n"),
    "json": ("[", _SWEEP_JSON_ROW.__mod__, ", ", "]\n"),
}


class MissionSpecError(ValueError):
    """Invalid mission spec: a field that does not read, or every field out of range."""


class InfeasibleError(ValueError):
    """No value of the unknown inside its bracket meets the requirement."""


class SweepCapError(ValueError):
    """Requested sweep exceeds the configured combination cap."""


# the range rule (a name in material.RULES) of every spec field, sweep axes included;
# chi0 is positive here, and "unit" bounds it by the tensor's sanity bound 1
_FIELD_RULES = {
    "target_rate": "positive",
    "wheel_radius": "positive",
    "satellite_mass": "positive",
    "active_mass_fraction": "unit",
    "particle_size": "size",
    "particle_density": "positive",
    "chi0": "unit",
    "prefactor_A": "positive",
}


@dataclass(frozen=True)
class MissionSpec:
    """Design point for one attitude-correction cycle.

    Field names double as the JSON schema keys.  Construction checks every
    field against its rule, so a spec is valid from the start.  Only a field
    of SOLVE_BRACKETS may be None, and only while it is the unknown being
    solved for.
    """

    target_rate: float  # deg/day
    wheel_radius: float  # m
    satellite_mass: float  # kg
    active_mass_fraction: float | None  # in (0, 1]
    particle_size: float | None  # m
    particle_density: float  # kg/m^3
    chi0: float | None
    prefactor_A: float

    def __post_init__(self) -> None:
        errors = []
        for name, rule in _FIELD_RULES.items():
            value = getattr(self, name)
            if value is None and name not in SOLVE_BRACKETS:
                errors.append(f"{name} is not set")
            elif value is not None and not RULES[rule](value):
                errors.append(f"{name} = {value} is out of range")
        if not any(e.startswith(("target_rate ", "wheel_radius ")) for e in errors):
            required = _tangential_v(self.target_rate, self.wheel_radius)
            if not (0 < required < math.inf):  # margin = achieved / required
                errors.append(
                    f"target_rate = {self.target_rate} at wheel_radius = {self.wheel_radius} gives"
                    f" a required velocity of {required} m/s, not a positive finite number"
                )
        if errors:
            raise MissionSpecError("invalid mission spec: " + "; ".join(errors))

    @classmethod
    def from_dict(cls, d: Mapping) -> "MissionSpec":
        try:
            return cls(**read_record(d, _SPEC_SCHEMA))
        except ValueError as exc:
            raise MissionSpecError(str(exc)) from None

    @classmethod
    def from_json(cls, source: Union[str, Path, io.TextIOBase]) -> "MissionSpec":
        try:
            return cls.from_dict(_io.load_json(source))
        except ValueError as exc:
            raise MissionSpecError(str(exc)) from None

    def to_dict(self) -> dict:
        return asdict(self)


# the spec's JSON schema: numbers, required but where null or absent is the unknown to solve
_SPEC_SCHEMA = {f.name: (float, REQUIRED) for f in fields(MissionSpec)}
_SPEC_SCHEMA |= dict.fromkeys(SOLVE_BRACKETS, (float, None))


class MissionReport(ValueRecord):
    """Required and achieved tangential velocity in m/s, and the margin achieved / required."""

    _fields = ("required_tangential_v", "achieved_tangential_v", "feasible", "margin")

    def __init__(self, required_tangential_v: float, achieved_tangential_v: float,
                 feasible: bool, margin: float) -> None:
        self.__dict__.update(zip(self._fields, (required_tangential_v, achieved_tangential_v,
                                                feasible, margin)))

    def to_dict(self) -> dict:
        return {
            "required_tangential_v_m_s": self.required_tangential_v,
            "achieved_tangential_v_m_s": self.achieved_tangential_v,
            "feasible": self.feasible,
            "margin": self.margin,
        }


def _tangential_v(rate_deg_day: float, radius: float) -> float:
    return rate_deg_day * RAD_PER_DEG / SECONDS_PER_DAY * radius


def tangential_v_to_rate(v: float, radius: float) -> float:
    """Attitude rate in deg/day equivalent to tangential velocity ``v``."""
    check("radius", radius, "positive")
    return v / radius * SECONDS_PER_DAY / RAD_PER_DEG


def _payload_v(chi0, particle_size, particle_density, active_mass_fraction, prefactor_A) -> float:
    """fraction * dv of one pi-rotation cycle, as the sweep computes its dV_m_s cell."""
    dv = checked_rotation_dv(chi0, particle_density, particle_size, prefactor_A)
    return active_mass_fraction * dv


def _design(spec: MissionSpec, unknown: str | None = None) -> tuple[float, dict]:
    """The required velocity and the design-row fields of ``spec``, whose fields but ``unknown``
    (one of SOLVE_BRACKETS, or None) must all be set."""
    if unknown is not None and unknown not in SOLVE_BRACKETS:
        raise ValueError(f"unknown must be one of {sorted(SOLVE_BRACKETS)}")
    unset = [f"{k} is not set" for k in _FIELD_RULES if k != unknown and getattr(spec, k) is None]
    if unset:
        raise MissionSpecError("invalid mission spec: " + "; ".join(unset))
    required = _tangential_v(spec.target_rate, spec.wheel_radius)
    return required, {k: getattr(spec, k) for k in _SWEEP_AXES}


def evaluate_mission(spec: MissionSpec) -> MissionReport:
    """Achieved vs required tangential velocity for one pi-rotation cycle; a margin that
    overflows (a tiny required velocity) is refused like an invalid field."""
    required, fields = _design(spec)
    achieved = _payload_v(**fields)
    margin = achieved / required
    if not math.isfinite(margin):
        raise MissionSpecError(
            f"invalid mission spec: target_rate = {spec.target_rate} at wheel_radius ="
            f" {spec.wheel_radius} gives a margin of {margin}, not a finite number"
        )
    return MissionReport(required, achieved, achieved >= required, margin)


def analytic_solve_for_unknown(spec: MissionSpec, unknown: str) -> float:
    """Closed-form inversion of the design chain, used to cross-check bisection.

    The kernel is linear in chi0 and in the fraction, and a enters as a^-4.
    """
    required, fields = _design(spec, unknown)
    at_one = _payload_v(**{**fields, unknown: 1.0})  # the payload velocity with the unknown at 1
    if unknown == "particle_size":
        return (at_one / required) ** 0.25
    return required / at_one


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
    required, fields = _design(spec, unknown)

    def excess(x: float) -> float:
        fields[unknown] = x
        return _payload_v(**fields) - required

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


DEFAULT_SWEEP_CAP = 10_000_000
# rows computed, formatted and written together: memory is bounded by this,
# not by the row count
_SWEEP_BLOCK_ROWS = 1 << 15
_FEASIBLE = ("false", "true")


class SweepValueError(ValueError):
    """A sweep axis value out of range, or a grid row with a non-finite result.

    ``values`` maps field names to the offending axis value, or to the five
    inputs of the offending row; ``problem`` says what is wrong with them.
    """

    def __init__(self, values: Mapping[str, float], problem: str):
        self.values = dict(values)
        self.problem = problem
        named = ", ".join(f"{k} = {v!r}" for k, v in self.values.items())
        super().__init__(f"sweep {named} {problem}")


def _grid_blocks(shape: Sequence[int], limit: int):
    """Split a C-order grid into sub-grids of at most ``limit`` cells, in row order.

    Yields one tuple of per-axis slices per block.  Axes after the split
    axis are whole in every block and axes before it hold one index, so each
    block is a C-order grid of its own whose rows follow those of the block
    before it.
    """
    split = 0
    while math.prod(shape[split + 1 :]) > limit:
        split += 1
    step = limit // math.prod(shape[split + 1 :])
    whole = (slice(None),) * (len(shape) - split - 1)
    for prefix in itertools.product(*map(range, shape[:split])):
        head = tuple(slice(i, i + 1) for i in prefix)
        for start in range(0, shape[split], step):
            yield head + (slice(start, start + step),) + whole


def _along(values: np.ndarray, axis: int) -> np.ndarray:
    """``values`` shaped to broadcast along ``axis`` of the 5-axis sweep grid."""
    return values.reshape((-1,) + (1,) * (len(_SWEEP_AXES) - 1 - axis))


def _sweep_blocks(base: MissionSpec, required: float, lists: list[list[float]], mode: SweepMode):
    """The sweep grid in row order, as one iterator of 9-cell string tuples per block.

    Each block is one broadcasting evaluation over its slices of the five
    axes, in the scalar formula's operation order, so every float equals the
    one a per-row evaluation gives.  A block with a non-finite dv, dV or rate
    raises :class:`SweepValueError` before it is yielded.
    """
    vectors = [np.array(v) for v in lists]
    # by Python's float pow (libm pow, bit for bit); sizes are representable, so no overflow
    a4 = np.array([a**4 for a in lists[1]])
    mass_per_size = base.particle_size**3
    axis_strs = [[repr(v) for v in values] for values in lists]
    for block in _grid_blocks([len(v) for v in lists], _SWEEP_BLOCK_ROWS):
        chi, a, rho, frac, pref = (_along(v[s], i) for i, (v, s) in enumerate(zip(vectors, block)))
        with np.errstate(all="ignore"):  # non-finite results are refused below
            if mode is SweepMode.MASS_BUDGET:
                m_a = rho * _along(a4[block[1]], 1)
            else:
                m_a = (rho * mass_per_size) * a
            dv = rotation_dv(chi, m_a, pref)
            dvp = frac * dv
            rate = tangential_v_to_rate(dvp, base.wheel_radius)
        for name, col in (("dv_m_s", dv), ("dV_m_s", dvp), ("rate_deg_day", rate)):
            bad = ~np.isfinite(col)
            if bad.any():
                row = np.unravel_index(int(np.argmax(bad)), bad.shape)
                values = {k: lists[i][block[i]][row[i]] for i, k in enumerate(_SWEEP_AXES)}
                raise SweepValueError(values, f"gives a non-finite {name}")
        # dv does not depend on the fraction axis: format it once, then broadcast
        dv_strs = np.array(_io.float_strs(dv), dtype=object).reshape(dv.shape)
        tails = zip(
            np.broadcast_to(dv_strs, dvp.shape).ravel().tolist(),
            _io.float_strs(dvp),
            _io.float_strs(rate),
            map(_FEASIBLE.__getitem__, (dvp >= required).ravel().tolist()),
        )
        heads = itertools.product(*(strs[s] for strs, s in zip(axis_strs, block)))
        yield map(operator.add, heads, tails)


def sweep(
    base: MissionSpec,
    axes: Mapping[str, Sequence[float]],
    out: Union[str, Path, io.TextIOBase, None] = None,
    mode: SweepMode = SweepMode.MASS_BUDGET,
    jobs: int = 1,
    fmt: str = "csv",
) -> int:
    """Cartesian-product sweep over design parameters, emitted as CSV or JSON rows.

    Rows appear in deterministic lexicographic grid order (axis order
    chi0, size, density, fraction, prefactor); the output is byte-identical
    across runs.  Rows are computed and written in blocks of at most
    ``_SWEEP_BLOCK_ROWS``, so memory does not grow with the row count.
    Every axis value must pass the spec's rule for its field, and a row
    whose dv, dV or rate is not finite raises :class:`SweepValueError`
    before its block is written (earlier blocks stay written).  With
    ``out=None`` the grid is computed and checked but nothing is written.
    ``fmt="json"`` writes the rows as one JSON list of objects keyed by the
    CSV header, with numbers and booleans typed and every number equal to
    its CSV cell.  ``jobs`` is accepted for compatibility and has no effect.
    Returns the row count.
    """
    if fmt not in _SWEEP_FORMATS:
        raise ValueError(f"sweep format must be one of {sorted(_SWEEP_FORMATS)}, got {fmt!r}")
    required, fields = _design(base)
    bad = set(axes) - set(_SWEEP_AXES)
    if bad:
        raise ValueError(f"unsweepable parameters: {sorted(bad)}")
    lists = []
    for name in _SWEEP_AXES:
        values = [float(v) for v in axes.get(name, [fields[name]])]
        if not values:
            raise ValueError(f"sweep axis {name} is empty")
        for value in values:
            if not RULES[_FIELD_RULES[name]](value):
                raise SweepValueError({name: value}, "is out of range")
        lists.append(values)
    total = math.prod(len(v) for v in lists)
    if total > DEFAULT_SWEEP_CAP:
        raise SweepCapError(f"sweep of {total} combinations exceeds cap {DEFAULT_SWEEP_CAP}")

    blocks = _sweep_blocks(base, required, lists, mode)
    if out is None:
        for _ in blocks:
            pass
        return total
    head, row, sep, tail = _SWEEP_FORMATS[fmt]
    _io.write_blocks(out, (sep.join(map(row, cells)) for cells in blocks), head, sep, tail)
    return total

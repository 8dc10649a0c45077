"""Forces, momentum-extraction channels, maneuver delta-v, and bookkeeping.

Force evaluation works on uniformly sampled field time series in the
canonical normalized convention: the driving force is

    F(t) = B_y(t) * dP_x/dt,    P_x = eps*E_x + chi_xy(E_x, B_y)*B_y

and the exact product-rule decomposition splits it into a dielectric term
B*d(eps E)/dt (classical only), a field-modulation term chi*(1/2)*d(B^2)/dt,
and a response-modulation term B^2*dchi/dt; the latter two are the channels
through which the quantum vacuum can contribute.  Time derivatives are
second-order central differences with first-order one-sided endpoints, so
the decomposition identity holds at interior points to O(dt^2).

A series CSV given by path is read with ``np.loadtxt`` on the columns its
header names; a file that ``loadtxt`` cannot read as the ``csv`` module
would, and an open handle, go through a line-by-line reader that names the
line and field of a bad cell.  Both give the same arrays, bit for bit.
:meth:`FieldTimeSeries.to_csv` writes through the shared block writer.

The pi-rotation delta-v 2*A*hbar*chi/(m*a) is one elementwise kernel,
:func:`rotation_dv`; the mission planner and its sweep call it too.

Maneuvers book momentum endpoint-wise against the closed-form vacuum model:
a rotation transfers the change of stored vacuum momentum A*hbar*dchi/a, an
aggregation of N size-a units into one size-L body (L = N^(1/3) a) transfers
the stored-momentum difference, and the two external-driving channels book
their time-integrated force.  Every ledger entry balances particle and
vacuum momentum exactly.  A maneuver sequence runs over a
:class:`~zpfdrive.material.ParticleState`: each maneuver is a few array
operations over all particles, and per-particle terms are summed in particle
order, as a scalar loop would sum them.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from . import _io
from .material import (
    Particle, ParticleState, check, representable_size, rotation_about, unit_vector
)
from .quantities import HBAR_J_S, Quantity
from .vacuum import VacuumModel, stored_momentum

__all__ = [
    "FieldTimeSeries",
    "SeriesFormatError",
    "ForceDecomposition",
    "force_direct",
    "force_decomposed",
    "channel_cavity",
    "rotation_dv",
    "checked_rotation_dv",
    "delta_v_rotation",
    "delta_v_aggregation",
    "Rotation",
    "Aggregation",
    "FieldModulation",
    "CavityModulation",
    "Maneuver",
    "LedgerEntry",
    "ImpulseLedger",
    "ManeuverError",
    "run_maneuver_sequence",
]

CONSERVATION_RTOL = 1e-12

# distinguished axis dual to the (x, y) tensor component pair
_Z_AXIS = np.array([0.0, 0.0, 1.0])

# particle rows x samples evaluated at once when booking a field modulation
_BLOCK_VALUES = 1 << 14


class SeriesFormatError(ValueError):
    """Malformed field-series CSV; carries the offending line/field."""


# the optional per-sample response parameters, named alike in the CSV and the series
_CHI_FIELDS = ("chi0_xy", "kappa1", "kappa2", "kappa3")
# series CSV column -> FieldTimeSeries field
_SERIES_COLUMNS = {"t_s": "t", "E_x": "e_x", "B_y": "b_y", **{k: k for k in _CHI_FIELDS}}


def _csv_rows(fh):
    """The rows of ``csv.reader(fh)``; a line it cannot split raises SeriesFormatError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise SeriesFormatError(f"line {reader.line_num}: {exc}") from None


def _column_index(reader) -> dict[str, int]:
    """Series column -> cell index, from the header row of a CSV ``reader``."""
    try:
        header = next(reader)
    except StopIteration:
        raise SeriesFormatError("empty series CSV") from None
    header = [h.strip() for h in header]
    for col in ("t_s", "E_x", "B_y"):
        if col not in header:
            raise SeriesFormatError(f"missing required column {col!r}")
    if "chi0_xy" not in header and any(k in header for k in _CHI_FIELDS[1:]):
        raise SeriesFormatError("chi0_xy column is required when kappa columns are present")
    return {col: header.index(col) for col in _SERIES_COLUMNS if col in header}


def _load_columns(path: Union[str, Path]) -> dict[str, np.ndarray]:
    """The series columns of a CSV file by ``np.loadtxt``; ValueError where it cannot read it.

    ``loadtxt`` does not split quoted cells as the ``csv`` module does, so
    a file holding a quote character is refused before ``loadtxt`` sees it.
    """
    with open(path, newline="") as fh:
        if any('"' in chunk for chunk in iter(functools.partial(fh.read, 1 << 20), "")):
            raise ValueError("quoted cells")
        fh.seek(0)
        index = _column_index(_csv_rows(fh))
        usecols = list(index.values())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a file without data rows: the series refuses it
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, usecols=usecols)
    return {_SERIES_COLUMNS[col]: row for col, row in zip(index, np.ascontiguousarray(data.T))}


@dataclass(frozen=True, eq=False)
class FieldTimeSeries:
    """Uniformly sampled E_x(t), B_y(t), with optional per-sample chi params.

    When ``chi0_xy`` is present the series overrides the particle's response
    parameters sample by sample (missing kappas default to zero); otherwise
    the particle's own lab-frame parameters are used, constant in time.
    """

    t: np.ndarray  # s
    e_x: np.ndarray
    b_y: np.ndarray
    chi0_xy: np.ndarray | None = None
    kappa1: np.ndarray | None = None
    kappa2: np.ndarray | None = None
    kappa3: np.ndarray | None = None

    def __post_init__(self) -> None:
        arrays = {"t": self.t, "e_x": self.e_x, "b_y": self.b_y}
        if self.chi0_xy is None and any(getattr(self, k) is not None for k in _CHI_FIELDS[1:]):
            raise SeriesFormatError("chi0_xy is required when kappa columns are present")
        for k in _CHI_FIELDS:
            if getattr(self, k) is not None:
                arrays[k] = getattr(self, k)
        n = None
        for name, arr in arrays.items():
            a = np.asarray(arr, dtype=float)
            if a.ndim != 1:
                raise SeriesFormatError(f"{name} must be 1-D")
            if n is None:
                n = a.size
            elif a.size != n:
                raise SeriesFormatError(f"{name} length {a.size} != {n}")
            if not np.all(np.isfinite(a)):
                raise SeriesFormatError(f"{name} contains non-finite samples")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if n is None or n < 3:
            raise SeriesFormatError("series needs at least 3 samples")
        steps = np.diff(self.t)
        if not np.all(steps > 0):
            raise SeriesFormatError("time samples must be strictly increasing")
        dt = steps[0]
        # relative to dt, plus the rounding of the time stamps themselves
        tol = 1e-9 * dt + 4.0 * np.finfo(float).eps * np.max(np.abs(self.t))
        if np.max(np.abs(steps - dt)) > tol:
            raise SeriesFormatError("time samples must be uniformly spaced")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def chi_samples(self, p: Particle | None) -> np.ndarray:
        """Effective chi_xy(t), from the series params or else the particle's."""
        if self.chi0_xy is not None:
            k1, k2, k3 = (0.0 if k is None else k for k in (self.kappa1, self.kappa2, self.kappa3))
            return self.chi_response(self.chi0_xy, k1, k2, k3)
        t = p.oriented_tensor
        return self.chi_response(t.chi0_xy, t.kappa1, t.kappa2, t.kappa3)

    def chi_response(self, chi0_xy, kappa1, kappa2, kappa3) -> np.ndarray:
        """chi0_xy + kappa1*E_x*B_y + kappa2*E_x + kappa3*B_y over the samples.

        Parameters broadcast against the sample axis: (N, 1) columns give one
        row per particle.
        """
        return chi0_xy + kappa1 * self.e_x * self.b_y + kappa2 * self.e_x + kappa3 * self.b_y

    # CSV columns: t_s, E_x, B_y, chi0_xy, kappa1, kappa2, kappa3
    # (chi columns optional; kappas only with chi0_xy, defaulting to 0)

    @classmethod
    def from_csv(cls, source: Union[str, Path, io.TextIOBase]) -> "FieldTimeSeries":
        """Read a series CSV from a path (by ``np.loadtxt`` where it can) or an open handle.

        A handle, and a file ``loadtxt`` cannot read, go through the line
        reader below: it accepts what ``float()`` accepts, names the line and
        field of a bad cell, and gives the same arrays as ``loadtxt``.
        """
        if isinstance(source, (str, Path)):
            try:
                columns = _load_columns(source)
            except ValueError:
                with open(source, newline="") as fh:
                    return cls.from_csv(fh)
            return cls(**columns)
        reader = _csv_rows(source)
        index = _column_index(reader)
        columns: dict[str, list[float]] = {col: [] for col in index}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            for col, i in index.items():
                if i >= len(row):
                    raise SeriesFormatError(f"line {line_no}: missing field {col!r}")
                cell = row[i].strip()
                try:
                    columns[col].append(float(cell))
                except ValueError:
                    raise SeriesFormatError(
                        f"line {line_no}: field {col!r} is not a number: {cell!r}"
                    ) from None
        return cls(**{_SERIES_COLUMNS[col]: np.array(values) for col, values in columns.items()})

    def to_csv(self, target: Union[str, Path, io.TextIOBase]) -> None:
        """Write the series as CSV to a path or an open handle, one line per sample."""
        header = [col for col, name in _SERIES_COLUMNS.items() if getattr(self, name) is not None]
        columns = [getattr(self, _SERIES_COLUMNS[col]) for col in header]
        _io.write_blocks(target, _io.csv_blocks(columns), head=",".join(header) + "\n")


def _ddt(y: np.ndarray, dt: float) -> np.ndarray:
    """Central differences along the last axis, first-order one-sided at the endpoints."""
    return np.gradient(y, dt, axis=-1, edge_order=1)


def force_direct(p: Particle, s: FieldTimeSeries) -> np.ndarray:
    """F(t) = B_y * dP_x/dt, the undecomposed driving force."""
    chi = s.chi_samples(p)
    polarization = p.epsilon * s.e_x + chi * s.b_y
    return s.b_y * _ddt(polarization, s.dt)


@dataclass(frozen=True, eq=False)
class ForceDecomposition:
    """The three exact product-rule terms of the driving force.

    ``dielectric`` is classical only; ``magnetoelectric`` and ``chi_rate``
    also carry quantum-vacuum contributions because <B^2> does not vanish
    for zero-point fields.
    """

    dielectric: np.ndarray  # B * d(eps E)/dt
    magnetoelectric: np.ndarray  # chi * (1/2) d(B^2)/dt
    chi_rate: np.ndarray  # B^2 * dchi/dt

    @property
    def total(self) -> np.ndarray:
        return self.dielectric + self.magnetoelectric + self.chi_rate

    @property
    def quantum(self) -> np.ndarray:
        """The two vacuum-capable terms."""
        return self.magnetoelectric + self.chi_rate


def force_decomposed(p: Particle, s: FieldTimeSeries) -> ForceDecomposition:
    chi = s.chi_samples(p)
    magnetoelectric, chi_rate = _vacuum_terms(chi, s)
    return ForceDecomposition(
        dielectric=s.b_y * _ddt(p.epsilon * s.e_x, s.dt),
        magnetoelectric=magnetoelectric,
        chi_rate=chi_rate,
    )


def _vacuum_terms(chi: np.ndarray, s: FieldTimeSeries) -> tuple[np.ndarray, np.ndarray]:
    """chi * (1/2) d(B^2)/dt and B^2 * dchi/dt; ``chi`` is (..., samples)."""
    dt = s.dt
    return chi * 0.5 * _ddt(s.b_y**2, dt), s.b_y**2 * _ddt(chi, dt)


def channel_cavity(chi_xy, db2_dt, duration: float):
    """Impulse from cavity-modulated <B^2_vac>: chi * (1/2) * dB2_dt * duration.

    Constant-rate approximation, elementwise over ``chi_xy``; ``duration`` in s.
    """
    check("duration", duration, "positive")
    return chi_xy * 0.5 * db2_dt * duration


def rotation_dv(chi, m_a, prefactor_a):
    """Velocity gain 2*A*hbar*chi/(m*a) of a pi-rotation that flips ``chi``, elementwise.

    ``m_a`` is the particle's mass times its size: rho*a**4 for a cube of
    side a, or (rho*a_base**3)*a at a fixed particle mass.  Arrays broadcast,
    and the caller refuses non-finite results (see :func:`checked_rotation_dv`).
    """
    return 2.0 * prefactor_a * HBAR_J_S * chi / m_a


def checked_rotation_dv(chi: float, m_a: float, prefactor_a: float) -> float:
    """:func:`rotation_dv` of floats; ValueError where ``m_a`` is 0 or the gain is not finite."""
    dv = rotation_dv(chi, m_a, prefactor_a) if m_a else math.inf
    if not math.isfinite(dv):
        raise ValueError(f"m*a = {m_a!r} gives a non-finite rotation delta-v")
    return dv


def delta_v_rotation(p: Particle, model: VacuumModel) -> Quantity:
    """Velocity gain of a particle whose chi0_xy flips sign under a pi rotation.

    :func:`checked_rotation_dv` with m*a = rho*a**4, signed with the
    particle's current lab-frame chi0_xy.
    """
    m_a = p.density_rho * p.size_a**4
    return Quantity(float(checked_rotation_dv(p.chi0_xy, m_a, model.prefactor_a)), "m/s")


def delta_v_aggregation(
    a: float, rho: float, chi: float, n_count: float, model: VacuumModel
) -> Quantity:
    """Velocity gain from merging N size-a units into one body of size N^(1/3)*a.

    The arguments obey the rules of :data:`~zpfdrive.material.RULES`, the
    merged size is one that :func:`~zpfdrive.material.representable_size`
    accepts, and a non-finite gain is refused.
    """
    check("chi", chi, "chi")
    check("a", a, "size")
    check("rho", rho, "positive")
    check("N", n_count, "at_least_one")
    big_l = n_count ** (1.0 / 3.0) * a
    if not representable_size(big_l):
        raise ValueError(
            f"N = {n_count!r} and a = {a!r} give a merged size of {big_l!r} m, out of range"
        )
    dv = float(model.prefactor_a * (HBAR_J_S / rho) * chi * (1.0 / a**4 - 1.0 / big_l**4))
    if not math.isfinite(dv):
        raise ValueError(f"delta_v_aggregation = {dv!r} m/s is not finite")
    return Quantity(dv, "m/s")


# -- maneuvers and the impulse ledger ---------------------------------------


@dataclass(frozen=True, eq=False)
class Rotation:
    """Rigid rotation of every particle by ``angle`` about ``axis``.

    Books the endpoint change of stored vacuum momentum; the angular
    trajectory and duration are irrelevant by path independence.
    """

    axis: np.ndarray
    angle: float  # rad

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", unit_vector(self.axis, "axis"))
        object.__setattr__(self, "angle", check("angle", float(self.angle), "finite"))


@dataclass(frozen=True, eq=False)
class Aggregation:
    """Merge N units of size ``size_a`` into one body, per template particle."""

    n: float
    size_a: float  # m
    direction: np.ndarray

    def __post_init__(self) -> None:
        check("N", self.n, "at_least_one")
        check("size_a", self.size_a, "size")
        object.__setattr__(self, "direction", unit_vector(self.direction, "direction"))


@dataclass(frozen=True, eq=False)
class FieldModulation:
    """External E/B driving over a sampled series; books the quantum terms."""

    series: FieldTimeSeries


@dataclass(frozen=True)
class CavityModulation:
    """Cavity-imposed <B^2_vac> ramp at a constant rate for ``duration``."""

    db2_dt: float
    duration: float  # s

    def __post_init__(self) -> None:
        check("duration", self.duration, "positive")


Maneuver = Union[Rotation, Aggregation, FieldModulation, CavityModulation]


@dataclass(frozen=True, eq=False)
class LedgerEntry:
    maneuver_id: int
    kind: str
    dp_particles: np.ndarray  # kg m/s
    dp_vacuum: np.ndarray  # kg m/s
    cumulative_v: np.ndarray  # m/s


class ImpulseLedger:
    """Per-maneuver record of particle vs vacuum momentum, conservation-checked.

    Every appended entry must satisfy dp_particles + dp_vacuum = 0 to
    CONSERVATION_RTOL relative; cumulative_v tracks the payload velocity.
    """

    def __init__(self, m_total: float) -> None:
        self.m_total = float(check("M_total", m_total, "positive"))
        self.entries: list[LedgerEntry] = []
        self._cumulative_dp = np.zeros(3)

    @property
    def cumulative_v(self) -> np.ndarray:
        return self._cumulative_dp / self.m_total

    def append(self, kind: str, dp_particles: np.ndarray, dp_vacuum: np.ndarray) -> LedgerEntry:
        dp_particles = np.asarray(dp_particles, dtype=float)
        dp_vacuum = np.asarray(dp_vacuum, dtype=float)
        for dp in (dp_particles, dp_vacuum):
            if not np.isfinite(dp).all():
                raise ValueError(f"booking {dp.tolist()} kg m/s is not finite")
        residual = np.linalg.norm(dp_particles + dp_vacuum)
        scale = max(np.linalg.norm(dp_particles), np.linalg.norm(dp_vacuum))
        if not residual <= CONSERVATION_RTOL * scale:
            raise ValueError(
                f"momentum conservation violated: |dp_p + dp_v| = {residual:g} "
                f"exceeds {CONSERVATION_RTOL:g} * {scale:g}"
            )
        cumulative_dp = self._cumulative_dp + dp_particles
        cumulative_v = cumulative_dp / self.m_total
        if not np.isfinite(cumulative_v).all():
            raise ValueError(f"cumulative velocity {cumulative_v.tolist()} m/s is not finite")
        self._cumulative_dp = cumulative_dp
        entry = LedgerEntry(
            maneuver_id=len(self.entries),
            kind=kind,
            dp_particles=dp_particles,
            dp_vacuum=dp_vacuum,
            cumulative_v=cumulative_v,
        )
        self.entries.append(entry)
        return entry

    def entry_dicts(self) -> list[dict]:
        return [
            {
                "maneuver_id": e.maneuver_id,
                "type": e.kind,
                "dp_particles": [float(x) for x in e.dp_particles],
                "dp_vacuum": [float(x) for x in e.dp_vacuum],
                "cumulative_v": [float(x) for x in e.cumulative_v],
            }
            for e in self.entries
        ]

    def to_jsonl(self, target: Union[str, Path, io.TextIOBase]) -> None:
        """One JSON object per maneuver, in execution order."""
        _io.write_blocks(target, (json.dumps(d) + "\n" for d in self.entry_dicts()))


class ManeuverError(ValueError):
    """A maneuver failed; carries its index and the ledger built so far."""

    def __init__(self, index: int, ledger: ImpulseLedger, cause: Exception) -> None:
        super().__init__(f"maneuver {index} failed: {cause}")
        self.index = index
        self.ledger = ledger
        self.cause = cause


def _ordered_sum(terms: np.ndarray) -> float:
    """``total = 0.0; for x in terms: total += x``, bit for bit."""
    if terms.size == 0:
        return 0.0
    # cumsum adds strictly left to right; 0.0 + turns an all-zero -0.0 into 0.0
    return 0.0 + float(np.cumsum(terms)[-1])


def _book_rotation(
    state: ParticleState, mv: Rotation, model: VacuumModel
) -> tuple[ParticleState, np.ndarray]:
    after = state.rotated(rotation_about(mv.axis, mv.angle))
    p_before = stored_momentum(state.chi0_xy, state.size_a, model)
    p_after = stored_momentum(after.chi0_xy, after.size_a, model)
    return after, _ordered_sum(p_after - p_before) * _Z_AXIS


def _book_aggregation(state: ParticleState, mv: Aggregation, model: VacuumModel) -> np.ndarray:
    # the size comes from the maneuver, and the state is left unchanged
    big_l = mv.n ** (1.0 / 3.0) * mv.size_a
    stored_before = mv.n * stored_momentum(state.chi0_xy, mv.size_a, model)
    stored_after = stored_momentum(state.chi0_xy, big_l, model)
    return _ordered_sum(stored_after - stored_before) * mv.direction


def _book_field_modulation(state: ParticleState, mv: FieldModulation) -> np.ndarray:
    s = mv.series
    if s.chi0_xy is not None:  # the series' params override every particle's
        per_particle = np.full(len(state), _quantum_impulse(s.chi_samples(None), s))
    else:
        per_particle = np.empty(len(state))
        rows = max(1, _BLOCK_VALUES // s.t.size)
        for lo in range(0, len(state), rows):
            block = slice(lo, lo + rows)
            k = state.kappa[block]
            chi = s.chi_response(state.chi0_xy[block, None], k[:, 0:1], k[:, 1:2], k[:, 2:3])
            per_particle[block] = _quantum_impulse(chi, s)
    return -_ordered_sum(per_particle) * _Z_AXIS  # vacuum side; particles gain +impulse


def _quantum_impulse(chi: np.ndarray, s: FieldTimeSeries) -> np.ndarray:
    """Time integral of the two vacuum-capable force terms, per row of ``chi``."""
    magnetoelectric, chi_rate = _vacuum_terms(chi, s)
    return np.trapezoid(magnetoelectric + chi_rate, dx=s.dt, axis=-1)


def _book_cavity(state: ParticleState, mv: CavityModulation) -> np.ndarray:
    return -_ordered_sum(channel_cavity(state.chi0_xy, mv.db2_dt, mv.duration)) * _Z_AXIS


def run_maneuver_sequence(
    particles: Union[Sequence[Particle], ParticleState],
    maneuvers: Sequence[Maneuver],
    m_total: float,
    model: VacuumModel,
) -> ImpulseLedger:
    """Apply maneuvers in order, booking each into a conservation-checked ledger.

    The particles are converted to one :class:`ParticleState` up front.
    Rotations update particle orientations; every entry books the vacuum
    momentum change and its exact opposite on the particle side.  On
    failure raises :class:`ManeuverError` carrying the index of the
    offending maneuver and the ledger accumulated so far.
    """
    ledger = ImpulseLedger(m_total)
    state = (
        particles
        if isinstance(particles, ParticleState)
        else ParticleState.from_particles(particles)
    )
    for idx, mv in enumerate(maneuvers):
        try:
            if isinstance(mv, Rotation):
                state, dp_vac = _book_rotation(state, mv, model)
                kind = "rotation"
            elif isinstance(mv, Aggregation):
                dp_vac = _book_aggregation(state, mv, model)
                kind = "aggregation"
            elif isinstance(mv, FieldModulation):
                dp_vac = _book_field_modulation(state, mv)
                kind = "field_modulation"
            elif isinstance(mv, CavityModulation):
                dp_vac = _book_cavity(state, mv)
                kind = "cavity_modulation"
            else:
                raise TypeError(f"unknown maneuver type {type(mv).__name__}")
            ledger.append(kind, -dp_vac, dp_vac)
        except (ValueError, TypeError) as exc:
            raise ManeuverError(idx, ledger, exc) from exc
    return ledger

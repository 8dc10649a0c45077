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
Every series file is read as UTF-8, whatever the locale.

:func:`delta_v_rotation` gives a particle's pi-rotation delta-v by the
kernels of :mod:`zpfdrive.vacuum`, which are re-exported here.

Maneuvers book momentum endpoint-wise against the closed-form vacuum model:
a rotation transfers the change of stored vacuum momentum A*hbar*dchi/a, an
aggregation of N size-a units into one size-L body (L = N^(1/3) a) transfers
the stored-momentum difference, and the two external-driving channels book
their time-integrated force.  Every ledger entry balances particle and
vacuum momentum exactly and stores each zero as +0.0.  :func:`maneuver_from_dict`
reads a JSON maneuver record by the fields :data:`MANEUVER_TYPES` declares.  A
maneuver sequence runs over a :class:`~zpfdrive.material.ParticleState`: each
maneuver is a few array operations over all particles, and per-particle terms
are summed in particle order, as a scalar loop would sum them.  The quantum
impulse is linear in chi, so a field modulation weights the impulses of the
series 1, E*B, E and B by each particle's chi0_xy and kappas; a series
integrates them once, however many modulations share it.  Every record here is
a :class:`~zpfdrive.quantities.Record` that checks its fields once, in ``__init__``,
and holds each array as its own read-only copy (:func:`~zpfdrive.material.held`).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import warnings
from pathlib import Path
from typing import Sequence, Union

from . import _io
from ._deferred import OnFirstUse
from .material import (
    REQUIRED, RULES, Particle, ParticleState, check, held, read_record, representable_size,
    rotation_about, unit_vector,
)
from .quantities import HBAR_J_S, Quantity, Record, ValueRecord
from .vacuum import VacuumModel, checked_rotation_dv, rotation_dv, stored_momentum

np = OnFirstUse(globals(), "numpy", "np")

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
    "MANEUVER_TYPES",
    "maneuver_from_dict",
    "LedgerEntry",
    "ImpulseLedger",
    "ManeuverError",
    "run_maneuver_sequence",
]

CONSERVATION_RTOL = 1e-12


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
    """Series column -> cell index, from a CSV header that names each column at most once."""
    try:
        header = next(reader)
    except StopIteration:
        raise SeriesFormatError("empty series CSV") from None
    if header and header[0].startswith("\ufeff"):  # else read as part of the first name
        raise SeriesFormatError("series CSV starts with a UTF-8 byte-order mark")
    header = [h.strip() for h in header]
    for col in _SERIES_COLUMNS:
        if header.count(col) > 1:
            raise SeriesFormatError(f"repeated column {col!r}")
        if col in ("t_s", "E_x", "B_y") and col not in header:
            raise SeriesFormatError(f"missing required column {col!r}")
    return {col: header.index(col) for col in _SERIES_COLUMNS if col in header}


def _load_columns(path: Union[str, Path]) -> dict[str, np.ndarray]:
    """The series columns of a CSV file by ``np.loadtxt``; ValueError where it cannot read it.

    ``loadtxt`` does not split quoted cells as the ``csv`` module does, so
    a file holding a quote character is refused before ``loadtxt`` sees it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        if any('"' in chunk for chunk in iter(functools.partial(fh.read, 1 << 20), "")):
            raise ValueError("quoted cells")
        fh.seek(0)
        index = _column_index(_csv_rows(fh))
        usecols = list(index.values())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a file without data rows: the series refuses it
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, usecols=usecols)
    return {_SERIES_COLUMNS[col]: column for col, column in zip(index, data.T)}


class FieldTimeSeries(Record):
    """Uniformly sampled E_x(t), B_y(t) (t in s), with optional per-sample chi params.

    When ``chi0_xy`` is present the series overrides the particle's response
    parameters sample by sample (missing kappas default to zero); otherwise
    the particle's own lab-frame parameters are used, constant in time.
    """

    _fields = ("t", "e_x", "b_y", *_CHI_FIELDS)

    def __init__(self, t: np.ndarray, e_x: np.ndarray, b_y: np.ndarray,
                 chi0_xy: np.ndarray | None = None, kappa1: np.ndarray | None = None,
                 kappa2: np.ndarray | None = None, kappa3: np.ndarray | None = None) -> None:
        fields = dict(zip(self._fields, (t, e_x, b_y, chi0_xy, kappa1, kappa2, kappa3)))
        if chi0_xy is None and any(fields[k] is not None for k in _CHI_FIELDS[1:]):
            raise SeriesFormatError("chi0_xy is required when kappa columns are present")
        for name, value in fields.items():
            if value is None and name in _CHI_FIELDS:
                continue
            a = fields[name] = held(value)
            if a.ndim != 1:
                raise SeriesFormatError(f"{name} must be 1-D")
            n = fields["t"].size  # t comes first
            if a.size != n:
                raise SeriesFormatError(f"{name} length {a.size} != {n}")
            if not RULES["finite"](a).all():
                raise SeriesFormatError(f"{name} contains non-finite samples")
        if n < 3:
            raise SeriesFormatError("series needs at least 3 samples")
        steps = np.diff(fields["t"])
        if not np.all(steps > 0):
            raise SeriesFormatError("time samples must be strictly increasing")
        dt = steps[0]
        # relative to dt, plus the rounding of the time stamps themselves
        tol = 1e-9 * dt + 4.0 * np.finfo(float).eps * np.max(np.abs(fields["t"]))
        if np.max(np.abs(steps - dt)) > tol:
            raise SeriesFormatError("time samples must be uniformly spaced")
        self.__dict__.update(fields)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def chi_samples(self, p: Particle | None) -> np.ndarray:
        """Effective chi0_xy + kappa1*E_x*B_y + kappa2*E_x + kappa3*B_y over the samples, from the
        series params (a missing kappa is 0) or else the particle's lab-frame ones."""
        if self.chi0_xy is None:
            t = p.tensor
            chi0_xy, k1, k2, k3 = p.chi0_xy, t.kappa1, t.kappa2, t.kappa3
        else:
            chi0_xy = self.chi0_xy
            k1, k2, k3 = (0.0 if k is None else k for k in (self.kappa1, self.kappa2, self.kappa3))
        return chi0_xy + k1 * self.e_x * self.b_y + k2 * self.e_x + k3 * self.b_y

    @functools.cached_property
    def _quantum_impulses(self) -> np.ndarray:
        """The quantum impulse of the series' own chi where it has one, else of the basis
        series 1, E*B, E and B, which each particle's chi0_xy and kappas weight (the impulse
        is linear in chi); integrated once per series, as its samples are read-only."""
        if self.chi0_xy is not None:
            return _quantum_impulse(self.chi_samples(None), self)
        basis = [np.ones_like(self.e_x), self.e_x * self.b_y, self.e_x, self.b_y]
        return _quantum_impulse(np.stack(basis), self)

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
                with open(source, newline="", encoding="utf-8") as fh:
                    return cls.from_csv(fh)
        else:
            reader = _csv_rows(source)
            index = _column_index(reader)
            cells: dict[str, list[float]] = {col: [] for col in index}
            for line_no, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                for col, i in index.items():
                    if i >= len(row):
                        raise SeriesFormatError(f"line {line_no}: missing field {col!r}")
                    cell = row[i].strip()
                    try:
                        cells[col].append(float(cell))
                    except ValueError:
                        raise SeriesFormatError(
                            f"line {line_no}: field {col!r} is not a number: {cell!r}"
                        ) from None
            columns = {_SERIES_COLUMNS[col]: values for col, values in cells.items()}
        return cls(**columns)


def _ddt(y: np.ndarray, dt: float) -> np.ndarray:
    """Central differences along the last axis, first-order one-sided at the endpoints."""
    return np.gradient(y, dt, axis=-1, edge_order=1)


def force_direct(p: Particle, s: FieldTimeSeries) -> np.ndarray:
    """F(t) = B_y * dP_x/dt, the undecomposed driving force."""
    chi = s.chi_samples(p)
    polarization = p.epsilon * s.e_x + chi * s.b_y
    return s.b_y * _ddt(polarization, s.dt)


class ForceDecomposition(Record):
    """The three exact product-rule terms of the driving force: ``dielectric``,
    B * d(eps E)/dt; ``magnetoelectric``, chi * (1/2) d(B^2)/dt; ``chi_rate``, B^2 * dchi/dt.

    ``dielectric`` is classical only; ``magnetoelectric`` and ``chi_rate``
    also carry quantum-vacuum contributions because <B^2> does not vanish
    for zero-point fields.
    """

    _fields = ("dielectric", "magnetoelectric", "chi_rate")

    def __init__(self, dielectric: np.ndarray, magnetoelectric: np.ndarray,
                 chi_rate: np.ndarray) -> None:
        self.__dict__.update(zip(self._fields, map(held, (dielectric, magnetoelectric, chi_rate))))

    @property
    def total(self) -> np.ndarray:
        return self.dielectric + self.magnetoelectric + self.chi_rate


def force_decomposed(p: Particle, s: FieldTimeSeries) -> ForceDecomposition:
    chi = s.chi_samples(p)
    magnetoelectric, chi_rate = _vacuum_terms(chi, s)
    dielectric = s.b_y * _ddt(p.epsilon * s.e_x, s.dt)
    return ForceDecomposition(dielectric, magnetoelectric, chi_rate)


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


def delta_v_rotation(p: Particle, model: VacuumModel) -> Quantity:
    """Velocity gain of a particle whose chi0_xy flips sign under a pi rotation.

    :func:`checked_rotation_dv` of the particle's density and size, signed
    with its current lab-frame chi0_xy.
    """
    dv = checked_rotation_dv(p.chi0_xy, p.density_rho, p.size_a, model.prefactor_a)
    return Quantity(float(dv), "m/s")


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


class Rotation(Record):
    """Rigid rotation of every particle by ``angle`` (rad) about ``axis``.

    Books the endpoint change of stored vacuum momentum; the angular
    trajectory and duration are irrelevant by path independence.
    """

    _fields = ("axis", "angle")

    def __init__(self, axis: np.ndarray, angle: float) -> None:
        self.__dict__.update(axis=unit_vector(axis, "axis"),
                             angle=check("angle", float(angle), "finite"))


class Aggregation(Record):
    """Merge N units of size ``size_a`` (m) into one body, per template particle."""

    _fields = ("n", "size_a", "direction")

    def __init__(self, n: float, size_a: float, direction: np.ndarray) -> None:
        self.__dict__.update(n=check("N", n, "at_least_one"), size_a=check("a_m", size_a, "size"),
                             direction=unit_vector(direction, "direction"))


class FieldModulation(Record):
    """External E/B driving over a sampled series; books the quantum terms."""

    _fields = ("series",)

    def __init__(self, series: FieldTimeSeries) -> None:
        self.__dict__["series"] = series


class CavityModulation(ValueRecord):
    """Cavity-imposed <B^2_vac> ramp at a constant rate for ``duration`` (s)."""

    _fields = ("db2_dt", "duration")

    def __init__(self, db2_dt: float, duration: float) -> None:
        self.__dict__.update(db2_dt=check("dB2_dt", db2_dt, "finite"),
                             duration=check("duration", duration, "positive"))


Maneuver = Union[Rotation, Aggregation, FieldModulation, CavityModulation]


class LedgerEntry(Record):
    """One booking: ``dp_particles`` and ``dp_vacuum`` in kg m/s, and the payload's
    ``cumulative_v`` in m/s after it."""

    _fields = ("maneuver_id", "kind", "dp_particles", "dp_vacuum", "cumulative_v")

    def __init__(self, maneuver_id: int, kind: str, dp_particles: np.ndarray,
                 dp_vacuum: np.ndarray, cumulative_v: np.ndarray) -> None:
        self.__dict__.update(maneuver_id=maneuver_id, kind=kind, dp_particles=held(dp_particles),
                             dp_vacuum=held(dp_vacuum), cumulative_v=held(cumulative_v))


class ImpulseLedger:
    """Per-maneuver record of particle vs vacuum momentum, conservation-checked.

    Every appended entry must satisfy dp_particles + dp_vacuum = 0 to
    CONSERVATION_RTOL relative, and stores each zero as +0.0, whatever the
    sign of the zero appended; cumulative_v tracks the payload velocity.
    """

    def __init__(self, m_total: float) -> None:
        self.m_total = float(check("M_total", m_total, "positive"))
        self.entries: list[LedgerEntry] = []
        self._cumulative_dp = np.zeros(3)

    @property
    def cumulative_v(self) -> np.ndarray:
        return self._cumulative_dp / self.m_total

    def append(self, kind: str, dp_particles: np.ndarray, dp_vacuum: np.ndarray) -> LedgerEntry:
        dp_particles = np.asarray(dp_particles, dtype=float) + 0.0  # -0.0 + 0.0 is 0.0
        dp_vacuum = np.asarray(dp_vacuum, dtype=float) + 0.0
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
        entry = LedgerEntry(len(self.entries), kind, dp_particles, dp_vacuum, cumulative_v)
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
    """``total = 0.0; for x in terms: total += x``, bit for bit but for the sign of a zero,
    which the ledger drops; cumsum adds strictly left to right."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def _along_z(impulse: float) -> np.ndarray:
    """``impulse`` times the z axis, the one dual to the (x, y) tensor component pair."""
    return impulse * np.array([0.0, 0.0, 1.0])


def _book_rotation(state: ParticleState, mv: Rotation, model: VacuumModel):
    after = state.rotated(rotation_about(mv.axis, mv.angle))
    p_before = stored_momentum(state.chi0_xy, state.size_a, model)
    p_after = stored_momentum(after.chi0_xy, after.size_a, model)
    return after, _along_z(_ordered_sum(p_after - p_before))


def _book_aggregation(state: ParticleState, mv: Aggregation, model: VacuumModel):
    # the size comes from the maneuver, and the state is left unchanged
    big_l = mv.n ** (1.0 / 3.0) * mv.size_a
    stored_before = mv.n * stored_momentum(state.chi0_xy, mv.size_a, model)
    stored_after = stored_momentum(state.chi0_xy, big_l, model)
    return state, _ordered_sum(stored_after - stored_before) * mv.direction


def _book_field_modulation(state: ParticleState, mv: FieldModulation, model: VacuumModel):
    w = mv.series._quantum_impulses
    if mv.series.chi0_xy is not None:  # the series' params override every particle's
        per_particle = np.full(len(state), w)
    else:
        k = state.kappa
        per_particle = state.chi0_xy * w[0] + k[:, 0] * w[1] + k[:, 1] * w[2] + k[:, 2] * w[3]
    return state, _along_z(-_ordered_sum(per_particle))  # vacuum side; particles gain +impulse


def _quantum_impulse(chi: np.ndarray, s: FieldTimeSeries) -> np.ndarray:
    """Time integral of the two vacuum-capable force terms, per row of ``chi``."""
    magnetoelectric, chi_rate = _vacuum_terms(chi, s)
    return np.trapezoid(magnetoelectric + chi_rate, dx=s.dt, axis=-1)


def _book_cavity(state: ParticleState, mv: CavityModulation, model: VacuumModel):
    return state, _along_z(-_ordered_sum(channel_cavity(state.chi0_xy, mv.db2_dt, mv.duration)))


# per maneuver record type (the ledger entry's "type"): its class, its booking (state, maneuver,
# model) -> (state after, vacuum momentum change), and its fields, key -> (parameter, JSON kind)
MANEUVER_TYPES = {
    "rotation": (Rotation, _book_rotation, {"axis": ("axis", list), "angle_rad": ("angle", float)}),
    "aggregation": (Aggregation, _book_aggregation, {
        "N": ("n", float), "a_m": ("size_a", float), "direction": ("direction", list)}),
    "field_modulation": (FieldModulation, _book_field_modulation, {"series_csv": ("series", str)}),
    "cavity_modulation": (CavityModulation, _book_cavity, {
        "dB2_dt": ("db2_dt", float), "duration_s": ("duration", float)}),
}
_BOOKINGS = {cls: (kind, book) for kind, (cls, book, _) in MANEUVER_TYPES.items()}


def maneuver_from_dict(d: object, read_series) -> Maneuver:
    """The maneuver of a JSON record: its ``type`` and every field that
    :data:`MANEUVER_TYPES` declares for it, each required.  ``read_series`` reads the
    series CSV path of a field modulation; a ValueError names the field at fault."""
    if not isinstance(d, dict):
        raise ValueError(f"expected an object, got {type(d).__name__}")
    kind = d.get("type")
    if not isinstance(kind, str) or kind not in MANEUVER_TYPES:
        raise ValueError(f"field 'type': unknown maneuver type {kind!r}")
    cls, _, fields = MANEUVER_TYPES[kind]
    schema = {key: (json_kind, REQUIRED) for key, (_, json_kind) in fields.items()}
    record = read_record(d, {"type": (str, REQUIRED), **schema})
    args = {param: record[key] for key, (param, _) in fields.items()}
    for key, (param, json_kind) in fields.items():
        if json_kind is str:  # a series CSV path, the one string field of a maneuver
            try:
                args[param] = read_series(record[key])
            except (ValueError, OSError) as exc:
                raise ValueError(f"field {key!r}: {record[key]}: {exc}") from None
    return cls(**args)


def run_maneuver_sequence(
    particles: Union[Sequence[Particle], ParticleState],
    maneuvers: Sequence[Maneuver],
    m_total: float,
    model: VacuumModel,
) -> ImpulseLedger:
    """Apply maneuvers in order, booking each into a conservation-checked ledger.

    A list of particles is joined into one :class:`ParticleState` first.  A
    rotation turns the state's one 3x3 frame and reads the new lab-frame
    chi0_xy in one pass over the particles; every entry books the vacuum
    momentum change and its exact opposite on the particle side.  On
    failure raises :class:`ManeuverError` carrying the index of the
    offending maneuver and the ledger accumulated so far.
    """
    ledger = ImpulseLedger(m_total)
    state = particles
    if not isinstance(state, ParticleState):
        state = ParticleState.from_particles(particles)
    for idx, mv in enumerate(maneuvers):
        try:
            if type(mv) not in _BOOKINGS:
                raise TypeError(f"unknown maneuver type {type(mv).__name__}")
            kind, book = _BOOKINGS[type(mv)]
            state, dp_vac = book(state, mv, model)
            ledger.append(kind, -dp_vac, dp_vac)
        except (ValueError, TypeError) as exc:
            raise ManeuverError(idx, ledger, exc) from exc
    return ledger

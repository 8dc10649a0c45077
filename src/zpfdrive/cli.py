"""Command-line surface.

All inputs are SI (meters, kg/m^3, tesla); output is text (6 significant
digits), JSON (full precision), or CSV, selected with --format where it
applies.  Exit codes: 0 success, 1 a refused value (a domain error, or a
flag value that is not a number), 2 a usage error (a missing required flag,
an unknown flag or command).  The CLI adds no arithmetic of its own: every
number printed is a library result.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from typing import Sequence

from . import _io, dynamics, material, mission, vacuum
from ._deferred import NumpyOnFirstUse
from .quantities import Quantity

np = NumpyOnFirstUse(globals())

__all__ = ["main", "build_parser"]


def _single_value(args, name: str, q: Quantity) -> str:
    """The one output line of a single-value command (the library refuses non-finite values)."""
    if args.format == "json":
        return json.dumps({"quantity": name, "value": q.value, "unit": q.unit})
    return f"{name} = {q.value:.6g} {q.unit}"


def _parse_list(text: str, flag: str, convert=float) -> list:
    """The values of a comma-list flag; a ValueError that names the flag if a value does
    not convert or there is none."""
    try:
        values = [convert(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        kind = "integers" if convert is int else "numbers"
        raise ValueError(f"{flag} expects comma-separated {kind}, got {text!r}")
    return values


class _Number(str):
    """The text of a one-number flag: :func:`_check_flags` converts it, so that a value
    that is not a number ends in one ``error:`` line, as a bad comma list does."""


_CUTOFFS = {c.value: c for c in vacuum.CutoffConvention}

# every numeric physics flag, by argparse dest: the flag and its rule in material.RULES
_FLAG_RULES = {
    "chi": ("--chi", "chi"),
    "a": ("--a", "size"),
    "rho": ("--rho", "positive"),
    "N": ("--N", "at_least_one"),
    "A": ("--A", "positive"),
    "fraction": ("--fraction", "unit"),
    "epsilon": ("--epsilon", "at_least_one"),
    "m_total": ("--M-total", "positive"),
}


def _check_flags(args) -> None:
    """Convert each one-number flag and check each value against its flag's rule, naming
    the flag.  A sweep's flags are axes: :func:`~zpfdrive.mission.sweep` applies the spec rules."""
    for dest, (flag, rule) in _FLAG_RULES.items():
        raw = getattr(args, dest, None)
        if isinstance(raw, _Number):
            try:
                raw = float(raw)
            except ValueError:
                raise ValueError(f"{flag} expects a number, got {raw!r}") from None
            setattr(args, dest, raw)
        if raw is None:
            continue
        if args.command == "sweep":
            rule = "finite"
        for value in _parse_list(raw, flag) if isinstance(raw, str) else [raw]:
            material.check(flag, value, rule)


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the zpfdrive argv grammar on every call."""
    parser = argparse.ArgumentParser(
        prog="zpfdrive",
        description="Vacuum momentum transfer for magneto-electric particles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("delta-v-rot", help="pi-rotation velocity gain of one particle")
    p.add_argument("--chi", type=_Number, required=True, help="intrinsic chi0_xy")
    p.add_argument("--a", type=_Number, required=True, help="particle size (m)")
    p.add_argument("--rho", type=_Number, required=True, help="density (kg/m^3)")
    p.add_argument("--A", type=_Number, default=1e-2, help="vacuum prefactor")
    add_format(p)

    p = sub.add_parser("delta-v-agg", help="aggregation velocity gain")
    p.add_argument("--chi", type=_Number, required=True)
    p.add_argument("--a", type=_Number, required=True)
    p.add_argument("--rho", type=_Number, required=True)
    p.add_argument("--N", type=_Number, required=True, help="number of merged units")
    p.add_argument("--A", type=_Number, default=1e-2)
    add_format(p)

    p = sub.add_parser("vacuum-momentum", help="closed-form stored vacuum momentum")
    p.add_argument("--chi", type=_Number, required=True)
    p.add_argument("--a", type=_Number, required=True)
    p.add_argument("--A", type=_Number, default=1e-2)
    add_format(p)

    p = sub.add_parser("oracle", help="mode-sum oracle convergence study (CSV)")
    p.add_argument("--chi", type=_Number, required=True)
    p.add_argument("--a", type=str, default="1e-9", help="comma-separated sizes (m)")
    p.add_argument("--n", type=str, default="16,32,64", help="comma-separated n_per_axis")
    p.add_argument("--cutoff", choices=sorted(_CUTOFFS), default="half-wavelength")
    p.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")
    add_format(p)

    p = sub.add_parser("force-decompose", help="three-term force decomposition of a series")
    p.add_argument("--series", type=str, required=True, help="field series CSV path")
    p.add_argument("--chi", type=_Number, default=0.0, help="chi0_xy if series lacks chi columns")
    p.add_argument("--epsilon", type=_Number, default=1.0)
    p.add_argument("--out", type=str, default=None)
    add_format(p)

    p = sub.add_parser("mission", help="evaluate a mission spec")
    p.add_argument("--spec", type=str, required=True, help="MissionSpec JSON path")
    add_format(p)

    p = sub.add_parser("solve", help="solve the design chain for one unknown")
    p.add_argument("--spec", type=str, required=True)
    p.add_argument(
        "--unknown",
        choices=sorted(mission.SOLVE_BRACKETS),
        required=True,
    )
    add_format(p)

    p = sub.add_parser("sweep", help="Cartesian parameter sweep to CSV")
    p.add_argument("--spec", type=str, required=True, help="base MissionSpec JSON")
    p.add_argument("--chi", type=str, default=None, help="comma-separated chi0 values")
    p.add_argument("--a", type=str, default=None)
    p.add_argument("--rho", type=str, default=None)
    p.add_argument("--fraction", type=str, default=None)
    p.add_argument("--A", type=str, default=None)
    p.add_argument(
        "--mode",
        choices=[m.value for m in mission.SweepMode],
        default=mission.SweepMode.MASS_BUDGET.value,
    )
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; no effect")
    p.add_argument("--out", type=str, default=None)
    add_format(p)

    p = sub.add_parser("ledger", help="run a maneuver sequence, emit the impulse ledger")
    p.add_argument("--particles", type=str, required=True, help="JSON list of particles")
    p.add_argument("--maneuvers", type=str, required=True, help="JSON list of maneuvers")
    p.add_argument(
        "--M-total", dest="m_total", type=_Number, required=True, help="payload mass (kg)"
    )
    p.add_argument("--A", type=_Number, default=1e-2)
    p.add_argument("--out", type=str, default=None, help="JSONL output path (default stdout)")
    add_format(p)

    return parser


# main's parser, built on its first call: building one takes longer than a
# small command's own work.  It binds this module's builder, so a wrapper put
# in place of the build_parser attribute never ends up inside it.
_main_parser = functools.cache(build_parser)


def _load_json_list(path: str, what: str) -> list:
    with open(path) as fh:
        try:
            records = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON list of {what}, got {type(records).__name__}")
    return records


def _load_maneuver(
    d: object, series_by_path: dict[str, dynamics.FieldTimeSeries]
) -> dynamics.Maneuver:
    if not isinstance(d, dict):
        raise ValueError(f"expected an object, got {type(d).__name__}")
    field = functools.partial(material.record_field, d)
    kind = d.get("type")
    # a vector is passed on as it is: the maneuver normalizes it once
    if kind == "rotation":
        return dynamics.Rotation(axis=field("axis", None), angle=field("angle_rad"))
    if kind == "aggregation":
        return dynamics.Aggregation(
            n=field("N"),
            size_a=material.check("a_m", field("a_m"), "size"),
            direction=field("direction", None),
        )
    if kind == "field_modulation":
        path = field("series_csv", str)
        if path not in series_by_path:  # series arrays are read-only: share one per file
            try:
                series_by_path[path] = dynamics.FieldTimeSeries.from_csv(path)
            except (ValueError, OSError) as exc:
                raise ValueError(f"field 'series_csv': {path}: {exc}") from None
        return dynamics.FieldModulation(series=series_by_path[path])
    if kind == "cavity_modulation":
        return dynamics.CavityModulation(db2_dt=field("dB2_dt"), duration=field("duration_s"))
    raise ValueError(f"field 'type': unknown maneuver type {kind!r}")


def _cmd_delta_v_rot(args) -> int:
    dv = dynamics.checked_rotation_dv(args.chi, args.rho * args.a**4, args.A)
    print(_single_value(args, "delta_v_rotation", Quantity(dv, "m/s")))
    return 0


def _cmd_delta_v_agg(args) -> int:
    model = vacuum.VacuumModel(prefactor_a=args.A)
    q = dynamics.delta_v_aggregation(args.a, args.rho, args.chi, args.N, model)
    print(_single_value(args, "delta_v_aggregation", q))
    return 0


def _cmd_vacuum_momentum(args) -> int:
    model = vacuum.VacuumModel(prefactor_a=args.A)
    q = vacuum.vacuum_momentum_closed_form(args.chi, args.a, model)
    print(_single_value(args, "vacuum_momentum", q))
    return 0


def _cmd_oracle(args) -> int:
    sizes = _parse_list(args.a, "--a")
    n_values = _parse_list(args.n, "--n", int)
    out = args.out or sys.stdout
    csv_out = None if args.format == "json" else out
    rows = vacuum.convergence_study(
        args.chi, sizes, n_values, convention=_CUTOFFS[args.cutoff], out=csv_out
    )
    if csv_out is None:
        _io.write_blocks(out, [json.dumps(rows)], tail="\n")
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


_FORCE_COLUMNS = ("t_s", "f_dielectric", "f_magnetoelectric", "f_chi_rate", "f_total")


def _cmd_force_decompose(args) -> int:
    try:
        series = dynamics.FieldTimeSeries.from_csv(args.series)
    except ValueError as exc:
        raise ValueError(f"{args.series}: {exc}") from None
    # size and density do not enter the force terms; only epsilon and chi do
    particle = material.Particle(
        size_a=1e-9,
        density_rho=1000.0,
        tensor=material.MagnetoElectricTensor.from_xy(args.chi),
        epsilon=args.epsilon,
    )
    with np.errstate(all="ignore"):  # non-finite terms are refused below
        dec = dynamics.force_decomposed(particle, series)
        terms = (dec.dielectric, dec.magnetoelectric, dec.chi_rate, dec.total)
    bad = np.array([~np.isfinite(term) for term in terms])
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        name = _FORCE_COLUMNS[1 + int(bad[:, i].argmax())]
        raise ValueError(f"{args.series}: t_s = {series.t[i].item()!r} gives a non-finite {name}")
    columns = (series.t, *terms)
    out = args.out or sys.stdout
    if args.format == "json":
        payload = {k: col.tolist() for k, col in zip(_FORCE_COLUMNS, columns)}
        _io.write_blocks(out, [json.dumps(payload)], tail="\n")
    else:
        _io.write_blocks(out, _io.csv_blocks(columns), head=",".join(_FORCE_COLUMNS) + "\n")
    if args.out:
        print(f"wrote {series.t.size} samples to {args.out}")
    return 0


def _cmd_mission(args) -> int:
    spec = mission.MissionSpec.from_json(args.spec)
    report = mission.evaluate_mission(spec)
    if args.format == "json":
        print(json.dumps(report.to_dict()))
    else:
        print(f"required_tangential_v = {report.required_tangential_v:.6g} m/s")
        print(f"achieved_tangential_v = {report.achieved_tangential_v:.6g} m/s")
        print(f"feasible: {'true' if report.feasible else 'false'}")
        print(f"margin = {report.margin:.6g}")
    return 0


def _cmd_solve(args) -> int:
    spec = mission.MissionSpec.from_json(args.spec)
    value = mission.solve_for_unknown(spec, args.unknown)
    report = mission.evaluate_mission(replace(spec, **{args.unknown: value}))
    if args.format == "json":
        unit = "m" if args.unknown == "particle_size" else "dimensionless"
        print(json.dumps({"quantity": args.unknown, "value": value, "unit": unit}))
    else:
        print(f"{args.unknown} = {value:.6g}")
        print(f"margin at solution = {report.margin:.6g}")
    return 0


# sweep axis (MissionSpec field) -> argparse dest
_SWEEP_DESTS = {
    "chi0": "chi",
    "particle_size": "a",
    "particle_density": "rho",
    "active_mass_fraction": "fraction",
    "prefactor_A": "A",
}


def _cmd_sweep(args) -> int:
    spec = mission.MissionSpec.from_json(args.spec)
    axes = {}
    for name, dest in _SWEEP_DESTS.items():
        raw = getattr(args, dest)
        if raw is not None:
            axes[name] = _parse_list(raw, f"--{dest}")
    mode = mission.SweepMode(args.mode)
    fmt = "json" if args.format == "json" else "csv"
    try:
        count = mission.sweep(
            spec, axes, out=args.out or sys.stdout, mode=mode, jobs=args.jobs, fmt=fmt
        )
    except mission.SweepValueError as exc:
        flags = " ".join(f"--{_SWEEP_DESTS[k]} {v!r}" for k, v in exc.values.items())
        raise ValueError(f"{flags} {exc.problem}") from None
    if args.out:
        print(f"wrote {count} rows to {args.out}")
    return 0


def _cmd_ledger(args) -> int:
    records = _load_json_list(args.particles, "particles")
    try:
        state = material.ParticleState.from_dicts(records)
    except ValueError as exc:
        raise ValueError(f"{args.particles}: {exc}") from None
    maneuvers = []
    series_by_path: dict[str, dynamics.FieldTimeSeries] = {}
    for i, d in enumerate(_load_json_list(args.maneuvers, "maneuvers")):
        try:
            maneuvers.append(_load_maneuver(d, series_by_path))
        except ValueError as exc:
            raise ValueError(f"{args.maneuvers}: maneuver {i}: {exc}") from None
    model = vacuum.VacuumModel(prefactor_a=args.A)
    with np.errstate(all="ignore"):  # a non-finite booking is refused by the ledger
        try:
            ledger = dynamics.run_maneuver_sequence(state, maneuvers, args.m_total, model)
        except dynamics.ManeuverError as exc:
            raise ValueError(f"{args.maneuvers}: {exc}") from None
    out = args.out or sys.stdout
    if args.format == "json":
        _io.write_blocks(out, [json.dumps(ledger.entry_dicts())], tail="\n")
    else:
        ledger.to_jsonl(out)
    if args.out:
        print(f"wrote {len(ledger.entries)} entries to {args.out}")
    return 0


_COMMANDS = {
    "delta-v-rot": _cmd_delta_v_rot,
    "delta-v-agg": _cmd_delta_v_agg,
    "vacuum-momentum": _cmd_vacuum_momentum,
    "oracle": _cmd_oracle,
    "force-decompose": _cmd_force_decompose,
    "mission": _cmd_mission,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "ledger": _cmd_ledger,
}


def _joined_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each ``--flag -value`` written ``--flag=-value``: argparse takes values
    such as ``-4e-07``, ``-inf`` and ``-1,2`` for options.  Every long flag but --help
    takes a value, and none takes one that starts with ``--``."""
    out: list[str] = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--") and arg != "-h" and out:
            flag = out[-1]
            if flag.startswith("--") and "=" not in flag and flag not in ("--", "--help"):
                out[-1] = f"{flag}={arg}"
                continue
        out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    """Run one CLI call and return its exit code; callable any number of times."""
    args = _main_parser().parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    try:
        _check_flags(args)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

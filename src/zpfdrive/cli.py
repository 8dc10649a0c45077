"""Command-line surface.

All inputs are SI (meters, kg/m^3, tesla); output is text (6 significant
digits), JSON (full precision), or CSV, selected with --format where it
applies.  Exit codes: 0 success; 1 a refused value: a domain error, or a
bad value of any numeric flag (``--n`` and ``--jobs`` included): one that
does not convert or breaks the flag's rule; 2 a usage error: a missing
required flag, an unknown flag or command, or an invalid choice.  The CLI
does no arithmetic on flag values: every number printed is a library result.

Every command line is read from its command's flag table, by argparse's rules;
argparse is built only to print help and usage errors, in its own text.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import replace
from typing import Sequence

from . import _io, dynamics, material, mission, vacuum
from ._deferred import NumpyOnFirstUse
from .material import REQUIRED
from .quantities import Quantity

np = NumpyOnFirstUse(globals())

__all__ = ["main", "build_parser"]


def _single_value(args, name: str, q: Quantity) -> str:
    """The one output line of a single-value command (the library refuses non-finite values)."""
    if args.format == "json":
        return json.dumps({"quantity": name, "value": q.value, "unit": q.unit})
    return f"{name} = {q.value:.6g} {q.unit}"


_CUTOFFS = {c.value: c for c in vacuum.CutoffConvention}

# every numeric flag: its text, argparse dest, kind (float or int: one value;
# [float] or [int]: a comma list), rule in material.RULES, and help.  The
# sweep's axes are keyed by their MissionSpec field; they are checked finite
# here, and mission.sweep checks them against the spec's rules.
_NUMBERS = {
    "chi": ("--chi", "chi", float, "chi", "intrinsic chi0_xy"),
    "a": ("--a", "a", float, "size", "particle size (m)"),
    "rho": ("--rho", "rho", float, "positive", "density (kg/m^3)"),
    "N": ("--N", "N", float, "at_least_one", "number of merged units"),
    "A": ("--A", "A", float, "positive", "vacuum prefactor"),
    "epsilon": ("--epsilon", "epsilon", float, "at_least_one", "linear dielectric constant"),
    "m_total": ("--M-total", "m_total", float, "positive", "payload mass (kg)"),
    "sizes": ("--a", "a", [float], "size", "comma-separated sizes (m)"),
    "n": ("--n", "n", [int], "n_per_axis", "comma-separated n_per_axis"),
    "jobs": ("--jobs", "jobs", int, "at_least_one", "accepted for compatibility; no effect"),
    "chi0": ("--chi", "chi", [float], "finite", "comma-separated chi0 values"),
    "particle_size": ("--a", "a", [float], "finite", "comma-separated sizes (m)"),
    "particle_density": ("--rho", "rho", [float], "finite", "comma-separated densities (kg/m^3)"),
    "prefactor_A": ("--A", "A", [float], "finite", "comma-separated vacuum prefactors"),
    "active_mass_fraction": (
        "--fraction", "fraction", [float], "finite", "comma-separated active mass fractions"
    ),
}

def _number(text: str, flag: str, kind):
    """``text`` converted as ``kind``; a ValueError that names the flag if it does not
    convert, or if a comma list holds no value."""
    if isinstance(kind, list):
        try:
            values = [kind[0](x) for x in text.split(",") if x.strip()]
        except ValueError:
            values = []
        if values:
            return values
        expected = "comma-separated integers" if kind[0] is int else "comma-separated numbers"
    else:
        try:
            return kind(text)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
    raise ValueError(f"{flag} expects {expected}, got {text!r}")


def _check_flags(args) -> None:
    """Convert the text of each numeric flag of the command (a default that is not text
    is already a number) and check each value against its flag's rule, naming the flag."""
    for name in _COMMANDS[args.command][2]:
        flag, dest, kind, rule, _ = _NUMBERS[name]
        value = getattr(args, dest)
        if value is None:  # a sweep axis left at the spec's value
            continue
        if isinstance(value, str):
            value = _number(value, flag, kind)
            setattr(args, dest, value)
        for v in value if isinstance(value, list) else [value]:
            material.check(flag, v, rule)


def _build() -> tuple[argparse.ArgumentParser, dict]:
    """A new parser of the zpfdrive argv grammar, and its parser of each command."""
    parser = argparse.ArgumentParser(
        prog="zpfdrive", description="Vacuum momentum transfer for magneto-electric particles."
    )
    sub, commands = parser.add_subparsers(dest="command", required=True), {}
    for command, (_, summary, _) in _COMMANDS.items():
        commands[command] = p = sub.add_parser(command, help=summary)
        p.set_defaults(command=command)
        for flag, (dest, choices, default, text) in _TABLES[command][0].items():
            p.add_argument(flag, dest=dest, choices=choices, required=default is REQUIRED,
                           default=None if default is REQUIRED else default, help=text)
    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the zpfdrive argv grammar on every call."""
    return _build()[0]


@contextlib.contextmanager
def _prefixed(prefix: str, errors=ValueError):
    """Re-raise an ``errors`` exception of the block as a ValueError that starts ``prefix: ``."""
    try:
        yield
    except errors as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def _load_json_list(path: str, what: str) -> list:
    with _prefixed(path):
        records = _io.load_json(path)
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON list of {what}, got {type(records).__name__}")
    return records


def _load_maneuver(d: object, read_series) -> dynamics.Maneuver:
    if not isinstance(d, dict):
        raise ValueError(f"expected an object, got {type(d).__name__}")
    kind = d.get("type")
    if not isinstance(kind, str) or kind not in dynamics.MANEUVER_TYPES:
        raise ValueError(f"field 'type': unknown maneuver type {kind!r}")
    cls, _, fields = dynamics.MANEUVER_TYPES[kind]
    schema = {key: (json_kind, REQUIRED) for key, (_, json_kind) in fields.items()}
    record = material.read_record(d, {"type": (str, REQUIRED), **schema})
    args = {param: record[key] for key, (param, _) in fields.items()}
    for key, (param, json_kind) in fields.items():
        if json_kind is str:  # a series CSV path, the one string field of a maneuver
            with _prefixed(f"field {key!r}: {record[key]}", (ValueError, OSError)):
                args[param] = read_series(record[key])
    return cls(**args)


def _cmd_delta_v_rot(args) -> int:
    dv = dynamics.checked_rotation_dv(args.chi, args.rho, args.a, args.A)
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
    out = args.out or sys.stdout
    csv_out = None if args.format == "json" else out
    rows = vacuum.convergence_study(
        args.chi, args.a, args.n, convention=_CUTOFFS[args.cutoff], out=csv_out
    )
    if csv_out is None:
        _io.write_blocks(out, [json.dumps(rows)], tail="\n")
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


_FORCE_COLUMNS = ("t_s", "f_dielectric", "f_magnetoelectric", "f_chi_rate", "f_total")


def _cmd_force_decompose(args) -> int:
    with _prefixed(args.series):
        series = dynamics.FieldTimeSeries.from_csv(args.series)
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
    with _prefixed(args.spec):  # the spec is the command's one numeric input
        report = mission.evaluate_mission(mission.MissionSpec.from_json(args.spec))
    if args.format == "json":
        print(json.dumps(report.to_dict()))
    else:
        print(f"required_tangential_v = {report.required_tangential_v:.6g} m/s")
        print(f"achieved_tangential_v = {report.achieved_tangential_v:.6g} m/s")
        print(f"feasible: {'true' if report.feasible else 'false'}")
        print(f"margin = {report.margin:.6g}")
    return 0


def _cmd_solve(args) -> int:
    with _prefixed(args.spec):  # the spec is the command's one numeric input
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


def _cmd_sweep(args) -> int:
    axes = {name: getattr(args, _NUMBERS[name][1]) for name in mission._SWEEP_AXES}
    axes = {name: values for name, values in axes.items() if values is not None}
    mode = mission.SweepMode(args.mode)
    fmt = "json" if args.format == "json" else "csv"
    try:  # a spec error names the spec, an axis error its flag
        with _prefixed(args.spec, mission.MissionSpecError):
            spec = mission.MissionSpec.from_json(args.spec)
            count = mission.sweep(
                spec, axes, out=args.out or sys.stdout, mode=mode, jobs=args.jobs, fmt=fmt
            )
    except mission.SweepValueError as exc:
        named = " ".join(f"{_NUMBERS[k][0]} {v!r}" for k, v in exc.values.items())
        raise ValueError(f"{named} {exc.problem}") from None
    if args.out:
        print(f"wrote {count} rows to {args.out}")
    return 0


def _cmd_ledger(args) -> int:
    records = _load_json_list(args.particles, "particles")
    with _prefixed(args.particles):
        state = material.ParticleState.from_dicts(records)
    maneuvers = []
    read_series = functools.cache(dynamics.FieldTimeSeries.from_csv)  # arrays are read-only
    for i, d in enumerate(_load_json_list(args.maneuvers, "maneuvers")):
        with _prefixed(f"{args.maneuvers}: maneuver {i}"):
            maneuvers.append(_load_maneuver(d, read_series))
    model = vacuum.VacuumModel(prefactor_a=args.A)
    # a non-finite booking is refused by the ledger
    with np.errstate(all="ignore"), _prefixed(args.maneuvers, dynamics.ManeuverError):
        ledger = dynamics.run_maneuver_sequence(state, maneuvers, args.m_total, model)
    out = args.out or sys.stdout
    if args.format == "json":
        _io.write_blocks(out, [json.dumps(ledger.entry_dicts())], tail="\n")
    else:
        ledger.to_jsonl(out)
    if args.out:
        print(f"wrote {len(ledger.entries)} entries to {args.out}")
    return 0


# each command: its handler, its help, and its numeric flags by _NUMBERS key,
# each with its default or REQUIRED, in the order they are checked
_COMMANDS = {
    "delta-v-rot": (
        _cmd_delta_v_rot,
        "pi-rotation velocity gain of one particle",
        {"chi": REQUIRED, "a": REQUIRED, "rho": REQUIRED, "A": 1e-2},
    ),
    "delta-v-agg": (
        _cmd_delta_v_agg,
        "aggregation velocity gain",
        {"chi": REQUIRED, "a": REQUIRED, "rho": REQUIRED, "N": REQUIRED, "A": 1e-2},
    ),
    "vacuum-momentum": (
        _cmd_vacuum_momentum,
        "closed-form stored vacuum momentum",
        {"chi": REQUIRED, "a": REQUIRED, "A": 1e-2},
    ),
    "oracle": (
        _cmd_oracle,
        "mode-sum oracle convergence study (CSV)",
        {"chi": REQUIRED, "sizes": "1e-9", "n": "16,32,64"},
    ),
    "force-decompose": (
        _cmd_force_decompose,
        "three-term force decomposition of a series (--chi if it has no chi0_xy column)",
        {"chi": 0.0, "epsilon": 1.0},
    ),
    "mission": (_cmd_mission, "evaluate a mission spec", {}),
    "solve": (_cmd_solve, "solve the design chain for one unknown", {}),
    "sweep": (
        _cmd_sweep,
        "Cartesian parameter sweep to CSV",
        {**dict.fromkeys(mission._SWEEP_AXES), "jobs": 1},
    ),
    "ledger": (
        _cmd_ledger,
        "run a maneuver sequence, emit the impulse ledger",
        {"m_total": REQUIRED, "A": 1e-2},
    ),
}


# the other flags, in the order added: commands, choices, default (REQUIRED: given) and help
_OPTIONS = [
    ("--format", tuple(_COMMANDS), ("text", "json", "csv"), "text", None),
    ("--spec", ("mission", "solve", "sweep"), None, REQUIRED, "MissionSpec JSON path"),
    ("--unknown", ("solve",), sorted(mission.SOLVE_BRACKETS), REQUIRED, None),
    ("--mode", ("sweep",), [m.value for m in mission.SweepMode], "mass-budget", None),
    ("--cutoff", ("oracle",), sorted(_CUTOFFS), "half-wavelength", None),
    ("--series", ("force-decompose",), None, REQUIRED, "field series CSV path"),
    ("--particles", ("ledger",), None, REQUIRED, "JSON list of particles"),
    ("--maneuvers", ("ledger",), None, REQUIRED, "JSON list of maneuvers"),
    ("--out", ("oracle", "force-decompose", "sweep", "ledger"), None, None,
     "output path (default stdout)"),
]


def _joined_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each ``--flag -value`` written ``--flag=-value``: argparse takes values
    such as ``-4e-07``, ``-inf`` and ``-1,2`` for options."""
    out: list[str] = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--") and arg != "-h" and out:
            flag = out[-1]
            if flag.startswith("--") and "=" not in flag and flag not in ("--", "--help"):
                out[-1] = f"{flag}={arg}"
                continue
        out.append(arg)
    return out


def _table(command: str) -> tuple[dict, dict]:
    """``command``'s flags in the order its parser adds them, each with its dest, choices,
    default (REQUIRED: it must be given) and help; and the namespace of their defaults."""
    flags = {}
    for name, default in _COMMANDS[command][2].items():
        flag, dest, _, _, text = _NUMBERS[name]
        flags[flag] = (dest, None, default, text)
    for flag, commands, *entry in _OPTIONS:
        if command in commands:
            flags[flag] = (flag[2:], *entry)
    return flags, {"command": command, **{dest: d for dest, _, d, _ in flags.values()}}


_TABLES = {command: _table(command) for command in _COMMANDS}


def _names(flags: dict, option: str) -> list[str]:
    """The option strings ``option`` names: itself, else each that starts with it, --help too."""
    return [option] if option in flags else [f for f in (*flags, "--help") if f.startswith(option)]


def _from_table(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives ``argv``, by argparse's rules: a flag may be a prefix of
    one option string alone, the last of a repeated flag counts, a ``--`` value is ``'--'``.
    None where argparse prints help or a usage error."""
    if not argv or argv[0] not in _TABLES:
        return None
    flags, args = _TABLES[argv[0]][0], dict(_TABLES[argv[0]][1])
    rest = iter(argv[1:])
    for arg in rest:
        option, joined, value = arg.partition("=")
        if not joined:
            value = next(rest, "-")  # a missing value is refused as "-" is
            if value.startswith("-") and (" " not in value or _names(flags, value.split("=")[0])):
                return None  # argparse takes it for an option
        names = _names(flags, option)  # argparse refuses an unknown or ambiguous flag
        dest, choices, _, _ = flags.get(names[0] if len(names) == 1 else None, (None,) * 4)
        if dest is None or (choices is not None and value not in choices):
            return None
        args[dest] = value
    return None if REQUIRED in args.values() else argparse.Namespace(**args)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``argv`` read from its command's flag table; a new parser (the command's own, if
    ``argv[0]`` is one) parses an argv that the table refuses, to print help or an error."""
    argv = _joined_values(argv)
    if (args := _from_table(argv)) is not None:
        return args
    parser, commands = _build()
    if not argv or argv[0] not in commands:
        parser.parse_args(argv)  # exits: the top level runs no argv without a command
    flags, parser = _TABLES[argv[0]][0], commands[argv[0]]
    parser.parse_args(argv[1:])
    # argparse before 3.13 reads a choice flag given "--" as [], unchecked; 3.13 refuses it
    for names in (_names(flags, arg[:-3]) for arg in argv[1:] if arg.endswith("=--")):
        if len(names) == 1 and names[0] in flags and flags[names[0]][1]:
            choices = ", ".join(map(repr, flags[names[0]][1]))
            parser.error(f"argument {names[0]}: invalid choice: '--' (choose from {choices})")


def main(argv: Sequence[str] | None = None) -> int:
    """Run one CLI call and return its exit code; callable any number of times."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        _check_flags(args)
        return _COMMANDS[args.command][0](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

All inputs are SI (meters, kg/m^3, tesla).  ``main`` runs every call in the
same steps: parse the argv, check the numeric flags, ``run`` the command (load
its input files, call its library kernel), then write the result to stdout or
``--out`` with the writer of the ``--format`` chosen.  A command offers the
formats it writes: ``text`` (6 significant digits; CSV for ``oracle``,
``force-decompose`` and ``sweep``, which also take it as ``csv``; JSON lines for
``ledger``) and ``json`` (full precision).  Exit codes: 0 success; 1 a refused
value: a domain error, or a bad value of any numeric flag (``--n`` and
``--jobs`` included): one that does not convert or breaks the flag's rule; 2 a
usage error: a missing required flag, an unknown flag or command, or an invalid
choice (``--format csv`` where a command writes no CSV).  The CLI does no
arithmetic on flag values: every number printed is a library result, and the
library reads every record of the input files, which the CLI names in its errors.
``solve``'s note on a sub-atomic size is one ``warning:`` line on stderr, exit 0.

Every command line is read from its command's flag table, by argparse's rules;
argparse is imported and built only to print help and usage errors, in its own
text.  At start the CLI imports only what every command runs (``material`` and
``quantities``); numpy, ``json`` and the other modules import on a command's first
read of them, so ``delta-v-rot`` loads neither ``dynamics`` nor ``mission``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import types
import warnings
from typing import TYPE_CHECKING, Sequence

from . import material
from ._deferred import OnFirstUse
from .material import REQUIRED
from .quantities import Quantity

if TYPE_CHECKING:
    import argparse

# what not every command runs is imported where a command first reads it
np = OnFirstUse(globals(), "numpy", "np")
json = OnFirstUse(globals(), "json", "json")
_io, dynamics, mission, vacuum = (
    OnFirstUse(globals(), f"zpfdrive.{m}", m) for m in ("_io", "dynamics", "mission", "vacuum")
)

__all__ = ["main", "build_parser"]

# mission._SWEEP_AXES, a literal like the choices in _OPTIONS, so the tables import no kernel
_SWEEP_AXES = ("chi0", "particle_size", "particle_density", "active_mass_fraction", "prefactor_A")

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
    for name in _COMMANDS[args.command][1]:
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
    import argparse  # only help and usage errors build it

    parser = argparse.ArgumentParser(
        prog="zpfdrive", description="Vacuum momentum transfer for magneto-electric particles."
    )
    sub, commands = parser.add_subparsers(dest="command", required=True), {}
    for command, (summary, *_) in _COMMANDS.items():
        commands[command] = p = sub.add_parser(command, help=summary)
        p.set_defaults(command=command)
        for flag, (dest, choices, default, text) in _TABLES[command][0].items():
            p.add_argument(flag, dest=dest, choices=choices, required=default is REQUIRED,
                           default=None if default is REQUIRED else default, help=text)
    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the zpfdrive argv grammar on every call."""
    return _build()[0]


class _prefixed(contextlib.AbstractContextManager):
    """Re-raise an ``errors`` exception of the block as a ValueError that starts ``prefix: ``."""

    def __init__(self, prefix: str, errors=ValueError) -> None:
        self.prefix, self.errors = prefix, errors

    def __exit__(self, kind, exc, _) -> None:
        if kind is not None and issubclass(kind, self.errors):
            raise ValueError(f"{self.prefix}: {exc}") from None


def _load_json_list(path: str, what: str) -> list:
    with _prefixed(path):
        records = _io.load_json(path)
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON list of {what}, got {type(records).__name__}")
    return records


def _json(value, out) -> int:
    """Write ``value`` as one line of JSON; the count of its items."""
    _io.write_blocks(out, [json.dumps(value)], tail="\n")
    return len(value)


def _value(name: str, q: Quantity) -> dict:
    """A single value's JSON record (the library refuses non-finite values)."""
    return {"quantity": name, "value": q.value, "unit": q.unit}


def _value_text(value: dict, out) -> None:
    print(f"{value['quantity']} = {value['value']:.6g} {value['unit']}", file=out)


def _run_delta_v_rot(args) -> dict:
    dv = vacuum.checked_rotation_dv(args.chi, args.rho, args.a, args.A)
    return _value("delta_v_rotation", Quantity(dv, "m/s"))


def _run_delta_v_agg(args) -> dict:
    model = vacuum.VacuumModel(prefactor_a=args.A)
    q = dynamics.delta_v_aggregation(args.a, args.rho, args.chi, args.N, model)
    return _value("delta_v_aggregation", q)


def _run_vacuum_momentum(args) -> dict:
    model = vacuum.VacuumModel(prefactor_a=args.A)
    return _value("vacuum_momentum", vacuum.vacuum_momentum_closed_form(args.chi, args.a, model))


def _run_oracle(args) -> tuple:
    return args.chi, args.a, args.n, vacuum.CutoffConvention(args.cutoff)


def _oracle_csv(study: tuple, out) -> int:
    return len(vacuum.convergence_study(*study, out=out))  # the study writes its CSV itself


def _oracle_json(study: tuple, out) -> int:
    return _json(vacuum.convergence_study(*study), out)


_FORCE_COLUMNS = ("t_s", "f_dielectric", "f_magnetoelectric", "f_chi_rate", "f_total")


def _run_force_decompose(args) -> tuple:
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
    return series.t, *terms


def _forces_csv(columns: tuple, out) -> int:
    _io.write_blocks(out, _io.csv_blocks(columns), head=",".join(_FORCE_COLUMNS) + "\n")
    return columns[0].size


def _forces_json(columns: tuple, out) -> int:
    _json({k: col.tolist() for k, col in zip(_FORCE_COLUMNS, columns)}, out)
    return columns[0].size


def _run_mission(args) -> dict:
    with _prefixed(args.spec):  # the spec is the command's one numeric input
        return mission.evaluate_mission(mission.MissionSpec.from_json(args.spec)).to_dict()


def _mission_text(report: dict, out) -> None:
    print(
        f"required_tangential_v = {report['required_tangential_v_m_s']:.6g} m/s\n"
        f"achieved_tangential_v = {report['achieved_tangential_v_m_s']:.6g} m/s\n"
        f"feasible: {'true' if report['feasible'] else 'false'}\n"
        f"margin = {report['margin']:.6g}",
        file=out,
    )


def _run_solve(args) -> tuple[dict, float]:
    from dataclasses import replace  # mission has loaded it; start-up does not

    with _prefixed(args.spec), warnings.catch_warnings(record=True) as notes:
        warnings.simplefilter("always", UserWarning)  # every call's note, not the first alone
        spec = mission.MissionSpec.from_json(args.spec)  # the command's one numeric input
        value = mission.solve_for_unknown(spec, args.unknown)
        report = mission.evaluate_mission(replace(spec, **{args.unknown: value}))
    for note in notes:
        print(f"warning: {note.message}", file=sys.stderr)
    unit = "m" if args.unknown == "particle_size" else "dimensionless"
    return _value(args.unknown, Quantity(value, unit)), report.margin


def _solve_text(solved: tuple[dict, float], out) -> None:
    value, margin = solved
    print(f"{value['quantity']} = {value['value']:.6g}", file=out)
    print(f"margin at solution = {margin:.6g}", file=out)


def _solve_json(solved: tuple[dict, float], out) -> None:
    _json(solved[0], out)


def _run_sweep(args) -> tuple:
    axes = {name: getattr(args, _NUMBERS[name][1]) for name in _SWEEP_AXES}
    axes = {name: values for name, values in axes.items() if values is not None}
    with _prefixed(args.spec, mission.MissionSpecError):
        spec = mission.MissionSpec.from_json(args.spec)
    return args.spec, spec, axes, mission.SweepMode(args.mode), args.jobs


def _sweep_csv(job: tuple, out, fmt="csv") -> int:
    """The sweep writes each block of rows as it computes it."""
    path, spec, axes, mode, jobs = job
    try:  # a spec error names the spec, an axis error its flag
        with _prefixed(path, mission.MissionSpecError):
            return mission.sweep(spec, axes, out=out, mode=mode, jobs=jobs, fmt=fmt)
    except mission.SweepValueError as exc:
        named = " ".join(f"{_NUMBERS[k][0]} {v!r}" for k, v in exc.values.items())
        raise ValueError(f"{named} {exc.problem}") from None


def _run_ledger(args) -> dynamics.ImpulseLedger:
    records = _load_json_list(args.particles, "particles")
    with _prefixed(args.particles):
        state = material.ParticleState.from_dicts(records)
    maneuvers = []
    read_series = functools.cache(dynamics.FieldTimeSeries.from_csv)  # arrays are read-only
    for i, d in enumerate(_load_json_list(args.maneuvers, "maneuvers")):
        with _prefixed(f"{args.maneuvers}: maneuver {i}"):
            maneuvers.append(dynamics.maneuver_from_dict(d, read_series))
    model = vacuum.VacuumModel(prefactor_a=args.A)
    # a non-finite booking is refused by the ledger
    with np.errstate(all="ignore"), _prefixed(args.maneuvers, dynamics.ManeuverError):
        return dynamics.run_maneuver_sequence(state, maneuvers, args.m_total, model)


def _ledger_jsonl(ledger: dynamics.ImpulseLedger, out) -> int:
    ledger.to_jsonl(out)
    return len(ledger.entries)


def _ledger_json(ledger: dynamics.ImpulseLedger, out) -> int:
    return _json(ledger.entry_dicts(), out)


# each command: its help; its numeric flags by _NUMBERS key, each with its default or
# REQUIRED, in the order they are checked; its run(args), which loads its inputs and calls
# its kernel; its writers by --format, writer(result, out) -> the count of what it wrote
# (a kernel that streams its rows runs in its writer); and the noun of that count
_VALUE_WRITERS = {"text": _value_text, "json": _json}
_COMMANDS = {
    "delta-v-rot": (
        "pi-rotation velocity gain of one particle",
        {"chi": REQUIRED, "a": REQUIRED, "rho": REQUIRED, "A": 1e-2},
        _run_delta_v_rot, _VALUE_WRITERS, None,
    ),
    "delta-v-agg": (
        "aggregation velocity gain",
        {"chi": REQUIRED, "a": REQUIRED, "rho": REQUIRED, "N": REQUIRED, "A": 1e-2},
        _run_delta_v_agg, _VALUE_WRITERS, None,
    ),
    "vacuum-momentum": (
        "closed-form stored vacuum momentum",
        {"chi": REQUIRED, "a": REQUIRED, "A": 1e-2},
        _run_vacuum_momentum, _VALUE_WRITERS, None,
    ),
    "oracle": (
        "mode-sum oracle convergence study (CSV)",
        {"chi": REQUIRED, "sizes": "1e-9", "n": "16,32,64"},
        _run_oracle, {"text": _oracle_csv, "json": _oracle_json, "csv": _oracle_csv}, "rows",
    ),
    "force-decompose": (
        "three-term force decomposition of a series (--chi if it has no chi0_xy column)",
        {"chi": 0.0, "epsilon": 1.0},
        _run_force_decompose, {"text": _forces_csv, "json": _forces_json, "csv": _forces_csv},
        "samples",
    ),
    "mission": (
        "evaluate a mission spec", {},
        _run_mission, {"text": _mission_text, "json": _json}, None,
    ),
    "solve": (
        "solve the design chain for one unknown", {},
        _run_solve, {"text": _solve_text, "json": _solve_json}, None,
    ),
    "sweep": (
        "Cartesian parameter sweep to CSV",
        {**dict.fromkeys(_SWEEP_AXES), "jobs": 1},
        _run_sweep,
        {"text": _sweep_csv, "json": functools.partial(_sweep_csv, fmt="json"), "csv": _sweep_csv},
        "rows",
    ),
    "ledger": (
        "run a maneuver sequence, emit the impulse ledger",
        {"m_total": REQUIRED, "A": 1e-2},
        _run_ledger, {"text": _ledger_jsonl, "json": _ledger_json}, "entries",
    ),
}


# the flags between a command's --format, whose choices are its writers, and its --out,
# which a command with a counted output takes: commands, choices, default (REQUIRED:
# given) and help
_OPTIONS = [
    ("--spec", ("mission", "solve", "sweep"), None, REQUIRED, "MissionSpec JSON path"),
    ("--unknown", ("solve",), ["active_mass_fraction", "chi0", "particle_size"], REQUIRED, None),
    ("--mode", ("sweep",), ["mass-budget", "fixed-particle-mass"], "mass-budget", None),
    ("--cutoff", ("oracle",), ["half-wavelength", "wavelength-equals-size"], "half-wavelength",
     None),
    ("--series", ("force-decompose",), None, REQUIRED, "field series CSV path"),
    ("--particles", ("ledger",), None, REQUIRED, "JSON list of particles"),
    ("--maneuvers", ("ledger",), None, REQUIRED, "JSON list of maneuvers"),
]


def _joined_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each ``--flag -value`` written ``--flag=-value``, for argparse: it takes
    values such as ``-4e-07``, ``-inf`` and ``-1,2`` for options.  A dash-led token after a
    flag's value is left alone."""
    out: list[str] = []
    awaits = False  # whether out[-1] is a flag that awaits its value
    for arg in argv:
        if awaits and arg.startswith("-") and not arg.startswith("--") and arg != "-h":
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
        awaits = not awaits and arg[:2] == "--" and "=" not in arg and arg not in ("--", "--help")
    return out


def _table(command: str) -> tuple[dict, dict]:
    """``command``'s flags in the order its parser adds them, each with its dest, choices,
    default (REQUIRED: it must be given) and help; and the namespace of their defaults."""
    _, numbers, _, writers, noun = _COMMANDS[command]
    flags = {}
    for name, default in numbers.items():
        flag, dest, _, _, text = _NUMBERS[name]
        flags[flag] = (dest, None, default, text)
    flags["--format"] = ("format", tuple(writers), "text", None)
    for flag, commands, *entry in _OPTIONS:
        if command in commands:
            flags[flag] = (flag[2:], *entry)
    if noun:
        flags["--out"] = ("out", None, None, "output path (default stdout)")
    return flags, {"command": command, **{dest: d for dest, _, d, _ in flags.values()}}


_TABLES = {command: _table(command) for command in _COMMANDS}


def _names(flags: dict, option: str) -> list[str]:
    """The option strings ``option`` names: itself, else each that starts with it, --help too."""
    return [option] if option in flags else [f for f in (*flags, "--help") if f.startswith(option)]


def _from_table(argv: Sequence[str]) -> types.SimpleNamespace | None:
    """The attributes argparse gives ``_joined_values(argv)``, by argparse's rules: a flag may
    be a prefix of one option string alone, the last of a repeated flag counts, a ``--`` value
    is ``'--'``, and a separate value may start with one dash.  None where argparse prints
    help or a usage error."""
    if not argv or argv[0] not in _TABLES:
        return None
    flags, args = _TABLES[argv[0]][0], dict(_TABLES[argv[0]][1])
    rest = iter(argv[1:])
    for arg in rest:
        option, joined, value = arg.partition("=")
        if not joined:
            value = next(rest, "--")  # a missing value is refused as "--" is
            if value == "-h" or value.startswith("--") and (
                " " not in value or _names(flags, value.split("=")[0])
            ):
                return None  # argparse takes it for an option
        names = _names(flags, option)  # argparse refuses an unknown or ambiguous flag
        dest, choices, _, _ = flags.get(names[0] if len(names) == 1 else None, (None,) * 4)
        if dest is None or (choices is not None and value not in choices):
            return None
        args[dest] = value
    return None if REQUIRED in args.values() else types.SimpleNamespace(**args)


def _parse(argv: Sequence[str]) -> types.SimpleNamespace:
    """``argv`` read from its command's flag table; a new parser (the command's own, if
    ``argv[0]`` is one) parses an argv that the table refuses, to print help or an error."""
    if (args := _from_table(argv)) is not None:
        return args
    argv = _joined_values(argv)
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
    """Run one CLI call and return its exit code; callable any number of times.  A call is
    parse, check, run (load and kernel), then the writer of its --format."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    _, _, run, writers, noun = _COMMANDS[args.command]
    path = getattr(args, "out", None)
    try:
        _check_flags(args)
        count = writers[args.format](run(args), path or sys.stdout)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if path:
        print(f"wrote {count} {noun} to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

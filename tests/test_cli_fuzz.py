"""Property test over ``cli.main``: every argv and input file ends in a clean result.

Each example runs one command with numeric flags drawn from a fixed pool of
finite, extreme, non-finite and non-numeric values, given as ``--flag=value``
or as ``--flag value``, on spec, particle, maneuver and series files generated
the same way.  Whatever the input:

* ``main`` returns 0 or 1: a flag value that is not a number is an
  ``error:`` line too, and argparse's usage error (exit 2) is left for a
  missing flag or an unknown command, which no case holds;
* a bool, a string, an object or an array nested deeper than the JSON
  reader's nesting limit where a spec, particle or maneuver record holds
  a number gives 1, and so does a key that the record's schema does not name
  or that the record holds twice;
* on 1, stdout is empty and stderr is exactly one ``error:`` line;
* on 0, stderr is empty but for ``solve``'s one ``warning:`` line, its note
  that a solved size is below the atomic scale, and no ``inf`` or ``nan``
  appears in stdout or in any written file;
* no warning escapes ``main``.
"""

import contextlib
import copy
import io
import itertools
import json
import re
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zpfdrive import cli, dynamics, material, mission
from zpfdrive.mission import SOLVE_BRACKETS

# numeric flag values: finite, extreme, non-finite and non-numeric
FLAG_POOL = [
    "1e-3", "0.5", "1", "8", "1000", "1e-9", "-1", "0", "1e300", "-1e300", "1e-300",
    "-1e-300", "5e-324", "1.7e308", "inf", "-inf", "nan", "abc", "",
]
# record values: the same numbers as JSON, plus the types a record should not hold
RECORD_POOL = [
    1e-3, 0.5, 1, 8, 1000.0, 1e-9, -1.0, 0.0, 1e300, -1e300, 1e-300, 5e-324, 1.7e308,
    float("inf"), float("-inf"), float("nan"), 10**400, "abc", "", None, [1, 2], {"x": 1},
    True, "1e-3", "NESTED",
]
# "NESTED" stands for an array nested deeper than the JSON reader's nesting limit
NESTED = "[" * 100_000 + "0" + "]" * 100_000
# record keys that no schema names, each a misspelling of one that does
MISSPELLINGS = ["orientaton", "kapa1", "angel", "thrusters", "chi_0"]
# a record key "DUPLICATE:<key>" is written as <key>, a second time in that record
DUPLICATE = "DUPLICATE:"
# oracle resolutions stay small: the oracle's time grows as n^3
N_POOL = ["8", "16", "7", "0", "-1", "2049", "abc", "", "8,9"]

SPEC = {
    "target_rate": 4.95,
    "wheel_radius": 1.0,
    "satellite_mass": 100.0,
    "active_mass_fraction": 0.5,
    "particle_size": 1e-9,
    "particle_density": 1000.0,
    "chi0": 1e-3,
    "prefactor_A": 1e-2,
}
PARTICLE = {
    "chi0": [0.0, 1e-3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    "kappa1": 0.0,
    "kappa2": 0.0,
    "kappa3": 0.0,
    "size_a_m": 1e-9,
    "density_kg_m3": 1000.0,
    "epsilon": 1.0,
    "orientation": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
}
MANEUVERS = {
    "rotation": {"type": "rotation", "axis": [1.0, 0.0, 0.0], "angle_rad": 3.14159},
    "aggregation": {"type": "aggregation", "N": 8, "a_m": 1e-9, "direction": [0.0, 0.0, 1.0]},
    "field_modulation": {"type": "field_modulation", "series_csv": "SERIES"},
    "cavity_modulation": {"type": "cavity_modulation", "dB2_dt": 1e-3, "duration_s": 1.0},
}
SERIES = [["t_s", "E_x", "B_y", "chi0_xy"], ["0", "0", "1", "1e-3"], ["1", "1", "2", "2e-3"],
          ["2", "0", "1", "1e-3"], ["3", "1", "0", "0"]]

# per command: its numeric flags (None: optional) and whether it writes --out
COMMANDS = {
    "delta-v-rot": ({"--chi": "1e-3", "--a": "1e-9", "--rho": "1000", "--A": None}, False),
    "delta-v-agg": (
        {"--chi": "1e-3", "--a": "1e-9", "--rho": "1000", "--N": "8", "--A": None}, False
    ),
    "vacuum-momentum": ({"--chi": "1e-3", "--a": "1e-9", "--A": None}, False),
    "oracle": ({"--chi": "1e-3", "--a": None, "--n": "8"}, True),
    "force-decompose": ({"--chi": None, "--epsilon": None}, True),
    "mission": ({}, False),
    "solve": ({}, False),
    "sweep": (
        {flag: None for flag in ("--chi", "--a", "--rho", "--fraction", "--A", "--jobs")}, True
    ),
    "ledger": ({"--M-total": "1.0", "--A": None}, True),
}
LIST_FLAGS = {"oracle": {"--a", "--n"}, "sweep": {"--chi", "--a", "--rho", "--fraction", "--A"}}

NON_FINITE = re.compile(r"(?i)\b(inf|infinity|nan)\b")


def test_commands_hold_every_numeric_flag():
    """A numeric flag that the CLI declares is fuzzed, as a comma list where it is one."""
    for command, (_, numbers, *_) in cli._COMMANDS.items():
        entries = [cli._NUMBERS[name] for name in numbers]
        assert set(COMMANDS[command][0]) == {flag for flag, *_ in entries}
        lists = {flag for flag, _, kind, *_ in entries if isinstance(kind, list)}
        assert LIST_FLAGS.get(command, set()) == lists
    assert set(COMMANDS) == set(cli._COMMANDS)


def test_bases_hold_every_record_key():
    """A key that a spec, particle or maneuver schema names is fuzzed; a misspelling is not."""
    assert set(SPEC) == set(mission._SPEC_SCHEMA)
    assert set(PARTICLE) == set(material._PARTICLE_SCHEMA)
    assert set(MANEUVERS) == set(dynamics.MANEUVER_TYPES)
    for kind, (_, _, fields) in dynamics.MANEUVER_TYPES.items():
        assert set(MANEUVERS[kind]) == {"type", *fields}
    schemas = [mission._SPEC_SCHEMA, material._PARTICLE_SCHEMA, *MANEUVERS.values()]
    assert not set(MISSPELLINGS) & {key for schema in schemas for key in schema}


def perturbed(base: dict, data, keys=None) -> dict:
    """``base`` with up to two fields set to pool values (a vector field may lose one entry),
    and now and then one more key, a misspelling or a second copy of a key, set to a pool
    value."""
    record = json.loads(json.dumps(base))
    names = sorted(keys or record)
    for _ in range(data.draw(st.integers(0, 2))):
        key = data.draw(st.sampled_from(names))
        value = copy.deepcopy(data.draw(st.sampled_from(RECORD_POOL)))
        if isinstance(record.get(key), list) and data.draw(st.booleans()):
            record[key][data.draw(st.integers(0, len(record[key]) - 1))] = value
        else:
            record[key] = value
    extra = data.draw(st.integers(0, 9))
    if extra == 9:
        record[data.draw(st.sampled_from(MISSPELLINGS))] = data.draw(st.sampled_from(RECORD_POOL))
    elif extra == 8:
        key = DUPLICATE + data.draw(st.sampled_from(sorted(record)))
        record[key] = data.draw(st.sampled_from(RECORD_POOL))
    return record


@st.composite
def cases(draw):
    data = draw(st.data())
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags, writes = COMMANDS[command]
    case = {"command": command, "flags": {}, "format": draw(st.sampled_from(["text", "json"]))}
    case["separate"] = draw(st.booleans())  # --flag value, else --flag=value
    for flag, default in flags.items():
        pool = N_POOL if flag in ("--n", "--jobs") else FLAG_POOL
        choice = draw(st.sampled_from(["default", "pool", "list"]))
        if choice == "list" and flag in LIST_FLAGS.get(command, ()):
            case["flags"][flag] = ",".join(draw(st.lists(st.sampled_from(pool), max_size=2)))
        elif choice == "pool":
            case["flags"][flag] = draw(st.sampled_from(pool))
        elif default is not None:
            case["flags"][flag] = default
    case["out"] = writes and draw(st.booleans())
    if command in ("mission", "solve", "sweep"):
        case["spec"] = perturbed(SPEC, data)
        if command == "solve":
            case["unknown"] = draw(st.sampled_from(sorted(SOLVE_BRACKETS)))
    if command == "ledger":
        case["particles"] = [perturbed(PARTICLE, data) for _ in range(draw(st.integers(1, 2)))]
        kinds = draw(st.lists(st.sampled_from(sorted(MANEUVERS)), min_size=1, max_size=3))
        case["maneuvers"] = [
            perturbed(MANEUVERS[k], data, set(MANEUVERS[k]) - {"type"}) for k in kinds
        ]
    if command in ("force-decompose", "ledger"):
        rows = [list(row) for row in SERIES]
        for _ in range(draw(st.integers(0, 2))):
            row, col = draw(st.integers(1, len(rows) - 1)), draw(st.integers(0, 3))
            rows[row][col] = draw(st.sampled_from(FLAG_POOL))
        case["series"] = rows
    return case


def holds_refused_kind(case) -> bool:
    """Whether a spec, particle or maneuver field (not a maneuver's type or series path),
    or an entry of one, holds a bool, a string or an object (whose keys are strings): a
    record value that no number field accepts."""
    records = [case.get("spec", {}), *case.get("particles", ()), *case.get("maneuvers", ())]
    values = [v for r in records for k, v in r.items() if k not in ("type", "series_csv")]
    return re.search(r'\btrue\b|"', json.dumps(values)) is not None


def holds_unknown_key(case) -> bool:
    """Whether a spec, particle or maneuver record holds a key that its schema does not name,
    or one key twice."""
    records = [case.get("spec", {}), *case.get("particles", ()), *case.get("maneuvers", ())]
    keys = [key for record in records for key in record]
    return any(key in MISSPELLINGS or key.startswith(DUPLICATE) for key in keys)


def run_case(directory, case):
    """``cli.main`` on the case's files and argv: (exit code, stdout, stderr, warnings)."""
    argv = [case["command"]]
    files = {
        "--spec": ("spec", "spec.json", json.dumps),
        "--series": ("series", "series.csv", lambda rows: "\n".join(map(",".join, rows)) + "\n"),
        "--particles": ("particles", "particles.json", json.dumps),
        "--maneuvers": ("maneuvers", "maneuvers.json", json.dumps),
    }
    series_path = str(directory / "series.csv")
    for flag, (key, name, dump) in files.items():
        if key in case and not (flag == "--series" and case["command"] == "ledger"):
            argv += [flag, str(directory / name)]
        if key in case:
            text = dump(case[key])
            text = text.replace('"SERIES"', json.dumps(series_path)).replace('"NESTED"', NESTED)
            text = text.replace(f'"{DUPLICATE}', '"')
            (directory / name).write_text(text)
    if "unknown" in case:
        argv += ["--unknown", case["unknown"]]
    for flag, value in case["flags"].items():
        argv += [flag, value] if case.get("separate") else [f"{flag}={value}"]
    if case["out"]:
        argv += ["--out", str(directory / "out.txt")]
    argv += ["--format", case["format"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue(), caught


ATOMIC_SCALE_NOTE = "below the atomic scale"


def given_case(command, flags=(), fmt="text", out=False, **inputs):
    """An explicit case in the form that ``cases`` draws."""
    return {"command": command, "flags": dict(flags), "format": fmt, "out": out, **inputs}


def ledger_case(maneuvers, particles=(PARTICLE,), m_total="1.0", **inputs):
    return given_case(
        "ledger", {"--M-total": m_total}, particles=list(particles), maneuvers=maneuvers, **inputs
    )


def spec_case(command, fmt="text", **fields):
    inputs = {"unknown": "chi0"} if command == "solve" else {}
    return given_case(command, fmt=fmt, spec={**SPEC, **fields}, **inputs)


def flag_case(command, fmt="text", separate=False, **flags):
    flags = {f"--{k.replace('_', '-')}": v for k, v in flags.items()}
    return given_case(command, flags, fmt, separate=separate)


def series_rows(b_y_peak: str) -> list[list[str]]:
    rows = [list(row) for row in SERIES]
    rows[2][2] = b_y_peak
    return rows


@pytest.fixture
def fresh_dir(tmp_path):
    counter = itertools.count()

    def make():
        path = tmp_path / str(next(counter))
        path.mkdir()
        return path

    return make


ROTATION, AGGREGATION = MANEUVERS["rotation"], MANEUVERS["aggregation"]


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cases())
# a ledger aggregation whose a_m has no representable a^4 (booked 7.9e161 kg m/s)
@example(case=ledger_case([{**AGGREGATION, "a_m": 1e-200}]))
# a finite axis whose norm overflows (a RuntimeWarning, then refused as not finite)
@example(case=ledger_case([{**ROTATION, "axis": [1e308, 1e308, 0]}], fmt="json", out=True))
# flag values that are not numbers (argparse refused them with its usage message)
@example(case=flag_case("delta-v-rot", chi="abc", a="1e-9", rho="1000"))
@example(case=ledger_case([ROTATION], m_total=""))
# dash-led values given as a separate argument (argparse took them for options)
@example(case=flag_case("delta-v-rot", separate=True, chi="-1e300", a="1e-9", rho="1000"))
@example(case=flag_case("delta-v-rot", separate=True, chi="-4e-07", a="1e-9", rho="1000"))
@example(case={**spec_case("sweep"), "flags": {"--chi": "-1e-3,2e-3"}, "separate": True})
# out-of-range flags that the library refused without naming the flag
@example(case=flag_case("delta-v-rot", chi="1e-3", a="1e-9", rho="-1"))
@example(case=flag_case("delta-v-agg", chi="1e-3", a="1e-9", rho="1000", N="0.5"))
@example(case=flag_case("vacuum-momentum", "json", chi="1e-3", a="1e-9", A="-1"))
@example(case=ledger_case([ROTATION], m_total="0"))
# an infinite margin: mission as text and JSON, and solve
@example(case=spec_case("mission", wheel_radius=1e-300, particle_density=1e-9))
@example(case=spec_case("mission", "json", wheel_radius=1e-300, particle_density=1e-9))
@example(case=spec_case("solve", wheel_radius=1e-300, prefactor_A=1e100))
# a field series whose B_y^2 overflows the booking
@example(case=ledger_case([MANEUVERS["field_modulation"]], series=series_rows("1e300")))
# closed forms with an infinite result
@example(case=flag_case("delta-v-agg", chi="1e-3", a="1e-9", rho="1e-320", N="8"))
@example(case=flag_case("vacuum-momentum", "json", chi="1e-3", a="1e-70", A="1e300"))
# a JSON integer too large for a float, in a spec, a particle and a maneuver
@example(case=spec_case("mission", particle_density=10**400))
@example(case=ledger_case([ROTATION], particles=[{**PARTICLE, "kappa1": 10**400}]))
@example(case=ledger_case([ROTATION], particles=[{**PARTICLE, "chi0": [0, 10**400] + [0] * 7}]))
@example(case=ledger_case([{**ROTATION, "axis": [10**400, 0, 0]}]))
# a rotation by an infinite angle, and an orientation whose R^T R overflows
@example(case=ledger_case([{**ROTATION, "angle_rad": float("inf")}]))
@example(case=ledger_case([AGGREGATION], [{**PARTICLE, "orientation": [1.7e308] + [0] * 8}]))
# misspelled keys, which a particle and a maneuver record dropped without a word
@example(case=ledger_case([ROTATION], particles=[{**PARTICLE, "kapa1": 1e-3}]))
@example(case=ledger_case([{**ROTATION, "angel": 1.0}]))
# a key given twice, whose last value ran with exit 0
@example(case=spec_case("mission", **{DUPLICATE + "target_rate": 400.0}))
@example(case=ledger_case([ROTATION], particles=[{**PARTICLE, DUPLICATE + "kappa1": 1e-3}]))
@example(case=ledger_case([{**ROTATION, DUPLICATE + "type": "rotation"}]))
# arrays nested deeper than the JSON decoder's recursion limit (a RecursionError traceback)
@example(case=spec_case("mission", chi0="NESTED"))
@example(case=ledger_case([ROTATION], particles=[{**PARTICLE, "kappa1": "NESTED"}]))
def test_every_input_ends_cleanly(fresh_dir, case):
    directory = fresh_dir()
    code, out, err, caught = run_case(directory, case)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1)
    if holds_refused_kind(case) or holds_unknown_key(case):
        assert code == 1, case
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    note = case["command"] == "solve" and re.fullmatch(f"warning: .*{ATOMIC_SCALE_NOTE}.*\n", err)
    assert err == "" or note, err
    written = (directory / "out.txt").read_text() if case["out"] else ""
    for text in (out, written):
        assert not NON_FINITE.search(text), text

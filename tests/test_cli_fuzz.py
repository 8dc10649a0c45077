"""Property test over ``cli.main``: every argv and input file ends in a clean result.

Each example runs one command with numeric flags drawn from a fixed pool of
finite, extreme, non-finite and non-numeric values, on spec, particle,
maneuver and series files generated the same way.  Whatever the input:

* ``main`` returns 0 or 1 (argparse refuses a malformed flag value itself,
  with its usage message and exit code 2);
* on 1, stdout is empty and stderr is exactly one ``error:`` line;
* on 0, stderr is empty, and no ``inf`` or ``nan`` appears in stdout or in
  any written file;
* no warning is raised, apart from the solver's documented note that a
  solved size is below the atomic scale.
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

from zpfdrive import cli
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
]
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
    "sweep": ({"--chi": None, "--a": None, "--rho": None, "--fraction": None, "--A": None}, True),
    "ledger": ({"--M-total": "1.0", "--A": None}, True),
}
LIST_FLAGS = {"oracle": {"--a", "--n"}, "sweep": {"--chi", "--a", "--rho", "--fraction", "--A"}}

NON_FINITE = re.compile(r"(?i)\b(inf|infinity|nan)\b")


def perturbed(base: dict, data, keys=None) -> dict:
    """``base`` with up to two fields set to pool values (a vector field may lose one entry)."""
    record = json.loads(json.dumps(base))
    names = sorted(keys or record)
    for _ in range(data.draw(st.integers(0, 2))):
        key = data.draw(st.sampled_from(names))
        value = copy.deepcopy(data.draw(st.sampled_from(RECORD_POOL)))
        if isinstance(record.get(key), list) and data.draw(st.booleans()):
            record[key][data.draw(st.integers(0, len(record[key]) - 1))] = value
        else:
            record[key] = value
    return record


@st.composite
def cases(draw):
    data = draw(st.data())
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags, writes = COMMANDS[command]
    case = {"command": command, "flags": {}, "format": draw(st.sampled_from(["text", "json"]))}
    for flag, default in flags.items():
        pool = N_POOL if flag == "--n" else FLAG_POOL
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
            (directory / name).write_text(text.replace('"SERIES"', json.dumps(series_path)))
    if "unknown" in case:
        argv += ["--unknown", case["unknown"]]
    for flag, value in case["flags"].items():
        argv.append(f"{flag}={value}")
    if case["out"]:
        argv += ["--out", str(directory / "out.txt")]
    argv += ["--format", case["format"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's own usage error
                code = ("usage", exc.code)
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


def flag_case(command, fmt="text", **flags):
    return given_case(command, {f"--{k.replace('_', '-')}": v for k, v in flags.items()}, fmt)


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
def test_every_input_ends_cleanly(fresh_dir, case):
    directory = fresh_dir()
    code, out, err, caught = run_case(directory, case)
    assert [str(w.message) for w in caught if ATOMIC_SCALE_NOTE not in str(w.message)] == []
    if isinstance(code, tuple):
        assert code == ("usage", 2) and out == ""
        return
    assert code in (0, 1)
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert err == ""
    written = (directory / "out.txt").read_text() if case["out"] else ""
    for text in (out, written):
        assert not NON_FINITE.search(text), text

"""Golden cases of the CLI: the bytes every command writes, pinned by SHA-256.

Each case is one in-process ``cli.main`` call, run in a directory that holds
the inputs ``write_inputs`` generates from a fixed seed, so that every path a
case names, and so every output line, is relative.  A call that runs
records the SHA-256 of its stdout, of its stderr and of each file it writes
with ``--out``; a refused call records only its exit code and its last
stderr line, the ``error:`` line (argparse's usage text is left out: its
bytes differ across Python versions).

``tests/test_golden.py`` compares every case with ``digests.json``.  A change
that moves output bytes on purpose regenerates the file with

    python tests/golden/cases.py --update

and lists each case whose entry changed.  Without ``--update`` the script
prints the cases that differ from the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from zpfdrive import cli, material

DIGESTS = Path(__file__).with_name("digests.json")
SEED = 20091031

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
# spec files written as this text, each for one refusal of the spec reader
BAD_SPECS = {
    "spec_not_json.json": '{"target_rate": ,}',
    "spec_list.json": "[1, 2]",
    "spec_duplicate.json": json.dumps(SPEC)[:-1] + ', "chi0": 2e-3}',
    "spec_unknown.json": json.dumps({**SPEC, "thrusters": 4}),
    "spec_string.json": json.dumps({**SPEC, "target_rate": "4.95"}),
    "spec_chi.json": json.dumps({**SPEC, "chi0": 5.0}),
    "spec_zero_ma.json": json.dumps({**SPEC, "particle_density": 1e-300}),
    "spec_nested.json": "[" * 5000 + "]" * 5000,
    "spec_infeasible.json": json.dumps({**SPEC, "chi0": None, "target_rate": 4.95e6}),
}

DESIGN = ["--chi", "1e-3", "--a", "1e-9", "--rho", "1000"]
SCALARS = {
    "delta-v-rot": [*DESIGN, "--A", "1e-2"],
    "delta-v-agg": [*DESIGN, "--N", "8"],
    "vacuum-momentum": ["--chi=-2.5e-4", "--a", "3e-9", "--A", "2e-2"],
    "mission": ["--spec", "spec.json"],
    "solve": ["--spec", "spec.json", "--unknown", "chi0"],
}
LEDGER = ["--particles", "fleet.json", "--maneuvers", "maneuvers.json", "--M-total", "12.5"]
SWEEP_AXES = ["--chi", "1e-4,5e-4,1e-3,2e-3,7e-3", "--a", "1e-9,1.5e-9,2e-9,3e-9", "--rho",
              ",".join(repr(r) for r in np.linspace(500.0, 5000.0, 50).tolist())]
ORACLE = ["oracle", "--chi", "1e-3", "--a", "1e-9,2.5e-9", "--n", "16,32"]
FORCE = ["force-decompose", "--series", "series_chi.csv", "--epsilon", "2.5"]
CAPPED = ["sweep", "--spec", "spec.json"] + [
    arg for flag in ("--chi", "--a", "--rho", "--fraction")
    for arg in (flag, ",".join(["1e-3"] * (100 if flag != "--fraction" else 11)))
]

CASES: dict[str, list[str]] = {}
for _fmt in ("text", "json", "csv"):  # every command with every --format it takes
    for _command, _flags in SCALARS.items():
        CASES[f"{_command}-{_fmt}"] = [_command, *_flags, "--format", _fmt]
    CASES[f"oracle-{_fmt}"] = [*ORACLE, "--format", _fmt]
    CASES[f"force-decompose-{_fmt}"] = [*FORCE, "--format", _fmt]
    CASES[f"sweep-{_fmt}"] = ["sweep", "--spec", "spec.json", *SWEEP_AXES, "--format", _fmt]
    CASES[f"ledger-{_fmt}"] = ["ledger", *LEDGER, "--format", _fmt]
CASES.update({
    "solve-particle_size": ["solve", "--spec", "spec.json", "--unknown", "particle_size"],
    "solve-fraction-json": ["solve", "--spec", "spec.json", "--unknown", "active_mass_fraction",
                            "--format", "json"],
    # a solved size below the atomic scale: one warning line on stderr, exit 0
    "solve-subatomic-size": ["solve", "--spec", "spec_subatomic.json", "--unknown",
                             "particle_size"],
    "delta-v-rot-negative-chi": ["delta-v-rot", "--chi", "-4e-07", "--a", "2e-9", "--rho", "800"],
    "oracle-wavelength-out": [*ORACLE, "--cutoff", "wavelength-equals-size", "--out", "o.csv"],
    "oracle-wavelength-json-out": [*ORACLE, "--cutoff", "wavelength-equals-size",
                                   "--format", "json", "--out", "o.json"],
    "force-decompose-out": [*FORCE, "--chi", "-1e-3", "--out", "forces.csv"],
    "force-decompose-json-out": [*FORCE, "--format", "json", "--out", "forces.json"],
    "force-decompose-plain-series": ["force-decompose", "--series", "series.csv", "--chi", "2e-3"],
    "sweep-fixed-mass-out": ["sweep", "--spec", "spec.json", *SWEEP_AXES, "--mode",
                             "fixed-particle-mass", "--out", "sweep.csv"],
    "sweep-fixed-mass-json-out": ["sweep", "--spec", "spec.json", *SWEEP_AXES, "--mode",
                                  "fixed-particle-mass", "--jobs", "2", "--format", "json",
                                  "--out", "sweep.json"],
    "ledger-out": ["ledger", *LEDGER, "--out", "ledger.jsonl"],
    "ledger-json-out": ["ledger", *LEDGER, "--A", "3e-2", "--format", "json", "--out", "l.json"],
    "ledger-empty-fleet": ["ledger", "--particles", "empty.json", "--maneuvers", "zero.json",
                           "--M-total", "1"],
    # one refused input per error family
    "refused-usage-unknown-flag": ["delta-v-rot", *DESIGN, "--warp-factor", "9"],
    "refused-usage-missing-flag": ["mission", "--format", "json"],
    "refused-usage-choice": [*ORACLE, "--cutoff", "xml"],
    "refused-usage-unknown-command": ["warp-drive", *DESIGN],
    "refused-usage-dash-dash-choice": ["sweep", "--spec", "spec.json", "--mode=--"],
    "refused-flag-not-a-number": ["delta-v-rot", "--chi", "abc", "--a", "1e-9", "--rho", "1000"],
    "refused-flag-dash-dash": ["delta-v-rot", "--chi=--", "--a", "1e-9", "--rho", "1000"],
    "refused-flag-not-finite": ["delta-v-rot", "--chi", "inf", "--a", "1e-9", "--rho", "1000"],
    "refused-flag-out-of-range": ["delta-v-rot", *DESIGN[:4], "--rho", "-1"],
    "refused-flag-not-an-integer": ["sweep", "--spec", "spec.json", "--jobs", "2.5"],
    "refused-flag-empty-list": ["oracle", "--chi", "1e-3", "--n", ",,"],
    "refused-flag-n-out-of-range": ["oracle", "--chi", "1e-3", "--n", "4"],
    "refused-value-not-finite": ["delta-v-agg", "--chi", "1e-3", "--a", "1e-70", "--rho",
                                 "1e-300", "--N", "8"],
    "refused-value-zero-ma": ["delta-v-rot", "--chi", "1e-3", "--a", "1e-9", "--rho", "1e-300"],
    "refused-file-missing": ["mission", "--spec", "missing.json"],
    **{
        f"refused-{name[:-5].replace('_', '-')}": ["mission", "--spec", name]
        for name in BAD_SPECS if name != "spec_infeasible.json"
    },
    "refused-spec-infeasible": ["solve", "--spec", "spec_infeasible.json", "--unknown", "chi0"],
    "refused-sweep-axis": ["sweep", "--spec", "spec.json", "--chi", "5,0.5"],
    "refused-sweep-row": ["sweep", "--spec", "spec.json", "--chi", "1", "--rho", "1e-300",
                          "--A", "1e300"],
    "refused-sweep-cap": CAPPED,
    "refused-series-column": ["force-decompose", "--series", "series_no_b.csv"],
    "refused-series-number": ["force-decompose", "--series", "series_oops.csv"],
    "refused-series-non-finite": ["force-decompose", "--series", "series_huge.csv"],
    "refused-particles-not-a-list": ["ledger", "--particles", "spec.json", "--maneuvers",
                                     "maneuvers.json", "--M-total", "1"],
    "refused-particle-unknown-field": ["ledger", "--particles", "misspelled.json", "--maneuvers",
                                       "maneuvers.json", "--M-total", "1"],
    "refused-maneuver-type": ["ledger", *LEDGER[:2], "--maneuvers", "warp.json", *LEDGER[4:]],
    "refused-maneuver-series": ["ledger", *LEDGER[:2], "--maneuvers", "unread.json", *LEDGER[4:]],
    "refused-maneuver-booking": ["ledger", *LEDGER[:2], "--maneuvers", "overflow.json",
                                 *LEDGER[4:]],
})


def _series_text(columns: dict) -> str:
    rows = zip(*(np.asarray(col).tolist() for col in columns.values()))
    return ",".join(columns) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def write_inputs(root: Path) -> None:
    """Write every input file of the cases into ``root``, from ``SEED``."""
    rng = np.random.default_rng(SEED)
    files = {"spec.json": json.dumps(SPEC), **BAD_SPECS}
    files["spec_subatomic.json"] = json.dumps(
        {**SPEC, "target_rate": 4.95e6, "chi0": 1e-4, "particle_size": None}
    )
    t = np.linspace(0.0, 2.0, 200)
    plain = {"t_s": t, "E_x": rng.normal(size=t.size), "B_y": rng.normal(size=t.size)}
    files["series.csv"] = _series_text(plain)
    files["series_chi.csv"] = _series_text({
        **plain,
        "chi0_xy": 1e-3 * np.sin(3.0 * t) + 2e-4,
        "kappa1": rng.normal(scale=1e-5, size=t.size),
        "kappa2": rng.normal(scale=1e-5, size=t.size),
        "kappa3": rng.normal(scale=1e-5, size=t.size),
    })
    files["series_no_b.csv"] = "t_s,E_x\n0,1\n1,2\n"
    files["series_oops.csv"] = "t_s,E_x,B_y\n0,0,1\n1,oops,2\n"
    files["series_huge.csv"] = "t_s,E_x,B_y\n0,0,1\n1e-300,1e300,2\n2e-300,0,1\n"

    def unit() -> list[float]:
        v = rng.normal(size=3)
        return (v / np.linalg.norm(v)).tolist()

    fleet = []
    for _ in range(20):  # a rotated fleet: random sizes, densities, tensors and orientations
        tensor = material.MagnetoElectricTensor.from_xy(
            float(rng.uniform(-1e-3, 1e-3)), kappa1=float(rng.uniform(0.0, 1e-5))
        )
        orientation = material.rotation_about(unit(), float(rng.uniform(0.0, np.pi)))
        particle = material.Particle(
            float(rng.uniform(0.5e-9, 3e-9)), float(rng.uniform(500.0, 5000.0)), tensor,
            orientation, float(rng.uniform(1.0, 3.0)),
        )
        fleet.append(material.particle_to_dict(particle))
    files["fleet.json"] = json.dumps(fleet)
    files["misspelled.json"] = json.dumps([{**fleet[0], "orientaton": fleet[0]["orientation"]}])
    files["empty.json"] = "[]"
    maneuvers = []
    for i in range(12):  # every maneuver type, in a seeded order
        kind = ("rotation", "aggregation", "field_modulation", "cavity_modulation")[i % 4]
        if kind == "rotation":
            maneuvers.append({"type": kind, "axis": unit(), "angle_rad": float(rng.uniform(-4, 4))})
        elif kind == "aggregation":
            maneuvers.append({"type": kind, "N": float(rng.integers(2, 1000)),
                              "a_m": float(rng.uniform(0.5e-9, 3e-9)), "direction": unit()})
        elif kind == "field_modulation":
            series = ("series.csv", "series_chi.csv")[i % 8 // 4]
            maneuvers.append({"type": kind, "series_csv": series})
        else:
            maneuvers.append({"type": kind, "dB2_dt": float(rng.normal()),
                              "duration_s": float(rng.uniform(0.1, 10.0))})
    files["maneuvers.json"] = json.dumps(maneuvers)
    files["zero.json"] = json.dumps([
        {"type": "rotation", "axis": [0.0, 0.0, 1.0], "angle_rad": 1.0},
        {"type": "cavity_modulation", "dB2_dt": 1.0, "duration_s": 1.0},
    ])
    files["warp.json"] = json.dumps([maneuvers[0], {"type": "warp"}])
    files["unread.json"] = json.dumps([{"type": "field_modulation", "series_csv": "none.csv"}])
    files["overflow.json"] = json.dumps([{"type": "field_modulation",
                                          "series_csv": "series_huge.csv"}])
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str]) -> dict:
    """Run ``argv`` in the current directory: what the case records of it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    if code:
        return {"code": code, "error": stderr.getvalue().splitlines()[-1]}
    files = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--out"]
    return {
        "code": code,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        **{f"file {name}": _sha(Path(name).read_bytes()) for name in files},
    }


def run_all() -> dict:
    """Every case's record, each run in a fresh directory of generated inputs."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root)
        os.chdir(root)
        try:
            return {name: run_case(argv) for name, argv in CASES.items()}
        finally:
            os.chdir(here)


if __name__ == "__main__":
    records = run_all()
    if sys.argv[1:] == ["--update"]:
        DIGESTS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(records)} cases to {DIGESTS}")
    else:
        pinned = json.loads(DIGESTS.read_text())
        changed = sorted(k for k in records.keys() | pinned.keys()
                         if records.get(k) != pinned.get(k))
        print("\n".join(changed) or "every case equals its digest")
        sys.exit(1 if changed else 0)

"""Seeded workload inputs and the independent checks of their outputs.

A workload is a fixed list of ``zpfdrive`` CLI invocations.  Every input
file it names is generated here from one ``numpy`` generator seeded by the
benchmark's ``--seed``; the program sees only those files and the argv.
Each invocation carries a check that recomputes the expected numbers with
numpy from the generated inputs.  The checks parse values, not bytes, so a
change of number formatting or of JSON typing does not fail them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# CODATA 2018 reduced Planck constant, kept here so the checks do not read
# the constant from the code under test.
HBAR = 1.054571817e-34
RAD_PER_DEG = math.pi / 180.0
SECONDS_PER_DAY = 86400.0

SOLVE_BRACKETS = {
    "chi0": (1e-8, 1.0),
    "active_mass_fraction": (1e-8, 1.0),
    "particle_size": (1e-11, 1e-6),
}
SWEEP_AXES = ("chi0", "particle_size", "particle_density", "active_mass_fraction", "prefactor_A")
SWEEP_FLAGS = {
    "chi0": "--chi",
    "particle_size": "--a",
    "particle_density": "--rho",
    "active_mass_fraction": "--fraction",
    "prefactor_A": "--A",
}
# |effective_A / continuum - 1| <= ORACLE_GAP_C / n for n >= 16
ORACLE_GAP_C = 0.25
TEXT_RTOL = 1e-5  # text output carries 6 significant digits
FULL_RTOL = 1e-12
SOLVE_RTOL = 1e-8  # bisection stops at a 1e-10 relative residual

WORKLOADS = ("design-loop", "sweep-grid", "ledger-fleet", "oracle-decompose")

# Sizes per workload.  ``specs`` mission specs each give 8 single-value
# invocations.  ``SMALL`` sizes the interactive-size sweep, ledger, oracle
# and force-decompose calls that every workload makes ``small_reps`` times
# per pass.  The remaining entries size the bulk invocations.  Every pass
# lasts several seconds, so that a pass averages over the bursts in which a
# shared host runs slower or faster.
SIZES: dict[str, dict] = {
    "design-loop": {"specs": 120, "small_reps": 12},
    "sweep-grid": {
        "specs": 9,
        "small_reps": 6,
        "sweep_jobs1": (100, 10, 10, 10),
        "sweep_jobs2": (25, 10, 10, 10),
        "sweep_json": (25, 10, 10, 10),
    },
    "ledger-fleet": {"specs": 9, "small_reps": 6, "fleet_particles": 1000, "fleet_maneuvers": 30},
    "oracle-decompose": {
        "specs": 9,
        "small_reps": 6,
        "oracle_n": (32, 64, 128, 256),
        "oracle_sizes": 2,
        "series_samples": 40_000,
    },
}
SMALL = {
    "small_sweep": (10, 10, 10, 1),
    # the jobs=2 pool's timing swings widely, so its small call is kept short
    "small_sweep_jobs2": (5, 5, 10, 1),
    "small_ledger": (8, 10),
    "small_oracle_n": (16, 32),
    "small_series": 1000,
    "ledger_series": 200,
}


class CheckError(AssertionError):
    """An output disagrees with the benchmark's independent recomputation."""


@dataclass
class Invocation:
    """One ``cli.main`` call and what the benchmark knows about it."""

    label: str  # command plus variant, e.g. "sweep-jobs2"
    argv: list[str]
    check: Callable[[str, Callable], None]  # (stdout, span) -> raises CheckError
    outputs: list[str] = field(default_factory=list)
    kind: str | None = None  # "sweep" | "ledger" | "oracle" | "series"; None: single value
    work: int = 0  # rows, bookings, lattice points or samples of that kind
    bulk: bool = False


# -- helpers -----------------------------------------------------------------


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _close(what: str, got, want, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape} != expected {want.shape}")
    if not np.all(np.isfinite(got)):
        raise CheckError(f"{what}: non-finite values")
    bad = np.abs(got - want) > rtol * np.abs(want) + atol
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        raise CheckError(f"{what}: {got.ravel()[i]!r} != expected {want.ravel()[i]!r}")


def _equal(what: str, got, want) -> None:
    if not np.array_equal(np.asarray(got), np.asarray(want)):
        raise CheckError(f"{what}: values or order differ from the inputs")


def _as_bool(v) -> bool:
    if isinstance(v, str):
        return v.strip().lower() == "true"
    return bool(v)


def _text_value(stdout: str, name: str) -> float:
    for line in stdout.splitlines():
        key, sep, rest = line.partition(" = ")
        if sep and key.strip() == name:
            return float(rest.split()[0])
    raise CheckError(f"no '{name} = ' line in output")


def _json_value(stdout: str, key: str = "value") -> float:
    return float(json.loads(stdout)[key])


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def lattice_points(n: int) -> int:
    """Integer points m with 0 < |m| <= n: the modes one oracle row sums."""
    sq = np.arange(-n, n + 1) ** 2
    pairs = np.sort((sq[:, None] + sq[None, :]).ravel())
    return int(np.searchsorted(pairs, n * n - sq, side="right").sum()) - 1


# -- mission specs -------------------------------------------------------------


def required_v(spec: dict) -> float:
    return spec["target_rate"] * RAD_PER_DEG / SECONDS_PER_DAY * spec["wheel_radius"]


def rotation_dv(chi, a, rho, pref):
    return 2.0 * pref * HBAR * chi / (rho * a**4)


def achieved_v(spec: dict) -> float:
    return spec["active_mass_fraction"] * rotation_dv(
        spec["chi0"], spec["particle_size"], spec["particle_density"], spec["prefactor_A"]
    )


def analytic_unknown(spec: dict, unknown: str) -> float:
    per_unit = required_v(spec) * spec["particle_density"] / (2.0 * spec["prefactor_A"] * HBAR)
    if unknown == "chi0":
        return per_unit * spec["particle_size"] ** 4 / spec["active_mass_fraction"]
    if unknown == "active_mass_fraction":
        return per_unit * spec["particle_size"] ** 4 / spec["chi0"]
    return (spec["chi0"] * spec["active_mass_fraction"] / per_unit) ** 0.25


def make_spec(rng: np.random.Generator) -> dict:
    """A design point whose three unknowns solve well inside their brackets."""
    while True:
        u = rng.random(8)
        spec = {
            "target_rate": 1.0 + 9.0 * u[0],
            "wheel_radius": 0.5 + 1.5 * u[1],
            "satellite_mass": 50.0 + 450.0 * u[2],
            "active_mass_fraction": 0.2 + 0.7 * u[3],
            "particle_size": 0.7e-9 * (1.5 / 0.7) ** u[4],
            "particle_density": 800.0 + 2200.0 * u[5],
            "chi0": 3e-4 * 10.0 ** u[6],
            "prefactor_A": 5e-3 * 4.0 ** u[7],
        }
        spec = {k: float(v) for k, v in spec.items()}
        margin = achieved_v(spec) / required_v(spec)
        solved = {k: analytic_unknown(spec, k) for k in SOLVE_BRACKETS}
        if (
            abs(margin - 1.0) > 1e-3
            and all(lo * 100 < solved[k] < hi * 0.9 for k, (lo, hi) in SOLVE_BRACKETS.items())
            and solved["particle_size"] > 2e-10
        ):
            return spec


def _write_spec(work: Path, name: str, spec: dict) -> str:
    (work / name).write_text(json.dumps(spec))
    return name


# -- single-value commands -------------------------------------------------------


def _mission_calls(spec: dict, path: str) -> list[Invocation]:
    req, ach = required_v(spec), achieved_v(spec)

    def check_text(out, span):
        _close("required_tangential_v", _text_value(out, "required_tangential_v"), req, TEXT_RTOL)
        _close("achieved_tangential_v", _text_value(out, "achieved_tangential_v"), ach, TEXT_RTOL)
        _close("margin", _text_value(out, "margin"), ach / req, TEXT_RTOL)
        if ("feasible: true" in out) != (ach >= req):
            raise CheckError("feasible flag disagrees with achieved >= required")

    def check_json(out, span):
        d = json.loads(out)
        _close("required_tangential_v", d["required_tangential_v_m_s"], req, FULL_RTOL)
        _close("achieved_tangential_v", d["achieved_tangential_v_m_s"], ach, FULL_RTOL)
        _close("margin", d["margin"], ach / req, FULL_RTOL)
        if _as_bool(d["feasible"]) != (ach >= req):
            raise CheckError("feasible flag disagrees with achieved >= required")

    return [
        Invocation("mission", ["mission", "--spec", path], check_text),
        Invocation("mission-json", ["mission", "--spec", path, "--format", "json"], check_json),
    ]


def _solve_call(spec: dict, path: str, unknown: str, fmt: str) -> Invocation:
    def check(out, span):
        from zpfdrive import mission

        given = {k: v for k, v in spec.items() if k != unknown}
        with span("mission.analytic_solve_for_unknown"):
            ref = mission.analytic_solve_for_unknown(
                mission.MissionSpec.from_dict(given), unknown
            )
        own = analytic_unknown(spec, unknown)
        if fmt == "json":
            got, rtol = _json_value(out), SOLVE_RTOL
        else:
            got, rtol = _text_value(out, unknown), TEXT_RTOL
            _close("margin at solution", _text_value(out, "margin at solution"), 1.0, TEXT_RTOL)
        _close(f"solve {unknown} vs analytic_solve_for_unknown", got, ref, rtol)
        _close(f"solve {unknown} vs closed form", got, own, rtol)

    # the unknown is solved for, so its value in the spec file is ignored
    return Invocation(
        f"solve-{fmt}", ["solve", "--spec", path, "--unknown", unknown, "--format", fmt], check
    )


def _scalar_call(label: str, argv: list[str], name: str, want: float, fmt: str) -> Invocation:
    def check(out, span):
        if fmt == "json":
            _close(name, _json_value(out), want, FULL_RTOL)
        else:
            _close(name, _text_value(out, name), want, TEXT_RTOL)

    return Invocation(label, argv + ["--format", fmt], check)


def single_value_calls(rng: np.random.Generator, work: Path, count: int) -> list[Invocation]:
    """``count`` specs x 8 interactive invocations, alternating text and JSON."""
    calls = []
    for i in range(count):
        spec = make_spec(rng)
        path = _write_spec(work, f"spec_{i}.json", spec)
        fmt = "json" if i % 2 else "text"
        n_units = float(rng.integers(2, 1000))
        chi, a, rho, pref = (
            spec["chi0"],
            spec["particle_size"],
            spec["particle_density"],
            spec["prefactor_A"],
        )
        common = ["--chi", repr(chi), "--a", repr(a)]
        calls += _mission_calls(spec, path)
        calls += [_solve_call(spec, path, u, fmt) for u in SOLVE_BRACKETS]
        calls.append(
            _scalar_call(
                "delta-v-rot",
                ["delta-v-rot", *common, "--rho", repr(rho), "--A", repr(pref)],
                "delta_v_rotation",
                rotation_dv(chi, a, rho, pref),
                fmt,
            )
        )
        big_l = n_units ** (1.0 / 3.0) * a
        calls.append(
            _scalar_call(
                "delta-v-agg",
                ["delta-v-agg", *common, "--rho", repr(rho), "--N", repr(n_units)]
                + ["--A", repr(pref)],
                "delta_v_aggregation",
                pref * HBAR / rho * chi * (1.0 / a**4 - 1.0 / big_l**4),
                "text" if fmt == "json" else "json",
            )
        )
        calls.append(
            _scalar_call(
                "vacuum-momentum",
                ["vacuum-momentum", *common, "--A", repr(pref)],
                "vacuum_momentum",
                pref * HBAR * chi / a,
                fmt,
            )
        )
    return calls


# -- sweep -------------------------------------------------------------------------


def _sweep_axes(rng: np.random.Generator, shape) -> dict[str, np.ndarray]:
    """Unsorted seeded values, so the check also pins the row order."""
    n_chi, n_a, n_rho, n_frac = shape
    return {
        "chi0": 1e-4 * 100.0 ** rng.random(n_chi),
        "particle_size": 0.5e-9 * 6.0 ** rng.random(n_a),
        "particle_density": 500.0 + 4500.0 * rng.random(n_rho),
        "active_mass_fraction": 0.05 + 0.95 * rng.random(n_frac),
    }


def sweep_expected(spec: dict, axes: dict) -> dict[str, np.ndarray]:
    lists = [np.asarray(axes.get(k, [spec[k]]), dtype=float) for k in SWEEP_AXES]
    chi, a, rho, frac, pref = (g.ravel() for g in np.meshgrid(*lists, indexing="ij"))
    dv = rotation_dv(chi, a, rho, pref)
    dv_payload = frac * dv
    return {
        "chi0": chi,
        "a_m": a,
        "rho_kg_m3": rho,
        "fraction": frac,
        "A": pref,
        "dv_m_s": dv,
        "dV_m_s": dv_payload,
        "rate_deg_day": dv_payload / spec["wheel_radius"] * SECONDS_PER_DAY / RAD_PER_DEG,
        "feasible": dv_payload >= required_v(spec),
        "ratio": dv_payload / required_v(spec),
    }


def _check_sweep_columns(cols: dict, want: dict) -> None:
    for k in ("chi0", "a_m", "rho_kg_m3", "fraction", "A"):
        _equal(f"sweep column {k}", cols[k], want[k])
    for k in ("dv_m_s", "dV_m_s", "rate_deg_day"):
        _close(f"sweep column {k}", cols[k], want[k], FULL_RTOL)
    clear = np.abs(want["ratio"] - 1.0) > 1e-12
    _equal("sweep column feasible", cols["feasible"][clear], want["feasible"][clear])


_SWEEP_COLUMNS = ("chi0", "a_m", "rho_kg_m3", "fraction", "A", "dv_m_s", "dV_m_s", "rate_deg_day")


def _check_sweep_csv(path: str, want: dict) -> None:
    with open(path) as fh:
        header = [h.strip() for h in fh.readline().split(",")]
        if header[:8] != list(_SWEEP_COLUMNS) or header[8] != "feasible":
            raise CheckError(f"sweep CSV header {header}")
        data = np.loadtxt(
            fh,
            delimiter=",",
            ndmin=2,
            converters={8: lambda s: 1.0 if _as_bool(s) else 0.0},
        )
    cols = {k: data[:, i] for i, k in enumerate(_SWEEP_COLUMNS)}
    cols["feasible"] = data[:, 8] == 1.0
    _check_sweep_columns(cols, want)


def _check_sweep_json(text: str, want: dict) -> None:
    rows = json.loads(text)
    cols = {k: np.array([float(r[k]) for r in rows]) for k in _SWEEP_COLUMNS}
    cols["feasible"] = np.array([_as_bool(r["feasible"]) for r in rows])
    _check_sweep_columns(cols, want)


def sweep_call(
    rng: np.random.Generator, work: Path, tag: str, shape, jobs: int, fmt: str, bulk: bool
) -> Invocation:
    spec = make_spec(rng)
    spec_path = _write_spec(work, f"spec_sweep_{tag}.json", spec)
    axes = _sweep_axes(rng, shape)
    out = f"sweep_{tag}.{'json' if fmt == 'json' else 'csv'}"
    argv = ["sweep", "--spec", spec_path]
    for name, values in axes.items():
        argv += [SWEEP_FLAGS[name], _fmt(values)]
    argv += ["--jobs", str(jobs), "--format", fmt, "--out", out]
    rows = math.prod(shape)

    def check(stdout, span):
        want = sweep_expected(spec, axes)
        if fmt == "json":
            _check_sweep_json(_read(out), want)
        else:
            _check_sweep_csv(out, want)

    label = "sweep-json" if fmt == "json" else f"sweep-jobs{jobs}"
    return Invocation(label, argv, check, [out], "sweep", rows, bulk)


# -- field series and force decomposition -------------------------------------------


def make_series(rng: np.random.Generator, n: int, chi_columns: bool) -> dict[str, np.ndarray]:
    dt = 1e-3
    t = np.arange(n, dtype=float) * dt
    cols = {"t_s": t}
    for name in ("E_x", "B_y"):
        f = rng.uniform(0.2, 5.0, 3)
        amp = rng.uniform(0.2, 1.0, 3)
        phase = rng.uniform(0.0, 2.0 * np.pi, 3)
        wave = (amp[:, None] * np.sin(2.0 * np.pi * f[:, None] * t + phase[:, None])).sum(0)
        cols[name] = wave + 0.01 * rng.normal(size=n)
    if chi_columns:
        base, depth, f = rng.uniform(2e-4, 2e-3), rng.uniform(0.05, 0.3), rng.uniform(0.1, 2.0)
        cols["chi0_xy"] = base * (1.0 + depth * np.sin(2.0 * np.pi * f * t))
        for k in ("kappa1", "kappa2", "kappa3"):
            cols[k] = np.full(n, rng.uniform(-1e-4, 1e-4))
    return cols


def write_series(work: Path, name: str, cols: dict[str, np.ndarray]) -> str:
    names = list(cols)
    n = len(cols["t_s"])
    # written in blocks, so that generation stays below the program's memory peak
    with open(work / name, "w") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, n, 4096):
            block = zip(*(cols[k][lo : lo + 4096].tolist() for k in names))
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in block))
    return name


def expected_forces(cols: dict, epsilon: float) -> dict[str, np.ndarray]:
    """The three force terms of a series with chi columns, via ``np.gradient``."""
    e, b = cols["E_x"], cols["B_y"]
    chi = cols["chi0_xy"] + cols["kappa1"] * e * b + cols["kappa2"] * e + cols["kappa3"] * b
    dt = float(cols["t_s"][1] - cols["t_s"][0])
    return {
        "f_dielectric": b * np.gradient(epsilon * e, dt, edge_order=1),
        "f_magnetoelectric": chi * 0.5 * np.gradient(b * b, dt, edge_order=1),
        "f_chi_rate": b * b * np.gradient(chi, dt, edge_order=1),
    }


_FORCE_COLUMNS = ("t_s", "f_dielectric", "f_magnetoelectric", "f_chi_rate", "f_total")


def force_call(
    rng: np.random.Generator, work: Path, tag: str, n: int, fmt: str, bulk: bool
) -> Invocation:
    cols = make_series(rng, n, chi_columns=True)
    series = write_series(work, f"series_{tag}.csv", cols)
    epsilon = float(rng.uniform(1.0, 4.0))
    out = f"forces_{tag}.{'json' if fmt == 'json' else 'csv'}"
    argv = ["force-decompose", "--series", series, "--epsilon", repr(epsilon)]
    argv += ["--format", fmt, "--out", out]

    def check(stdout, span):
        if fmt == "json":
            d = json.loads(_read(out))
            got = {k: np.asarray(d[k], dtype=float) for k in _FORCE_COLUMNS}
        else:
            with open(out) as fh:
                header = [h.strip() for h in fh.readline().split(",")]
                if header != list(_FORCE_COLUMNS):
                    raise CheckError(f"force CSV header {header}")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            got = {k: data[:, i] for i, k in enumerate(_FORCE_COLUMNS)}
        _equal("force t_s", got["t_s"], cols["t_s"])
        want = expected_forces(cols, epsilon)
        for k, w in want.items():
            _close(f"force {k} vs np.gradient", got[k], w, 0.0, 1e-9 * np.max(np.abs(w)))
        terms = got["f_dielectric"] + got["f_magnetoelectric"] + got["f_chi_rate"]
        scale = np.max(np.abs(got["f_dielectric"]) + np.abs(got["f_magnetoelectric"]))
        _close("f_total vs sum of terms", got["f_total"], terms, 0.0, 1e-12 * scale)

    return Invocation(f"force-decompose-{fmt}", argv, check, [out], "series", n, bulk)


# -- oracle ----------------------------------------------------------------------------


def oracle_call(
    rng: np.random.Generator, n_values, n_sizes: int, fmt: str, out: str | None, bulk: bool
) -> Invocation:
    chi = float(1e-4 * 100.0 ** rng.random())
    sizes = np.sort(0.5e-9 * 6.0 ** rng.random(n_sizes))
    argv = ["oracle", "--chi", repr(chi), "--a", _fmt(sizes), "--n", ",".join(map(str, n_values))]
    argv += ["--format", fmt] + (["--out", out] if out else [])
    continuum = math.pi**2 / 24.0  # (k_cut a)^4/(24 pi^2), half-wavelength k_cut = pi/a
    points = sum(lattice_points(n) for n in n_values) * n_sizes

    def check(stdout, span):
        text = _read(out) if out else stdout
        if fmt == "json":
            rows = json.loads(text)
        else:
            lines = [ln for ln in text.splitlines() if ln.strip()]
            header = [h.strip() for h in lines[0].split(",")]
            rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        order = [(n, a) for n in n_values for a in sizes]
        if len(rows) != len(order):
            raise CheckError(f"oracle: {len(rows)} rows, expected {len(order)}")
        for row, (n, a) in zip(rows, order):
            if int(row["n_per_axis"]) != n or float(row["a_m"]) != a:
                raise CheckError(f"oracle: row {row} out of order")
            eff, p = float(row["effective_A"]), float(row["p_kg_m_s"])
            if not abs(eff / continuum - 1.0) <= ORACLE_GAP_C / n:
                raise CheckError(f"oracle n={n}: effective_A {eff!r} too far from {continuum!r}")
            _close(f"oracle n={n} p vs chi*hbar*A_eff/a", p, chi * HBAR * eff / a, FULL_RTOL)
        by_n = {}
        for row in rows:
            by_n.setdefault(int(row["n_per_axis"]), []).append(
                float(row["p_kg_m_s"]) * float(row["a_m"]) / chi
            )
        for n, pa in by_n.items():
            _close(f"oracle n={n} p*a/chi across sizes", pa, [pa[0]] * len(pa), FULL_RTOL)

    return Invocation(
        f"oracle-{fmt}", argv, check, [out] if out else [], "oracle", points, bulk
    )


# -- maneuver ledger ----------------------------------------------------------------------


def make_particles(rng: np.random.Generator, count: int) -> list[dict]:
    particles = []
    for _ in range(count):
        chi0 = rng.uniform(-1e-3, 1e-3, 9)
        k = rng.uniform(-1e-4, 1e-4, 3)
        particles.append(
            {
                "chi0": chi0.tolist(),
                "kappa1": float(k[0]),
                "kappa2": float(k[1]),
                "kappa3": float(k[2]),
                "size_a_m": float(rng.uniform(1e-9, 3e-9)),
                "density_kg_m3": float(rng.uniform(500.0, 5000.0)),
                "epsilon": float(rng.uniform(1.0, 4.0)),
                "orientation": random_rotation(rng).ravel().tolist(),
            }
        )
    return particles


def _unit(rng: np.random.Generator) -> list[float]:
    v = rng.normal(size=3)
    return (v / np.linalg.norm(v)).tolist()


def make_maneuvers(rng: np.random.Generator, count: int, series: str) -> list[dict]:
    """Rotations 40%, and aggregation, cavity and field modulation 20% each."""
    n_rot = round(0.4 * count)
    n_other = (count - n_rot) // 3
    kinds = ["rotation"] * n_rot + ["aggregation"] * n_other + ["field_modulation"] * n_other
    kinds += ["cavity_modulation"] * (count - len(kinds))
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        if kind == "rotation":
            angle = float(rng.uniform(-np.pi, np.pi))
            out.append({"type": kind, "axis": _unit(rng), "angle_rad": angle})
        elif kind == "aggregation":
            out.append(
                {
                    "type": kind,
                    "N": float(rng.integers(2, 100)),
                    "a_m": float(rng.uniform(1e-9, 3e-9)),
                    "direction": _unit(rng),
                }
            )
        elif kind == "cavity_modulation":
            out.append(
                {
                    "type": kind,
                    "dB2_dt": float(rng.uniform(-1.0, 1.0)),
                    "duration_s": float(rng.uniform(0.1, 2.0)),
                }
            )
        else:
            out.append({"type": kind, "series_csv": series})
    return out


def ledger_call(
    rng: np.random.Generator, work: Path, tag: str, n_particles: int, n_maneuvers: int,
    fmt: str, bulk: bool,
) -> Invocation:
    series = write_series(
        work, f"ledger_series_{tag}.csv", make_series(rng, SMALL["ledger_series"], False)
    )
    particles = make_particles(rng, n_particles)
    maneuvers = make_maneuvers(rng, n_maneuvers, series)
    (work / f"particles_{tag}.json").write_text(json.dumps(particles))
    (work / f"maneuvers_{tag}.json").write_text(json.dumps(maneuvers))
    m_total = float(rng.uniform(1e-3, 1e2))
    out = f"ledger_{tag}.{'json' if fmt == 'json' else 'jsonl'}"
    argv = [
        "ledger",
        "--particles", f"particles_{tag}.json",
        "--maneuvers", f"maneuvers_{tag}.json",
        "--M-total", repr(m_total),
        "--format", fmt,
        "--out", out,
    ]

    def check(stdout, span):
        text = _read(out)
        if fmt == "json":
            entries = json.loads(text)
        else:
            entries = [json.loads(ln) for ln in text.splitlines() if ln.strip()]
        if [e["type"] for e in entries] != [m["type"] for m in maneuvers]:
            raise CheckError("ledger: entry types differ from the maneuver list")
        if [int(e["maneuver_id"]) for e in entries] != list(range(len(maneuvers))):
            raise CheckError("ledger: maneuver ids out of order")
        dp_p = np.array([e["dp_particles"] for e in entries], dtype=float)
        dp_v = np.array([e["dp_vacuum"] for e in entries], dtype=float)
        cum_v = np.array([e["cumulative_v"] for e in entries], dtype=float)
        scale = np.maximum(np.linalg.norm(dp_p, axis=1), np.linalg.norm(dp_v, axis=1))
        if np.any(np.linalg.norm(dp_p + dp_v, axis=1) > 1e-12 * scale):
            raise CheckError("ledger: dp_particles + dp_vacuum != 0")
        running = np.cumsum(dp_p, axis=0) / m_total
        _close("ledger cumulative_v", cum_v, running, 1e-12, 1e-12 * np.max(np.abs(running)))

    return Invocation(
        f"ledger-{fmt}", argv, check, [out], "ledger", n_particles * n_maneuvers, bulk
    )


# -- workloads ----------------------------------------------------------------------------


def small_calls(rng: np.random.Generator, work: Path, rep: int) -> list[Invocation]:
    """The interactive-size sweep, ledger, oracle and force-decompose calls."""
    return [
        sweep_call(rng, work, f"small{rep}_json", SMALL["small_sweep"], 1, "json", False),
        sweep_call(rng, work, f"small{rep}_jobs2", SMALL["small_sweep_jobs2"], 2, "csv", False),
        ledger_call(rng, work, f"small{rep}", *SMALL["small_ledger"], "text", False),
        oracle_call(rng, SMALL["small_oracle_n"], 2, "csv", None, False),
        force_call(rng, work, f"small{rep}", SMALL["small_series"], "csv", False),
    ]


def _spread(*lists: list) -> list:
    """Merge lists so that the items of each are spread evenly over the result."""
    keyed = [
        ((k + 0.5) / len(lst), j, item) for j, lst in enumerate(lists) for k, item in enumerate(lst)
    ]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


def make_workload(name: str, seed: int, work: Path, sizes: dict | None = None) -> list[Invocation]:
    """Generate the inputs of one workload into ``work``; return its invocations.

    ``sizes`` overrides entries of ``SIZES[name]`` (the tests shrink them).
    The calls of each kind are spread over the pass, so that every kind is
    timed in several stretches of it: timing noise on a shared machine comes in bursts.
    """
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}")
    size = {**SIZES[name], **(sizes or {})}
    rng = np.random.default_rng(seed)
    singles = single_value_calls(rng, work, size["specs"])
    per_spec = [singles[i : i + 8] for i in range(0, len(singles), 8)]
    small = [small_calls(rng, work, rep) for rep in range(size["small_reps"])]
    bulk = []
    if name == "sweep-grid":
        bulk = [
            sweep_call(rng, work, "jobs1", size["sweep_jobs1"], 1, "csv", True),
            sweep_call(rng, work, "jobs2", size["sweep_jobs2"], 2, "csv", True),
            sweep_call(rng, work, "json", size["sweep_json"], 1, "json", True),
        ]
    elif name == "ledger-fleet":
        bulk = [
            ledger_call(
                rng, work, "fleet", size["fleet_particles"], size["fleet_maneuvers"], "text", True
            )
        ]
    elif name == "oracle-decompose":
        bulk = [
            oracle_call(rng, size["oracle_n"], size["oracle_sizes"], "csv", "oracle.csv", True),
            force_call(rng, work, "bulk", size["series_samples"], "text", True),
        ]
    return [call for group in _spread(per_spec, small, [[b] for b in bulk]) for call in group]

import argparse
import contextlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zpfdrive import cli, mission, vacuum
from zpfdrive.dynamics import (
    FieldTimeSeries,
    delta_v_aggregation,
    delta_v_rotation,
    force_decomposed,
)
from zpfdrive.material import (
    MagnetoElectricTensor, Particle, particle_to_dict, rotation_about
)
from zpfdrive.mission import MissionSpec, evaluate_mission
from zpfdrive.vacuum import VacuumModel, convergence_study, vacuum_momentum_closed_form

from golden import cases
from series_csv import write_series


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DESIGN_ARGS = ["--chi", "1e-3", "--a", "1e-9", "--rho", "1000", "--A", "1e-2"]
ZERO_M_A = "m*a = 0.0 gives a non-finite rotation delta-v"
ZERO_REQUIRED = (
    "invalid mission spec: target_rate = 1e-320 at wheel_radius = 1.0"
    " gives a required velocity of 0.0 m/s, not a positive finite number"
)


# JSON nested deeper than load_json reads, and than the decoder's recursion limit
NESTED = "[" * 100_000 + "0" + "]" * 100_000
TOO_DEEP = "not valid JSON: arrays and objects nest deeper than 100\n"

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


# series files whose header is refused, read by np.loadtxt or (a quoted cell) by the line
# reader, and the refusal
BAD_SERIES_HEADERS = pytest.mark.parametrize(
    "text, message",
    [
        ("t_s,E_x,B_y,E_x\n0,1,2,3\n1,3,4,5\n2,5,6,7\n", "repeated column 'E_x'"),
        ('t_s,E_x,B_y,E_x\n"0",1,2,3\n1,3,4,5\n2,5,6,7\n', "repeated column 'E_x'"),
        ("\ufefft_s,E_x,B_y\n0,1,2\n1,3,4\n2,5,6\n",
         "series CSV starts with a UTF-8 byte-order mark"),
    ],
    ids=["repeated", "repeated-quoted", "byte-order-mark"],
)


def twice(record: dict, key: str, value) -> str:
    """JSON text of ``record`` that then holds ``key`` a second time, with ``value``."""
    return json.dumps(record)[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "design_point.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


@pytest.fixture
def series_file(tmp_path):
    t = np.linspace(0.0, 1.0, 21)
    series = FieldTimeSeries(t=t, e_x=np.sin(3 * t), b_y=np.cos(2 * t))
    path = tmp_path / "series.csv"
    write_series(series, path)
    return str(path)


class TestSingleValueCommands:
    def test_delta_v_rot_text(self, capsys):
        code, out, _ = run_cli(capsys, "delta-v-rot", *DESIGN_ARGS)
        assert code == 0
        assert "2.10914e-06" in out
        assert "m/s" in out

    def test_delta_v_rot_json_equals_library(self, capsys):
        code, out, _ = run_cli(capsys, "delta-v-rot", *DESIGN_ARGS, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        particle = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3))
        expected = delta_v_rotation(particle, VacuumModel()).value
        assert payload == {
            "quantity": "delta_v_rotation",
            "value": expected,
            "unit": "m/s",
        }

    def test_delta_v_agg_single_unit_is_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta-v-agg", "--chi", "1e-3", "--a", "1e-9", "--rho", "1000", "--N", "1"
        )
        assert code == 0
        assert out.startswith("delta_v_aggregation = 0 m/s")

    def test_delta_v_agg_json_equals_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "delta-v-agg",
            "--chi", "1e-3", "--a", "1e-9", "--rho", "1000", "--N", "8",
            "--format", "json",
        )
        expected = delta_v_aggregation(1e-9, 1000.0, 1e-3, 8, VacuumModel()).value
        assert json.loads(out)["value"] == expected

    def test_vacuum_momentum_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "vacuum-momentum", "--chi", "1e-3", "--a", "1e-9", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["value"] == vacuum_momentum_closed_form(1e-3, 1e-9, VacuumModel()).value
        assert payload["unit"] == "kg m/s"

    AGG_ARGS = ["--chi", "1e-3", "--a", "1e-9", "--rho", "1000", "--N", "8"]

    @pytest.mark.parametrize(
        "argv, text, json_line",
        [
            (
                ["delta-v-rot", *DESIGN_ARGS],
                "delta_v_rotation = 2.10914e-06 m/s\n",
                '{"quantity": "delta_v_rotation", "value": 2.1091436339999995e-06,'
                ' "unit": "m/s"}\n',
            ),
            (
                ["delta-v-agg", *AGG_ARGS],
                "delta_v_aggregation = 9.88661e-07 m/s\n",
                '{"quantity": "delta_v_aggregation", "value": 9.886610784375e-07,'
                ' "unit": "m/s"}\n',
            ),
            (
                ["vacuum-momentum", "--chi", "1e-3", "--a", "1e-9"],
                "vacuum_momentum = 1.05457e-30 kg m/s\n",
                '{"quantity": "vacuum_momentum", "value": 1.054571817e-30,'
                ' "unit": "kg m/s"}\n',
            ),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_output_bytes(self, capsys, argv, text, json_line, fmt):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (json_line if fmt == "json" else text)

    @given(
        chi=st.floats(-1.0, 1.0).filter(bool),
        a=st.floats(1e-77, 1e76),
        rho=st.floats(0.0, exclude_min=True, allow_infinity=False),
        prefactor=st.floats(0.0, exclude_min=True, allow_infinity=False),
    )
    def test_delta_v_rot_is_the_particle_value_bit_for_bit(self, chi, a, rho, prefactor):
        # "--chi=" form: argparse takes a separate "-4e-07" for an option
        argv = [f"--chi={chi!r}", f"--a={a!r}", f"--rho={rho!r}", f"--A={prefactor!r}"]
        particle = Particle(a, rho, MagnetoElectricTensor.from_xy(chi))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["delta-v-rot", *argv, "--format", "json"])
        try:
            expected = delta_v_rotation(particle, VacuumModel(prefactor)).value
        except ValueError as exc:  # a zero or overflowing m*a, or an overflowing gain
            assert (code, stdout.getvalue(), stderr.getvalue()) == (1, "", f"error: {exc}\n")
            return
        assert code == 0
        value = json.loads(stdout.getvalue())["value"]
        assert struct.pack("<d", value) == struct.pack("<d", expected)

    def test_delta_v_rot_keeps_the_sign_of_a_negative_zero_chi(self, capsys):
        argv = ["delta-v-rot", "--chi", "-0.0", "--a", "1e-9", "--rho", "1000"]
        assert run_cli(capsys, *argv) == (0, "delta_v_rotation = -0 m/s\n", "")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert out == '{"quantity": "delta_v_rotation", "value": -0.0, "unit": "m/s"}\n'

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["delta-v-agg", "--chi", "1e-3", "--a", "1e-70", "--rho", "1e-300", "--N", "8"],
                "delta_v_aggregation = inf m/s is not finite",
            ),
            (
                ["vacuum-momentum", "--chi", "1e-3", "--a", "1e-70", "--A", "1e300"],
                "vacuum_momentum = inf kg m/s is not finite",
            ),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_finite_value_refused(self, capsys, argv, message, fmt):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_aggregation_merged_size_out_of_range(self, capsys):
        argv = ["delta-v-agg", "--chi", "1e-3", "--a", "1e-9", "--rho", "1000", "--N", "1e300"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        merged = "9.999999999999872e+90 m"  # 1e300 ** (1/3) * 1e-9
        assert err == (
            f"error: N = 1e+300 and a = 1e-09 give a merged size of {merged}, out of range\n"
        )


class TestMissionCommands:
    def test_mission_text(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "mission", "--spec", spec_file)
        assert code == 0
        assert "feasible: true" in out
        assert "margin = 1.05465" in out

    def test_mission_json_equals_library(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "mission", "--spec", spec_file, "--format", "json")
        payload = json.loads(out)
        report = evaluate_mission(MissionSpec.from_json(spec_file))
        assert payload["achieved_tangential_v_m_s"] == report.achieved_tangential_v
        assert payload["feasible"] is True

    def test_solve_json(self, capsys, spec_file):
        code, out, _ = run_cli(
            capsys, "solve", "--spec", spec_file, "--unknown", "chi0", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["quantity"] == "chi0"
        assert payload["value"] == pytest.approx(9.48e-4, rel=1e-2)

    def test_subatomic_size_is_one_warning_line_on_every_call(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({**SPEC, "target_rate": 4.95e6, "chi0": 1e-4, "particle_size": None})
        )
        argv = ["solve", "--spec", str(path), "--unknown", "particle_size"]
        note = (
            "warning: solved particle_size 1.80209e-11 m is below the atomic scale (1e-10 m);"
            " physically implausible\n"
        )
        # Python shows a warning once per code location, so the second call would print none
        calls = [run_cli(capsys, *argv), run_cli(capsys, *argv), fresh_process(*argv)]
        solved = "particle_size = 1.80209e-11\nmargin at solution = 1\n"
        assert calls == [(0, solved, note)] * 3

    @pytest.mark.parametrize(
        "command, fields",
        [
            (["mission"], {"wheel_radius": 1e-300, "particle_density": 1e-9}),
            (["mission", "--format", "json"], {"wheel_radius": 1e-300, "particle_density": 1e-9}),
            (["solve", "--unknown", "chi0"], {"wheel_radius": 1e-300, "prefactor_A": 1e100}),
        ],
    )
    def test_infinite_margin_refused(self, capsys, tmp_path, spec_file, command, fields):
        with open(spec_file) as fh:
            spec = {**json.load(fh), **fields}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, command[0], "--spec", str(path), *command[1:])
        assert (code, out) == (1, "")
        assert err == (
            f"error: {path}: invalid mission spec: target_rate = 4.95 at wheel_radius = 1e-300"
            " gives a margin of inf, not a finite number\n"
        )

    def test_sweep_to_file(self, capsys, tmp_path, spec_file):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--spec", spec_file,
            "--chi", "1e-4,1e-3",
            "--a", "1e-9,2e-9,4e-9",
            "--out", str(out_path),
        )
        assert code == 0
        assert "wrote 6 rows" in out
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "chi0,a_m,rho_kg_m3,fraction,A,dv_m_s,dV_m_s,rate_deg_day,feasible"
        assert len(lines) == 7

    def test_sweep_json_is_typed_and_matches_csv(self, capsys, tmp_path, spec_file):
        argv = ["sweep", "--spec", spec_file, "--chi", "1e-4,1e-3", "--a", "1e-9,2e-9"]
        _, csv_out, _ = run_cli(capsys, *argv)
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(json_out)
        header, *lines = csv_out.splitlines()
        assert len(rows) == len(lines) == 4
        for row, line in zip(rows, lines):
            assert list(row) == header.split(",")
            *numbers, feasible = line.split(",")
            assert [repr(v) for v in list(row.values())[:-1]] == numbers
            assert row["feasible"] is (feasible == "true")
        out_path = tmp_path / "sweep.json"
        code, out, _ = run_cli(capsys, *argv, "--format", "json", "--out", str(out_path))
        assert out == f"wrote 4 rows to {out_path}\n"
        assert out_path.read_text() == json_out

    def test_sweep_byte_identical_reruns(self, capsys, tmp_path, spec_file):
        texts = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run_cli(
                capsys, "sweep", "--spec", spec_file, "--chi", "1e-4,1e-3", "--out", str(path)
            )
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]


class TestDataCommands:
    def test_oracle_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--chi", "1e-3", "--a", "1e-9", "--n", "8,16"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n_per_axis,a_m,chi,p_kg_m_s,effective_A"
        assert len(lines) == 3

    @pytest.mark.parametrize("n", [[8], [64, 16, 64]], ids=["8", "64,16,64"])
    def test_oracle_json(self, capsys, n):
        n_flag = ",".join(map(str, n))
        code, out, _ = run_cli(
            capsys, "oracle", "--chi", "1e-3", "--a", "1e-9", "--n", n_flag, "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["n_per_axis"] for row in rows] == n  # argv order, a repeated n kept
        assert all(row == rows[n.index(row["n_per_axis"])] for row in rows)

    def test_force_decompose(self, capsys, series_file):
        code, out, _ = run_cli(
            capsys, "force-decompose", "--series", series_file, "--chi", "1e-3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_s,f_dielectric,f_magnetoelectric,f_chi_rate,f_total"
        assert len(lines) == 22

    def test_force_decompose_negative_zero_chi(self, capsys, series_file):
        # the particle's lab frame, I chi0 I^T, holds chi0_xy = -0.0 as 0.0
        assert Particle(1e-9, 1e3, MagnetoElectricTensor.from_xy(-0.0)).chi0_xy.hex() == "0x0.0p+0"
        argv = ["force-decompose", "--series", series_file, "--chi"]
        code, out, err = run_cli(capsys, *argv, "-0")
        assert (code, err) == (0, "")
        assert run_cli(capsys, *argv, "0") == (0, out, "")

    def test_force_decompose_json(self, capsys, series_file):
        code, out, _ = run_cli(
            capsys, "force-decompose", "--series", series_file, "--format", "json"
        )
        payload = json.loads(out)
        assert set(payload) == {
            "t_s", "f_dielectric", "f_magnetoelectric", "f_chi_rate", "f_total",
        }

    def test_force_decompose_text_and_json_agree(self, capsys, series_file):
        argv = ["force-decompose", "--series", series_file, "--chi", "1e-3", "--epsilon", "2"]
        _, text, _ = run_cli(capsys, *argv)
        _, js, _ = run_cli(capsys, *argv, "--format", "json")
        header, *rows = text.strip().splitlines()
        payload = json.loads(js)
        columns = zip(*[[float(x) for x in row.split(",")] for row in rows])
        for name, column in zip(header.split(","), columns):
            assert list(column) == payload[name], name

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_force_decompose_bytes_equal_per_cell_reference(self, capsys, tmp_path, fmt):
        n = 3 * 2**13 + 7  # crosses the writer's block boundaries, with a partial last block
        rng = np.random.default_rng(5)
        t = 1e-3 * np.arange(n)
        series = FieldTimeSeries(
            t=t,
            e_x=np.sin(7 * t) + 1e-3 * rng.normal(size=n),
            b_y=np.cos(3 * t) * 10.0 ** rng.integers(-8, 8, n),
            chi0_xy=1e-3 * (1 + 0.1 * np.sin(t)),
            kappa1=np.full(n, 2e-5),
        )
        path = tmp_path / "series.csv"
        write_series(series, path)
        argv = ["force-decompose", "--series", str(path), "--epsilon", "2.5", "--format", fmt]
        particle = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(0.0), epsilon=2.5)
        dec = force_decomposed(particle, FieldTimeSeries.from_csv(path))
        columns = (series.t, dec.dielectric, dec.magnetoelectric, dec.chi_rate, dec.total)
        names = ("t_s", "f_dielectric", "f_magnetoelectric", "f_chi_rate", "f_total")
        # the per-cell formatting the command used before its block writer
        if fmt == "json":
            want = json.dumps({k: [float(x) for x in c] for k, c in zip(names, columns)})
        else:
            rows = [",".join(repr(float(x)) for x in row) for row in zip(*columns)]
            want = "\n".join([",".join(names)] + rows)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == want + "\n"
        out_path = tmp_path / "forces.out"
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert out == f"wrote {n} samples to {out_path}\n"
        assert out_path.read_bytes() == (want + "\n").encode()

    def test_force_decompose_refuses_non_finite_terms(self, capsys, tmp_path):
        t = 0.25 * np.arange(11)
        b_y = np.ones(11)
        b_y[4] = 1e200  # B^2 overflows; d(B^2)/dt is first inf at the sample before
        path = tmp_path / "series.csv"
        write_series(FieldTimeSeries(t=t, e_x=np.zeros(11), b_y=b_y), path)
        out_path = tmp_path / "forces.csv"
        for fmt in ("text", "json"):
            for extra in ([], ["--out", str(out_path)]):
                argv = ["force-decompose", "--series", str(path), "--chi", "1e-3"]
                code, out, err = run_cli(capsys, *argv, "--format", fmt, *extra)
                assert code == 1
                assert out == ""
                assert err == f"error: {path}: t_s = 0.75 gives a non-finite f_magnetoelectric\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_oracle_bytes_equal_reference(self, capsys, tmp_path, fmt):
        argv = ["oracle", "--chi=-2.5e-4", "--a", "1e-9,3.3e-9", "--n", "8,17", "--format", fmt]
        rows = convergence_study(-2.5e-4, [1e-9, 3.3e-9], [8, 17])
        if fmt == "json":
            want = json.dumps(rows)
        else:  # the command's own per-row formatting before the shared oracle writer
            keys = ("a_m", "chi", "p_kg_m_s", "effective_A")
            want = "\n".join(
                ["n_per_axis,a_m,chi,p_kg_m_s,effective_A"]
                + [",".join([str(r["n_per_axis"])] + [repr(r[k]) for k in keys]) for r in rows]
            )
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == want + "\n"
        out_path = tmp_path / "oracle.out"
        run_cli(capsys, *argv, "--out", str(out_path))
        assert out_path.read_bytes() == (want + "\n").encode()
        if fmt == "text":
            study_path = tmp_path / "study.csv"
            convergence_study(-2.5e-4, [1e-9, 3.3e-9], [8, 17], out=study_path)
            assert study_path.read_bytes() == (want + "\n").encode()

    THREE_KINDS = [
        {"type": "rotation", "axis": [1, 0, 0], "angle_rad": 3.141592653589793},
        {"type": "cavity_modulation", "dB2_dt": 2.0, "duration_s": 0.5},
        {"type": "aggregation", "N": 8, "a_m": 1e-9, "direction": [0, 1, 0]},
    ]
    TURN = {"type": "rotation", "axis": [1, 0, 0], "angle_rad": 1.0}

    @pytest.mark.parametrize(
        "count, maneuvers, booked",
        [
            (1, THREE_KINDS, None),
            # a turn and then its inverse: the two z bookings cancel to rounding
            (1, [TURN, {**TURN, "angle_rad": -1.0}], "cancels"),
            # no particles: every booking is zero
            (0, THREE_KINDS, "nothing"),
        ],
        ids=["three-kinds", "turn-and-back", "no-particles"],
    )
    def test_ledger(self, capsys, tmp_path, count, maneuvers, booked):
        particles_path = tmp_path / "particles.json"
        particle = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3))
        particles_path.write_text(json.dumps([particle_to_dict(particle)] * count))
        maneuvers_path = tmp_path / "maneuvers.json"
        maneuvers_path.write_text(json.dumps(maneuvers))
        code, out, err = run_cli(
            capsys,
            "ledger",
            "--particles", str(particles_path),
            "--maneuvers", str(maneuvers_path),
            "--M-total", "1.0",
        )
        assert (code, err) == (0, "")
        entries = [json.loads(line) for line in out.splitlines()]
        assert [e["type"] for e in entries] == [m["type"] for m in maneuvers]
        assert all(len(e["cumulative_v"]) == 3 for e in entries)
        z = [e["dp_vacuum"][2] for e in entries]
        if booked == "cancels":
            assert abs(sum(z)) <= 1e-12 * max(map(abs, z)), z
        elif booked == "nothing":
            keys = ("dp_particles", "dp_vacuum", "cumulative_v")
            assert [e[k] for e in entries for k in keys] == [[0.0] * 3] * (3 * len(entries))

    def test_ledger_reads_each_series_file_once(self, capsys, tmp_path, series_file, monkeypatch):
        particles_path = tmp_path / "particles.json"
        particle = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3))
        particles_path.write_text(json.dumps([particle_to_dict(particle)]))
        copies = []
        for i in range(3):
            copy = tmp_path / f"series_{i}.csv"
            shutil.copyfile(series_file, copy)
            copies.append(str(copy))
        loads = []
        from_csv = FieldTimeSeries.from_csv.__func__

        def counting_from_csv(cls, source):
            if isinstance(source, str):  # a path; from_csv re-enters with the open file
                loads.append(source)
            return from_csv(cls, source)

        monkeypatch.setattr(FieldTimeSeries, "from_csv", classmethod(counting_from_csv))
        outputs = []
        for paths in ([series_file] * 3, copies):
            maneuvers_path = tmp_path / "maneuvers.json"
            maneuvers_path.write_text(
                json.dumps(
                    [{"type": "field_modulation", "series_csv": path} for path in paths]
                    + [{"type": "rotation", "axis": [0, 0, 1], "angle_rad": 1.0}]
                )
            )
            loads.clear()
            code, out, _ = run_cli(
                capsys,
                "ledger",
                "--particles", str(particles_path),
                "--maneuvers", str(maneuvers_path),
                "--M-total", "1.0",
            )
            assert code == 0
            assert len(loads) == len(set(paths))
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].strip().splitlines()) == 4


def fresh_process(*argv, env=None):
    """Exit code, stdout and stderr of one CLI call in a new interpreter, with the variables
    of ``env`` added to its environment."""
    result = subprocess.run(
        [sys.executable, "-m", "zpfdrive.cli", *argv],
        capture_output=True,
        encoding="utf-8",
        env=None if env is None else {**os.environ, **env},
    )
    return result.returncode, result.stdout, result.stderr


def modules_after(statements, *argv, cwd="."):
    """Run ``statements`` in a new interpreter with ``sys.argv[1:] == argv``, in the directory
    ``cwd``: the exit code they leave in ``code``, and the names in ``sys.modules`` by then."""
    # the interpreter starts here, where the relative paths of PYTHONPATH hold
    probe = f"import os, sys\nos.chdir({str(cwd)!r})\ncode = 0\n{statements}\n"
    probe += "print(code, *sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, check=True
    )
    code, *loaded = result.stdout.splitlines()[-1].split()
    return int(code), set(loaded)


def numpy_after(statements, *argv):
    """The exit code of ``statements`` in a new interpreter, and whether numpy was imported."""
    code, loaded = modules_after(statements, *argv)
    return code, "numpy" in loaded


MAIN = "from zpfdrive.cli import main\ncode = main(sys.argv[1:])"
# by command, the modules that it does not run and so does not import; no command's
# runnable argv imports argparse, and only the array commands import numpy
NO_DATACLASSES = {"dataclasses", "inspect"}  # mission loads both, and numpy loads inspect
UNUSED = {
    "delta-v-rot": {"zpfdrive.dynamics", "zpfdrive.mission", *NO_DATACLASSES},
    "delta-v-agg": {"zpfdrive.mission", *NO_DATACLASSES},
    "vacuum-momentum": {"zpfdrive.dynamics", "zpfdrive.mission", *NO_DATACLASSES},
    "oracle": {"zpfdrive.dynamics", "zpfdrive.mission"},
    "force-decompose": {"zpfdrive.mission"},
    "mission": {"zpfdrive.dynamics"},
    "solve": {"zpfdrive.dynamics"},
    "sweep": {"zpfdrive.dynamics"},
    "ledger": {"zpfdrive.mission"},
}


class TestStartupWithoutNumpy:
    """Importing the package, building the parser and every single-value command, refusals
    included, run without importing numpy; these commands import neither argparse nor the
    package modules they do not run, and the parser and the closed forms import no
    ``dataclasses``.  pytest has all of them loaded already, so only a new interpreter
    shows a stray read at import time or in these commands."""

    @pytest.mark.parametrize(
        "statements",
        ["import zpfdrive", "import zpfdrive.cli\nzpfdrive.cli.build_parser()"],
        ids=["package", "cli-parser"],
    )
    def test_import(self, statements):
        code, loaded = modules_after(statements)
        assert (code, loaded & {"numpy", *NO_DATACLASSES}) == (0, set())

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["delta-v-rot", *DESIGN_ARGS],
            ["delta-v-agg", "--chi", "1e-3", "--a", "1e-9", "--rho", "1000", "--N", "8"],
            ["vacuum-momentum", "--chi", "1e-3", "--a", "1e-9"],
            ["mission", "--spec", "SPEC"],
            *(["solve", "--spec", "SPEC", "--unknown", u] for u in ("chi0", "particle_size")),
        ],
        ids=["delta-v-rot", "delta-v-agg", "vacuum-momentum", "mission", "solve-chi0",
             "solve-particle_size"],
    )
    def test_single_value_command(self, spec_file, argv, fmt):
        argv = [spec_file if x == "SPEC" else x for x in argv]
        code, loaded = modules_after(MAIN, *argv, "--format", fmt)
        assert (code, loaded & {"numpy", "argparse", *UNUSED[argv[0]]}) == (0, set())

    def test_refused_value(self):
        argv = ["delta-v-rot", "--chi", "5", "--a", "1e-9", "--rho", "1000"]
        code, loaded = modules_after(MAIN, *argv)
        assert (code, loaded & {"numpy", "argparse", *UNUSED[argv[0]]}) == (1, set())


class TestFirstNumpyUse:
    """The array commands import numpy on first use: in a new interpreter each writes the
    bytes it writes in this one, where every module has read ``np`` already."""

    def check(self, capsys, *argv):
        result = run_cli(capsys, *argv)
        assert result[0] == 0
        assert fresh_process(*argv) == result

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_force_decompose(self, capsys, series_file, fmt):
        self.check(capsys, "force-decompose", "--series", series_file, "--format", fmt)

    def test_ledger(self, capsys, tmp_path, series_file):
        particles = [
            Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3)),
            Particle(2e-9, 800.0, MagnetoElectricTensor.from_xy(-2e-3, kappa1=3e-5)),
        ]
        maneuvers = [
            {"type": "rotation", "axis": [1, 0, 0], "angle_rad": 3.14159},
            {"type": "field_modulation", "series_csv": series_file},
        ]
        particles_path, maneuvers_path = tmp_path / "p.json", tmp_path / "m.json"
        particles_path.write_text(json.dumps([particle_to_dict(p) for p in particles]))
        maneuvers_path.write_text(json.dumps(maneuvers))
        self.check(
            capsys,
            "ledger",
            "--particles", str(particles_path),
            "--maneuvers", str(maneuvers_path),
            "--M-total", "1.0",
        )

    def test_sweep(self, capsys, spec_file):
        self.check(
            capsys, "sweep", "--spec", spec_file, "--chi", "1e-4,1e-3", "--a", "1e-9,2e-9",
            "--format", "json",
        )

    def test_oracle(self, capsys):
        self.check(capsys, "oracle", "--chi", "1e-3", "--a", "1e-9,2e-9", "--n", "8,12",
                   "--format", "json")

    @pytest.mark.parametrize("command", ["oracle", "force-decompose", "sweep", "ledger"])
    def test_array_command_loads_only_what_it_runs(self, tmp_path, command):
        cases.write_inputs(tmp_path)
        code, loaded = modules_after(MAIN, *cases.CASES[f"{command}-text"], cwd=tmp_path)
        assert (code, loaded & {"argparse", *UNUSED[command]}) == (0, set())

    def test_first_use_from_many_threads(self):
        # more threads than cores make the first np read at once; each gets numpy itself
        statements = "\n".join([
            "import threading",
            "from zpfdrive import _io",
            "sys.setswitchinterval(1e-6)",
            "got = []",
            "threads = [threading.Thread(target=lambda: got.append(_io.np.ndarray))"
            " for _ in range(8)]",
            "for t in threads: t.start()",
            "for t in threads: t.join(timeout=60)",
            "import numpy",
            "code = int(got != [numpy.ndarray] * 8 or _io.np is not numpy)",
        ])
        assert numpy_after(statements) == (0, True)


class TestLiteralTables:
    """The CLI holds these library values as literals, so that its flag tables import
    neither mission nor vacuum; each literal equals the library's value."""

    @pytest.mark.parametrize(
        "flag, library",
        [
            ("--unknown", sorted(mission.SOLVE_BRACKETS)),
            ("--mode", [m.value for m in mission.SweepMode]),
            ("--cutoff", sorted(c.value for c in vacuum.CutoffConvention)),
        ],
    )
    def test_choices(self, flag, library):
        assert [choices for f, _, choices, *_ in cli._OPTIONS if f == flag] == [library]

    def test_sweep_axes(self):
        assert cli._SWEEP_AXES == mission._SWEEP_AXES


class TestParserReuse:
    """main reads every call of a process afresh: no call's flags leak into the next."""

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize(
        "first, second",
        [
            # the second sweep takes chi0 from the spec
            (["sweep", "--spec", "SPEC", "--chi", "1e-4,2e-4"], ["sweep", "--spec", "SPEC"]),
            (["oracle", "--chi", "1e-3", "--n", "16"], ["oracle", "--chi", "1e-3"]),
            (["mission", "--spec", "SPEC", "--format", "json"], ["mission", "--spec", "SPEC"]),
            (["delta-v-rot", "--chi", "1e-3"], ["delta-v-rot", *DESIGN_ARGS]),  # usage error
        ],
    )
    def test_second_call_equals_a_fresh_process(self, capsys, spec_file, first, second):
        first, second = ([spec_file if x == "SPEC" else x for x in v] for v in (first, second))
        try:
            first_result = run_cli(capsys, *first)
        except SystemExit as exc:
            first_result = (exc.code, *capsys.readouterr())
        result = run_cli(capsys, *second)
        assert result == fresh_process(*second)
        assert result[0] == 0
        assert first_result[:2] != result[:2]


class TestGrammar:
    """Every command's dests and defaults, as parsed before the numeric flags are checked;
    main reads each call from the command's flag table, to the namespace of the parser."""

    @pytest.mark.parametrize(
        "argv, parsed",
        [
            (
                ["delta-v-rot", "--chi", "1e-3", "--a", "1e-9", "--rho", "1000"],
                {"chi": "1e-3", "a": "1e-9", "rho": "1000", "A": 0.01, "format": "text"},
            ),
            (
                ["delta-v-agg", "--chi", "1e-3", "--a", "1e-9", "--rho", "1000", "--N", "8"],
                {"chi": "1e-3", "a": "1e-9", "rho": "1000", "N": "8", "A": 0.01, "format": "text"},
            ),
            (
                ["vacuum-momentum", "--chi", "1e-3", "--a", "1e-9"],
                {"chi": "1e-3", "a": "1e-9", "A": 0.01, "format": "text"},
            ),
            (
                ["oracle", "--chi", "1e-3"],
                {
                    "chi": "1e-3",
                    "a": "1e-9",
                    "n": "16,32,64",
                    "cutoff": "half-wavelength",
                    "out": None,
                    "format": "text",
                },
            ),
            (
                ["force-decompose", "--series", "s.csv"],
                {"series": "s.csv", "chi": 0.0, "epsilon": 1.0, "out": None, "format": "text"},
            ),
            (["mission", "--spec", "s.json"], {"spec": "s.json", "format": "text"}),
            (
                ["solve", "--spec", "s.json", "--unknown", "chi0"],
                {"spec": "s.json", "unknown": "chi0", "format": "text"},
            ),
            (
                ["sweep", "--spec", "s.json"],
                {
                    "spec": "s.json",
                    "chi": None,
                    "a": None,
                    "rho": None,
                    "fraction": None,
                    "A": None,
                    "mode": "mass-budget",
                    "jobs": 1,
                    "out": None,
                    "format": "text",
                },
            ),
            (
                ["ledger", "--particles", "p.json", "--maneuvers", "m.json", "--M-total", "1"],
                {
                    "particles": "p.json",
                    "maneuvers": "m.json",
                    "m_total": "1",
                    "A": 0.01,
                    "out": None,
                    "format": "text",
                },
            ),
        ],
    )
    def test_minimal_argv(self, argv, parsed):
        args = vars(cli.build_parser().parse_args(argv))
        assert args == {"command": argv[0], **parsed}
        assert vars(cli._parse(argv)) == args

    @pytest.mark.parametrize(
        "argv",
        [
            ["delta-v-rot", *DESIGN_ARGS, "--format", "json"],
            ["oracle", "--chi=1e-3", "--a", "1e-9,2e-9", "--n", "8", "--cutoff", "half-wavelength"],
            ["sweep", "--spec", "s.json", "--chi", "1e-3,2e-3", "--jobs", "2", "--mode",
             "fixed-particle-mass", "--out", "o.csv", "--format", "json"],
        ],
    )
    def test_optional_flags_parse_as_the_full_grammar(self, argv):
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv, code", [([], 2), (["warp-drive", *DESIGN_ARGS], 2), (["--help"], 0)]
    )
    def test_call_without_a_command_goes_to_the_top_level_parser(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        text = captured.err if code else captured.out
        assert exc.value.code == code
        assert text.startswith("usage: zpfdrive [-h]") and "{delta-v-rot," in text
        if code:
            assert text.splitlines()[-1].startswith("zpfdrive: error: ")

    @staticmethod
    def count_argparse(monkeypatch) -> tuple[list, list]:
        """The ``argparse.ArgumentParser`` objects built and the calls of their
        ``parse_args`` (by ``prog``) from here on."""
        built, calls = [], []
        init, parse_args = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counted_parse_args(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted_parse_args)
        return built, calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["delta-v-rot", "--chi", "-1e-3", "--a=1e-9", "--rho", "1000", "--format", "json"],
            ["delta-v-agg", "--chi=-1e-3", "--a", "1e-9", "--rho", "1000", "--N", "8", "--A=-1"],
            ["vacuum-momentum", "--chi", "-1e-3", "--a", "1e-9"],
            ["oracle", "--chi=-1e-3", "--a", "1e-9,2e-9", "--n", "8", "--cutoff", "half-wavelength",
             "--out", "o.csv"],
            ["force-decompose", "--series", "s.csv", "--chi", "-1e-3", "--epsilon=2"],
            ["mission", "--spec", "s.json", "--format=json"],
            ["solve", "--spec=s.json", "--unknown", "chi0"],
            ["sweep", "--spec", "s.json", "--chi", "-1e-3,2e-3", "--jobs", "2", "--mode",
             "fixed-particle-mass", "--format", "csv"],
            ["ledger", "--particles", "p.json", "--maneuvers", "m.json", "--M-total", "-1"],
        ],
    )
    def test_well_formed_argv_is_read_without_argparse(self, monkeypatch, argv):
        expected = cli.build_parser().parse_args(cli._joined_values(argv))
        built, calls = self.count_argparse(monkeypatch)
        assert vars(cli._parse(argv)) == vars(expected)
        assert built == calls == []

    @pytest.mark.parametrize(
        "argv, read",
        [
            (["mission", "--spe", "s.json"], {"spec": "s.json"}),
            (["delta-v-rot", "--chi", "1", *DESIGN_ARGS], {"chi": "1e-3"}),
            (["delta-v-rot", "--chi=--", *DESIGN_ARGS[2:]], {"chi": "--"}),
            (
                ["oracle", "--ch=-1e-3", "--cu", "wavelength-equals-size", "--fo=json"],
                {"chi": "-1e-3", "cutoff": "wavelength-equals-size", "format": "json"},
            ),
            (
                ["sweep", "--spec", "s.json", "--mode", "fixed-particle-mass", "--mo=mass-budget"],
                {"mode": "mass-budget"},
            ),
            (["oracle", "--chi", "1e-3", "--out=--", "--n=--"], {"out": "--", "n": "--"}),
            (["mission", "--spec", "--x y"], {"spec": "--x y"}),
        ],
        ids=[
            "abbreviated", "repeated", "dash-dash-value", "abbreviated-forms",
            "repeated-choice", "dash-dash-out", "dash-led-value-with-a-space",
        ],
    )
    def test_odd_argv_that_argparse_runs_is_read_without_argparse(self, monkeypatch, argv, read):
        """An abbreviated or repeated flag, a ``--`` value and a separate value that starts
        with ``--`` and holds a space are read from the table: argparse runs them too."""
        built, calls = self.count_argparse(monkeypatch)
        args = vars(cli._parse(argv))
        assert built == calls == []
        assert {dest: args[dest] for dest in read} == read

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            (["delta-v-rot", "-h"], 0, "usage: zpfdrive delta-v-rot [-h] --chi CHI --a A"),
            (
                ["delta-v-rot", *DESIGN_ARGS, "--warp-factor", "9"],
                2,
                "zpfdrive delta-v-rot: error: unrecognized arguments: --warp-factor 9",
            ),
            (
                ["mission", "--format", "json"],
                2,
                "zpfdrive mission: error: the following arguments are required: --spec",
            ),
            (
                ["delta-v-rot", *DESIGN_ARGS, "--format", "xml"],
                2,
                "zpfdrive delta-v-rot: error: argument --format: invalid choice: 'xml'"
                " (choose from 'text', 'json')",
            ),
            (
                ["mission", "--spec", "--x y", "-1"],
                2,
                "zpfdrive mission: error: unrecognized arguments: -1",
            ),
        ],
        ids=["help", "unknown", "missing", "choice", "dash-led-token-after-a-value"],
    )
    def test_what_the_table_cannot_decide_goes_to_argparse(
        self, monkeypatch, capsys, argv, code, line
    ):
        """Each call reaches argparse once, with the command's parser, and ends as it does
        with the table switched off: exit code, stdout and stderr."""

        def outcome():
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            return (exc.value.code, *capsys.readouterr())

        _, calls = self.count_argparse(monkeypatch)
        result = outcome()
        assert calls == [f"zpfdrive {argv[0]}"]
        assert result[0] == code
        assert line in (result[2].splitlines()[-1] if code else result[1].splitlines()[0])
        monkeypatch.setattr(cli, "_from_table", lambda argv: None)
        assert outcome() == result


class TestDashDashValues:
    """A ``--flag=--`` value is the text ``'--'`` on every Python: a value flag refuses it
    with one ``error:`` line, exit 1, and a choice flag with a usage error, exit 2, as
    argparse 3.13 does (argparse 3.10-3.12 read it as ``[]`` and check no choice)."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["delta-v-rot", "--chi=--", "--a", "1e-9", "--rho", "1000"],
             "error: --chi expects a number, got '--'"),
            (["oracle", "--chi", "1e-3", "--n=--"],
             "error: --n expects comma-separated integers, got '--'"),
            (["solve", "--spec=--", "--unknown", "chi0"],
             "error: [Errno 2] No such file or directory: '--'"),
            (["mission", "--spe=--"], "error: [Errno 2] No such file or directory: '--'"),
            (["ledger", "--particles=--", "--maneuvers", "m.json", "--M-total", "1"],
             "error: [Errno 2] No such file or directory: '--'"),
        ],
    )
    def test_value_flag_exits_one(self, capsys, monkeypatch, tmp_path, argv, line):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (1, "", line + "\n")

    @pytest.mark.parametrize(
        "argv, flag, choices",
        [
            (["oracle", "--chi", "1e-3", "--format=--"], "--format", "'text', 'json', 'csv'"),
            (["solve", "--spec", "s.json", "--unknown=--"], "--unknown",
             "'active_mass_fraction', 'chi0', 'particle_size'"),
            (["oracle", "--chi", "1e-3", "--cutoff=--"], "--cutoff",
             "'half-wavelength', 'wavelength-equals-size'"),
            (["sweep", "--spec", "s.json", "--mode=--"], "--mode",
             "'mass-budget', 'fixed-particle-mass'"),
            (["sweep", "--spec", "s.json", "--fo=--", "--format", "json"], "--format",
             "'text', 'json', 'csv'"),
        ],
    )
    def test_choice_flag_is_a_usage_error(self, capsys, argv, flag, choices):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith(f"usage: zpfdrive {argv[0]} [-h]")
        assert err.splitlines()[-1] == (
            f"zpfdrive {argv[0]}: error: argument {flag}: invalid choice: '--'"
            f" (choose from {choices})"
        )

    def test_out_writes_a_file_named_dash_dash(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "oracle", "--chi", "1e-3", "--n", "16", "--out=--")
        assert (code, out, err) == (0, "wrote 1 rows to --\n", "")
        assert (tmp_path / "--").read_text().startswith("n_per_axis,")


class TestLedgerInputErrors:
    """A malformed particle or maneuver file ends in one error line, exit 1."""

    ROTATION = {"type": "rotation", "axis": [1, 0, 0], "angle_rad": 1.0}

    def run_ledger(self, capsys, tmp_path, particles, maneuvers):
        good = particle_to_dict(Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3)))
        p_path, m_path = tmp_path / "particles.json", tmp_path / "maneuvers.json"
        p_path.write_text(json.dumps([good if p is None else p for p in particles]))
        m_path.write_text(json.dumps(maneuvers))
        code, out, err = run_cli(
            capsys, "ledger", "--particles", str(p_path), "--maneuvers", str(m_path),
            "--M-total", "1.0",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_null_count(self, capsys, tmp_path):
        aggregation = {"type": "aggregation", "N": None, "a_m": 1e-9, "direction": [0, 0, 1]}
        err = self.run_ledger(capsys, tmp_path, [None], [self.ROTATION, aggregation])
        assert "maneuvers.json: maneuver 1: field 'N'" in err

    def test_particle_that_is_not_an_object(self, capsys, tmp_path):
        err = self.run_ledger(capsys, tmp_path, [None, "oops"], [self.ROTATION])
        assert "particles.json: particle 1: expected an object, got str" in err

    @pytest.mark.parametrize(
        "key, misspelled", [("orientation", "orientaton"), ("kappa1", "kapa1")]
    )
    def test_misspelled_particle_key(self, capsys, tmp_path, key, misspelled):
        # a 90-degree turn about z, or a response coefficient, that must not be dropped
        tensor = MagnetoElectricTensor.from_xy(1e-3, kappa1=1e-3)
        particle = Particle(1e-9, 1e3, tensor, rotation_about([0, 0, 1], np.pi / 2))
        record = particle_to_dict(particle)
        record[misspelled] = record.pop(key)
        err = self.run_ledger(capsys, tmp_path, [record], [self.ROTATION])
        path = tmp_path / "particles.json"
        assert err == f"error: {path}: particle 0: unknown fields: [{misspelled!r}]\n"

    def test_rotation_with_an_extra_key(self, capsys, tmp_path):
        rotation = {**self.ROTATION, "angel": 1.0}
        err = self.run_ledger(capsys, tmp_path, [None], [self.ROTATION, self.ROTATION, rotation])
        path = tmp_path / "maneuvers.json"
        assert err == f"error: {path}: maneuver 2: unknown fields: ['angel']\n"

    def test_unreadable_series_names_its_field(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        modulation = {"type": "field_modulation", "series_csv": str(missing)}
        err = self.run_ledger(capsys, tmp_path, [None], [self.ROTATION, modulation])
        assert err == (
            f"error: {tmp_path / 'maneuvers.json'}: maneuver 1: field 'series_csv': {missing}:"
            f" [Errno 2] No such file or directory: '{missing}'\n"
        )

    @BAD_SERIES_HEADERS
    def test_series_with_a_refused_header_names_it(self, capsys, tmp_path, text, message):
        series = tmp_path / "series.csv"
        series.write_text(text, encoding="utf-8")
        modulation = {"type": "field_modulation", "series_csv": str(series)}
        err = self.run_ledger(capsys, tmp_path, [None], [self.ROTATION, modulation])
        assert err == (
            f"error: {tmp_path / 'maneuvers.json'}: maneuver 1: field 'series_csv': {series}:"
            f" {message}\n"
        )

    def test_missing_angle(self, capsys, tmp_path):
        rotation = {"type": "rotation", "axis": [1, 0, 0]}
        err = self.run_ledger(capsys, tmp_path, [None], [self.ROTATION, rotation])
        assert "maneuvers.json: maneuver 1: missing field 'angle_rad'" in err

    def test_non_finite_booking(self, capsys, tmp_path):
        # B_y^2 overflows in the field-modulation impulse: the booking is NaN, refused by the ledger
        series = tmp_path / "series.csv"
        series.write_text("t_s,E_x,B_y,chi0_xy\n0,0,1,1e-3\n1,1,1e300,2e-3\n2,0,1,1e-3\n")
        modulation = {"type": "field_modulation", "series_csv": str(series)}
        err = self.run_ledger(capsys, tmp_path, [None], [modulation])
        assert err.endswith(
            "maneuvers.json: maneuver 0 failed: booking [nan, nan, nan] kg m/s is not finite\n"
        )

    @pytest.mark.parametrize("size", [1e-200, 1e100, 0.0])
    def test_unrepresentable_aggregation_size(self, capsys, tmp_path, size):
        aggregation = {"type": "aggregation", "N": 8, "a_m": size, "direction": [0, 0, 1]}
        err = self.run_ledger(capsys, tmp_path, [None], [aggregation])
        assert err.endswith(f"maneuvers.json: maneuver 0: a_m {size!r} is out of range\n")

    def test_overflowing_axis_norm_books_as_its_direction(self, capsys, tmp_path):
        particle = Particle(1e-9, 1e3, MagnetoElectricTensor.from_xy(1e-3))
        p_path, m_path = tmp_path / "particles.json", tmp_path / "maneuvers.json"
        p_path.write_text(json.dumps([particle_to_dict(particle)]))
        argv = ["ledger", "--particles", str(p_path), "--maneuvers", str(m_path), "--M-total", "1"]
        outputs = []
        for axis in ([1e308, 1e308, 0], [1, 1, 0]):  # the first norm overflows
            m_path.write_text(json.dumps([{**self.ROTATION, "axis": axis}]))
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("which", ["particles", "maneuvers"])
    def test_file_that_is_not_a_list(self, capsys, tmp_path, which):
        good = particle_to_dict(Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3)))
        files = {"particles": [good], "maneuvers": [self.ROTATION]}
        files[which] = files[which][0]  # the one record, not a list of it
        for name, payload in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, "ledger", "--particles", str(tmp_path / "particles.json"),
            "--maneuvers", str(tmp_path / "maneuvers.json"), "--M-total", "1.0",
        )
        assert (code, out) == (1, "")
        path = tmp_path / f"{which}.json"
        assert err == f"error: {path}: expected a JSON list of {which}, got dict\n"

    def test_maneuver_that_is_not_an_object(self, capsys, tmp_path):
        err = self.run_ledger(capsys, tmp_path, [None], [self.ROTATION, 5])
        path = tmp_path / "maneuvers.json"
        assert err == f"error: {path}: maneuver 1: expected an object, got int\n"

    @pytest.mark.parametrize(
        "maneuver, shown",
        [({"type": "warp", "angle_rad": 1.0}, "'warp'"), ({"angle_rad": 1.0}, "None")],
    )
    def test_unknown_or_missing_maneuver_type(self, capsys, tmp_path, maneuver, shown):
        err = self.run_ledger(capsys, tmp_path, [None], [maneuver])
        assert err == (
            f"error: {tmp_path / 'maneuvers.json'}: maneuver 0:"
            f" field 'type': unknown maneuver type {shown}\n"
        )

    @pytest.mark.parametrize(
        "which, key",
        [("particles", "kappa1"), ("maneuvers", "angle_rad"), ("particles", "size_a_m")],
    )
    def test_record_with_a_duplicate_key(self, capsys, tmp_path, which, key):
        good = particle_to_dict(Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3)))
        for name, record in {"particles": good, "maneuvers": self.ROTATION}.items():
            text = twice(record, key, 0.5) if name == which else json.dumps(record)
            (tmp_path / f"{name}.json").write_text(f"[{text}]")
        code, out, err = run_cli(
            capsys, "ledger", "--particles", str(tmp_path / "particles.json"),
            "--maneuvers", str(tmp_path / "maneuvers.json"), "--M-total", "1.0",
        )
        assert (code, out) == (1, "")
        path = tmp_path / f"{which}.json"
        assert err == f"error: {path}: not valid JSON: duplicate key {key!r}\n"

    def test_rotation_that_breaks_the_lab_frame_bound(self, capsys, tmp_path):
        # |chi0|_F = 2.7: every entry is within the bound until the turn pushes one past it
        wide = {"chi0": [0.9] * 9, "size_a_m": 1e-9, "density_kg_m3": 1e3}
        cavity = {"type": "cavity_modulation", "dB2_dt": 1.0, "duration_s": 1.0}
        turn = {"type": "rotation", "axis": [1, 1, 0], "angle_rad": 0.7}
        err = self.run_ledger(capsys, tmp_path, [None, wide], [cavity, turn])
        assert err == (
            f"error: {tmp_path / 'maneuvers.json'}: maneuver 1 failed:"
            " particle 1: lab-frame |chi0| entries exceed sanity bound 1.0\n"
        )

    @pytest.mark.parametrize("maneuvers", [[], [{"type": "cavity_modulation", "dB2_dt": 1.0,
                                                  "duration_s": 1.0}]])
    def test_particle_past_the_lab_frame_bound_names_the_particle_file(
        self, capsys, tmp_path, maneuvers
    ):
        # every body-frame entry is within the bound; the orientation pushes one past it, which
        # the particle file is refused for, with no maneuver or before the first
        wide = {"chi0": [0.9] * 9, "size_a_m": 1e-9, "density_kg_m3": 1e3,
                "orientation": rotation_about([1, 1, 0], 0.7).ravel().tolist()}
        err = self.run_ledger(capsys, tmp_path, [wide], maneuvers)
        assert err == (
            f"error: {tmp_path / 'particles.json'}:"
            " particle 0: lab-frame |chi0| entries exceed sanity bound 1.0\n"
        )

    def test_unrepresentable_particle_size(self, capsys, tmp_path):
        # Particle refuses this size too, so the record is written directly
        tiny = {"chi0": [0, 1e-3] + [0] * 7, "size_a_m": 1e-320, "density_kg_m3": 1000.0}
        err = self.run_ledger(capsys, tmp_path, [None, tiny], [self.ROTATION])
        assert err.endswith(
            "particles.json: particle 1: size_a must be positive, "
            "with a finite, non-zero a^4 and 1/a^4\n"
        )


# JSON values that are not numbers, though float() would take each
NOT_NUMBERS = [True, False, "4.95"]
PARTICLE_SCALARS = ["size_a_m", "density_kg_m3", "epsilon", "kappa1", "kappa2", "kappa3"]
# maneuver records by type, and their number fields: a scalar (entry None) or a vector entry
MANEUVER_RECORDS = {
    "rotation": {"type": "rotation", "axis": [1, 0, 0], "angle_rad": 1.0},
    "aggregation": {"type": "aggregation", "N": 8, "a_m": 1e-9, "direction": [0, 0, 1]},
    "cavity_modulation": {"type": "cavity_modulation", "dB2_dt": 1e-3, "duration_s": 1.0},
}
MANEUVER_NUMBERS = [
    ("rotation", "angle_rad", None),
    ("rotation", "axis", 2),
    ("aggregation", "N", None),
    ("aggregation", "a_m", None),
    ("aggregation", "direction", 2),
    ("cavity_modulation", "dB2_dt", None),
    ("cavity_modulation", "duration_s", None),
]


def with_value(record: dict, key: str, entry, value) -> dict:
    """A copy of ``record`` with ``value`` in field ``key``, or in its entry ``entry``."""
    record = json.loads(json.dumps(record))
    if entry is None:
        record[key] = value
    else:
        record[key][entry] = value
    return record


class TestRecordsHoldJsonNumbers:
    """A bool or a string where a spec, particle or maneuver record holds a number ends
    in one error line that names the file, the record and the field, with exit 1."""

    PARTICLE = particle_to_dict(Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3)))

    def run_refused(self, capsys, argv) -> str:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        return err

    def ledger_argv(self, tmp_path, maneuvers, *particles) -> list[str]:
        """A ledger call on ``maneuvers`` and a valid particle, then ``particles``."""
        p_path, m_path = tmp_path / "particles.json", tmp_path / "maneuvers.json"
        p_path.write_text(json.dumps([self.PARTICLE, *particles]))
        m_path.write_text(json.dumps(maneuvers))
        return ["ledger", "--particles", str(p_path), "--maneuvers", str(m_path), "--M-total", "1"]

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("key", list(SPEC))
    def test_spec_field(self, capsys, tmp_path, key, value):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**SPEC, key: value}))
        err = self.run_refused(capsys, ["mission", "--spec", str(path)])
        assert err == f"error: {path}: field {key!r} must be a number, got {value!r}\n"

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize(
        "key, entry", [*((k, None) for k in PARTICLE_SCALARS), ("chi0", 1), ("orientation", 4)]
    )
    def test_particle_field(self, capsys, tmp_path, key, entry, value):
        bad = with_value(self.PARTICLE, key, entry, value)
        argv = self.ledger_argv(tmp_path, [MANEUVER_RECORDS["rotation"]], bad)
        err = self.run_refused(capsys, argv)
        kind = "a number" if entry is None else "a list of numbers"
        assert err == (
            f"error: {tmp_path / 'particles.json'}: particle 1: field {key!r} must be {kind},"
            f" got {bad[key]!r}\n"
        )

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("kind, key, entry", MANEUVER_NUMBERS)
    def test_maneuver_field(self, capsys, tmp_path, kind, key, entry, value):
        bad = with_value(MANEUVER_RECORDS[kind], key, entry, value)
        argv = self.ledger_argv(tmp_path, [MANEUVER_RECORDS["rotation"], bad])
        err = self.run_refused(capsys, argv)
        expected = "a number" if entry is None else "a list of numbers"
        assert err == (
            f"error: {tmp_path / 'maneuvers.json'}: maneuver 1: field {key!r} must be {expected},"
            f" got {bad[key]!r}\n"
        )

    def test_series_path_is_a_string(self, capsys, tmp_path):
        modulation = {"type": "field_modulation", "series_csv": 5}
        err = self.run_refused(capsys, self.ledger_argv(tmp_path, [modulation]))
        assert err == (
            f"error: {tmp_path / 'maneuvers.json'}: maneuver 0:"
            " field 'series_csv' must be a string, got 5\n"
        )

    def test_nan_cavity_rate_is_refused_at_its_field(self, capsys, tmp_path):
        cavity = {**MANEUVER_RECORDS["cavity_modulation"], "dB2_dt": float("nan")}
        err = self.run_refused(capsys, self.ledger_argv(tmp_path, [cavity]))
        assert err == (
            f"error: {tmp_path / 'maneuvers.json'}: maneuver 0: dB2_dt must be finite, got nan\n"
        )

    @pytest.mark.parametrize("command", ["mission", "solve", "sweep"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"chi0": 1e-3', "not valid JSON: Expecting ',' delimiter"),
            ('{"target_rate": ', "not valid JSON: Expecting value: line 1 column 17 (char 16)\n"),
            (json.dumps({**SPEC, "thrusters": 4}), "unknown fields: ['thrusters']\n"),
            (json.dumps({**SPEC, "wheel_radius": None}), "field 'wheel_radius' must be a number"),
            (json.dumps({"chi0": 1e-3}), "missing field 'target_rate'"),
            (NESTED, TOO_DEEP),
            # within the decoder's recursion limit in a new interpreter, but past the reader's
            ("[" * 990 + "0" + "]" * 990, TOO_DEEP),
            (twice(SPEC, "target_rate", 400.0), "not valid JSON: duplicate key 'target_rate'\n"),
            (
                "\ufeff" + json.dumps(SPEC),
                "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig):"
                " line 1 column 1 (char 0)\n",
            ),
        ],
        ids=[
            "unclosed", "truncated", "unknown-field", "null-field", "missing-field",
            "nested-past-limit", "nested-990", "duplicate-key", "bom",
        ],
    )
    def test_spec_read_error_names_the_file(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        argv = [command, "--spec", str(path)]
        if command == "solve":
            argv += ["--unknown", "chi0"]
        messages = message if isinstance(message, tuple) else (message,)
        err = self.run_refused(capsys, argv)
        assert err.startswith(tuple(f"error: {path}: {m}" for m in messages))


class TestCliContract:
    def test_identical_argv_byte_identical_output(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "delta-v-rot", *DESIGN_ARGS, "--format", "json")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_json_outputs_parse(self, capsys, tmp_path, spec_file, series_file):
        particles_path = tmp_path / "p.json"
        particle = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3))
        particles_path.write_text(json.dumps([particle_to_dict(particle)]))
        maneuvers_path = tmp_path / "m.json"
        maneuvers_path.write_text(
            json.dumps([{"type": "rotation", "axis": [1, 0, 0], "angle_rad": 3.14159}])
        )
        commands = [
            ["delta-v-rot", *DESIGN_ARGS],
            ["delta-v-agg", "--chi", "1e-3", "--a", "1e-9", "--rho", "1000", "--N", "8"],
            ["vacuum-momentum", "--chi", "1e-3", "--a", "1e-9"],
            ["oracle", "--chi", "1e-3", "--a", "1e-9", "--n", "8"],
            ["force-decompose", "--series", series_file],
            ["mission", "--spec", spec_file],
            ["solve", "--spec", spec_file, "--unknown", "chi0"],
            ["sweep", "--spec", spec_file, "--chi", "1e-4,1e-3"],
            [
                "ledger",
                "--particles", str(particles_path),
                "--maneuvers", str(maneuvers_path),
                "--M-total", "1.0",
            ],
        ]
        for argv in commands:
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert code == 0, argv
            json.loads(out)

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "mission", "--spec", "/nonexistent/spec.json")
        assert code == 1
        assert "error:" in err

    def test_invalid_value_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "delta-v-rot", "--chi", "1e-3", "--a=-1e-9", "--rho", "1000"
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("command", ["mission", "solve", "sweep"])
    @pytest.mark.parametrize("payload, kind", [([1, 2], "list"), (5, "int"), (None, "NoneType")])
    def test_spec_that_is_not_an_object(self, capsys, tmp_path, command, payload, kind):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        argv = [command, "--spec", str(path)]
        if command == "solve":
            argv += ["--unknown", "chi0"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: expected an object, got {kind}\n"

    def test_deeply_nested_particles_exit_one(self, capsys, tmp_path):
        path = tmp_path / "particles.json"
        path.write_text(NESTED)
        code, out, err = run_cli(
            capsys, "ledger", "--particles", str(path), "--maneuvers", "m.json", "--M-total", "1"
        )
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {TOO_DEEP}"
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["vacuum-momentum", "--chi", "inf", "--a", "1e-9"], "--chi"),
            (["vacuum-momentum", "--chi", "nan", "--a", "1e-9"], "--chi"),
            (["vacuum-momentum", "--chi", "1e-3", "--a", "inf"], "--a"),
            (["vacuum-momentum", "--chi", "1e-3", "--a", "1e-9", "--A", "nan"], "--A"),
            (["delta-v-rot", "--chi", "nan", "--a", "1e-9", "--rho", "1000"], "--chi"),
            (["delta-v-rot", "--chi", "1e-3", "--a", "nan", "--rho", "1000"], "--a"),
            (["delta-v-rot", "--chi", "1e-3", "--a", "1e-9", "--rho", "inf"], "--rho"),
            (["delta-v-rot", *DESIGN_ARGS[:-2], "--A=-inf"], "--A"),
            (["delta-v-agg", "--chi", "1e-3", "--a", "1e-9", "--rho", "1000", "--N", "inf"], "--N"),
            (["delta-v-agg", "--chi", "1e-3", "--a", "1e-9", "--rho", "nan", "--N", "8"], "--rho"),
            (["oracle", "--chi", "inf", "--n", "8"], "--chi"),
            (["oracle", "--chi", "nan", "--n", "8"], "--chi"),
            (["oracle", "--chi", "1e-3", "--a", "1e-9,inf", "--n", "8"], "--a"),
            (["oracle", "--chi", "1e-3", "--a", "nan", "--n", "8"], "--a"),
        ],
    )
    def test_non_finite_flag_exits_one(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag} must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "axes, message",
        [
            (["--a", "0"], "--a 0.0 is out of range"),
            (["--a", "1e-9,-2e-9"], "--a -2e-09 is out of range"),
            (["--chi", "-1", "--fraction", "2"], "--chi -1.0 is out of range"),
            (["--fraction", "0.5,2"], "--fraction 2.0 is out of range"),
            (["--rho", "0"], "--rho 0.0 is out of range"),
            (["--A=-1e-2"], "--A -0.01 is out of range"),
            (["--a", "1e-9,1e-200"], "--a 1e-200 is out of range"),  # a**4 underflows
            (
                ["--chi", "1", "--rho", "1e-300", "--A", "1e300"],
                "--chi 1.0 --a 1e-09 --rho 1e-300 --fraction 0.5 --A 1e+300"
                " gives a non-finite dv_m_s",
            ),
            (["--chi", "5,0.5"], "--chi 5.0 is out of range"),  # above the sanity bound
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bad_sweep_axis_exits_one(self, capsys, tmp_path, spec_file, axes, message, fmt):
        out_path = tmp_path / "sweep.out"
        argv = ["sweep", "--spec", spec_file, *axes, "--format", fmt]
        for extra in ([], ["--out", str(out_path)]):
            code, out, err = run_cli(capsys, *argv, *extra)
            assert code == 1
            assert out == ""
            assert err == f"error: {message}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["vacuum-momentum", "--chi", "5", "--a", "1e-9"], "--chi 5.0 is out of range"),
            (
                ["delta-v-agg", "--chi", "-5", "--a", "1e-9", "--rho", "1000", "--N", "8"],
                "--chi -5.0 is out of range",
            ),
            (["oracle", "--chi", "2", "--n", "8"], "--chi 2.0 is out of range"),
            (["oracle", "--chi", "1e-3", "--n", "100000"], "--n 100000 is out of range"),
            (
                ["delta-v-rot", "--chi", "1e-3", "--a", "1e-9", "--rho", "1e-300"],
                ZERO_M_A,  # rho * a^4 underflows
            ),
            (
                ["delta-v-rot", "--chi", "1", "--a", "1e-9", "--rho", "1000", "--A", "1e308"],
                f"m*a = {1000 * 1e-9**4!r} gives a non-finite rotation delta-v",
            ),
            # each flag's rule is checked at the boundary, and the error names the flag
            (["delta-v-rot", *DESIGN_ARGS[:4], "--rho=-1"], "--rho -1.0 is out of range"),
            (["delta-v-rot", *DESIGN_ARGS[:-2], "--A=-1"], "--A -1.0 is out of range"),
            (["delta-v-agg", *DESIGN_ARGS[:-2], "--N", "0.5"], "--N 0.5 is out of range"),
            (
                ["force-decompose", "--series", "unread.csv", "--epsilon", "0.5"],
                "--epsilon 0.5 is out of range",
            ),
            (
                ["ledger", "--particles", "p", "--maneuvers", "m", "--M-total", "0"],
                "--M-total 0.0 is out of range",
            ),
            (["oracle", "--chi", "1e-3", "--n", "0"], "--n 0 is out of range"),
            (["oracle", "--chi", "1e-3", "--n", "16,4"], "--n 4 is out of range"),
            (["oracle", "--chi", "1e-3", "--n=-4"], "--n -4 is out of range"),
            (["sweep", "--spec", "s.json", "--jobs", "0"], "--jobs 0 is out of range"),
        ],
    )
    def test_physics_bound_exits_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv", [["oracle", "--chi", "1e-3", "--n"], ["sweep", "--spec", "s.json", "--jobs"]]
    )
    def test_int_flag_too_large_for_a_float_exits_one(self, capsys, argv):
        value = -(10**400)  # math.isfinite(value) raises OverflowError
        code, out, err = run_cli(capsys, *argv, str(value))
        assert (code, out, err) == (1, "", f"error: {argv[-1]} {value} is out of range\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["oracle", "--chi", "1e-3", "--n", ",,"], "--n expects comma-separated integers"),
            (["oracle", "--chi", "1e-3", "--n="], "--n expects comma-separated integers"),
            (["oracle", "--chi", "1e-3", "--a", ",,"], "--a expects comma-separated numbers"),
            (["sweep", "--spec", "SPEC", "--chi", ",,"], "--chi expects comma-separated numbers"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_list_exits_one(self, capsys, tmp_path, spec_file, argv, message, fmt):
        out_path = tmp_path / "out"
        text = "" if argv[-1].endswith("=") else argv[-1]
        argv = [spec_file if x == "SPEC" else x for x in argv] + ["--format", fmt]
        for extra in ([], ["--out", str(out_path)]):
            err = f"error: {message}, got {text!r}\n"
            assert run_cli(capsys, *argv, *extra) == (1, "", err)
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["delta-v-rot", "--chi", "1e-3", "--a", "1e-200", "--rho", "1000"], "1e-200"),
            (["delta-v-rot", "--chi", "1e-3", "--a", "1e100", "--rho", "1000"], "1e+100"),
            (["delta-v-rot", "--chi", "1e-3", "--a", "1e-78", "--rho", "1000"], "1e-78"),
            (["delta-v-agg", "--chi", "1e-3", "--a", "1e-200", "--rho", "1", "--N", "8"], "1e-200"),
            (["vacuum-momentum", "--chi", "1e-3", "--a", "2e77"], "2e+77"),
            (["oracle", "--chi", "1e-3", "--a", "1e-9,1e-300", "--n", "8"], "1e-300"),
        ],
    )
    def test_unrepresentable_size_flag_exits_one(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: --a {value} is out of range\n"

    @pytest.mark.parametrize("size", [1e-200, 1e100])
    @pytest.mark.parametrize("command", ["mission", "solve"])
    def test_unrepresentable_spec_size_exits_one(self, capsys, tmp_path, spec_file, command, size):
        spec = json.loads(open(spec_file).read())
        spec["particle_size"] = size
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [command, "--spec", str(path)]
        if command == "solve":
            argv += ["--unknown", "chi0"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {path}: invalid mission spec: particle_size = {size!r} is out of range\n"
        )

    @pytest.mark.parametrize(
        "argv, field, value, message",
        [
            (["mission"], "chi0", 5.0, "invalid mission spec: chi0 = 5.0 is out of range"),
            (
                ["solve", "--unknown", "active_mass_fraction"],
                "chi0",
                5.0,
                "invalid mission spec: chi0 = 5.0 is out of range",
            ),
            (["sweep"], "chi0", 5.0, "invalid mission spec: chi0 = 5.0 is out of range"),
            # rho * a^4 underflows to 0
            (["mission"], "particle_density", 1e-300, ZERO_M_A),
            (["mission", "--format", "json"], "particle_density", 1e-300, ZERO_M_A),
            (["solve", "--unknown", "chi0"], "particle_density", 1e-300, ZERO_M_A),
            (["solve", "--unknown", "particle_size"], "particle_density", 1e-300, ZERO_M_A),
            # target_rate * pi/180/86400 * wheel_radius underflows to 0
            (["mission"], "target_rate", 1e-320, ZERO_REQUIRED),
            (["solve", "--unknown", "chi0"], "target_rate", 1e-320, ZERO_REQUIRED),
            (["solve", "--unknown", "particle_size"], "target_rate", 1e-320, ZERO_REQUIRED),
            (["sweep"], "target_rate", 1e-320, ZERO_REQUIRED),
            # the unknown's own value is checked too, though the solve replaces it
            (
                ["solve", "--unknown", "chi0"],
                "chi0",
                5.0,
                "invalid mission spec: chi0 = 5.0 is out of range",
            ),
        ],
    )
    def test_refused_spec_value_exits_one(
        self, capsys, tmp_path, spec_file, argv, field, value, message
    ):
        with open(spec_file) as fh:
            spec = json.load(fh)
        spec[field] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, argv[0], "--spec", str(path), *argv[1:])
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: {message}\n"

    def test_series_cell_longer_than_the_csv_limit_exits_one(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text('t_s,E_x,B_y\n0,1,2\n1,"' + "1" * 200_000 + '",3\n2,1,1\n')
        code, out, err = run_cli(capsys, "force-decompose", "--series", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: line 3: field larger than field limit")
        assert err.count("\n") == 1

    def test_empty_series_exits_one(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("")
        code, out, err = run_cli(capsys, "force-decompose", "--series", str(path))
        assert (code, out, err) == (1, "", f"error: {path}: empty series CSV\n")

    @BAD_SERIES_HEADERS
    def test_series_with_a_refused_header_exits_one(self, capsys, tmp_path, text, message):
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "force-decompose", "--series", str(path))
        assert (code, out, err) == (1, "", f"error: {path}: {message}\n")

    def test_files_are_read_as_utf8_in_an_ascii_locale(self, tmp_path):
        particles, maneuvers = tmp_path / "particles.json", tmp_path / "maneuvers.json"
        record = {"chi0": [0, 1e-3] + [0] * 7, "size_a_m": 1e-9, "density_kg_m3": 1e3,
                  "orientati\u00f3n": [1, 0, 0, 0, 1, 0, 0, 0, 1]}
        particles.write_text(json.dumps([record], ensure_ascii=False), encoding="utf-8")
        maneuvers.write_text("[]")
        series = tmp_path / "series.csv"  # full-width digits, which float() reads
        series.write_text("t_s,E_x,B_y\n\uff10,\uff11,\uff12\n1,3,4\n2,5,6\n", encoding="utf-8")
        ledger = ["ledger", "--particles", str(particles), "--maneuvers", str(maneuvers),
                  "--M-total", "1"]
        forces = ["force-decompose", "--series", str(series)]
        results = [fresh_process(*argv) for argv in (ledger, forces)]
        refused = f"error: {particles}: particle 0: unknown fields: ['orientati\u00f3n']\n"
        assert results[0] == (1, "", refused)
        code, out, err = results[1]
        assert (code, out.splitlines()[1], err) == (0, "0.0,4.0,0.0,0.0,4.0", "")
        # the locale's preferred encoding is ASCII; stdout and stderr stay UTF-8
        ascii_locale = {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C",
                        "PYTHONIOENCODING": "utf-8"}
        assert [fresh_process(*argv, env=ascii_locale) for argv in (ledger, forces)] == results

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["delta-v-rot", "--chi", "1e-3"])  # missing required flags
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["warp-drive", *DESIGN_ARGS])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (["delta-v-rot", "--chi", "abc", "--a", "1e-9", "--rho", "1000"], "--chi", "'abc'"),
            (["delta-v-rot", "--chi=", "--a", "1e-9", "--rho", "1000"], "--chi", "''"),
            (["delta-v-agg", *DESIGN_ARGS[:-2], "--N", "8x"], "--N", "'8x'"),
            (["vacuum-momentum", "--chi", "1e-3", "--a", "1e-9", "--A", "1,2"], "--A", "'1,2'"),
            (["oracle", "--chi", "0x1", "--n", "8"], "--chi", "'0x1'"),
            (["force-decompose", "--series", "s.csv", "--epsilon", "e"], "--epsilon", "'e'"),
            (
                ["ledger", "--particles", "p.json", "--maneuvers", "m.json", "--M-total", "1 kg"],
                "--M-total",
                "'1 kg'",
            ),
            (["sweep", "--spec", "s.json", "--jobs", "abc"], "--jobs", "'abc'"),
            (["sweep", "--spec", "s.json", "--jobs", "2.5"], "--jobs", "'2.5'"),
            (["sweep", "--spec", "s.json", "--jobs="], "--jobs", "''"),
        ],
    )
    def test_non_numeric_flag_exits_one(self, capsys, argv, flag, text):
        code, out, err = run_cli(capsys, *argv)
        expected = "an integer" if flag == "--jobs" else "a number"
        assert (code, out, err) == (1, "", f"error: {flag} expects {expected}, got {text}\n")

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["delta-v-rot", *DESIGN_ARGS, "--warp-factor", "9"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: zpfdrive delta-v-rot [-h]")
        assert err.splitlines()[-1] == (
            "zpfdrive delta-v-rot: error: unrecognized arguments: --warp-factor 9"
        )

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "zpfdrive.cli", "delta-v-rot", *DESIGN_ARGS],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "2.10914e-06" in result.stdout


# a command that takes no --format csv, and its required flags
NARROWED = {
    "delta-v-rot": DESIGN_ARGS,
    "delta-v-agg": [*DESIGN_ARGS, "--N", "8"],
    "vacuum-momentum": ["--chi", "1e-3", "--a", "1e-9"],
    "mission": ["--spec", "s.json"],
    "solve": ["--spec", "s.json", "--unknown", "chi0"],
    "ledger": ["--particles", "p.json", "--maneuvers", "m.json", "--M-total", "1"],
}


class TestFormats:
    """A command's --format choices are the formats it writes: csv only where it writes CSV."""

    def test_choices_are_the_writer_keys(self):
        for command, (_, _, _, writers, _) in cli._COMMANDS.items():
            assert cli._TABLES[command][0]["--format"][1] == tuple(writers)
        assert {c for c, entry in cli._COMMANDS.items() if "csv" in entry[3]} == {
            "oracle", "force-decompose", "sweep"
        }
        assert set(NARROWED) == {c for c, entry in cli._COMMANDS.items() if "csv" not in entry[3]}

    @pytest.mark.parametrize("value", ["csv", "--"])
    @pytest.mark.parametrize("command", sorted(NARROWED))
    def test_csv_is_a_usage_error(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *NARROWED[command], f"--format={value}"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"zpfdrive {command}: error: argument --format: invalid choice: '{value}'"
            " (choose from 'text', 'json')"
        )


class TestNestingLimit:
    """The JSON reader refuses arrays and objects nested deeper than its own limit, well below
    the recursion limit, whatever the depth of its caller's stack."""

    @staticmethod
    def deeper(frames, call):
        return call() if frames == 0 else TestNestingLimit.deeper(frames - 1, call)

    @pytest.mark.parametrize(
        "depth, line",
        [(100, "expected an object, got list"), (101, TOO_DEEP[:-1]), (990, TOO_DEEP[:-1])],
    )
    def test_same_error_line_in_a_new_interpreter_and_30_frames_deeper(
        self, capsys, tmp_path, depth, line
    ):
        path = tmp_path / "spec.json"
        path.write_text("[" * depth + "0" + "]" * depth)
        argv = ["mission", "--spec", str(path)]
        expected = (1, "", f"error: {path}: {line}\n")
        assert fresh_process(*argv) == expected
        assert self.deeper(30, lambda: run_cli(capsys, *argv)) == expected

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from zpfdrive import cli
from zpfdrive.dynamics import (
    FieldTimeSeries,
    delta_v_aggregation,
    delta_v_rotation,
    force_decomposed,
)
from zpfdrive.material import MagnetoElectricTensor, Particle, particle_to_dict
from zpfdrive.mission import MissionSpec, evaluate_mission
from zpfdrive.vacuum import VacuumModel, convergence_study, vacuum_momentum_closed_form


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


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "design_point.json"
    path.write_text(
        json.dumps(
            {
                "target_rate": 4.95,
                "wheel_radius": 1.0,
                "satellite_mass": 100.0,
                "active_mass_fraction": 0.5,
                "particle_size": 1e-9,
                "particle_density": 1000.0,
                "chi0": 1e-3,
                "prefactor_A": 1e-2,
            }
        )
    )
    return str(path)


@pytest.fixture
def series_file(tmp_path):
    t = np.linspace(0.0, 1.0, 21)
    series = FieldTimeSeries(t=t, e_x=np.sin(3 * t), b_y=np.cos(2 * t))
    path = tmp_path / "series.csv"
    series.to_csv(path)
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
            "error: invalid mission spec: target_rate = 4.95 at wheel_radius = 1e-300"
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

    def test_oracle_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--chi", "1e-3", "--a", "1e-9", "--n", "8", "--format", "json"
        )
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["n_per_axis"] == 8

    def test_force_decompose(self, capsys, series_file):
        code, out, _ = run_cli(
            capsys, "force-decompose", "--series", series_file, "--chi", "1e-3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_s,f_dielectric,f_magnetoelectric,f_chi_rate,f_total"
        assert len(lines) == 22

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
        series.to_csv(path)
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
        FieldTimeSeries(t=t, e_x=np.zeros(11), b_y=b_y).to_csv(path)
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

    def test_ledger(self, capsys, tmp_path):
        particles_path = tmp_path / "particles.json"
        particle = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3))
        particles_path.write_text(json.dumps([particle_to_dict(particle)]))
        maneuvers_path = tmp_path / "maneuvers.json"
        maneuvers_path.write_text(
            json.dumps(
                [
                    {"type": "rotation", "axis": [1, 0, 0], "angle_rad": 3.141592653589793},
                    {"type": "cavity_modulation", "dB2_dt": 2.0, "duration_s": 0.5},
                    {"type": "aggregation", "N": 8, "a_m": 1e-9, "direction": [0, 1, 0]},
                ]
            )
        )
        code, out, _ = run_cli(
            capsys,
            "ledger",
            "--particles", str(particles_path),
            "--maneuvers", str(maneuvers_path),
            "--M-total", "1.0",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["type"] == "rotation"
        assert len(first["cumulative_v"]) == 3

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


def fresh_process(*argv):
    """Exit code, stdout and stderr of one CLI call in a new interpreter."""
    result = subprocess.run(
        [sys.executable, "-m", "zpfdrive.cli", *argv], capture_output=True, text=True
    )
    return result.returncode, result.stdout, result.stderr


class TestParserReuse:
    """main parses every call of a process with one parser: no call leaks into the next."""

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

    def test_unrepresentable_particle_size(self, capsys, tmp_path):
        tiny = particle_to_dict(Particle(1e-320, 1000.0, MagnetoElectricTensor.from_xy(1e-3)))
        err = self.run_ledger(capsys, tmp_path, [None, tiny], [self.ROTATION])
        assert err.endswith(
            "particles.json: particle 1: size_a must be positive, "
            "with a finite, non-zero a^4 and 1/a^4\n"
        )


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
        assert err == f"error: mission spec must be a JSON object, got {kind}\n"

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
            (
                ["oracle", "--chi", "1e-3", "--n", "100000"],
                "n_per_axis must be <= 2048, got 100000",
            ),
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
        ],
    )
    def test_physics_bound_exits_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

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
        assert err == f"error: invalid mission spec: particle_size = {size!r} is out of range\n"

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
        assert err == f"error: {message}\n"

    def test_series_cell_longer_than_the_csv_limit_exits_one(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text('t_s,E_x,B_y\n0,1,2\n1,"' + "1" * 200_000 + '",3\n2,1,1\n')
        code, out, err = run_cli(capsys, "force-decompose", "--series", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: line 3: field larger than field limit")
        assert err.count("\n") == 1

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["delta-v-rot", "--chi", "1e-3"])  # missing required flags
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["delta-v-rot", *DESIGN_ARGS, "--warp-factor", "9"])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "zpfdrive.cli", "delta-v-rot", *DESIGN_ARGS],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "2.10914e-06" in result.stdout

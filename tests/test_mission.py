import io
import itertools
import json
import math
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfdrive import mission
from zpfdrive.mission import (
    InfeasibleError,
    MissionSpec,
    MissionSpecError,
    SOLVE_BRACKETS,
    SWEEP_CSV_HEADER,
    SweepCapError,
    SweepMode,
    SweepValueError,
    analytic_solve_for_unknown,
    evaluate_mission,
    solve_for_unknown,
    sweep,
    tangential_v_to_rate,
)
from zpfdrive.quantities import HBAR_J_S


def design_point(**overrides) -> MissionSpec:
    base = dict(
        target_rate=4.95,
        wheel_radius=1.0,
        satellite_mass=100.0,
        active_mass_fraction=0.5,
        particle_size=1e-9,
        particle_density=1000.0,
        chi0=1e-3,
        prefactor_A=1e-2,
    )
    base.update(overrides)
    return MissionSpec(**base)


def required_v(rate: float, radius: float) -> float:
    """The tangential velocity that a mission at ``rate`` deg/day and ``radius`` requires."""
    report = evaluate_mission(design_point(target_rate=rate, wheel_radius=radius))
    return report.required_tangential_v


class TestRateConversion:
    def test_several_degrees_per_day_is_a_micron_per_second(self):
        assert required_v(4.95, 1.0) == pytest.approx(1.0e-6, rel=1e-3)

    def test_zero_rate(self):
        assert tangential_v_to_rate(0.0, 1.0) == 0.0

    def test_linear_in_radius(self):
        assert required_v(4.95, 2.0) == pytest.approx(2 * required_v(4.95, 1.0), rel=1e-14)

    def test_round_trip_identity(self):
        for rate in (0.1, 1.0, 4.95, 123.0):
            v = required_v(rate, 2.5)
            assert tangential_v_to_rate(v, 2.5) == pytest.approx(rate, rel=1e-12)

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            tangential_v_to_rate(1.0, 0.0)


class TestEvaluateMission:
    def test_design_point_feasible_with_five_percent_margin(self):
        report = evaluate_mission(design_point())
        assert report.feasible
        assert report.achieved_tangential_v == pytest.approx(1.0545718e-6, rel=1e-6)
        assert report.margin == pytest.approx(1.055, rel=1e-2)

    def test_reported_material_gap(self):
        report = evaluate_mission(design_point(chi0=1e-4))
        assert not report.feasible
        assert report.margin == pytest.approx(0.105, rel=1e-2)

    def test_vanishing_fraction_is_infeasible(self):
        report = evaluate_mission(design_point(active_mass_fraction=1e-8))
        assert not report.feasible
        assert report.achieved_tangential_v < 1e-12

    def test_invalid_spec_enumerates_fields(self):
        with pytest.raises(MissionSpecError) as err:
            design_point(chi0=-1.0, particle_size=0.0)
        assert str(err.value) == (
            "invalid mission spec: particle_size = 0.0 is out of range; chi0 = -1.0 is out of range"
        )

    def test_margin_linear_in_chi0(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            chi = rng.uniform(1e-5, 1e-2)
            factor = rng.uniform(1.5, 4.0)
            m1 = evaluate_mission(design_point(chi0=chi)).margin
            m2 = evaluate_mission(design_point(chi0=factor * chi)).margin
            assert m2 / m1 == pytest.approx(factor, rel=1e-10)

    def test_margin_linear_in_fraction(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = rng.uniform(0.01, 0.5)
            factor = rng.uniform(1.1, 2.0)
            m1 = evaluate_mission(design_point(active_mass_fraction=f)).margin
            m2 = evaluate_mission(design_point(active_mass_fraction=factor * f)).margin
            assert m2 / m1 == pytest.approx(factor, rel=1e-10)

    def test_margin_quartic_in_inverse_size_at_fixed_density(self):
        # achieved ~ 1/a^4 once m = rho a^3 is expanded in hbar/(m a)
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.uniform(5e-10, 5e-9)
            factor = rng.uniform(1.2, 3.0)
            m1 = evaluate_mission(design_point(particle_size=a)).margin
            m2 = evaluate_mission(design_point(particle_size=factor * a)).margin
            assert m1 / m2 == pytest.approx(factor**4, rel=1e-9)


class TestSpecJson:
    def test_exact_field_names(self):
        spec = design_point()
        d = spec.to_dict()
        assert set(d) == {
            "target_rate",
            "wheel_radius",
            "satellite_mass",
            "active_mass_fraction",
            "particle_size",
            "particle_density",
            "chi0",
            "prefactor_A",
        }
        assert MissionSpec.from_dict(d) == spec

    def test_unknown_keys_rejected(self):
        d = design_point().to_dict()
        d["thruster_count"] = 4
        with pytest.raises(MissionSpecError):
            MissionSpec.from_dict(d)

    def test_missing_required_key_rejected(self):
        d = design_point().to_dict()
        del d["satellite_mass"]
        with pytest.raises(MissionSpecError):
            MissionSpec.from_dict(d)

    def test_non_numeric_value_names_field(self):
        d = design_point().to_dict()
        d["chi0"] = "tiny"
        with pytest.raises(MissionSpecError) as err:
            MissionSpec.from_dict(d)
        assert "chi0" in str(err.value)

    def test_solvable_field_may_be_null(self):
        d = design_point().to_dict()
        d["chi0"] = None
        spec = MissionSpec.from_dict(d)
        assert spec.chi0 is None
        with pytest.raises(MissionSpecError):
            evaluate_mission(spec)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("target_rate", 0.0),
            ("wheel_radius", math.inf),
            ("satellite_mass", -1.0),
            ("active_mass_fraction", 1.5),
            ("particle_size", 1e-200),
            ("particle_density", math.nan),
            ("chi0", 2.0),
            ("prefactor_A", -1e-2),
        ],
    )
    def test_out_of_range_field_refused_at_construction(self, name, value):
        with pytest.raises(MissionSpecError) as err:
            design_point(**{name: value})
        assert str(err.value) == f"invalid mission spec: {name} = {value} is out of range"

    def test_only_a_solvable_field_may_be_unset(self):
        with pytest.raises(MissionSpecError) as err:
            design_point(target_rate=None, satellite_mass=None, chi0=None)
        assert str(err.value) == (
            "invalid mission spec: target_rate is not set; satellite_mass is not set"
        )
        for unknown in SOLVE_BRACKETS:
            assert getattr(design_point(**{unknown: None}), unknown) is None

    def test_unset_fields_other_than_the_unknown_are_refused_at_use(self):
        spec = design_point(chi0=None, particle_size=None)
        message = "invalid mission spec: particle_size is not set; chi0 is not set"
        for use in (evaluate_mission, lambda s: sweep(s, {})):
            with pytest.raises(MissionSpecError) as err:
                use(spec)
            assert str(err.value) == message
        for solve in (solve_for_unknown, analytic_solve_for_unknown):
            with pytest.raises(MissionSpecError) as err:
                solve(spec, "chi0")
            assert str(err.value) == "invalid mission spec: particle_size is not set"

    def test_from_json_stream(self):
        import json

        spec = MissionSpec.from_json(io.StringIO(json.dumps(design_point().to_dict())))
        assert spec == design_point()


class TestSolve:
    def test_chi0_at_design_point(self):
        spec = design_point(chi0=None)
        value = solve_for_unknown(spec, "chi0")
        # analytic: required * rho * a^4 / (2 A hbar f)
        required = required_v(4.95, 1.0)
        expected = required * 1000.0 * (1e-9) ** 4 / (2 * 1e-2 * HBAR_J_S * 0.5)
        assert value == pytest.approx(expected, rel=1e-8)
        assert value == pytest.approx(9.48e-4, rel=1e-2)

    def test_round_trip_margin_is_one(self):
        for unknown in SOLVE_BRACKETS:
            spec = design_point(**{unknown: None})
            value = solve_for_unknown(spec, unknown)
            report = evaluate_mission(replace(spec, **{unknown: value}))
            assert abs(report.margin - 1.0) <= 1e-9

    def test_bisection_matches_analytic(self):
        for unknown in SOLVE_BRACKETS:
            spec = design_point(**{unknown: None})
            bisect_value = solve_for_unknown(spec, unknown)
            analytic_value = analytic_solve_for_unknown(spec, unknown)
            assert bisect_value == pytest.approx(analytic_value, rel=1e-8)

    def test_fraction_minimal_when_already_feasible(self):
        # requirement so lax that even the bracket floor over-delivers
        spec = design_point(target_rate=1e-12, active_mass_fraction=None)
        assert solve_for_unknown(spec, "active_mass_fraction") == SOLVE_BRACKETS[
            "active_mass_fraction"
        ][0]

    def test_infeasible_reports_bracket(self):
        spec = design_point(target_rate=1e12, chi0=None)
        with pytest.raises(InfeasibleError) as err:
            solve_for_unknown(spec, "chi0")
        assert "infeasible for any value in" in str(err.value)

    def test_subatomic_size_warns(self):
        # a demanding rate pushes the solved size below the atomic scale
        spec = design_point(target_rate=4.95e6, chi0=1e-4, particle_size=None)
        with pytest.warns(UserWarning, match="atomic"):
            value = solve_for_unknown(spec, "particle_size")
        assert value < 1e-10

    def test_unknown_name_validated(self):
        message = r"^unknown must be one of \['active_mass_fraction', 'chi0', 'particle_size'\]$"
        for solve in (solve_for_unknown, analytic_solve_for_unknown):
            with pytest.raises(ValueError, match=message):
                solve(design_point(), "satellite_mass")

    @pytest.mark.parametrize("unknown", sorted(SOLVE_BRACKETS))
    def test_runtime_under_a_millisecond(self, unknown):
        spec = design_point(**{unknown: None})
        runtime = math.inf
        for _ in range(20):
            t0 = time.perf_counter()
            solve_for_unknown(spec, unknown)
            runtime = min(runtime, time.perf_counter() - t0)
        assert runtime < 1e-3

    def test_zero_m_a_is_refused(self):
        spec = design_point(particle_density=1e-300, chi0=None)  # rho * a^4 underflows to 0
        with pytest.raises(ValueError, match="non-finite rotation delta-v"):
            solve_for_unknown(spec, "chi0")
        with pytest.raises(ValueError, match="non-finite rotation delta-v"):
            analytic_solve_for_unknown(spec, "chi0")


class TestSweep:
    def test_degenerate_grid_matches_evaluate(self):
        buf = io.StringIO()
        count = sweep(design_point(), {}, out=buf)
        assert count == 1
        header, row = buf.getvalue().strip().splitlines()
        assert header.split(",") == list(SWEEP_CSV_HEADER)
        cells = row.split(",")
        report = evaluate_mission(design_point())
        assert float(cells[6]) == report.achieved_tangential_v
        assert cells[8] == "true"

    def test_six_row_grid_scalings(self):
        buf = io.StringIO()
        axes = {"chi0": [1e-4, 1e-3], "particle_size": [1e-9, 2e-9, 4e-9]}
        count = sweep(design_point(), axes, out=buf)
        assert count == 6
        rows = [line.split(",") for line in buf.getvalue().strip().splitlines()[1:]]
        # lexicographic order: chi0 major, size minor
        assert [float(r[0]) for r in rows] == [1e-4] * 3 + [1e-3] * 3
        dv = [float(r[5]) for r in rows]
        # within a chi0 block, dv follows 1/a^4 in mass-budget mode
        assert dv[0] / dv[1] == pytest.approx(16.0, rel=1e-12)
        assert dv[0] / dv[2] == pytest.approx(256.0, rel=1e-12)
        # hand recompute one row from the velocity-gain formula
        expected = 2 * 1e-2 * HBAR_J_S * 1e-4 / (1000.0 * (2e-9) ** 4)
        assert dv[1] == pytest.approx(expected, rel=1e-12)

    def test_fixed_particle_mass_mode_is_inverse_linear(self):
        buf = io.StringIO()
        axes = {"particle_size": [1e-9, 2e-9, 4e-9]}
        sweep(design_point(), axes, out=buf, mode=SweepMode.FIXED_PARTICLE_MASS)
        rows = [line.split(",") for line in buf.getvalue().strip().splitlines()[1:]]
        dv = [float(r[5]) for r in rows]
        assert dv[0] / dv[1] == pytest.approx(2.0, rel=1e-12)
        assert dv[0] / dv[2] == pytest.approx(4.0, rel=1e-12)

    def test_row_count_is_product_of_axis_lengths(self):
        buf = io.StringIO()
        axes = {
            "chi0": [1e-4, 1e-3],
            "particle_size": [1e-9, 2e-9],
            "active_mass_fraction": [0.25, 0.5, 1.0],
        }
        assert sweep(design_point(), axes, out=buf) == 12

    def test_deterministic_across_runs_and_parallelism(self):
        axes = {"chi0": list(np.geomspace(1e-5, 1e-3, 7)), "particle_size": [1e-9, 2e-9]}
        outputs = []
        for jobs in (1, 1, 4):
            buf = io.StringIO()
            sweep(design_point(), axes, out=buf, jobs=jobs)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_cap_enforced(self):
        # just above the 10^7-row cap, which is checked before any row is computed
        axes = {"chi0": [1e-4] * 3163, "particle_size": [1e-9] * 3163}
        with pytest.raises(SweepCapError) as err:
            sweep(design_point(), axes, out=io.StringIO())
        assert str(err.value) == "sweep of 10004569 combinations exceeds cap 10000000"

    def test_unsweepable_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep(design_point(), {"satellite_mass": [1.0]}, out=io.StringIO())

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="sweep format"):
            sweep(design_point(), {}, out=io.StringIO(), fmt="xml")


def reference_row(base, combo, mode, required) -> str:
    """One sweep row by the original per-row code, kept as the kernel's reference."""
    chi0, a_m, rho, fraction, pref_a = combo
    if mode is SweepMode.MASS_BUDGET:
        dv = 2.0 * pref_a * HBAR_J_S * chi0 / (rho * a_m**4)
    else:
        mass = rho * base.particle_size**3
        dv = 2.0 * pref_a * HBAR_J_S * chi0 / (mass * a_m)
    dv_payload = fraction * dv
    rate = tangential_v_to_rate(dv_payload, base.wheel_radius)
    feasible = dv_payload >= required
    cells = [repr(float(x)) for x in (chi0, a_m, rho, fraction, pref_a, dv, dv_payload, rate)]
    return ",".join(cells + ["true" if feasible else "false"])


def reference_sweep(base, axes, mode) -> str:
    lists = [[float(v) for v in axes.get(k, [getattr(base, k)])] for k in mission._SWEEP_AXES]
    required = required_v(base.target_rate, base.wheel_radius)
    rows = [reference_row(base, c, mode, required) for c in itertools.product(*lists)]
    return "".join(line + "\n" for line in [",".join(SWEEP_CSV_HEADER), *rows])


def assert_same_text(got: str, want: str) -> None:
    """Byte equality that reports the first differing line: pytest's own diff
    of two multi-megabyte texts would run for minutes."""
    if got != want:
        pairs = enumerate(itertools.zip_longest(got.split("\n"), want.split("\n")))
        i, (g, w) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
        pytest.fail(f"line {i}: {g!r} != {w!r}")


def reference_json(csv_text: str) -> str:
    """The sweep JSON that json.dumps writes for the typed values of CSV text."""
    header, *rows = csv_text.splitlines()
    typed = [
        {
            k: v == "true" if k == "feasible" else float(v)
            for k, v in zip(header.split(","), r.split(","))
        }
        for r in rows
    ]
    return json.dumps(typed) + "\n"


def decades(lo_exp: int, hi_exp: int):
    """Positive floats spanning the decades 10**lo_exp .. 10**hi_exp."""
    return st.builds(
        lambda m, e: m * 10.0**e, st.floats(1.0, 9.999), st.integers(lo_exp, hi_exp - 1)
    )


SWEEP_AXIS_VALUES = {
    "chi0": decades(-7, 0),
    "particle_size": decades(-11, -6),
    "particle_density": decades(1, 5),
    "active_mass_fraction": st.floats(1e-6, 1.0),
    "prefactor_A": decades(-4, 0),
}


def random_spec(rng: np.random.Generator) -> MissionSpec:
    return design_point(
        wheel_radius=float(rng.uniform(0.1, 10.0)),
        active_mass_fraction=float(rng.uniform(1e-6, 1.0)),
        particle_size=float(10.0 ** rng.uniform(-11, -6)),
        particle_density=float(10.0 ** rng.uniform(1, 5)),
        chi0=float(10.0 ** rng.uniform(-7, 0)),
        prefactor_A=float(10.0 ** rng.uniform(-4, 0)),
    )


def sweep_cells(base: MissionSpec, axes: dict, mode: SweepMode) -> list[dict]:
    buf = io.StringIO()
    sweep(base, axes, out=buf, mode=mode)
    header, *rows = buf.getvalue().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


class TestMissionEqualsSweepCell:
    """A mission's achieved velocity is the sweep's dV_m_s cell of the same row."""

    def test_mass_budget_rows_bit_for_bit(self):
        rng = np.random.default_rng(707)
        for _ in range(200):
            base = random_spec(rng)
            axes = {
                "chi0": [base.chi0, float(10.0 ** rng.uniform(-7, 0))],
                "particle_size": [base.particle_size, float(10.0 ** rng.uniform(-11, -6))],
                "particle_density": [float(10.0 ** rng.uniform(1, 5))],
                "active_mass_fraction": [float(rng.uniform(1e-6, 1.0))],
            }
            for cells in sweep_cells(base, axes, SweepMode.MASS_BUDGET):
                row = {k: float(cells[h]) for k, h in zip(mission._SWEEP_AXES, SWEEP_CSV_HEADER)}
                report = evaluate_mission(replace(base, **row))
                assert repr(report.achieved_tangential_v) == cells["dV_m_s"]
                assert report.feasible == (cells["feasible"] == "true")

    def test_fixed_particle_mass_rows_at_the_base_size(self):
        # (rho * a_base^3) * a and rho * a^4 round differently, so agreement is to
        # a few ulp here; it is exact where the two products are equal
        rng = np.random.default_rng(708)
        for _ in range(200):
            base = random_spec(rng)
            (cells,) = sweep_cells(base, {}, SweepMode.FIXED_PARTICLE_MASS)
            achieved = evaluate_mission(base).achieved_tangential_v
            a, rho = base.particle_size, base.particle_density
            if (rho * a**3) * a == rho * a**4:
                assert repr(achieved) == cells["dV_m_s"]
            else:
                assert achieved == pytest.approx(float(cells["dV_m_s"]), rel=1e-15)


class TestSweepKernelEquivalence:
    @settings(max_examples=60)
    @given(
        data=st.data(),
        mode=st.sampled_from(list(SweepMode)),
        block_rows=st.sampled_from([7, 64, 1000, mission._SWEEP_BLOCK_ROWS]),
    )
    def test_matches_per_row_reference(self, data, mode, block_rows):
        base = design_point(
            wheel_radius=data.draw(st.floats(0.1, 10.0)),
            particle_size=data.draw(decades(-10, -7)),
        )
        axes = {}
        for name, values in SWEEP_AXIS_VALUES.items():
            if data.draw(st.booleans()):
                axes[name] = data.draw(st.lists(values, min_size=1, max_size=7))
        expected = reference_sweep(base, axes, mode)
        for fmt, want in (("csv", expected), ("json", reference_json(expected))):
            buf = io.StringIO()
            with mock.patch.object(mission, "_SWEEP_BLOCK_ROWS", block_rows):
                count = sweep(base, axes, out=buf, mode=mode, fmt=fmt)
            assert_same_text(buf.getvalue(), want)
            assert count == expected.count("\n") - 1

    @pytest.mark.parametrize("mode", list(SweepMode))
    def test_grid_larger_than_a_block(self, mode):
        axes = {
            "chi0": list(np.geomspace(1e-6, 0.9, 8)),
            "particle_size": list(np.geomspace(3e-10, 7e-8, 8)),
            "particle_density": list(np.geomspace(20.0, 9e4, 8)),
            "active_mass_fraction": list(np.linspace(0.01, 1.0, 8)),
            "prefactor_A": list(np.geomspace(1e-4, 0.5, 9)),
        }
        assert 8**4 * 9 > mission._SWEEP_BLOCK_ROWS
        buf = io.StringIO()
        sweep(design_point(), axes, out=buf, mode=mode)
        assert_same_text(buf.getvalue(), reference_sweep(design_point(), axes, mode))

    def test_pooled_sweep_runtime_guard(self, tmp_path):
        # 10^5 rows, jobs=4: the per-row thread pool ran at ~10k rows/s
        axes = {
            "chi0": list(np.geomspace(1e-5, 1e-3, 100)),
            "particle_size": list(np.geomspace(5e-10, 5e-9, 10)),
            "particle_density": list(np.linspace(500.0, 5000.0, 10)),
            "active_mass_fraction": list(np.linspace(0.1, 1.0, 10)),
        }
        t0 = time.perf_counter()
        count = sweep(design_point(), axes, out=tmp_path / "sweep.csv", jobs=4)
        elapsed = time.perf_counter() - t0
        assert count == 100_000
        assert elapsed < 1.5


class TestSweepAxisValidation:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("chi0", -1.0),
            ("chi0", 0.0),
            ("particle_size", 0.0),
            ("particle_size", 1e-200),  # a**4 underflows to 0
            ("particle_size", 1e100),  # a**4 overflows
            ("particle_density", -5.0),
            ("active_mass_fraction", 2.0),
            ("active_mass_fraction", 0.0),
            ("prefactor_A", -1e-2),
        ],
    )
    def test_out_of_range_axis_value(self, name, value):
        buf = io.StringIO()
        with pytest.raises(SweepValueError) as err:
            sweep(design_point(), {name: [1e-3 if name != "particle_size" else 1e-9, value]}, buf)
        assert err.value.values == {name: value}
        assert err.value.problem == "is out of range"
        assert buf.getvalue() == ""

    @pytest.mark.parametrize(
        "mode, name, bad",
        [
            (SweepMode.MASS_BUDGET, "particle_density", 1e-300),  # rho*a^4 -> 0
            (SweepMode.FIXED_PARTICLE_MASS, "particle_density", 1e-300),  # rho*a^3 -> 0
        ],
    )
    def test_non_finite_row_is_refused_before_its_block_is_written(self, mode, name, bad):
        buf = io.StringIO()
        good = getattr(design_point(), name)
        with pytest.raises(SweepValueError) as err:
            sweep(design_point(), {name: [good, bad]}, buf, mode=mode)
        assert err.value.problem == "gives a non-finite dv_m_s"
        row = {k: getattr(design_point(), k) for k in mission._SWEEP_AXES}
        assert err.value.values == {**row, name: bad}
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("name", mission._SWEEP_AXES)
    def test_empty_axis_is_refused(self, name):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=f"^sweep axis {name} is empty$"):
            sweep(design_point(), {name: []}, buf)
        assert buf.getvalue() == ""

    def test_without_out_the_grid_is_checked_and_nothing_is_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        axes = {"chi0": [1e-4, 1e-3], "particle_size": [1e-9, 2e-9, 4e-9]}
        with mock.patch.object(mission._io, "write_blocks") as write_blocks:
            assert sweep(design_point(), axes, out=None) == 6
            with pytest.raises(SweepValueError) as err:
                sweep(design_point(), {"particle_density": [1000.0, 1e-300]}, out=None)
        assert err.value.problem == "gives a non-finite dv_m_s"
        write_blocks.assert_not_called()
        assert list(tmp_path.iterdir()) == []

    def test_earlier_blocks_stay_written(self):
        buf = io.StringIO()
        axes = {"particle_density": [1000.0, 1e-300]}
        with mock.patch.object(mission, "_SWEEP_BLOCK_ROWS", 1):
            with pytest.raises(SweepValueError):
                sweep(design_point(), axes, buf)
        header_and_first_row = reference_sweep(design_point(), {}, SweepMode.MASS_BUDGET)
        assert buf.getvalue().splitlines() == header_and_first_row.splitlines()


class TestRandomInversion:
    def test_round_trips_on_random_feasible_specs(self):
        rng = np.random.default_rng(2024)
        for _ in range(15):
            spec = design_point(
                wheel_radius=rng.uniform(0.5, 3.0),
                satellite_mass=rng.uniform(10.0, 500.0),
                particle_density=rng.uniform(500.0, 5000.0),
                prefactor_A=rng.uniform(5e-3, 5e-2),
            )
            for unknown, (low, high) in (
                ("chi0", (1e-6, 0.5)),
                ("active_mass_fraction", (1e-4, 0.9)),
                ("particle_size", (1e-10, 1e-7)),
            ):
                true_value = math.exp(rng.uniform(math.log(low), math.log(high)))
                truth = replace(spec, **{unknown: true_value})
                achieved = evaluate_mission(
                    replace(truth, target_rate=1.0)
                ).achieved_tangential_v
                rate = tangential_v_to_rate(achieved, truth.wheel_radius)
                problem = replace(truth, target_rate=rate, **{unknown: None})
                solved = solve_for_unknown(problem, unknown)
                report = evaluate_mission(replace(problem, **{unknown: solved}))
                assert abs(report.margin - 1.0) <= 1e-9
                assert solved == pytest.approx(
                    analytic_solve_for_unknown(problem, unknown), rel=1e-8
                )

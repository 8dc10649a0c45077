import io
import json
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfdrive import dynamics
from zpfdrive.dynamics import (
    Aggregation,
    CavityModulation,
    FieldModulation,
    FieldTimeSeries,
    ImpulseLedger,
    ManeuverError,
    Rotation,
    SeriesFormatError,
    channel_cavity,
    delta_v_aggregation,
    delta_v_rotation,
    force_decomposed,
    force_direct,
    run_maneuver_sequence,
)
from zpfdrive.material import MagnetoElectricTensor, Particle, ParticleState, rotation_about
from zpfdrive.mission import MissionSpec, MissionSpecError, evaluate_mission
from zpfdrive.quantities import HBAR_J_S
from zpfdrive.vacuum import (
    CutoffConvention,
    VacuumModel,
    stored_momentum,
    vacuum_momentum_closed_form,
)

from series_csv import write_series


def particle(chi=1e-3, a=1e-9, rho=1000.0, eps=1.0, **kappas):
    return Particle(a, rho, MagnetoElectricTensor.from_xy(chi, **kappas), epsilon=eps)


def sinusoid_series(n=201, t_max=2.0, e_amp=1.0, b_amp=1.0, omega=3.0, b_const=None):
    t = np.linspace(0.0, t_max, n)
    e = e_amp * np.sin(omega * t)
    b = np.full_like(t, b_const) if b_const is not None else b_amp * np.cos(0.7 * omega * t)
    return FieldTimeSeries(t=t, e_x=e, b_y=b)


_KAPPA_WITHOUT_CHI = "^chi0_xy is required when kappa columns are present$"


class TestFieldTimeSeries:
    def test_needs_three_samples(self):
        with pytest.raises(SeriesFormatError):
            FieldTimeSeries(t=np.array([0.0, 1.0]), e_x=np.zeros(2), b_y=np.zeros(2))

    def test_uniform_spacing_enforced(self):
        with pytest.raises(SeriesFormatError):
            FieldTimeSeries(
                t=np.array([0.0, 1.0, 3.0]), e_x=np.zeros(3), b_y=np.zeros(3)
            )

    def test_finite_samples_enforced(self):
        with pytest.raises(SeriesFormatError):
            FieldTimeSeries(
                t=np.array([0.0, 1.0, 2.0]),
                e_x=np.array([0.0, np.nan, 0.0]),
                b_y=np.zeros(3),
            )

    def test_uniform_series_far_from_zero_accepted(self):
        # float spacing of t near 1e6 s is ~1e-7 of a 1 ms step
        t = 1e6 + 1e-3 * np.arange(1000)
        s = FieldTimeSeries(t=t, e_x=np.zeros(1000), b_y=np.ones(1000))
        assert s.dt == pytest.approx(1e-3, rel=1e-6)

    def test_non_uniform_series_far_from_zero_rejected(self):
        t = 1e6 + 1e-3 * np.arange(1000)
        t[500:] += 1e-6  # one step 0.1% long
        with pytest.raises(SeriesFormatError, match="uniformly spaced"):
            FieldTimeSeries(t=t, e_x=np.zeros(1000), b_y=np.ones(1000))

    @pytest.mark.parametrize(
        "arrays, message",
        [({"t": np.zeros((3, 1))}, "t must be 1-D"), ({"e_x": np.zeros(2)}, "e_x length 2 != 3")],
    )
    def test_misshapen_arrays_rejected(self, arrays, message):
        arrays = {"t": np.arange(3.0), "e_x": np.zeros(3), "b_y": np.zeros(3), **arrays}
        with pytest.raises(SeriesFormatError, match=f"^{message}$"):
            FieldTimeSeries(**arrays)

    def test_kappa_without_chi_rejected(self):
        with pytest.raises(SeriesFormatError, match=_KAPPA_WITHOUT_CHI):
            FieldTimeSeries(
                t=np.array([0.0, 1.0, 2.0]),
                e_x=np.zeros(3),
                b_y=np.zeros(3),
                kappa1=np.zeros(3),
            )

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        x = np.arange(3.0)
        view = x.view()
        view.flags.writeable = False
        s = FieldTimeSeries(t=view, e_x=view, b_y=x)
        x[0] = -1.0
        assert (s.t[0], s.e_x[0], s.b_y[0]) == (0.0, 0.0, 0.0)

    def test_csv_round_trip(self):
        s = FieldTimeSeries(
            t=np.array([0.0, 0.5, 1.0]),
            e_x=np.array([0.1, 0.2, 0.3]),
            b_y=np.array([1.0, 1.0, 1.0]),
            chi0_xy=np.array([1e-3, 2e-3, 3e-3]),
            kappa2=np.array([0.1, 0.1, 0.1]),
        )
        buf = io.StringIO()
        write_series(s, buf)
        buf.seek(0)
        back = FieldTimeSeries.from_csv(buf)
        assert np.array_equal(back.t, s.t)
        assert np.array_equal(back.chi0_xy, s.chi0_xy)
        assert np.array_equal(back.kappa2, s.kappa2)
        assert back.kappa1 is None

    def test_csv_missing_column(self):
        with pytest.raises(SeriesFormatError) as err:
            FieldTimeSeries.from_csv(io.StringIO("t_s,E_x\n0,0\n1,0\n2,0\n"))
        assert "B_y" in str(err.value)

    def test_csv_bad_number_reports_line_and_field(self):
        csv_text = "t_s,E_x,B_y\n0,0,1\n0.5,oops,1\n1.0,0,1\n"
        with pytest.raises(SeriesFormatError) as err:
            FieldTimeSeries.from_csv(io.StringIO(csv_text))
        assert "line 3" in str(err.value)
        assert "E_x" in str(err.value)

    def test_csv_kappa_without_chi_rejected(self, tmp_path):
        # the constructor's message, for a file and a handle alike
        csv_text = "t_s,E_x,B_y,kappa1\n0,0,1,0\n0.5,0,1,0\n1.0,0,1,0\n"
        path = tmp_path / "series.csv"
        path.write_text(csv_text)
        for source in (path, io.StringIO(csv_text)):
            with pytest.raises(SeriesFormatError, match=_KAPPA_WITHOUT_CHI):
                FieldTimeSeries.from_csv(source)


_SERIES_FIELDS = ("t", "e_x", "b_y", "chi0_xy", "kappa1", "kappa2", "kappa3")


def line_reader(path) -> FieldTimeSeries:
    """The series as the line-by-line reader gives it (an open handle takes that path)."""
    with open(path, newline="") as fh:
        return FieldTimeSeries.from_csv(fh)


def assert_same_bits(got: FieldTimeSeries, want: FieldTimeSeries) -> None:
    for name in _SERIES_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.tobytes() == b.tobytes(), name


def random_bit_doubles(n: int) -> np.ndarray:
    rng = np.random.default_rng(11)
    x = rng.integers(0, 2**64, size=2 * n, dtype=np.uint64).view(np.float64)
    special = [5e-324, -5e-324, -0.0, 0.0, 2.2250738585072014e-308, 1.7976931348623157e308]
    return np.concatenate([special, x[np.isfinite(x)]])[:n]


class TestSeriesReader:
    """``from_csv(path)`` reads by ``np.loadtxt`` and falls back to the line reader."""

    N = 3000

    def write(self, tmp_path, cols, fmt, newline="\n", blank_every=0, pad="", extra=False):
        names = list(cols) + (["note"] if extra else [])
        lines = [",".join(names)]
        for i, row in enumerate(zip(*cols.values())):
            cells = [pad + fmt(float(x)) + pad for x in row] + (["x y"] if extra else [])
            lines.append(",".join(cells))
            if blank_every and i % blank_every == 0:
                lines.append("")
        path = tmp_path / "series.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        return path

    def columns(self):
        x = random_bit_doubles(self.N)
        return {
            "t_s": 1e-3 * np.arange(self.N),
            "E_x": x,
            "B_y": x[::-1],
            "chi0_xy": np.roll(x, 7),
            "kappa2": np.roll(x, 99),
        }

    @pytest.mark.parametrize("fmt", [repr, "%.17g".__mod__, "%.25e".__mod__, "%.6g".__mod__])
    def test_random_bit_doubles_identical(self, tmp_path, fmt):
        path = self.write(tmp_path, self.columns(), fmt)
        fast = dynamics._load_columns(path)  # raises if loadtxt could not read the file
        want = line_reader(path)
        assert_same_bits(FieldTimeSeries(**fast), want)
        assert_same_bits(FieldTimeSeries.from_csv(path), want)

    @pytest.mark.parametrize(
        "layout",
        [
            {"newline": "\r\n"},
            {"newline": "\r"},
            {"blank_every": 5},
            {"pad": " \t"},
            {"extra": True},
            {"newline": "\r\n", "blank_every": 3, "pad": " ", "extra": True},
        ],
    )
    def test_layouts_identical(self, tmp_path, layout):
        path = self.write(tmp_path, self.columns(), repr, **layout)
        dynamics._load_columns(path)
        assert_same_bits(FieldTimeSeries.from_csv(path), line_reader(path))

    @pytest.mark.parametrize(
        "text",
        [
            't_s,E_x,B_y\n"0",1,2\n1,"3",4\n2,5,"6"\n',
            't_s,note,x,E_x,B_y\n0,"a,b",5,1,2\n1,"a,b",5,3,4\n2,"a,b",5,5,6\n',
            "t_s,E_x,B_y\n0,1_000,2\n1,3,4\n2,5,6\n",
            "t_s,E_x,B_y\n0,1,2\n,,\n1,3,4\n , , \n2,5,6\n",
            "t_s,E_x,B_y\n\uff10,\uff11,\uff12\n1,3,4\n2,5,6\n",
            "t_s,E_x,B_y\n0,1,2\n   \n1,3,4\n\t\n2,5,6\n",
        ],
        ids=["quoted", "quoted-comma", "underscore", "comma-only", "full-width", "blank-cells"],
    )
    def test_inputs_loadtxt_refuses_still_load(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            dynamics._load_columns(path)
        got = FieldTimeSeries.from_csv(path)
        assert got.t.tolist() == [0.0, 1.0, 2.0]
        assert got.b_y.tolist() == [2.0, 4.0, 6.0]
        assert_same_bits(got, line_reader(path))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1,2\n1,oops,4\n2,5,6\n", "line 3: field 'E_x' is not a number: 'oops'"),
            ("0,1,2\n\n1,3\n2,5,6\n", "line 4: missing field 'B_y'"),
            ("0,1,2\n1,3,4\n2,5, \n", "line 4: field 'B_y' is not a number: ''"),
            ("0,1,2\n1,nan,4\n2,5,6\n", "e_x contains non-finite samples"),
            ("0,1,2\n1,3,4\n", "series needs at least 3 samples"),
            ("0,1,2\n0,3,4\n1,5,6\n", "time samples must be strictly increasing"),
        ],
    )
    def test_bad_file_reports_line_and_field(self, tmp_path, body, message):
        path = tmp_path / "series.csv"
        path.write_text("t_s,E_x,B_y\n" + body)
        with pytest.raises(SeriesFormatError) as err:
            FieldTimeSeries.from_csv(path)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "header, message",
        [
            ("t_s,E_x,B_y,E_x", "repeated column 'E_x'"),
            ("t_s,chi0_xy,E_x,B_y, chi0_xy ", "repeated column 'chi0_xy'"),
            ("t_s,t_s,B_y", "repeated column 't_s'"),
            ("\ufefft_s,E_x,B_y", "series CSV starts with a UTF-8 byte-order mark"),
        ],
        ids=["repeated", "repeated-padded", "repeated-first", "byte-order-mark"],
    )
    def test_bad_header_is_refused_by_both_readers(self, tmp_path, header, message):
        text = header + "\n0,1,2,3,4\n1,3,4,5,6\n2,5,6,7,8\n"
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SeriesFormatError, match=f"^{message}$"):
            dynamics._load_columns(path)
        for source in (path, io.StringIO(text)):  # the line reader reads a handle
            with pytest.raises(SeriesFormatError, match=f"^{message}$"):
                FieldTimeSeries.from_csv(source)

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_cell_longer_than_the_csv_limit_names_its_line(self, tmp_path, where):
        long_cell = '"' + "1" * 200_000 + '"'
        if where == "header":
            text, line = f"t_s,E_x,B_y,{long_cell}\n0,1,2,3\n", 1
        else:
            text, line = f"t_s,E_x,B_y\n0,1,2\n1,{long_cell},3\n2,1,1\n", 3
        path = tmp_path / "series.csv"
        path.write_text(text)
        for source in (path, io.StringIO(text)):
            with pytest.raises(SeriesFormatError, match=f"^line {line}: field larger than"):
                FieldTimeSeries.from_csv(source)

    def test_to_csv_writes_repr_cells_and_newlines(self, tmp_path):
        x = random_bit_doubles(20_000)  # crosses the writer's block boundaries
        series = FieldTimeSeries(t=np.arange(x.size) * 0.5, e_x=x, b_y=x[::-1], chi0_xy=x)
        path = tmp_path / "series.csv"
        write_series(series, path)
        rows = zip(series.t, series.e_x, series.b_y, series.chi0_xy)
        want = "t_s,E_x,B_y,chi0_xy\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in rows
        )
        assert path.read_bytes() == want.encode()
        assert_same_bits(FieldTimeSeries.from_csv(path), series)


class TestForceDirect:
    def test_constant_fields_zero_interior(self):
        t = np.linspace(0.0, 1.0, 11)
        s = FieldTimeSeries(t=t, e_x=np.full(11, 0.4), b_y=np.full(11, 0.9))
        f = force_direct(particle(chi=1e-3, eps=2.0), s)
        assert np.all(f[1:-1] == 0.0)

    def test_zero_b_gives_zero(self):
        t = np.linspace(0.0, 1.0, 11)
        s = FieldTimeSeries(t=t, e_x=np.sin(t), b_y=np.zeros(11))
        assert np.all(force_direct(particle(), s) == 0.0)

    def test_sinusoid_matches_analytic_derivative(self):
        omega, b = 3.0, 0.8
        n = 401
        s = sinusoid_series(n=n, omega=omega, b_const=b)
        f = force_direct(particle(chi=0.0, eps=1.0), s)
        expected = b * omega * np.cos(omega * s.t)
        err = np.max(np.abs(f[1:-1] - expected[1:-1])) / np.max(np.abs(expected))
        dt = s.dt
        assert err < omega**2 * dt**2  # O(dt^2) truncation

    def test_series_chi_params_override_particle(self):
        t = np.linspace(0.0, 1.0, 21)
        chi_t = 1e-3 * np.sin(t)
        s = FieldTimeSeries(t=t, e_x=np.zeros(21), b_y=np.ones(21), chi0_xy=chi_t)
        f = force_direct(particle(chi=0.5), s)  # particle chi ignored
        expected = np.gradient(chi_t, s.dt, edge_order=1)
        assert np.allclose(f, expected, atol=1e-15)


class TestForceDecomposed:
    def test_constant_chi_kills_chi_rate_term(self):
        s = sinusoid_series()
        dec = force_decomposed(particle(chi=1e-3), s)
        assert np.all(dec.chi_rate == 0.0)

    def test_constant_b_kills_magnetoelectric_term(self):
        s = sinusoid_series(b_const=0.9)
        dec = force_decomposed(particle(chi=1e-3), s)
        assert np.all(dec.magnetoelectric == 0.0)

    def test_product_rule_identity_converges_at_second_order(self):
        rng = np.random.default_rng(3)
        p = particle(chi=0.2, eps=1.5, kappa1=0.3, kappa2=0.1, kappa3=0.2)

        def identity_error(n):
            t = np.linspace(0.0, 2.0, n)
            e = 0.8 * np.sin(2.1 * t) + 0.3 * np.cos(4.4 * t)
            b = 1.0 + 0.5 * np.sin(3.3 * t + 0.2)
            s = FieldTimeSeries(t=t, e_x=e, b_y=b)
            direct = force_direct(p, s)
            dec = force_decomposed(p, s)
            return np.max(np.abs((direct - dec.total)[1:-1]))

        e1, e2 = identity_error(201), identity_error(401)
        order = math.log2(e1 / e2)
        assert 1.8 <= order <= 2.2

    def test_quantum_terms_exclude_dielectric(self):
        s = sinusoid_series()
        dec = force_decomposed(particle(chi=1e-3, eps=2.0), s)
        classical = force_decomposed(particle(chi=0.0, eps=2.0), s)
        assert np.array_equal(dec.dielectric, classical.dielectric)
        assert not np.any(classical.magnetoelectric) and not np.any(classical.chi_rate)
        assert np.array_equal(classical.total, classical.dielectric)


class TestChannels:
    def test_cavity_zero_rate(self):
        assert channel_cavity(1e-3, 0.0, 1.0) == 0.0

    def test_cavity_direct_value(self):
        assert channel_cavity(1e-3, 2.0, 1.0) == pytest.approx(1e-3, rel=1e-15)

    def test_cavity_sign_odd_in_each_factor(self):
        assert channel_cavity(1e-3, 2.0, 1.0) > 0
        assert channel_cavity(-1e-3, 2.0, 1.0) < 0
        assert channel_cavity(1e-3, -2.0, 1.0) < 0

    def test_cavity_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            channel_cavity(1e-3, 1.0, 0.0)


class TestDeltaVRotation:
    def test_design_point_value(self):
        # 1e-2 * hbar * 2e-3 / (1000 * (1e-9)^4)
        dv = delta_v_rotation(particle(), VacuumModel())
        assert dv.value == pytest.approx(2.109143634e-6, rel=1e-9)
        assert dv.unit == "m/s"

    def test_zero_chi(self):
        assert delta_v_rotation(particle(chi=0.0), VacuumModel()).value == 0.0

    def test_equals_twice_closed_form_momentum_over_mass(self):
        from zpfdrive.vacuum import vacuum_momentum_closed_form

        p = particle()
        m = VacuumModel()
        dv = delta_v_rotation(p, m)
        p_vac = vacuum_momentum_closed_form(p.chi0_xy, p.size_a, m)
        assert dv.value == pytest.approx(2.0 * p_vac.value / p.mass, rel=1e-12)

    def test_odd_in_chi(self):
        m = VacuumModel()
        assert delta_v_rotation(particle(chi=-1e-3), m).value == pytest.approx(
            -delta_v_rotation(particle(chi=1e-3), m).value, rel=1e-14
        )

    def test_uses_current_orientation(self):
        # a pi-flipped particle has negated lab-frame chi, so negated gain
        m = VacuumModel()
        p = particle()
        state = ParticleState.from_particles([p]).rotated(np.diag([1.0, -1.0, -1.0]))
        flipped = Particle(p.size_a, p.density_rho, p.tensor, state.orientation[0], p.epsilon)
        assert flipped.chi0_xy == state.chi0_xy[0] == -p.chi0_xy
        assert delta_v_rotation(flipped, m).value == pytest.approx(
            -delta_v_rotation(p, m).value, rel=1e-12
        )

    @given(
        chi=st.floats(-1.0, 1.0),
        a=st.floats(1e-11, 1e-3),
        rho=st.floats(1e-2, 1e5),
    )
    def test_density_and_mass_forms_agree(self, chi, a, rho):
        p = Particle(a, rho, MagnetoElectricTensor.from_xy(chi))
        m = VacuumModel()
        dv = delta_v_rotation(p, m).value
        via_mass = m.prefactor_a * HBAR_J_S * 2 * chi / (p.mass * a)
        assert dv == pytest.approx(via_mass, rel=1e-12)

    def test_zero_m_a_is_refused(self):
        p = Particle(1e-9, 1e-300, MagnetoElectricTensor.from_xy(1e-3))  # rho * a^4 -> 0
        with pytest.raises(ValueError, match=r"m\*a = 0.0 gives a non-finite rotation delta-v"):
            delta_v_rotation(p, VacuumModel())


class TestDeltaVAggregation:
    def test_single_particle_is_exact_zero(self):
        assert delta_v_aggregation(1e-9, 1000.0, 1e-3, 1, VacuumModel()).value == 0.0

    def test_large_n_limit_is_half_rotation(self):
        m = VacuumModel()
        limit = delta_v_aggregation(1e-9, 1000.0, 1e-3, 1e9, m).value
        rot = delta_v_rotation(particle(), m).value
        assert limit == pytest.approx(rot / 2.0, rel=1e-6)

    def test_n_eight(self):
        m = VacuumModel()
        dv = delta_v_aggregation(1e-9, 1000.0, 1e-3, 8, m).value
        expected = m.prefactor_a * (HBAR_J_S / 1000.0) * 1e-3 * (1 - 1.0 / 16.0) / (1e-9) ** 4
        assert dv == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_n_and_bounded_by_limit(self):
        m = VacuumModel()
        limit = m.prefactor_a * HBAR_J_S * 1e-3 / (1000.0 * (1e-9) ** 4)
        values = [
            delta_v_aggregation(1e-9, 1000.0, 1e-3, n, m).value for n in (1, 2, 4, 10, 100)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < limit for v in values)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            delta_v_aggregation(1e-9, 1000.0, 1e-3, 0, VacuumModel())

    def test_non_finite_gain_refused(self):
        with pytest.raises(ValueError, match="^delta_v_aggregation = inf m/s is not finite$"):
            delta_v_aggregation(1e-9, 1e-320, 1e-3, 8, VacuumModel())

    def test_chi_sanity_bound(self):
        assert delta_v_aggregation(1e-9, 1000.0, 1.0, 8, VacuumModel()).value > 0.0
        with pytest.raises(ValueError, match="chi -5.0 is out of range"):
            delta_v_aggregation(1e-9, 1000.0, -5.0, 8, VacuumModel())


def mission_spec(**overrides) -> MissionSpec:
    fields = dict(
        target_rate=4.95,
        wheel_radius=1.0,
        satellite_mass=100.0,
        active_mass_fraction=0.5,
        particle_size=1e-9,
        particle_density=1000.0,
        chi0=1e-3,
        prefactor_A=1e-2,
    )
    return MissionSpec(**{**fields, **overrides})


class TestPayloadDeltaV:
    """The payload gains the active fraction of the rotation delta-v."""

    def test_full_mass(self):
        dv = delta_v_rotation(particle(), VacuumModel())
        achieved = evaluate_mission(mission_spec(active_mass_fraction=1.0)).achieved_tangential_v
        assert achieved == dv.value

    def test_half_mass_reaches_micron_per_second(self):
        dV = evaluate_mission(mission_spec(active_mass_fraction=0.5)).achieved_tangential_v
        assert 0.8e-6 <= dV <= 1.3e-6  # the quoted 1 um/s scale

    def test_vanishing_active_mass(self):
        dv = delta_v_rotation(particle(), VacuumModel()).value
        achieved = evaluate_mission(mission_spec(active_mass_fraction=1e-13)).achieved_tangential_v
        assert achieved == pytest.approx(1e-13 * dv, rel=1e-15)

    def test_active_exceeding_total_rejected(self):
        with pytest.raises(MissionSpecError, match="active_mass_fraction"):
            evaluate_mission(mission_spec(active_mass_fraction=1.1))


def b_squared(a: float) -> float:
    """<B^2_vac> below the size cutoff: hbar * w_cut^4 / (2 pi c^3), w_cut = c * k_cut(a)."""
    c = 2.99792458e8
    k_cut = CutoffConvention.WAVELENGTH_EQUALS_SIZE.k_cut(a)
    return HBAR_J_S * (c * k_cut) ** 4 / (2.0 * math.pi * c**3)


class TestAggregationVersusCavity:
    def test_cutoff_ratio_is_quartic(self):
        a, big_l = 1e-9, 1e-7  # L >> a
        ratio = b_squared(a) / b_squared(big_l)
        assert ratio == pytest.approx((big_l / a) ** 4, rel=1e-12)

    def test_aggregation_scale_beats_any_bounded_cavity_ramp(self):
        chi = 1e-3
        a, big_l = 1e-9, 1e-7
        aggregation_scale = chi * 0.5 * b_squared(a)
        b2_l = b_squared(big_l)
        for fraction in (1.0, 0.5, 0.1):
            cavity = channel_cavity(chi, fraction * b2_l, 1.0)
            assert aggregation_scale > cavity


class TestManeuverValidation:
    def test_rotation_axis_normalized(self):
        r = Rotation(axis=[0.0, 0.0, 2.0], angle=1.0)
        assert np.linalg.norm(r.axis) == pytest.approx(1.0, abs=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            Rotation(axis=[0.0, 0.0, 0.0], angle=1.0)

    def test_aggregation_validation(self):
        with pytest.raises(ValueError):
            Aggregation(n=0.5, size_a=1e-9, direction=[0, 0, 1])
        with pytest.raises(ValueError):
            Aggregation(n=8, size_a=-1e-9, direction=[0, 0, 1])

    def test_cavity_validation(self):
        with pytest.raises(ValueError):
            CavityModulation(db2_dt=1.0, duration=0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf")])
    def test_cavity_rate_must_be_finite(self, rate):
        with pytest.raises(ValueError, match=f"^dB2_dt must be finite, got {rate!r}$"):
            CavityModulation(db2_dt=rate, duration=1.0)


class TestManeuverSequence:
    def test_empty_sequence(self):
        ledger = run_maneuver_sequence([particle()], [], 1.0, VacuumModel())
        assert np.all(ledger.cumulative_v == 0.0)
        assert ledger.entries == []

    def test_single_pi_rotation_reproduces_closed_form(self):
        p = particle()
        m = VacuumModel()
        ledger = run_maneuver_sequence(
            [p], [Rotation(axis=[1, 0, 0], angle=math.pi)], p.mass, m
        )
        speed = np.linalg.norm(ledger.cumulative_v)
        assert speed == pytest.approx(delta_v_rotation(p, m).value, rel=1e-9)

    def test_pi_then_minus_pi_cancels(self):
        p = particle()
        ledger = run_maneuver_sequence(
            [p],
            [
                Rotation(axis=[1, 0, 0], angle=math.pi),
                Rotation(axis=[1, 0, 0], angle=-math.pi),
            ],
            p.mass,
            VacuumModel(),
        )
        first = np.linalg.norm(ledger.entries[0].dp_particles)
        assert np.linalg.norm(ledger.cumulative_v) <= 1e-12 * first / p.mass

    def test_every_entry_conserves_momentum(self):
        p = particle()
        series = sinusoid_series(n=101)
        maneuvers = [
            Rotation(axis=[1, 0, 0], angle=math.pi),
            Aggregation(n=8, size_a=1e-9, direction=[0, 1, 0]),
            FieldModulation(series=series),
            CavityModulation(db2_dt=2.0, duration=0.5),
        ]
        ledger = run_maneuver_sequence([p], maneuvers, 1.0, VacuumModel())
        assert len(ledger.entries) == 4
        for entry in ledger.entries:
            residual = np.linalg.norm(entry.dp_particles + entry.dp_vacuum)
            scale = np.linalg.norm(entry.dp_particles)
            assert residual <= 1e-12 * max(scale, 1e-300)

    def test_aggregation_entry_matches_delta_v_formula(self):
        p = particle()
        m = VacuumModel()
        n = 27
        ledger = run_maneuver_sequence(
            [p], [Aggregation(n=n, size_a=p.size_a, direction=[0, 0, 1])], 1.0, m
        )
        booked = np.linalg.norm(ledger.entries[0].dp_particles)
        aggregate_mass = n * p.mass
        expected = delta_v_aggregation(p.size_a, p.density_rho, p.chi0_xy, n, m).value
        assert booked / aggregate_mass == pytest.approx(expected, rel=1e-12)

    def test_negating_tensor_negates_booked_impulse(self):
        m = VacuumModel()
        mv = [Rotation(axis=[1, 0, 0], angle=math.pi)]
        plus = run_maneuver_sequence([particle(chi=1e-3)], mv, 1.0, m)
        minus = run_maneuver_sequence([particle(chi=-1e-3)], mv, 1.0, m)
        assert np.allclose(plus.cumulative_v, -minus.cumulative_v, rtol=1e-14, atol=0.0)

    def test_failure_carries_index_and_partial_ledger(self):
        p = particle()
        maneuvers = [
            Rotation(axis=[1, 0, 0], angle=math.pi),
            FieldModulation(series=sinusoid_series(n=11)),
            CavityModulation(db2_dt=1.0, duration=1.0),
        ]
        broken = CavityModulation(db2_dt=1.0, duration=1.0)
        object.__setattr__(broken, "duration", -1.0)  # corrupt past validation
        maneuvers[2] = broken
        with pytest.raises(ManeuverError) as err:
            run_maneuver_sequence([p], maneuvers, 1.0, VacuumModel())
        assert err.value.index == 2
        assert len(err.value.ledger.entries) == 2

    def test_an_object_that_is_no_maneuver_is_refused(self):
        with pytest.raises(ManeuverError) as err:
            run_maneuver_sequence([], [object()], 1.0, VacuumModel())
        assert str(err.value) == "maneuver 0 failed: unknown maneuver type object"
        assert type(err.value.cause) is TypeError
        assert err.value.__cause__ is err.value.cause

    def test_a_rotation_can_break_the_lab_frame_bound(self):
        # |chi0|_F = 2.7: every entry is within the bound until the turn pushes one past it
        wide = Particle(1e-9, 1e3, MagnetoElectricTensor(np.full((3, 3), 0.9)))
        maneuvers = [CavityModulation(db2_dt=1.0, duration=1.0), Rotation([1, 1, 0], 0.7)]
        with pytest.raises(ManeuverError) as err:
            run_maneuver_sequence([particle(), wide], maneuvers, 1.0, VacuumModel())
        assert str(err.value) == (
            "maneuver 1 failed: particle 1: lab-frame |chi0| entries exceed sanity bound 1.0"
        )
        assert len(err.value.ledger.entries) == 1

    def test_ledger_jsonl_schema(self):
        p = particle()
        ledger = run_maneuver_sequence(
            [p], [Rotation(axis=[1, 0, 0], angle=math.pi)], 1.0, VacuumModel()
        )
        buf = io.StringIO()
        ledger.to_jsonl(buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == {
            "maneuver_id",
            "type",
            "dp_particles",
            "dp_vacuum",
            "cumulative_v",
        }
        assert record["type"] == "rotation"
        assert len(record["dp_particles"]) == 3

    def test_ledger_rejects_unbalanced_entry(self):
        ledger = ImpulseLedger(1.0)
        with pytest.raises(ValueError):
            ledger.append("rotation", np.array([1.0, 0, 0]), np.array([-0.5, 0, 0]))

    def test_ledger_rejects_non_finite_entry(self):
        ledger = ImpulseLedger(1.0)
        nan_dp = np.array([np.nan, 0.0, 1.0])
        with pytest.raises(ValueError, match=r"booking \[nan, 0.0, 1.0\] kg m/s is not finite"):
            ledger.append("aggregation", nan_dp, -nan_dp)
        tiny = ImpulseLedger(1e-320)  # a finite booking whose velocity overflows
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="cumulative velocity"):
            tiny.append("rotation", np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]))
        assert ledger.entries == [] and tiny.entries == []


# -- the array ledger against a per-particle reference ---------------------------

_Z = np.array([0.0, 0.0, 1.0])


def _svd_rotated(one, r):
    """A state of one turned by ``r`` to the nearest proper rotation by SVD: the
    re-orthonormalisation before the polar step."""
    u, _, vt = np.linalg.svd(r @ one.orientation[0])
    nearest = u @ vt
    if np.linalg.det(nearest) < 0:
        nearest = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return ParticleState(one.size_a, one.density, one.epsilon, one.chi0, one.kappa, nearest[None])


def _floats(one):
    """The lab-frame chi0_xy, the size and the kappas of a state of one, as floats."""
    return float(one.chi0_xy[0]), float(one.size_a[0]), one.kappa[0].tolist()


def _integrated(chi, s):
    """Time integral of chi*(1/2)*d(B^2)/dt + B^2*dchi/dt over the samples of ``chi``."""
    magnetoelectric = chi * 0.5 * np.gradient(s.b_y**2, s.dt, edge_order=1)
    chi_rate = s.b_y**2 * np.gradient(chi, s.dt, edge_order=1)
    return float(np.trapezoid(magnetoelectric + chi_rate, dx=s.dt))


def _basis_impulses(s):
    return [_integrated(b, s) for b in (np.ones_like(s.e_x), s.e_x * s.b_y, s.e_x, s.b_y)]


def _per_sample_quantum_impulse(one, s):
    """The integral of the chi(t) of a state of one, sample by sample: the series' own, where
    it holds chi columns, else the particle's."""
    if s.chi0_xy is not None:
        k1, k2, k3 = (0.0 if k is None else k for k in (s.kappa1, s.kappa2, s.kappa3))
        chi = s.chi0_xy + k1 * s.e_x * s.b_y + k2 * s.e_x + k3 * s.b_y
    else:
        chi0_xy, _, (k1, k2, k3) = _floats(one)
        chi = chi0_xy + k1 * s.e_x * s.b_y + k2 * s.e_x + k3 * s.b_y
    return _integrated(chi, s)


def _reference_quantum_impulse(one, s):
    """The series' own chi(t), or else the parameters of a state of one weighting the basis
    impulses."""
    if s.chi0_xy is not None:
        return _per_sample_quantum_impulse(one, s)
    (chi0_xy, _, (k1, k2, k3)), w = _floats(one), _basis_impulses(s)
    return chi0_xy * w[0] + k1 * w[1] + k2 * w[2] + k3 * w[3]


def reference_ledger(
    particles, maneuvers, m_total, model, rotate=ParticleState.rotated,
    impulse=_reference_quantum_impulse,
):
    """One state of one per particle, each term added in particle order; by default each
    particle turns by :meth:`ParticleState.rotated`, the frame composition of the fleet on a
    stack of one."""
    ledger = ImpulseLedger(m_total)
    current = [ParticleState.from_particles([p]) for p in particles]
    for mv in maneuvers:
        total = 0.0
        if isinstance(mv, Rotation):
            r = rotation_about(mv.axis, mv.angle)
            rotated = [rotate(one, r) for one in current]
            for before, after in zip(current, rotated):
                p_before = vacuum_momentum_closed_form(*_floats(before)[:2], model)
                p_after = vacuum_momentum_closed_form(*_floats(after)[:2], model)
                total += p_after.value - p_before.value
            current = rotated
            kind, dp_vac = "rotation", total * _Z
        elif isinstance(mv, Aggregation):
            big_l = mv.n ** (1.0 / 3.0) * mv.size_a
            for one in current:
                chi = _floats(one)[0]
                before = mv.n * vacuum_momentum_closed_form(chi, mv.size_a, model).value
                after = vacuum_momentum_closed_form(chi, big_l, model).value
                total += after - before
            kind, dp_vac = "aggregation", total * mv.direction
        elif isinstance(mv, FieldModulation):
            for one in current:
                total += impulse(one, mv.series)
            kind, dp_vac = "field_modulation", -total * _Z
        else:
            for one in current:
                total += channel_cavity(_floats(one)[0], mv.db2_dt, mv.duration)
            kind, dp_vac = "cavity_modulation", -total * _Z
        zero = not dp_vac.any()  # a zero booking is +0.0 on both sides
        ledger.append(kind, np.zeros(3) if zero else -dp_vac, np.zeros(3) if zero else dp_vac)
    return ledger


def _term_sizes(particles, mv, model):
    """The sum over particles of the size of each term a maneuver books, with chi0_xy at
    its bound |chi0|_F (the same in every orientation): the scale of the rounding in
    R chi0 R^T and in the terms."""
    total = 0.0
    for p in particles:
        chi = float(np.linalg.norm(p.tensor.chi0))
        if isinstance(mv, Rotation):
            total += 2.0 * stored_momentum(chi, p.size_a, model)
        elif isinstance(mv, Aggregation):
            big_l = mv.n ** (1.0 / 3.0) * mv.size_a
            total += mv.n * stored_momentum(chi, mv.size_a, model)
            total += stored_momentum(chi, big_l, model)
        elif isinstance(mv, FieldModulation) and mv.series.chi0_xy is not None:
            total += abs(_per_sample_quantum_impulse(None, mv.series))  # the series' own chi
        elif isinstance(mv, FieldModulation):
            w, t = _basis_impulses(mv.series), p.tensor
            total += chi * abs(w[0]) + sum(
                abs(k * wk) for k, wk in zip((t.kappa1, t.kappa2, t.kappa3), w[1:])
            )
        else:
            total += abs(channel_cavity(chi, mv.db2_dt, mv.duration))
    return total


def _series(n, chi_params):
    t = np.linspace(0.0, 2.0, n)
    e = 0.8 * np.sin(2.1 * t) + 0.3 * np.cos(4.4 * t)
    b = 1.0 + 0.5 * np.sin(3.3 * t + 0.2)
    if not chi_params:
        return FieldTimeSeries(t=t, e_x=e, b_y=b)
    return FieldTimeSeries(t=t, e_x=e, b_y=b, chi0_xy=1e-3 * np.cos(t), kappa3=np.full(n, 2e-4))


# short, medium and long series of the particles' own chi, and one with chi columns
SERIES = [_series(11, False), _series(201, False), _series(5000, False), _series(201, True)]

unit = st.floats(-1.0, 1.0, allow_nan=False)
vectors = st.tuples(unit, unit, unit).filter(lambda v: np.linalg.norm(v) > 1e-3)
angle = st.floats(-7.0, 7.0, allow_nan=False)
kappa = st.floats(1e-6, 1e-2).flatmap(lambda k: st.sampled_from([k, -k]))
chi_entry = st.floats(-1e-3, 1e-3, allow_nan=False)

random_particle = st.builds(
    lambda a, rho, eps, chi, ks, axis, ang: Particle(
        a,
        rho,
        MagnetoElectricTensor(np.reshape(chi, (3, 3)), *ks),
        orientation=rotation_about(axis, ang),
        epsilon=eps,
    ),
    st.floats(1e-10, 1e-8),
    st.floats(100.0, 1e4),
    st.floats(1.0, 5.0),
    st.lists(chi_entry, min_size=9, max_size=9),
    st.tuples(kappa, kappa, kappa),
    vectors,
    angle,
)
# past 8 terms numpy's pairwise sum departs from a += loop
random_particles = st.lists(random_particle, min_size=1, max_size=20)
rotations = st.builds(Rotation, axis=vectors, angle=angle)
random_maneuver = st.one_of(
    rotations,
    st.builds(
        Aggregation,
        n=st.floats(1.0, 1e3),
        size_a=st.floats(1e-10, 1e-8),
        direction=vectors,
    ),
    st.builds(FieldModulation, series=st.sampled_from(SERIES)),
    st.builds(
        CavityModulation,
        db2_dt=st.floats(-10.0, 10.0, allow_nan=False),
        duration=st.floats(1e-3, 10.0),
    ),
)
random_maneuvers = st.lists(random_maneuver, max_size=8)
# maneuvers that book zero: a turn by no angle, and a cavity that holds <B^2> constant
zero_bookings = st.one_of(
    st.builds(Rotation, axis=vectors, angle=st.just(0.0)),
    st.builds(CavityModulation, db2_dt=st.just(0.0), duration=st.floats(1e-3, 10.0)),
)


# the JSON lines of the pinned ledger below; no entry holds -0.0
PINNED_LEDGER = [
    (
        '{"maneuver_id": 0, "type": "aggregation", '
        '"dp_particles": [0.0, 1.3432110433224792e-30, 1.3432110433224792e-30], '
        '"dp_vacuum": [0.0, -1.3432110433224792e-30, -1.3432110433224792e-30], '
        '"cumulative_v": [0.0, 1.3432110433224791e-31, 1.3432110433224791e-31]}'
    ),
    (
        '{"maneuver_id": 1, "type": "cavity_modulation", '
        '"dp_particles": [0.0, 0.0, 0.00025218028223054174], '
        '"dp_vacuum": [0.0, 0.0, -0.00025218028223054174], '
        '"cumulative_v": [0.0, 1.3432110433224791e-31, 2.5218028223054175e-05]}'
    ),
    (
        '{"maneuver_id": 2, "type": "field_modulation", '
        '"dp_particles": [0.0, 0.0, -0.004454344568321665], '
        '"dp_vacuum": [0.0, 0.0, 0.004454344568321665], '
        '"cumulative_v": [0.0, 1.3432110433224791e-31, -0.00042021642860911223]}'
    ),
]


class TestLedgerEquivalence:
    @settings(max_examples=60)
    @given(particles=random_particles, maneuvers=random_maneuvers, m_total=st.floats(1e-3, 1e3))
    def test_matches_per_particle_reference_exactly(self, particles, maneuvers, m_total):
        model = VacuumModel()
        got = run_maneuver_sequence(particles, maneuvers, m_total, model)
        want = reference_ledger(particles, maneuvers, m_total, model)
        # JSON text, so that the sign of every zero is compared too
        assert json.dumps(got.entry_dicts()) == json.dumps(want.entry_dicts())

    @settings(max_examples=60)
    @given(particles=random_particles, maneuvers=random_maneuvers, m_total=st.floats(1e-3, 1e3))
    def test_matches_the_svd_and_per_sample_reference(self, particles, maneuvers, m_total):
        model = VacuumModel()
        got = run_maneuver_sequence(particles, maneuvers, m_total, model).entries
        old = reference_ledger(
            particles, maneuvers, m_total, model, _svd_rotated, _per_sample_quantum_impulse
        ).entries
        for mv, new_entry, old_entry in zip(maneuvers, got, old, strict=True):
            bound = 1e-12 * _term_sizes(particles, mv, model)
            assert np.abs(new_entry.dp_vacuum - old_entry.dp_vacuum).max() <= bound

    def test_ledger_without_rotations_or_particle_field_terms_is_pinned(self):
        # no rotation and no particle-parameter field modulation: neither the polar step
        # nor the basis integrals run, and the bytes are those of the per-sample integrand
        ps = [
            Particle(
                1e-9 * (i + 1),
                1e3 + 500.0 * i,
                MagnetoElectricTensor(np.arange(9.0).reshape(3, 3) * (-1) ** i * 1e-4, 1e-4),
                orientation=rotation_about([1, i, 2], 0.3 + i),
            )
            for i in range(3)
        ]
        mv = [
            Aggregation(n=8, size_a=2e-9, direction=[0, 1, 1]),
            CavityModulation(db2_dt=0.7, duration=1.5),
            FieldModulation(series=SERIES[3]),
        ]
        out = io.StringIO()
        run_maneuver_sequence(ps, mv, 10.0, VacuumModel()).to_jsonl(out)
        assert out.getvalue().splitlines() == PINNED_LEDGER

    def test_all_negative_zero_terms_book_positive_zero(self):
        # each particle's cavity term is -0.0; a += loop from 0.0 gives +0.0
        ps = [particle(chi=-1e-3), particle(chi=-2e-3)]
        mv = [CavityModulation(db2_dt=0.0, duration=1.0)]
        model = VacuumModel()
        got = run_maneuver_sequence(ps, mv, 1.0, model).entry_dicts()
        assert json.dumps(got) == json.dumps(reference_ledger(ps, mv, 1.0, model).entry_dicts())
        assert json.dumps(got[0]["dp_vacuum"]) == "[0.0, 0.0, 0.0]"

    @pytest.mark.parametrize(
        "maneuver",
        [Rotation(axis=[0, 0, 1], angle=1.0), CavityModulation(db2_dt=1.0, duration=1.0)],
    )
    def test_zero_booking_of_an_empty_fleet_is_positive_zero(self, maneuver):
        got = run_maneuver_sequence([], [maneuver], 1.0, VacuumModel()).entry_dicts()[0]
        assert json.dumps(got["dp_particles"]) == json.dumps(got["dp_vacuum"]) == "[0.0, 0.0, 0.0]"

    def test_append_stores_every_zero_as_positive_zero(self):
        entry = ImpulseLedger(1.0).append("x", np.array([-0.0, -0.0, 2.0]), [0.0, -0.0, -2.0])
        assert json.dumps([entry.dp_particles.tolist(), entry.dp_vacuum.tolist()]) == (
            "[[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]]"
        )

    @settings(max_examples=100)
    @given(
        particles=st.one_of(st.just([]), random_particles),
        maneuvers=st.lists(st.one_of(zero_bookings, random_maneuver), max_size=8),
    )
    def test_no_ledger_line_holds_negative_zero(self, particles, maneuvers):
        out = io.StringIO()
        run_maneuver_sequence(particles, maneuvers, 1.0, VacuumModel()).to_jsonl(out)
        for line in out.getvalue().splitlines():
            entry = json.loads(line)
            values = entry["dp_particles"] + entry["dp_vacuum"] + entry["cumulative_v"]
            assert not [x for x in values if x == 0.0 and math.copysign(1.0, x) < 0.0], line

    def test_state_and_particle_inputs_book_the_same(self):
        ps = [particle(chi=1e-3), particle(chi=-4e-4, a=2e-9, kappa3=1e-3)]
        mv = [Rotation(axis=[1, 1, 0], angle=1.0), FieldModulation(series=SERIES[1])]
        model = VacuumModel()
        a = run_maneuver_sequence(ps, mv, 1.0, model).entry_dicts()
        b = run_maneuver_sequence(ParticleState.from_particles(ps), mv, 1.0, model).entry_dicts()
        assert json.dumps(a) == json.dumps(b)

    @given(particles=random_particles, turns=st.lists(rotations, min_size=1, max_size=8))
    def test_turns_then_their_inverses_book_zero_and_restore_the_orientation(
        self, particles, turns
    ):
        model = VacuumModel()
        there_and_back = turns + [Rotation(mv.axis, -mv.angle) for mv in reversed(turns)]
        state = initial = ParticleState.from_particles(particles)
        ledger = run_maneuver_sequence(state, there_and_back, 1.0, model)
        for mv in there_and_back:
            state = state.rotated(rotation_about(mv.axis, mv.angle))
        net = np.sum([e.dp_vacuum for e in ledger.entries], axis=0)
        # sum |P_vac| with each chi0_xy at its bound |chi0|_F, which holds in every orientation
        chi_bound = np.linalg.norm(initial.chi0, axis=(1, 2))
        scale = np.sum(stored_momentum(chi_bound, initial.size_a, model))
        assert net[:2].tolist() == [0.0, 0.0]
        assert abs(net[2]) <= 1e-12 * scale
        drift = np.abs(state.orientation - initial.orientation).max()
        assert drift <= 8 * np.finfo(float).eps, drift / np.finfo(float).eps

    @given(particles=st.lists(random_particle, min_size=1, max_size=60), turn=rotations)
    def test_turns_whose_product_is_the_identity_book_nothing(self, particles, turn):
        # pi about x, then y, then z is the identity; so is it between a turn and its inverse
        model = VacuumModel()
        half_turns = [Rotation(axis, math.pi) for axis in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
        sequence = [turn, *half_turns, Rotation(turn.axis, -turn.angle)]
        ledger = run_maneuver_sequence(particles, sequence, 1.0, model)
        net = np.sum([e.dp_vacuum for e in ledger.entries], axis=0)
        # sum |P_vac| with each chi0_xy at its bound |chi0|_F: the largest booking can be
        # rounding alone (chi0 = diag(0, 0, c) books only sin(pi) terms)
        state = ParticleState.from_particles(particles)
        chi_bound = np.linalg.norm(state.chi0, axis=(1, 2))
        scale = np.sum(stored_momentum(chi_bound, state.size_a, model))
        assert net[:2].tolist() == [0.0, 0.0]
        assert abs(net[2]) <= 1e-12 * scale, abs(net[2]) / scale

    @pytest.mark.parametrize("chi_params", [False, True])
    def test_modulations_that_share_a_series_integrate_it_once(self, chi_params):
        series = _series(201, chi_params)
        mv = [FieldModulation(series), Rotation([0, 0, 1], 1.0), FieldModulation(series)]
        ps = [particle(kappa3=1e-3), particle(chi=-4e-4, a=2e-9)]
        integrate = dynamics._quantum_impulse
        with mock.patch.object(dynamics, "_quantum_impulse", side_effect=integrate) as counted:
            got = run_maneuver_sequence(ps, mv, 1.0, VacuumModel()).entry_dicts()
        assert counted.call_count == 1
        want = reference_ledger(ps, mv, 1.0, VacuumModel()).entry_dicts()
        assert json.dumps(got) == json.dumps(want)

    @given(particles=random_particles, turns=st.lists(rotations, min_size=1, max_size=8))
    def test_rotations_book_the_change_of_stored_momentum(self, particles, turns):
        model = VacuumModel()
        ledger = run_maneuver_sequence(particles, turns, 1.0, model)
        state = initial = ParticleState.from_particles(particles)
        for mv in turns:
            state = state.rotated(rotation_about(mv.axis, mv.angle))

        def p_vac(s):
            return stored_momentum(s.chi0_xy, s.size_a, model)

        booked = np.sum([e.dp_vacuum for e in ledger.entries], axis=0)
        scale = len(turns) * (np.sum(np.abs(p_vac(initial))) + np.sum(np.abs(p_vac(state))))
        assert booked[:2].tolist() == [0.0, 0.0]
        assert booked[2] == pytest.approx(
            np.sum(p_vac(state)) - np.sum(p_vac(initial)), rel=0.0, abs=1e-12 * scale
        )


def test_fleet_sequence_runtime_guard():
    """10^3 particles x 30 mixed maneuvers stay well inside one second."""
    rng = np.random.default_rng(2024)
    particles = [
        Particle(
            rng.uniform(1e-9, 3e-9),
            rng.uniform(500.0, 5000.0),
            MagnetoElectricTensor(rng.uniform(-1e-3, 1e-3, (3, 3)), *rng.uniform(-1e-4, 1e-4, 3)),
            orientation=rotation_about(rng.normal(size=3), rng.uniform(-np.pi, np.pi)),
            epsilon=rng.uniform(1.0, 4.0),
        )
        for _ in range(1000)
    ]
    series = _series(200, False)
    maneuvers = []
    for kind in rng.permutation(["rotation"] * 12 + ["aggregation", "field", "cavity"] * 6):
        if kind == "rotation":
            maneuvers.append(Rotation(axis=rng.normal(size=3), angle=rng.uniform(-np.pi, np.pi)))
        elif kind == "aggregation":
            maneuvers.append(Aggregation(n=rng.integers(2, 100), size_a=2e-9, direction=rng.normal(size=3)))
        elif kind == "field":
            maneuvers.append(FieldModulation(series=series))
        else:
            maneuvers.append(CavityModulation(db2_dt=rng.uniform(-1, 1), duration=rng.uniform(0.1, 2)))
    start = time.perf_counter()
    ledger = run_maneuver_sequence(particles, maneuvers, 10.0, VacuumModel())
    elapsed = time.perf_counter() - start
    assert len(ledger.entries) == 30
    assert elapsed < 1.0, f"run_maneuver_sequence took {elapsed:.2f} s"

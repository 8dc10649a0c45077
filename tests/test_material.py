import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zpfdrive.material import (
    RULES,
    ImproperRotationError,
    MagnetoElectricTensor,
    Particle,
    ParticleState,
    particle_from_dict,
    particle_to_dict,
    rotate_tensor,
    rotation_about,
    tensor_from_dict,
    tensor_to_dict,
    check,
    record_field,
    unit_vector,
)
from zpfdrive.dynamics import FieldTimeSeries

PI_ABOUT_X = np.diag([1.0, -1.0, -1.0])  # exact pi rotation about x

angles = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)
axis_components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
axes = st.tuples(axis_components, axis_components, axis_components).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)
entries = st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False)
chi_matrices = st.tuples(*[entries for _ in range(9)]).map(
    lambda t: np.array(t).reshape(3, 3)
)


def _point_series(e_x: float, b_y: float) -> FieldTimeSeries:
    """A three-sample series holding the fields (E_x, B_y) at every sample."""
    return FieldTimeSeries(t=np.arange(3.0), e_x=np.full(3, e_x), b_y=np.full(3, b_y))


def chi_effective(t: MagnetoElectricTensor, e_x: float, b_y: float) -> float:
    """chi_xy(E, B) of ``t`` at one field point, by the series' response."""
    series = _point_series(e_x, b_y)
    return float(series.chi_response(t.chi0_xy, t.kappa1, t.kappa2, t.kappa3)[0])


def polarization(p: Particle, e_x: float, b_y: float) -> float:
    """P_x = epsilon*E_x + chi_xy*B_y at one field point, with the series' lab-frame chi."""
    return p.epsilon * e_x + float(_point_series(e_x, b_y).chi_samples(p)[0]) * b_y


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return rotation_about(v / np.linalg.norm(v), rng.uniform(-np.pi, np.pi))


class TestRotateTensor:
    def test_pi_about_x_flips_xy_sign_exactly(self):
        t = MagnetoElectricTensor.from_xy(1e-3)
        rotated = rotate_tensor(t, PI_ABOUT_X)
        assert rotated.chi0_xy == -1e-3
        only_xy = rotated.chi0.copy()
        only_xy[0, 1] = 0.0
        assert np.all(only_xy == 0.0)

    def test_identity_rotation_unchanged(self):
        t = MagnetoElectricTensor(np.arange(9).reshape(3, 3) * 1e-4)
        rotated = rotate_tensor(t, np.eye(3))
        assert np.array_equal(rotated.chi0, t.chi0)

    def test_two_quarter_turns_equal_half_turn(self):
        t = MagnetoElectricTensor(np.arange(9).reshape(3, 3) * 1e-4)
        quarter = rotation_about([0, 0, 1], np.pi / 2)
        half = rotation_about([0, 0, 1], np.pi)
        twice = rotate_tensor(rotate_tensor(t, quarter), quarter)
        once = rotate_tensor(t, half)
        assert np.max(np.abs(twice.chi0 - once.chi0)) < 1e-12

    def test_double_pi_is_identity(self):
        t = MagnetoElectricTensor(np.arange(9).reshape(3, 3) * 1e-4)
        back = rotate_tensor(rotate_tensor(t, PI_ABOUT_X), PI_ABOUT_X)
        assert np.array_equal(back.chi0, t.chi0)

    def test_improper_rotation_rejected(self):
        with pytest.raises(ImproperRotationError):
            rotate_tensor(MagnetoElectricTensor.from_xy(1e-3), np.diag([1.0, 1.0, -1.0]))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            rotate_tensor(MagnetoElectricTensor.from_xy(1e-3), np.eye(3) * 1.5)

    def test_kappas_carried_through(self):
        t = MagnetoElectricTensor.from_xy(1e-3, kappa1=2.0, kappa2=3.0, kappa3=5.0)
        rotated = rotate_tensor(t, PI_ABOUT_X)
        assert (rotated.kappa1, rotated.kappa2, rotated.kappa3) == (2.0, 3.0, 5.0)

    @given(m=chi_matrices, axis=axes, angle=angles)
    def test_frobenius_norm_preserved(self, m, axis, angle):
        t = MagnetoElectricTensor(m)
        rotated = rotate_tensor(t, rotation_about(axis, angle))
        assert rotated.frobenius_norm() == pytest.approx(
            t.frobenius_norm(), rel=1e-10, abs=1e-18
        )

    @given(m=chi_matrices, axis1=axes, angle1=angles, axis2=axes, angle2=angles)
    def test_composition(self, m, axis1, angle1, axis2, angle2):
        t = MagnetoElectricTensor(m)
        r1 = rotation_about(axis1, angle1)
        r2 = rotation_about(axis2, angle2)
        stepwise = rotate_tensor(rotate_tensor(t, r1), r2)
        composed = rotate_tensor(t, r2 @ r1)
        assert np.max(np.abs(stepwise.chi0 - composed.chi0)) < 1e-10

    def test_frobenius_norm_over_many_random_rotations(self):
        rng = np.random.default_rng(42)
        t = MagnetoElectricTensor(rng.uniform(-1e-3, 1e-3, size=(3, 3)))
        ref = t.frobenius_norm()
        for _ in range(200):
            assert rotate_tensor(t, random_rotation(rng)).frobenius_norm() == pytest.approx(
                ref, rel=1e-10
            )


class TestChiEffective:
    def test_zero_fields_give_intrinsic(self):
        t = MagnetoElectricTensor.from_xy(1e-3, kappa1=2.0, kappa2=3.0, kappa3=5.0)
        assert chi_effective(t, 0.0, 0.0) == 1e-3

    def test_single_linear_term(self):
        t = MagnetoElectricTensor.from_xy(0.0, kappa2=1.0)
        assert chi_effective(t, 1e-3, 0.0) == 1e-3

    def test_all_terms(self):
        # 1e-3 + 2*0.1*0.01 + 3*0.1 + 5*0.01 = 0.353
        t = MagnetoElectricTensor.from_xy(1e-3, kappa1=2.0, kappa2=3.0, kappa3=5.0)
        assert chi_effective(t, 0.1, 0.01) == pytest.approx(0.353, rel=1e-14)

    @given(
        e=st.floats(-10, 10, allow_nan=False),
        b=st.floats(-10, 10, allow_nan=False),
        h=st.floats(0.1, 2.0),
    )
    def test_affine_in_each_field(self, e, b, h):
        t = MagnetoElectricTensor.from_xy(1e-3, kappa1=0.7, kappa2=0.3, kappa3=0.2)
        # second difference in E at fixed B vanishes for an affine map
        second = (
            chi_effective(t, e + h, b) - 2 * chi_effective(t, e, b) + chi_effective(t, e - h, b)
        )
        assert abs(second) < 1e-9

    def test_cross_term_recovers_kappa1(self):
        t = MagnetoElectricTensor.from_xy(1e-3, kappa1=0.7, kappa2=0.3, kappa3=0.2)
        h = 0.5
        mixed = (
            chi_effective(t, h, h)
            - chi_effective(t, h, 0.0)
            - chi_effective(t, 0.0, h)
            + chi_effective(t, 0.0, 0.0)
        )
        assert mixed / h**2 == pytest.approx(0.7, rel=1e-8)

    def test_non_finite_fields_rejected(self):
        t = MagnetoElectricTensor.from_xy(1e-3)
        with pytest.raises(ValueError):
            chi_effective(t, float("nan"), 0.0)


class TestPolarization:
    def test_zero_fields(self):
        p = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3))
        assert polarization(p, 0.0, 0.0) == 0.0

    def test_vacuum_dielectric(self):
        p = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(0.0), epsilon=1.0)
        assert polarization(p, 0.75, 3.0) == 0.75

    def test_dielectric_plus_magnetoelectric(self):
        p = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3), epsilon=2.0)
        assert polarization(p, 1.0, 1.0) == pytest.approx(2.001, rel=1e-14)

    @given(e1=st.floats(-5, 5, allow_nan=False), e2=st.floats(-5, 5, allow_nan=False))
    def test_linear_in_e_without_induced_terms(self, e1, e2):
        p = Particle(
            1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3, kappa3=0.1), epsilon=3.0
        )
        b = 0.7
        lhs = polarization(p, e1 + e2, b) - polarization(p, 0.0, b)
        rhs = (polarization(p, e1, b) - polarization(p, 0.0, b)) + (
            polarization(p, e2, b) - polarization(p, 0.0, b)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_rotation_changes_polarization_sign_contribution(self):
        p = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3), epsilon=1.0)
        flipped = p.rotated(PI_ABOUT_X)
        assert polarization(p, 0.0, 1.0) == pytest.approx(1e-3)
        assert polarization(flipped, 0.0, 1.0) == pytest.approx(-1e-3)


class TestParticle:
    def test_mass_nanoparticle(self):
        p = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3))
        assert p.mass == pytest.approx(1e-24, rel=1e-14)

    def test_mass_unit_cube(self):
        p = Particle(1.0, 1000.0, MagnetoElectricTensor.from_xy(1e-3))
        assert p.mass == 1000.0

    def test_mass_cubic_scaling(self):
        t = MagnetoElectricTensor.from_xy(1e-3)
        assert Particle(2e-9, 1000.0, t).mass == pytest.approx(
            8 * Particle(1e-9, 1000.0, t).mass, rel=1e-14
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size_a": 0.0},
            {"size_a": -1e-9},
            {"density_rho": 0.0},
            {"epsilon": 0.5},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(size_a=1e-9, density_rho=1000.0, tensor=MagnetoElectricTensor.from_xy(0.0))
        base.update(kwargs)
        with pytest.raises(ValueError):
            Particle(**base)

    def test_improper_orientation_rejected(self):
        with pytest.raises(ImproperRotationError):
            Particle(
                1e-9,
                1000.0,
                MagnetoElectricTensor.from_xy(0.0),
                orientation=np.diag([1.0, 1.0, -1.0]),
            )

    def test_chi0_sanity_bound(self):
        with pytest.raises(ValueError):
            MagnetoElectricTensor.from_xy(1.5)

    def test_rotated_orientation_stays_proper(self):
        rng = np.random.default_rng(7)
        p = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3))
        for _ in range(500):
            p = p.rotated(random_rotation(rng))
        r = p.orientation
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_particle_round_trip_keys(self):
        p = Particle(
            2e-9,
            1500.0,
            MagnetoElectricTensor.from_xy(1e-4, kappa1=0.1, kappa2=0.2, kappa3=0.3),
            orientation=rotation_about([0, 0, 1], 0.3),
            epsilon=2.5,
        )
        d = json.loads(json.dumps(particle_to_dict(p)))
        assert set(d) == {
            "chi0",
            "kappa1",
            "kappa2",
            "kappa3",
            "size_a_m",
            "density_kg_m3",
            "epsilon",
            "orientation",
        }
        assert len(d["chi0"]) == 9 and len(d["orientation"]) == 9
        back = particle_from_dict(d)
        assert back.size_a == p.size_a
        assert back.density_rho == p.density_rho
        assert back.epsilon == p.epsilon
        assert np.allclose(back.orientation, p.orientation, atol=1e-15)
        assert np.allclose(back.tensor.chi0, p.tensor.chi0, atol=1e-18)

    def test_tensor_round_trip(self):
        t = MagnetoElectricTensor.from_xy(1e-3, kappa2=0.4)
        back = tensor_from_dict(tensor_to_dict(t))
        assert np.array_equal(back.chi0, t.chi0)
        assert back.kappa2 == 0.4


def random_particles(rng: np.random.Generator, n: int) -> list[Particle]:
    return [
        Particle(
            rng.uniform(1e-9, 3e-9),
            rng.uniform(500.0, 5000.0),
            MagnetoElectricTensor(rng.uniform(-1e-3, 1e-3, (3, 3)), *rng.uniform(-1e-4, 1e-4, 3)),
            orientation=random_rotation(rng),
            epsilon=rng.uniform(1.0, 4.0),
        )
        for _ in range(n)
    ]


class TestParticleState:
    def test_from_particles_and_from_dicts_agree(self):
        particles = random_particles(np.random.default_rng(1), 5)
        a = ParticleState.from_particles(particles)
        b = ParticleState.from_dicts(json.loads(json.dumps([particle_to_dict(p) for p in particles])))
        assert len(a) == len(b) == 5
        for name in ("size_a", "density", "epsilon", "chi0", "kappa", "orientation"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_from_dicts_defaults_match_particle_from_dict(self):
        record = {"chi0": [[0, 1e-3, 0], [0, 0, 0], [0, 0, 0]], "size_a_m": 1e-9, "density_kg_m3": 1e3}
        state = ParticleState.from_dicts([record])
        p = particle_from_dict(record)
        assert state.epsilon[0] == p.epsilon == 1.0
        assert np.array_equal(state.kappa[0], [0.0, 0.0, 0.0])
        assert np.array_equal(state.orientation[0], np.eye(3))
        assert state.chi0_xy[0] == p.chi0_xy

    def test_particle_from_dict_names_missing_and_malformed_fields(self):
        record = {"chi0": [0.0] * 9, "size_a_m": 1e-9, "density_kg_m3": 1e3}
        with pytest.raises(ValueError, match="missing field 'density_kg_m3'"):
            particle_from_dict({k: v for k, v in record.items() if k != "density_kg_m3"})
        with pytest.raises(ValueError, match="field 'kappa2'"):
            particle_from_dict({**record, "kappa2": None})
        with pytest.raises(ValueError, match="missing field 'chi0'"):
            tensor_from_dict({})

    def test_lab_frame_chi_and_rotation_match_particle_bit_for_bit(self):
        rng = np.random.default_rng(2)
        particles = random_particles(rng, 40)
        state = ParticleState.from_particles(particles)
        for _ in range(5):
            r = random_rotation(rng)
            particles = [p.rotated(r) for p in particles]
            state = state.rotated(r)
            assert state.chi0_xy.tolist() == [p.chi0_xy for p in particles]
            assert np.array_equal(state.orientation, [p.orientation for p in particles])

    def test_empty_state(self):
        state = ParticleState.from_particles([])
        assert len(state) == 0
        assert state.chi0_xy.shape == (0,)
        assert len(state.rotated(rotation_about([0, 0, 1], 1.0))) == 0

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("size_a_m", -1e-9, "size_a must be positive"),
            ("density_kg_m3", 0.0, "density must be positive"),
            ("epsilon", 0.5, "epsilon must be >= 1"),
            ("chi0", [0, 1.5, 0, 0, 0, 0, 0, 0, 0], "sanity bound"),
            ("chi0", [0, float("nan"), 0, 0, 0, 0, 0, 0, 0], "finite"),
            ("kappa2", float("inf"), "finite"),
            ("orientation", [1, 0, 0, 0, 1, 0, 0, 0, 1.1], "not orthogonal"),
            ("size_a_m", 1e-320, "size_a must be positive, with a finite, non-zero a\\^4"),
            ("density_kg_m3", float("inf"), "density must be positive"),
            ("epsilon", float("inf"), "epsilon must be >= 1"),
        ],
    )
    def test_invalid_record_named_by_index(self, field, value, message):
        records = [particle_to_dict(p) for p in random_particles(np.random.default_rng(3), 4)]
        records[2][field] = value
        with pytest.raises(ValueError, match=f"particle 2: .*{message}"):
            ParticleState.from_dicts(records)

    def test_improper_orientation_rejected(self):
        records = [particle_to_dict(p) for p in random_particles(np.random.default_rng(4), 3)]
        records[1]["orientation"] = [1, 0, 0, 0, 1, 0, 0, 0, -1]
        with pytest.raises(ImproperRotationError, match="particle 1"):
            ParticleState.from_dicts(records)

    @pytest.mark.parametrize(
        "record, message",
        [
            ("oops", "particle 0: expected an object, got str"),
            ({"chi0": [0] * 9, "density_kg_m3": 1e3}, "particle 0: missing field 'size_a_m'"),
            ({"chi0": [0] * 9, "size_a_m": None, "density_kg_m3": 1e3}, "field 'size_a_m'"),
            ({"size_a_m": 1e-9, "density_kg_m3": 1e3}, "particle 0: missing field 'chi0'"),
            ({"chi0": [0] * 8, "size_a_m": 1e-9, "density_kg_m3": 1e3}, "field 'chi0'"),
        ],
    )
    def test_malformed_record_names_field(self, record, message):
        with pytest.raises(ValueError, match=message):
            ParticleState.from_dicts([record])

    def test_arrays_read_only(self):
        state = ParticleState.from_particles(random_particles(np.random.default_rng(5), 2))
        with pytest.raises(ValueError):
            state.size_a[0] = -1.0

    def test_lab_frame_bound_checked(self):
        # entries within the bound whose rotation pushes one entry past it
        chi0 = np.full((3, 3), 0.9)
        state = ParticleState.from_dicts(
            [{"chi0": chi0.tolist(), "size_a_m": 1e-9, "density_kg_m3": 1e3,
              "orientation": rotation_about([1, 1, 0], 0.7).ravel().tolist()}]
        )
        with pytest.raises(ValueError, match="particle 0: lab-frame"):
            state.chi0_xy


class TestInputRules:
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_non_finite_fails_every_rule(self, rule):
        for value in (float("nan"), float("inf"), float("-inf")):
            assert not RULES[rule](value)
            with pytest.raises(ValueError, match=f"^x must be finite, got {value!r}$"):
                check("x", value, rule)

    @pytest.mark.parametrize(
        "rule, good, bad",
        [
            ("finite", [-1e308, 0.0, 5e-324], []),
            ("positive", [5e-324, 1.7e308], [0.0, -1.0]),
            ("size", [1e-9, 1e-77, 1e76], [0.0, -1e-9, 1e-78, 1e78]),
            ("chi", [-1.0, 0.0, 1.0], [-1.0000000000000002, 5.0]),
            ("unit", [5e-324, 0.5, 1.0], [0.0, -0.5, 1.0000000000000002]),
            ("at_least_one", [1.0, 1e308], [0.5, 0.0]),
        ],
    )
    def test_rule_bounds(self, rule, good, bad):
        for value in good:
            assert check("x", value, rule) == value
        for value in bad:
            with pytest.raises(ValueError, match=re.escape(f"x {value!r} is out of range")):
                check("x", value, rule)

    def test_unit_vector_keeps_the_bits_of_division_by_the_norm(self):
        rng = np.random.default_rng(7)
        for v in rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-100, 100, size=(50, 1)):
            assert np.array_equal(unit_vector(v, "v"), v / np.linalg.norm(v))

    @pytest.mark.parametrize("v", [[1e308, 1e308, 0.0], [1e-200, -1e-200, 0.0], [5e-324, 0, 0]])
    def test_unit_vector_of_an_overflowing_or_underflowing_norm(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = unit_vector(v, "v")
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(np.sign(u), np.sign(v))

    @pytest.mark.parametrize(
        "v, message",
        [
            ([0, 0, 0], "finite and nonzero"),
            ([1, float("nan"), 0], "finite and nonzero"),
            ([float("inf"), 0, 0], "finite and nonzero"),
            ([1, 2], "a 3-vector"),
            ([1, "x", 3], "a 3-vector"),
            ([{}, 1, 2], "a 3-vector"),
            ([10**400, 0, 0], "a 3-vector"),
        ],
    )
    def test_unit_vector_refusals(self, v, message):
        with pytest.raises(ValueError, match=f"^axis must be {message}$"):
            unit_vector(v, "axis")

    def test_record_field(self):
        d = {"a": "2.5", "b": None, "c": 10**400}
        assert record_field(d, "a") == 2.5
        assert record_field(d, "z", default=1.0) == 1.0
        assert record_field(d, "a", str, default=1.0) == "2.5"
        assert record_field(d, "a", None) == "2.5"
        with pytest.raises(ValueError, match="^missing field 'z'$"):
            record_field(d, "z")
        with pytest.raises(ValueError, match="^field 'b': float"):
            record_field(d, "b")
        with pytest.raises(ValueError, match="^field 'c': int too large"):
            record_field(d, "c")

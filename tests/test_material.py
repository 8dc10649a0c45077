import json
import re
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfdrive import material
from zpfdrive.material import (
    REQUIRED,
    RULES,
    ImproperRotationError,
    MagnetoElectricTensor,
    Particle,
    ParticleState,
    particle_from_dict,
    particle_to_dict,
    rotate_tensor,
    rotation_about,
    check,
    read_record,
    record_field,
    unit_vector,
)
from zpfdrive.dynamics import FieldTimeSeries

_LAB_BOUND = "lab-frame |chi0| entries exceed sanity bound 1.0"
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
    """chi_xy(E, B) of ``t`` at one field point, by the series' response of an unrotated
    particle."""
    return float(_point_series(e_x, b_y).chi_samples(Particle(1e-9, 1000.0, t))[0])


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
        # checked as a stack of one, whose error names no index
        message = r"^improper rotation \(det = -1\) rejected$"
        with pytest.raises(ImproperRotationError, match=message):
            rotate_tensor(MagnetoElectricTensor.from_xy(1e-3), np.diag([1.0, 1.0, -1.0]))

    @given(chi0=chi_matrices, axis=axes, angle=angles)
    def test_same_bits_as_a_particle_in_that_orientation(self, chi0, axis, angle):
        # one conjugation kernel serves a rotated tensor and a particle's lab frame
        t, r = MagnetoElectricTensor(chi0), rotation_about(axis, angle)
        turned = rotate_tensor(t, r).chi0_xy
        assert turned.hex() == Particle(1e-9, 1e3, t, orientation=r).chi0_xy.hex()

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
        state = ParticleState.from_particles([p]).rotated(PI_ABOUT_X)
        flipped = Particle(p.size_a, p.density_rho, p.tensor, state.orientation[0], p.epsilon)
        assert polarization(p, 0.0, 1.0) == pytest.approx(1e-3)
        assert polarization(flipped, 0.0, 1.0) == pytest.approx(-1e-3)
        assert state.chi0_xy[0] == flipped.chi0_xy == -1e-3


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

    def test_holds_only_its_own_fields(self):
        # no state of one row: its checked fields and its lab-frame chi0_xy, which has the bits
        # of a state built from the same row
        for p in random_particles(np.random.default_rng(9), 20):
            t = p.tensor
            with mock.patch.object(material, "ParticleState") as state:
                again = Particle(p.size_a, p.density_rho, t, p.orientation, p.epsilon)
            state.assert_not_called()
            assert vars(again).keys() == {
                "size_a", "density_rho", "tensor", "orientation", "epsilon", "chi0_xy"}
            row = ParticleState([p.size_a], [p.density_rho], [p.epsilon], t.chi0[None],
                                [[t.kappa1, t.kappa2, t.kappa3]], p.orientation[None])
            assert again.chi0_xy.hex() == p.chi0_xy.hex() == row.chi0_xy[0].hex()

    def test_rotated_orientation_stays_proper(self):
        rng = np.random.default_rng(7)
        p = Particle(1e-9, 1000.0, MagnetoElectricTensor.from_xy(1e-3))
        state = ParticleState.from_particles([p])
        for _ in range(500):
            state = state.rotated(random_rotation(rng))
        assert "orientation" not in vars(state)
        first = state.orientation
        assert state.orientation is first is vars(state)["orientation"]
        assert not first.flags.writeable
        with pytest.raises(AttributeError, match="^'ParticleState' object has no attribute 'x'$"):
            state.x
        r = first[0]
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
        back = particle_from_dict(particle_to_dict(Particle(1e-9, 1e3, t))).tensor
        assert np.array_equal(back.chi0, t.chi0)
        assert (back.kappa1, back.kappa2, back.kappa3) == (0.0, 0.4, 0.0)


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
            particle_from_dict({k: v for k, v in record.items() if k != "chi0"})

    def test_lab_frame_chi_and_rotation_match_particle_bit_for_bit(self):
        # built, the state reads each particle's chi0_xy; turned, each state of one's
        rng = np.random.default_rng(2)
        particles = random_particles(rng, 40)
        state = ParticleState.from_particles(particles)
        assert state.chi0_xy.tolist() == [p.chi0_xy for p in particles]
        singles = [ParticleState.from_particles([p]) for p in particles]
        for _ in range(5):
            r = random_rotation(rng)
            singles = [one.rotated(r) for one in singles]
            state = state.rotated(r)
            assert state.chi0_xy.tolist() == [one.chi0_xy[0] for one in singles]
            assert np.array_equal(state.orientation, [one.orientation[0] for one in singles])

    def test_chained_rotations_stay_proper_to_rounding(self):
        rng = np.random.default_rng(11)
        state = ParticleState.from_particles(random_particles(rng, 8))
        gram_error = det_error = 0.0
        for _ in range(10_000):
            state = state.rotated(random_rotation(rng))
            r = state.orientation
            gram_error = max(gram_error, np.abs(np.swapaxes(r, 1, 2) @ r - np.eye(3)).max())
            det_error = max(det_error, np.abs(np.linalg.det(r) - 1.0).max())
        eps = np.finfo(float).eps
        assert gram_error <= 4 * eps and det_error <= 4 * eps, (gram_error / eps, det_error / eps)

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
            ("chi0", [0.9] * 9, re.escape(_LAB_BOUND)),  # past the bound in the lab frame only
            ("size_a_m", float("nan"), "size_a must be positive"),
            ("density_kg_m3", float("nan"), "density must be positive"),
            ("epsilon", float("nan"), "epsilon must be >= 1"),
            ("chi0", [float("inf")] + [0] * 8, "chi0 entries must be finite"),
            ("kappa1", float("nan"), "kappas must be finite"),
            ("orientation", [float("nan")] + [0] * 8, "orientation entries must be finite"),
            ("orientation", [1, 0, 0, 0, 1, 0, 0, 0, -1], re.escape("improper rotation (det")),
        ],
    )
    def test_invalid_record_named_by_index(self, field, value, message):
        records = [particle_to_dict(p) for p in random_particles(np.random.default_rng(3), 4)]
        # an orientation that turns the all-0.9 chi0 past the lab-frame bound
        records[2]["orientation"] = rotation_about([1, 1, 0], 0.7).ravel().tolist()
        records[2][field] = value
        with pytest.raises(ValueError, match=f"particle 2: .*{message}") as state_error:
            ParticleState.from_dicts(records)
        # Particle and MagnetoElectricTensor apply the same table to one particle
        with pytest.raises(ValueError) as particle_error:
            particle_from_dict(records[2])
        assert type(particle_error.value) is type(state_error.value)
        assert str(particle_error.value) == str(state_error.value).removeprefix("particle 2: ")

    def test_each_rotation_checked_once(self):
        calls = []
        original = material._check_rotations

        def counting(r, **kwargs):
            calls.append(r.shape[0])
            return original(r, **kwargs)

        t = MagnetoElectricTensor(np.arange(9).reshape(3, 3) * 1e-4)
        r = rotation_about([1, 2, 3], 0.4)
        with mock.patch.object(material, "_check_rotations", counting):
            p = Particle(1e-9, 1e3, t, orientation=r)
            assert calls == [1]
            rotate_tensor(t, r)
            assert calls == [1, 1]
            assert p.chi0_xy == rotate_tensor(t, r).chi0_xy
            calls.clear()
            p.chi0_xy
            assert calls == []
            ParticleState.from_particles([p, p, p])
            assert calls == [3]

    def test_particle_rotation_checks_the_factor_alone(self):
        particles = random_particles(np.random.default_rng(13), 3)
        one = ParticleState.from_particles(particles[:1])
        r = rotation_about([1, 2, 3], 0.4)
        original = material._check_rotations
        with (
            mock.patch.object(material, "_check_rotations", side_effect=original) as rotations,
            mock.patch.object(material, "_check_particles") as checks,
        ):
            turned = one.rotated(r).rotated(r)
            turned.orientation
        assert rotations.call_count == 2  # each factor r; no product is checked again
        checks.assert_not_called()
        assert not turned.orientation.flags.writeable
        state = ParticleState.from_particles(particles).rotated(r).rotated(r)
        assert np.array_equal(turned.orientation[0], state.orientation[0])

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

    def test_misshapen_field_refused(self):
        one = {"size_a": [1e-9], "density": [1e3], "epsilon": [1.0], "kappa": np.zeros((1, 3)),
               "orientation": np.eye(3)[None]}
        message = "chi0 must be N arrays of shape (3, 3), got (1, 2, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ParticleState(**one, chi0=np.zeros((1, 2, 3)))

    def test_arrays_read_only(self):
        state = ParticleState.from_particles(random_particles(np.random.default_rng(5), 2))
        with pytest.raises(ValueError):
            state.size_a[0] = -1.0
        # what every rotation shares refuses writes too, so no rotation sees another chi0_xy
        for s in (state, state.rotated(rotation_about([1, 2, 3], 0.4))):
            arrays = {k: v for k, v in vars(s).items() if isinstance(v, np.ndarray)}
            assert {"chi0_xy", "_built", "_frame", "_columns", "_near_tensors"} <= arrays.keys()
            for a in arrays.values():
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = 1.0
            assert s._columns.flags.c_contiguous  # the nine multiply-adds read its rows

    def test_lab_frame_bound_checked(self):
        # entries within the bound whose rotation pushes one entry past it: refused when built
        chi0 = np.full((3, 3), 0.9)
        with pytest.raises(ValueError) as state_error:
            ParticleState.from_dicts(
                [{"chi0": chi0.tolist(), "size_a_m": 1e-9, "density_kg_m3": 1e3,
                  "orientation": rotation_about([1, 1, 0], 0.7).ravel().tolist()}]
            )
        assert str(state_error.value) == f"particle 0: {_LAB_BOUND}"
        # a Particle applies the same bound through the same kernel, naming no index
        with pytest.raises(ValueError) as err:
            Particle(1e-9, 1e3, MagnetoElectricTensor(chi0), rotation_about([1, 1, 0], 0.7))
        assert str(err.value) == _LAB_BOUND

    @settings(max_examples=300)
    @given(
        chi0=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(
            lambda v: np.reshape(v, (3, 3))
        ),
        axis=axes,
        angle=angles,
    )
    def test_lab_frame_bound_refused_alike_at_construction(self, chi0, axis, angle):
        o = rotation_about(axis, angle)
        records = [
            {"chi0": [0.0] * 9, "size_a_m": 1e-9, "density_kg_m3": 1e3},
            {"chi0": chi0.ravel().tolist(), "size_a_m": 1e-9, "density_kg_m3": 1e3,
             "orientation": o.ravel().tolist()},
        ]
        errors, built = [], []
        for build in (
            lambda: Particle(1e-9, 1e3, MagnetoElectricTensor(chi0), o),
            lambda: ParticleState.from_dicts(records),
        ):
            try:
                built.append(build())
            except ValueError as exc:
                errors.append(str(exc))
        assert errors in ([], [_LAB_BOUND, f"particle 1: {_LAB_BOUND}"])
        largest = np.abs(o @ chi0 @ o.T).max()
        if abs(largest - 1.0) > 4 * np.finfo(float).eps:  # else rounding decides either way
            assert bool(errors) == (largest > 1.0)
        if built:
            particle, state = built
            assert particle.chi0_xy.hex() == state.chi0_xy[1].hex()

    def test_particle_reads_its_lab_frame_chi_without_checking_again(self):
        p = random_particles(np.random.default_rng(6), 1)[0]
        with mock.patch.object(material, "_check_particles") as check_particles:
            first, second = p.chi0_xy, p.chi0_xy
        check_particles.assert_not_called()
        assert first == second == ParticleState.from_particles([p]).chi0_xy[0]

    def test_particle_and_state_share_one_conjugation(self):
        kernel = material._conjugate
        with mock.patch.object(material, "_conjugate", side_effect=kernel) as counted:
            particles = random_particles(np.random.default_rng(7), 3)
            state = ParticleState.from_particles(particles)
            values = [p.chi0_xy for p in particles]
            assert state.chi0_xy.tolist() == values
        # each is built by one conjugation, and a read computes nothing
        assert [c.args[0].shape for c in counted.call_args_list] == [(1, 3, 3)] * 3 + [(3, 3, 3)]

    def test_from_dicts_takes_flat_and_nested_chi0_alike(self):
        records = [particle_to_dict(p) for p in random_particles(np.random.default_rng(8), 4)]
        flat = ParticleState.from_dicts(records)
        nested = [{**d, "chi0": np.reshape(d["chi0"], (3, 3)).tolist()} for d in records]
        mixed = records[:1] + nested[1:2] + records[2:3] + nested[3:]
        # a mix of layouts, and records that are mappings but not dicts, are read record by record
        proxies = [types.MappingProxyType(d) for d in records]
        for other in map(ParticleState.from_dicts, (nested, mixed, proxies)):
            for name in ("size_a", "density", "epsilon", "chi0", "kappa", "orientation", "chi0_xy"):
                assert np.array_equal(getattr(other, name), getattr(flat, name)), name

    def test_from_dicts_names_the_first_bad_record_not_the_first_bad_column(self):
        records = [particle_to_dict(p) for p in random_particles(np.random.default_rng(10), 4)]
        records[1]["kappa1"] = 10**400  # a JSON number, that only the conversion refuses
        records[3]["size_a_m"] = "1e-9"  # an earlier column, a later record
        with pytest.raises(ValueError) as err:
            ParticleState.from_dicts(records)
        assert str(err.value) == "particle 1: field 'kappa1': int too large to convert to float"

    def test_rotations_conjugate_no_stack_of_n(self):
        rng = np.random.default_rng(12)
        particles = random_particles(rng, 6)
        # |chi0|_F = 1.04 > 1: checked in full in every frame, though no entry can pass 0.6
        wide = Particle(1e-9, 1e3, MagnetoElectricTensor(0.6 * np.eye(3)))
        kernel = material._conjugate
        for fleet, per_rotation in ((particles, []), (particles + [wide], [(1, 3, 3)])):
            with mock.patch.object(material, "_conjugate", side_effect=kernel) as counted:
                state = ParticleState.from_particles(fleet)
                state.chi0_xy
                for _ in range(4):
                    state = state.rotated(random_rotation(rng))
                    state.chi0_xy
            shapes = [c.args[0].shape for c in counted.call_args_list]
            assert shapes == [(len(fleet), 3, 3)] + per_rotation * 4


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
        d = {"a": 2, "s": "2.5", "v": [[1, 2.5], [0, -1e-3]], "c": 10**400}
        assert record_field(d, "a") == 2.0 and type(record_field(d, "a")) is float
        assert record_field(d, "z", default=1.0) == 1.0
        assert record_field(d, "s", str, default="x") == "2.5"
        assert record_field(d, "v", list) == [[1, 2.5], [0, -1e-3]]
        with pytest.raises(ValueError, match="^missing field 'z'$"):
            record_field(d, "z")
        with pytest.raises(ValueError, match="^field 'c': int too large"):
            record_field(d, "c")

    @pytest.mark.parametrize(
        "value, kind, message",
        [
            ("2.5", float, "a number, got '2.5'"),
            (True, float, "a number, got True"),
            (False, float, "a number, got False"),
            (None, float, "a number, got None"),
            ([1.0], float, "a number, got [1.0]"),
            (5, str, "a string, got 5"),
            (None, str, "a string, got None"),
            (1.0, list, "a list of numbers, got 1.0"),
            ([0, 0, True], list, "a list of numbers, got [0, 0, True]"),
            ([[0, "1e-3"], [0, 0]], list, "a list of numbers, got [[0, '1e-3'], [0, 0]]"),
            ([0, [1.0]], list, "a list of numbers, got [0, [1.0]]"),
            ([[[0.0]]], list, "a list of numbers, got [[[0.0]]]"),
            ([0, None], list, "a list of numbers, got [0, None]"),
        ],
    )
    def test_record_field_refuses_other_json_kinds(self, value, kind, message):
        with pytest.raises(ValueError, match=f"^field 'k' must be {re.escape(message)}$"):
            record_field({"k": value}, "k", kind)


class TestReadRecord:
    """One reader for spec, particle and maneuver records: a schema gives each key its JSON
    kind and its default (REQUIRED, a value, or None: null or absent reads as None)."""

    SCHEMA = {"a": (float, REQUIRED), "b": (float, 2.0), "s": (str, "x"), "v": (list, None)}

    def test_fields_in_schema_order_with_defaults(self):
        record = read_record({"v": [1, 2], "a": 1}, self.SCHEMA)
        assert record == {"a": 1.0, "b": 2.0, "s": "x", "v": [1, 2]}
        assert list(record) == list(self.SCHEMA) and type(record["a"]) is float

    @pytest.mark.parametrize("d", [{"a": 1}, {"a": 1, "v": None}])
    def test_nullable_field_null_or_absent_reads_none(self, d):
        assert read_record(d, self.SCHEMA)["v"] is None

    def test_required_field_missing(self):
        with pytest.raises(ValueError, match="^missing field 'a'$"):
            read_record({"b": 1.0}, self.SCHEMA)

    @pytest.mark.parametrize("key", ["a", "b", "s"])
    def test_null_refused_where_the_default_is_not_none(self, key):
        with pytest.raises(ValueError, match=f"^field '{key}' must be a .*, got None$"):
            read_record({"a": 1, key: None}, self.SCHEMA)

    def test_unknown_keys_refused_before_any_field(self):
        with pytest.raises(ValueError, match=re.escape("unknown fields: ['aa', 'kapa1']")):
            read_record({"kapa1": 0.0, "a": True, "aa": 1}, self.SCHEMA)

    @pytest.mark.parametrize("d, kind", [([1, 2], "list"), ("oops", "str"), (None, "NoneType")])
    def test_not_an_object(self, d, kind):
        with pytest.raises(ValueError, match=f"^expected an object, got {kind}$"):
            read_record(d, self.SCHEMA)

    def test_particle_key_misspelled(self):
        record = {**particle_to_dict(Particle(1e-9, 1e3, MagnetoElectricTensor.from_xy(1e-3)))}
        record["orientaton"] = record.pop("orientation")
        with pytest.raises(ValueError, match=re.escape("unknown fields: ['orientaton']")):
            particle_from_dict(record)
        with pytest.raises(ValueError, match=re.escape("particle 0: unknown fields")):
            ParticleState.from_dicts([record])

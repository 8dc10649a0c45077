import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zpfdrive.quantities import (
    ACTION,
    DIMENSIONLESS,
    ENERGY_DENSITY,
    HBAR_J_S,
    LENGTH,
    MASS,
    MASS_DENSITY,
    MOMENTUM,
    TIME,
    VELOCITY,
    DimensionError,
    Quantity,
    dim,
    unit_string,
)

dims = st.tuples(*[st.integers(-3, 3) for _ in range(4)]).map(lambda t: dim(*t))
finite_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)

HBAR = Quantity(HBAR_J_S, ACTION)
C = Quantity(2.99792458e8, VELOCITY)
# Gaussian E and B share one dimension: g^(1/2) cm^(-1/2) s^(-1)
FIELD_GAUSSIAN = dim(length=Fraction(-1, 2), mass=Fraction(1, 2), time=-1)


class TestQuantityAlgebra:
    def test_add_same_dimension(self):
        assert (Quantity(1.0, LENGTH) + Quantity(2.0, LENGTH)).value == 3.0

    def test_add_mismatched_rejected(self):
        with pytest.raises(DimensionError):
            Quantity(1.0, LENGTH) + Quantity(1.0, TIME)

    def test_mul_composes_exponents(self):
        q = Quantity(2.0, LENGTH) * Quantity(3.0, LENGTH)
        assert q.dim == dim(length=2)
        assert q.value == 6.0

    def test_div_composes_exponents(self):
        q = Quantity(6.0, LENGTH) / Quantity(3.0, TIME)
        assert q.dim == VELOCITY

    def test_pow_rational(self):
        q = Quantity(16.0, dim(length=2)) ** Fraction(1, 2)
        assert q.dim == LENGTH
        assert q.value == 4.0

    def test_float_scalar_interop(self):
        q = 2.0 * Quantity(3.0, MASS) / 6
        assert q.dim == MASS
        assert q.value == 1.0

    def test_float_conversion_guard(self):
        assert float(Quantity(2.5)) == 2.5
        with pytest.raises(DimensionError):
            float(Quantity(2.5, LENGTH))

    def test_comparison_requires_same_dimension(self):
        assert Quantity(1.0, LENGTH) < Quantity(2.0, LENGTH)
        with pytest.raises(DimensionError):
            Quantity(1.0, LENGTH) < Quantity(2.0, TIME)

    @given(a=dims, b=dims, x=finite_floats, y=finite_floats)
    def test_mismatched_dimensions_always_rejected(self, a, b, x, y):
        qa, qb = Quantity(x, a), Quantity(y, b)
        if a == b:
            assert (qa + qb).value == x + y
        else:
            with pytest.raises(DimensionError):
                qa + qb
            with pytest.raises(DimensionError):
                qa - qb

    @given(a=dims, b=dims, x=finite_floats, y=finite_floats)
    def test_mul_div_exponent_arithmetic(self, a, b, x, y):
        prod = Quantity(x, a) * Quantity(y, b)
        quot = Quantity(x, a) / Quantity(y, b)
        assert prod.dim == tuple(i + j for i, j in zip(a, b))
        assert quot.dim == tuple(i - j for i, j in zip(a, b))


class TestConstants:
    def test_codata_values(self):
        assert HBAR_J_S == 1.054571817e-34
        assert HBAR.dim == ACTION

    def test_immutable(self):
        with pytest.raises(AttributeError):
            HBAR.value = 1.0


class TestDimensionClosure:
    """Each implemented formula is dimensionally closed."""

    def test_rotation_delta_v_dimension(self):
        # hbar / (rho * a^4) -> velocity, by hand: J s / (kg m^-3 m^4) = m/s
        rho = Quantity(1000.0, MASS_DENSITY)
        a = Quantity(1e-9, LENGTH)
        expr = HBAR / (rho * a ** 4)
        assert expr.dim == VELOCITY
        assert VELOCITY == dim(length=1, time=-1)

    def test_vacuum_momentum_dimension(self):
        # hbar * chi / a with dimensionless chi -> momentum
        a = Quantity(1e-9, LENGTH)
        chi = Quantity(1e-3)
        expr = HBAR * chi / a
        assert expr.dim == MOMENTUM
        assert MOMENTUM == dim(length=1, mass=1, time=-1)

    def test_force_terms_match_in_gaussian_convention(self):
        # eps*E*B-rate versus chi*B^2-rate: identical dimension when the
        # fields carry the shared Gaussian field dimension
        e = Quantity(1.0, FIELD_GAUSSIAN)
        b = Quantity(1.0, FIELD_GAUSSIAN)
        t = Quantity(1.0, TIME)
        dielectric_term = b * (2.0 * e / t)
        magnetoelectric_term = Quantity(1e-3) * (b * b / t)
        assert dielectric_term.dim == magnetoelectric_term.dim

    def test_payload_scaling_dimension(self):
        dv = Quantity(1e-6, VELOCITY)
        expr = dv * Quantity(50.0, MASS) / Quantity(100.0, MASS)
        assert expr.dim == VELOCITY

    def test_b_squared_dimension(self):
        # hbar * w^4 / c^3 -> energy density, the Gaussian field-squared tag
        w = Quantity(1e18, dim(time=-1))
        expr = HBAR * w ** 4 / (2 * math.pi * C ** 3)
        assert expr.dim == ENERGY_DENSITY

    def test_plain_floats_are_dimensionless(self):
        assert (Quantity(2.0) * 3.14).dim == DIMENSIONLESS
        assert (3.14 * Quantity(2.0, LENGTH)).dim == LENGTH
        with pytest.raises(DimensionError):
            Quantity(2.0, LENGTH) + 3.14


def test_unit_strings():
    assert unit_string(VELOCITY) == "m/s"
    assert unit_string(MOMENTUM) == "kg m/s"
    assert unit_string(dim(length=2, time=-2)) == "m^2 s^-2"

"""Unit-safe physical scalars.

Every physical number in this package is either a plain SI float with a
unit-suffixed name, or a :class:`Quantity` carrying an explicit dimension
vector.  Dimensions are exponent vectors over the four base dimensions

    (length, mass, time, current)

stored as exact :class:`fractions.Fraction` values, so rational powers of a
quantity keep exact exponents.

Arithmetic rules:

* addition/subtraction/comparison only between identical dimension vectors,
* multiplication/division adds/subtracts exponent vectors,
* powers multiply exponent vectors by the (rational) exponent.

Mechanical quantities are SI throughout; the magneto-electric constant chi
stays dimensionless (Gaussian convention), with all convention factors
absorbed into the single calibration prefactor of the vacuum model.  The
public closed forms return a :class:`Quantity`, whose unit the CLI prints
with :func:`unit_string`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = [
    "Dim",
    "DimensionError",
    "Quantity",
    "HBAR_J_S",
    "si_value",
    "unit_string",
    "dim",
    "DIMENSIONLESS",
    "LENGTH",
    "MASS",
    "TIME",
    "CURRENT",
    "VELOCITY",
    "MOMENTUM",
    "FORCE",
    "ENERGY",
    "ACTION",
    "MASS_DENSITY",
    "FREQUENCY",
    "ENERGY_DENSITY",
]

Dim = tuple[Fraction, Fraction, Fraction, Fraction]


def dim(length: object = 0, mass: object = 0, time: object = 0, current: object = 0) -> Dim:
    """Build a dimension vector from (possibly rational) exponents."""
    return (Fraction(length), Fraction(mass), Fraction(time), Fraction(current))


DIMENSIONLESS: Dim = dim()
LENGTH: Dim = dim(length=1)
MASS: Dim = dim(mass=1)
TIME: Dim = dim(time=1)
CURRENT: Dim = dim(current=1)
VELOCITY: Dim = dim(length=1, time=-1)
MOMENTUM: Dim = dim(length=1, mass=1, time=-1)
FORCE: Dim = dim(length=1, mass=1, time=-2)
ENERGY: Dim = dim(length=2, mass=1, time=-2)
ACTION: Dim = dim(length=2, mass=1, time=-1)  # J*s
MASS_DENSITY: Dim = dim(length=-3, mass=1)
FREQUENCY: Dim = dim(time=-1)

# Gaussian field squared == energy density (J/m^3 resp. erg/cm^3).
ENERGY_DENSITY: Dim = dim(length=-1, mass=1, time=-2)


class DimensionError(ValueError):
    """Arithmetic or conversion attempted on incompatible dimension vectors."""


def _dim_mul(a: Dim, b: Dim) -> Dim:
    return tuple(x + y for x, y in zip(a, b))  # type: ignore[return-value]


def _dim_div(a: Dim, b: Dim) -> Dim:
    return tuple(x - y for x, y in zip(a, b))  # type: ignore[return-value]


def _dim_pow(a: Dim, n: Fraction) -> Dim:
    return tuple(x * n for x in a)  # type: ignore[return-value]


@dataclass(frozen=True)
class Quantity:
    """A scalar with an exact dimension vector over (length, mass, time, current)."""

    value: float
    dim: Dim = DIMENSIONLESS

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "dim", tuple(Fraction(x) for x in self.dim))

    # -- helpers ----------------------------------------------------------

    def _require_same_dim(self, other: "Quantity", op: str) -> None:
        if self.dim != other.dim:
            raise DimensionError(
                f"{op} requires identical dimensions, got {self.dim} vs {other.dim}"
            )

    @staticmethod
    def _coerce(x: object) -> "Quantity | None":
        if isinstance(x, Quantity):
            return x
        if isinstance(x, numbers.Real):
            return Quantity(float(x), DIMENSIONLESS)
        return None

    @property
    def is_dimensionless(self) -> bool:
        return self.dim == DIMENSIONLESS

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: object) -> "Quantity":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        self._require_same_dim(q, "addition")
        return Quantity(self.value + q.value, self.dim)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Quantity":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        self._require_same_dim(q, "subtraction")
        return Quantity(self.value - q.value, self.dim)

    def __rsub__(self, other: object) -> "Quantity":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q.__sub__(self)

    def __mul__(self, other: object) -> "Quantity":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return Quantity(self.value * q.value, _dim_mul(self.dim, q.dim))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Quantity":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return Quantity(self.value / q.value, _dim_div(self.dim, q.dim))

    def __rtruediv__(self, other: object) -> "Quantity":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q.__truediv__(self)

    def __pow__(self, exponent: object) -> "Quantity":
        if not isinstance(exponent, (numbers.Rational, Fraction)):
            return NotImplemented
        e = Fraction(exponent)
        return Quantity(self.value ** float(e), _dim_pow(self.dim, e))

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.dim)

    def __abs__(self) -> "Quantity":
        return Quantity(abs(self.value), self.dim)

    def __float__(self) -> float:
        if not self.is_dimensionless:
            raise DimensionError(f"refusing to strip dimension {self.dim}; use .value")
        return self.value

    # -- comparisons ------------------------------------------------------

    def __lt__(self, other: object) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        self._require_same_dim(q, "comparison")
        return self.value < q.value

    def __le__(self, other: object) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        self._require_same_dim(q, "comparison")
        return self.value <= q.value

    def __gt__(self, other: object) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        self._require_same_dim(q, "comparison")
        return self.value > q.value

    def __ge__(self, other: object) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        self._require_same_dim(q, "comparison")
        return self.value >= q.value

    def __repr__(self) -> str:
        return f"Quantity({self.value!r}, {unit_string(self.dim)!r})"


# -- constants -------------------------------------------------------------

HBAR_J_S: float = 1.054571817e-34


def si_value(x: Union[Quantity, float], expected: Dim, name: str) -> float:
    """Unwrap an argument to its SI float value, checking dimension if tagged."""
    if isinstance(x, Quantity):
        if x.dim != expected:
            raise DimensionError(
                f"{name} must have dimension {expected}, got {x.dim}"
            )
        return x.value
    if isinstance(x, numbers.Real):
        return float(x)
    raise TypeError(f"{name} must be a real number or Quantity, got {type(x)!r}")


_COMMON_UNITS = {
    DIMENSIONLESS: "dimensionless",
    LENGTH: "m",
    MASS: "kg",
    TIME: "s",
    CURRENT: "A",
    VELOCITY: "m/s",
    MOMENTUM: "kg m/s",
    FORCE: "N",
    ENERGY: "J",
    ACTION: "J s",
    MASS_DENSITY: "kg/m^3",
    FREQUENCY: "1/s",
    ENERGY_DENSITY: "J/m^3",
}


def unit_string(d: Dim) -> str:
    """Human-readable SI unit label for a dimension vector."""
    if d in _COMMON_UNITS:
        return _COMMON_UNITS[d]
    parts = []
    for symbol, exponent in zip(("m", "kg", "s", "A"), d):
        if exponent == 0:
            continue
        parts.append(symbol if exponent == 1 else f"{symbol}^{exponent}")
    return " ".join(parts) if parts else "dimensionless"

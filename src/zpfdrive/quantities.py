"""The reduced Planck constant, the record bases, and the value-and-unit record of the closed forms.

Every physical number in this package is a plain SI float with a
unit-suffixed name; the magneto-electric constant chi stays dimensionless
(Gaussian convention), with all convention factors absorbed into the single
calibration prefactor of the vacuum model.  The public closed forms return a
:class:`Quantity`, a float with the SI unit label that the CLI prints.
"""

from __future__ import annotations

__all__ = ["Quantity", "HBAR_J_S"]

HBAR_J_S: float = 1.054571817e-34


class Record:
    """Fields, named in order by ``_fields``, that ``__init__`` sets once in ``__dict__``.

    As on a frozen dataclass, assigning or deleting an attribute raises AttributeError, and
    ``copy`` and ``pickle``, which restore ``__dict__`` directly, round-trip; the records that
    every command loads are not dataclasses, whose import (with ``inspect``) would dominate
    the start-up.  The repr names each field; equality and hash are by identity.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        pairs = ", ".join([f"{k}={getattr(self, k)!r}" for k in self._fields])
        return f"{type(self).__qualname__}({pairs})"


class ValueRecord(Record):
    """A :class:`Record` compared and hashed by its fields, which are all its ``__dict__``."""

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class Quantity(ValueRecord):
    """An SI value and its unit label, e.g. ``Quantity(2.1e-06, "m/s")``."""

    _fields = ("value", "unit")

    def __init__(self, value: float, unit: str) -> None:
        self.__dict__.update(value=value, unit=unit)

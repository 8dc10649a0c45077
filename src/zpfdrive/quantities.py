"""The reduced Planck constant, the record bases, and the value-and-unit record of the closed forms.

Every physical number in this package is a plain SI float with a
unit-suffixed name; the magneto-electric constant chi stays dimensionless
(Gaussian convention), with all convention factors absorbed into the single
calibration prefactor of the vacuum model.  The public closed forms return a
:class:`Quantity`, a float with the SI unit label that the CLI prints.
Every record of the package but ``mission.MissionSpec`` is a :class:`Record`,
or a :class:`ValueRecord` where it compares by value.
"""

from __future__ import annotations

__all__ = ["Quantity", "HBAR_J_S"]

HBAR_J_S: float = 1.054571817e-34


class Record:
    """Fields, named in order by ``_fields``, that ``__init__`` converts, checks and sets once
    in ``__dict__``.

    Assigning or deleting an attribute raises AttributeError.  ``copy`` and ``pickle``
    restore ``__dict__`` and make read-only again each array that was read-only, which both
    would otherwise give back writeable.  The repr names each field; equality and hash are
    by identity.  No record imports ``inspect``, which would dominate the start-up.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        pairs = ", ".join([f"{k}={getattr(self, k)!r}" for k in self._fields])
        return f"{type(self).__qualname__}({pairs})"

    def __getstate__(self) -> tuple[dict, list[str]]:
        # the fields that are read-only arrays, by their flags, read without importing numpy
        locked = [k for k, v in vars(self).items()
                  if getattr(getattr(v, "flags", None), "writeable", True) is False]
        return vars(self), locked

    def __setstate__(self, state: tuple[dict, list[str]]) -> None:
        fields, locked = state
        self.__dict__.update(fields)
        for name in locked:
            fields[name].flags.writeable = False


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

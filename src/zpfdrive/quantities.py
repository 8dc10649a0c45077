"""The reduced Planck constant and the value-and-unit record of the closed forms.

Every physical number in this package is a plain SI float with a
unit-suffixed name; the magneto-electric constant chi stays dimensionless
(Gaussian convention), with all convention factors absorbed into the single
calibration prefactor of the vacuum model.  The public closed forms return a
:class:`Quantity`, a float with the SI unit label that the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Quantity", "HBAR_J_S"]

HBAR_J_S: float = 1.054571817e-34


@dataclass(frozen=True)
class Quantity:
    """An SI value and its unit label, e.g. ``Quantity(2.1e-06, "m/s")``."""

    value: float
    unit: str

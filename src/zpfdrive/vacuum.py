"""Zero-point field model: cutoff, vacuum momentum, mode-sum oracle.

The zero-point spectrum is the standard Lorentz-invariant one: spectral
energy density hbar*w^3/(2 pi^2 c^3) per unit volume and angular frequency,
with <E^2> = <B^2> equipartition in the Gaussian convention.  A body of size
``a`` couples only to modes below a cutoff wavenumber set by its size; the
boundary convention (lambda_min = a versus lambda_min = 2a) is an explicit
parameter because only the scale, not the constant, is physically pinned.

Two independent routes to the stored vacuum momentum are provided:

* ``vacuum_momentum_closed_form``: p = A * hbar * chi / a, with the single
  dimensionless prefactor ``A`` absorbing all geometry and convention
  factors (default 1e-2).

* ``mode_sum_oracle``: a discretized sum over vacuum modes on a Cartesian
  k-grid.  Each counter-propagating mode pair acquires a fractional momentum
  asymmetry chi * (k_hat . e_hat), directed along its own propagation
  direction, weighted by the half-quantum momentum hbar*|k|/2 and the mode
  count a^3 dk^3/(2 pi)^3, doubled for the two polarizations.  This is a
  scaling oracle: it reproduces linearity in chi and the 1/a law, and its
  grid-converged prefactor is reported as ``effective_A``; it is not a
  renormalized QED calculation and is not expected to reproduce A = 1e-2
  exactly.

The oracle's only grid-dependent quantity is the lattice sum of
m_z^2/|m| over the integer ball |m| <= n.  It is evaluated shell by shell
from exact int64 counts r3(s) of the ways to write s = |m|^2 as a sum of
three squares, and summed so that the float returned is the correctly
rounded value of the exact sum.  The cost is n vectorised integer adds
over n^2 + 1 shell counts plus one pass over the shells: about 20 ms at
n = 256 and 0.15-0.2 s at n = 512 on one CPU core.  As n grows,
effective_A approaches its continuum value pi^2/24 (half-wavelength) or
2 pi^2/3 (wavelength-equals-size) with a gap of order 1/n that is not
monotone (the lattice-point discrepancy of the sphere).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from . import _io
from .material import check
from .quantities import HBAR_J_S, Quantity

__all__ = [
    "CutoffConvention",
    "VacuumModel",
    "ModeGrid",
    "vacuum_momentum_closed_form",
    "stored_momentum",
    "mode_sum_oracle",
    "convergence_study",
    "ORACLE_CSV_HEADER",
    "MAX_N_PER_AXIS",
]

ORACLE_CSV_HEADER = ("n_per_axis", "a_m", "chi", "p_kg_m_s", "effective_A")
# the oracle's memory grows as n^2 and its time as n^3: about 10 s and 0.8 GB
# at n = 2048 on one CPU core
MAX_N_PER_AXIS = 2048


class CutoffConvention(Enum):
    """Maps particle size to the cutoff wavenumber of contributing modes."""

    WAVELENGTH_EQUALS_SIZE = "wavelength-equals-size"  # lambda_min = a
    HALF_WAVELENGTH = "half-wavelength"  # lambda_min = 2a

    def k_cut(self, a: float) -> float:
        if self is CutoffConvention.WAVELENGTH_EQUALS_SIZE:
            return 2.0 * math.pi / a
        return math.pi / a


@dataclass(frozen=True)
class VacuumModel:
    """Calibration of the vacuum-momentum closed forms."""

    prefactor_a: float = 1e-2

    def __post_init__(self) -> None:
        check("prefactor_a", self.prefactor_a, "positive")


@dataclass(frozen=True)
class ModeGrid:
    """Cubic k-space lattice covering the ball |k| <= k_cut symmetrically."""

    n_per_axis: int
    k_cut: float  # 1/m

    def __post_init__(self) -> None:
        if self.n_per_axis < 8:
            raise ValueError("n_per_axis must be >= 8")
        if self.n_per_axis > MAX_N_PER_AXIS:
            raise ValueError(f"n_per_axis must be <= {MAX_N_PER_AXIS}, got {self.n_per_axis}")
        check("k_cut", self.k_cut, "positive")

    @property
    def dk(self) -> float:
        return self.k_cut / self.n_per_axis

    @classmethod
    def for_particle(
        cls,
        a: float,
        n_per_axis: int,
        convention: CutoffConvention = CutoffConvention.HALF_WAVELENGTH,
    ) -> "ModeGrid":
        return cls(n_per_axis=n_per_axis, k_cut=convention.k_cut(check("a", a, "size")))


def vacuum_momentum_closed_form(chi_xy: float, a: float, model: VacuumModel) -> Quantity:
    """Stored vacuum momentum p = A * hbar * chi / a (kg m/s).

    Signed with chi; the direction is by convention the z-like axis dual to
    the (x, y) component pair.  ``|chi|`` must be within the sanity bound,
    ``a`` must be a representable size, and a non-finite momentum is refused.
    """
    check("chi_xy", chi_xy, "chi")
    check("a", a, "size")
    p = float(stored_momentum(chi_xy, a, model))
    if not math.isfinite(p):
        raise ValueError(f"vacuum_momentum = {p!r} kg m/s is not finite")
    return Quantity(p, "kg m/s")


def stored_momentum(chi_xy, a_m, model: VacuumModel):
    """A * hbar * chi / a in kg m/s, elementwise over floats or arrays.

    The unchecked kernel of :func:`vacuum_momentum_closed_form`, for callers
    whose sizes are already validated (e.g. a :class:`ParticleState`).
    """
    return model.prefactor_a * HBAR_J_S * chi_xy / a_m


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp splits a double into 26-bit halves


def _two_prod(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's exact product: ``a * b == hi + lo`` elementwise."""

    def split(x):
        c = _SPLIT * x
        hi = c - (c - x)
        return hi, x - hi

    hi = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _geometry_sum(n: int) -> float:
    """Sum of m_z^2 / |m| over the integer ball 0 < |m|^2 <= n^2, correctly rounded.

    By cubic symmetry the m_z^2 of the shell |m|^2 = s add up to the integer
    c_s = s * r3(s) / 3, with r3(s) the number of ways to write s as a sum of
    three squares, so the sum is sum_s c_s / sqrt(s).  r2 is counted on the
    quarter disc i, j >= 0 (each nonzero coordinate stands for two signs) and
    r3(s) = r2(s) + 2 * sum_k r2(s - k^2); all counts are exact int64.  Each
    shell term t = c / sqrt(s) enters one ``math.fsum`` together with its
    rounding error, from Dekker products of q*q and t*q, so that only the
    final rounding remains.
    """
    n2 = n * n
    sq = np.arange(n + 1) ** 2
    quarter = (sq[1:, None] + sq[None, 1:]).ravel()
    r2 = 4 * np.bincount(quarter[quarter <= n2], minlength=n2 + 1)
    r2[sq[1:]] += 4  # the four axis points (+-k, 0), (0, +-k)
    r2[0] = 1
    r3 = r2.copy()
    twice_r2 = 2 * r2
    for k2 in sq[1:]:
        r3[k2:] += twice_r2[: n2 + 1 - k2]
    s = np.flatnonzero(r3[1:]) + 1
    c = (s * r3[s] // 3).astype(float)
    sf = s.astype(float)
    q = np.sqrt(sf)
    t = c / q
    qq, qq_lo = _two_prod(q, q)
    tq, tq_lo = _two_prod(t, q)
    sqrt_err = ((sf - qq) - qq_lo) / (2.0 * q)  # sqrt(s) - q to first order
    t_err = (((c - tq) - tq_lo) - t * sqrt_err) / q  # c / sqrt(s) - t
    return math.fsum(t.tolist() + t_err.tolist())


def mode_sum_oracle(
    chi_xy: float,
    a: float,
    grid: ModeGrid,
    *,
    geometry: float | None = None,
) -> tuple[Quantity, float]:
    """Discretized vacuum-mode momentum sum and its extracted prefactor.

    Returns ``(p, effective_A)`` where ``p`` is the net momentum along the
    distinguished (z-like) axis and ``effective_A = |p| a / (hbar |chi|)``,
    computed from the chi-independent geometric sum so it is defined for all
    chi.  ``|chi|`` must be within the sanity bound.
    ``geometry`` is ``_geometry_sum(grid.n_per_axis)`` when the caller has
    it already, e.g. for several sizes at one resolution.
    """
    check("chi_xy", chi_xy, "chi")
    check("a", a, "size")
    if geometry is None:
        geometry = _geometry_sum(grid.n_per_axis)
    if geometry == 0.0:
        raise ValueError("mode grid contains no modes inside the cutoff ball")
    dk = grid.dk
    # mode weight a^3 dk^3/(2 pi)^3, momentum hbar|k|/2, two polarizations
    effective_a = (dk * a / (2.0 * math.pi)) ** 3 * dk * a * geometry
    p = chi_xy * (HBAR_J_S / a) * effective_a
    return Quantity(float(p), "kg m/s"), effective_a


def convergence_study(
    chi_xy: float,
    sizes_m: Sequence[float],
    n_values: Sequence[int],
    convention: CutoffConvention = CutoffConvention.HALF_WAVELENGTH,
    out: Union[str, Path, io.TextIOBase, None] = None,
) -> list[dict]:
    """Run the oracle over a (size, resolution) grid; optionally emit CSV.

    The lattice sum of each resolution is computed once, for all sizes.
    CSV columns: n_per_axis, a_m, chi, p_kg_m_s, effective_A, floats as their
    shortest round-trip ``repr``; ``out`` is a path or an open text handle.
    """
    # build (and so validate) every grid, and check chi, before the first lattice sum
    grids = [
        (n, a_m, ModeGrid.for_particle(a_m, n, convention)) for n in n_values for a_m in sizes_m
    ]
    check("chi_xy", chi_xy, "chi")
    geometry: dict[int, float] = {}
    rows = []
    for n, a_m, grid in grids:
        if n not in geometry:
            geometry[n] = _geometry_sum(n)
        p, eff_a = mode_sum_oracle(chi_xy, a_m, grid, geometry=geometry[n])
        rows.append(dict(zip(ORACLE_CSV_HEADER, (n, a_m, chi_xy, p.value, eff_a))))
    if out is not None:
        floats = ORACLE_CSV_HEADER[1:]
        text = "".join(
            ",".join([str(row["n_per_axis"])] + [repr(float(row[k])) for k in floats]) + "\n"
            for row in rows
        )
        _io.write_blocks(out, [text], head=",".join(ORACLE_CSV_HEADER) + "\n")
    return rows

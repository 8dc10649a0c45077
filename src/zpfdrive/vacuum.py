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
  factors (default 1e-2).  A pi-rotation flips chi and gains the velocity
  ``rotation_dv`` = 2*A*hbar*chi/(m*a); ``checked_rotation_dv`` gives it of
  one cube (m*a = rho*a**4) to the CLI, the particle and the mission planner.

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
m_z^2/|m| over the integer ball |m| <= n.  By cubic symmetry it is one
third of the sum of |m|, sum_s r3(s) sqrt(s), with exact uint16 counts
r3(s) of the ways to write s = |m|^2 as a sum of three squares (at most
53,328 for s <= 2048^2), one table for every n of a call.  Each shell term
t = r3(s) sqrt(s) (one square root and one division per shell) enters an
integer sum exactly and its rounding error to within 2^-117, so each float
is the correctly rounded value of its exact sum; a test pins the bits of
every n from 8 to 2048.  The cost is n integer adds over n^2 + 1 counts
plus one pass over the shells: about 4 ms at n = 256, 17-19 ms at n = 512
and 1.2-1.35 s and 94 MB at n = 2048 on one core of a 2-vCPU shared host.
As n grows, effective_A approaches its continuum value pi^2/24
(half-wavelength) or 2 pi^2/3 (wavelength-equals-size) with a gap of order
1/n that is not monotone (the lattice-point discrepancy of the sphere).
"""

from __future__ import annotations

import io
import math
import operator
from enum import Enum
from itertools import pairwise
from pathlib import Path
from typing import Sequence, Union

from ._deferred import OnFirstUse
from .material import MAX_N_PER_AXIS, check
from .quantities import HBAR_J_S, Quantity, ValueRecord

np = OnFirstUse(globals(), "numpy", "np")
_io = OnFirstUse(globals(), "zpfdrive._io", "_io")  # the oracle's CSV writer alone reads it

__all__ = [
    "CutoffConvention",
    "VacuumModel",
    "ModeGrid",
    "vacuum_momentum_closed_form",
    "stored_momentum",
    "rotation_dv",
    "checked_rotation_dv",
    "mode_sum_oracle",
    "convergence_study",
    "ORACLE_CSV_HEADER",
    "MAX_N_PER_AXIS",
]

ORACLE_CSV_HEADER = ("n_per_axis", "a_m", "chi", "p_kg_m_s", "effective_A")


class CutoffConvention(Enum):
    """Maps particle size to the cutoff wavenumber of contributing modes."""

    WAVELENGTH_EQUALS_SIZE = "wavelength-equals-size"  # lambda_min = a
    HALF_WAVELENGTH = "half-wavelength"  # lambda_min = 2a

    def k_cut(self, a: float) -> float:
        if self is CutoffConvention.WAVELENGTH_EQUALS_SIZE:
            return 2.0 * math.pi / a
        return math.pi / a


class VacuumModel(ValueRecord):
    """Calibration of the vacuum-momentum closed forms: the dimensionless prefactor ``A``."""

    _fields = ("prefactor_a",)

    def __init__(self, prefactor_a: float = 1e-2) -> None:
        self.__dict__["prefactor_a"] = check("prefactor_a", prefactor_a, "positive")


class ModeGrid(ValueRecord):
    """Cubic k-space lattice covering the ball |k| <= k_cut (1/m) symmetrically."""

    _fields = ("n_per_axis", "k_cut")

    def __init__(self, n_per_axis: int, k_cut: float) -> None:
        try:
            n = operator.index(n_per_axis)
        except TypeError:
            raise ValueError(f"n_per_axis must be an integer, got {n_per_axis!r}") from None
        self.__dict__.update(n_per_axis=check("n_per_axis", n, "n_per_axis"),
                             k_cut=check("k_cut", k_cut, "positive"))

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


def rotation_dv(chi, m_a, prefactor_a):
    """Velocity gain 2*A*hbar*chi/(m*a) of a pi-rotation that flips ``chi``, elementwise.

    ``m_a`` is the particle's mass times its size: rho*a**4 for a cube of side
    a, as :func:`checked_rotation_dv` computes it, or (rho*a_base**3)*a at a
    fixed particle mass.  Arrays broadcast; the caller refuses non-finite results.
    """
    return 2.0 * prefactor_a * HBAR_J_S * chi / m_a


def checked_rotation_dv(chi: float, rho: float, a: float, prefactor_a: float) -> float:
    """:func:`rotation_dv` of floats for a cube of density ``rho`` and side ``a``, whose
    m*a is rho*a**4; ValueError where m*a is 0 or the gain is not finite."""
    m_a = rho * a**4
    dv = rotation_dv(chi, m_a, prefactor_a) if m_a else math.inf
    if not math.isfinite(dv):
        raise ValueError(f"m*a = {m_a!r} gives a non-finite rotation delta-v")
    return dv


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp splits a double into 26-bit halves
_BLOCK = 1 << 13  # shells per block: its sums of limbs below 2**47 stay below 2**60


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``x == hi + lo`` elementwise, each half of 26 bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _limb_sum(t: np.ndarray, t_err: np.ndarray) -> int:
    """Sum of ``t`` (2 <= t < 2**27) and ``t_err`` (|t_err| < 2**-26) in units of 2**-116.

    Each t is exactly hi * 2**-20 + lo * 2**-51, and each t_err is ehi * 2**-70 + elo * 2**-116
    to within 2**-117, limbs below 2**47 that int64 sums exactly over a block of _BLOCK.
    """
    limbs = np.empty((4, t.size))
    limbs[0] = np.rint(t * 2.0**20)
    limbs[1] = (t - limbs[0] * 2.0**-20) * 2.0**51
    limbs[2] = np.rint(t_err * 2.0**70)
    limbs[3] = np.rint((t_err - limbs[2] * 2.0**-70) * 2.0**116)
    hi, lo, ehi, elo = limbs.astype(np.int64).sum(axis=1).tolist()
    return (hi << 96) + (lo << 65) + (ehi << 46) + elo


def _geometry_sums(ns: Sequence[int]) -> dict[int, float]:
    """Sum of m_z^2 / |m| over the integer ball 0 < |m|^2 <= n^2 for each n, correctly rounded.

    By cubic symmetry the m_z^2 of the shell |m|^2 = s add up to s * r3(s) / 3, so the
    sum is one third of sum_s r3(s) * sqrt(s), with r3(s) the number of ways to write s
    as a sum of three squares, counted once up to max(ns)^2: r2 on the quarter disc
    i, j >= 0 (each nonzero coordinate stands for two signs), then r3(s) = r2(s) +
    2 * sum_k r2(s - k^2) in uint16 (r3 <= 53,328 at n = 2048).  Each term t = r3 * q of
    q = sqrt(s) rounded, below 2**27, and its error t_err = r3 * sqrt(s) - t (Dekker's
    exact tails of q*q and r3*q from one split of q) enter one integer :func:`_limb_sum`,
    exact in t; each n reads it at its prefix s <= n^2 and divides by 3, rounded once.
    """
    big = max(ns)
    n2 = big * big
    sq = np.arange(big + 1) ** 2
    quarter = (sq[1:, None] + sq[None, 1:]).ravel()
    r2 = 4 * np.bincount(quarter[quarter <= n2], minlength=n2 + 1).astype(np.uint16)
    del quarter  # its big^2 int64 sums would outlive the count through the shell loop
    r2[sq[1:]] += 4  # the four axis points (+-k, 0), (0, +-k)
    r2[0] = 1
    r3 = r2.copy()
    twice_r2 = 2 * r2
    for k in range(1, big + 1):
        r3[k * k :] += twice_r2[: n2 + 1 - k * k]
    s = np.flatnonzero(r3[1:]) + 1
    ends = {n: int(np.searchsorted(s, n * n, "right")) for n in ns}
    stops = set(ends.values())
    total = 0  # the sum in units of 2**-116
    sums = {}
    for start, stop in pairwise([0, *sorted({*stops, *range(_BLOCK, s.size, _BLOCK)})]):
        shells = s[start:stop]
        r = r3[shells].astype(float)
        sf = shells.astype(float)
        q = np.sqrt(sf)
        qh, ql = _split(q)
        t, qq = r * q, q * q
        # sqrt_err is sqrt(s) - q to first order, from Dekker's exact tail of q*q; r of
        # 16 bits times qh is exact, so (r*qh - t) + r*ql is r*q - t exactly
        sqrt_err = ((sf - qq) - (((qh * qh - qq) + 2.0 * qh * ql) + ql * ql)) / (2.0 * q)
        t_err = ((r * qh - t) + r * ql) + r * sqrt_err
        total += _limb_sum(t, t_err)
        if stop in stops:
            sums[stop] = total / (3 << 116)
    return {n: sums[ends[n]] for n in ns}


def _geometry_sum(n: int) -> float:
    """:func:`_geometry_sums` of the one resolution ``n``."""
    return _geometry_sums([n])[n]


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

    One lattice table, for the largest resolution, gives every resolution's sum.
    CSV columns: n_per_axis, a_m, chi, p_kg_m_s, effective_A, floats as their
    shortest round-trip ``repr``; ``out`` is a path or an open text handle.
    """
    for name, values in (("sizes_m", sizes_m), ("n_values", n_values)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty")
    # build (and so validate) every grid, and check chi, before the first lattice sum
    grids = [(a_m, ModeGrid.for_particle(a_m, n, convention)) for n in n_values for a_m in sizes_m]
    check("chi_xy", chi_xy, "chi")
    geometry = _geometry_sums([grid.n_per_axis for _, grid in grids])
    rows = []
    for a_m, grid in grids:
        n = grid.n_per_axis
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

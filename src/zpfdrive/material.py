"""Magneto-electric tensors, particles, rotations, and polarization.

The magneto-electric response is a general (not necessarily symmetric) 3x3
dimensionless tensor chi0 plus three scalar field-induced response
coefficients attached to the driven xy component:

    chi_xy(E, B) = chi0_xy + kappa1*E_x*B_y + kappa2*E_x + kappa3*B_y

A particle is a cube of side ``size_a`` with mass ``density_rho * size_a**3``
exactly; any geometric shape factor is absorbed into the vacuum-model
prefactor.  Proper rotations transform chi0 by orthogonal conjugation; the
kappa coefficients are deliberately carried through unchanged (no
transformation law is defined for them here), and improper rotations are
rejected because the parity behaviour of a magneto-electric pseudo-tensor is
not modeled.

:class:`ParticleState` holds many particles as arrays (struct of arrays) for
the maneuver ledger: it is validated once at construction, and a rotation or a
lab-frame read is a few batched numpy operations over all particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "ORTHOGONALITY_TOL",
    "CHI0_SANITY_BOUND",
    "RULES",
    "check",
    "representable_size",
    "record_field",
    "unit_vector",
    "ImproperRotationError",
    "MagnetoElectricTensor",
    "Particle",
    "ParticleState",
    "rotation_about",
    "rotate_tensor",
    "tensor_to_dict",
    "tensor_from_dict",
    "particle_to_dict",
    "particle_from_dict",
]

ORTHOGONALITY_TOL = 1e-12
CHI0_SANITY_BOUND = 1.0


def representable_size(a: float) -> bool:
    """Whether ``a > 0`` and ``a**4`` and ``1/a**4`` are finite and non-zero.

    The closed forms divide by ``a**4`` (Python's float pow), so a size
    outside about (1e-77, 1e77) m would end in a zero division, an overflow
    or a meaningless 0.0.
    """
    if not a > 0:
        return False
    try:
        a4 = a**4
    except OverflowError:
        return False
    return 0.0 < a4 < math.inf and 1.0 / a4 < math.inf


# the range rule of every numeric input (flags, spec fields, closed-form
# arguments, records), by name; NaN and +-inf fail every rule
RULES: dict[str, Callable[[float], bool]] = {
    "finite": math.isfinite,
    "positive": lambda v: 0 < v < math.inf,
    "size": representable_size,
    "chi": lambda v: abs(v) <= CHI0_SANITY_BOUND,
    "unit": lambda v: 0 < v <= 1,
    "at_least_one": lambda v: 1 <= v < math.inf,
}


def check(name: str, value: float, rule: str) -> float:
    """``value`` if it obeys ``RULES[rule]``, else a ValueError that names ``name``."""
    if RULES[rule](value):
        return value
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    raise ValueError(f"{name} {value!r} is out of range")


def unit_vector(v: object, name: str) -> np.ndarray:
    """``v / np.linalg.norm(v)`` as a read-only 3-vector; ValueError unless ``v`` is finite
    and nonzero.  Where that norm overflows or underflows, ``v`` is first divided by its
    largest ``|entry|``."""
    try:
        arr = np.array(v, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(arr)
    if not 0.0 < norm < math.inf:
        largest = np.max(np.abs(arr))
        if not 0.0 < largest < math.inf:
            raise ValueError(f"{name} must be finite and nonzero")
        arr = arr / largest
        norm = np.linalg.norm(arr)
    unit = arr / norm
    unit.flags.writeable = False
    return unit


def record_field(d: Mapping, key: str, convert: Callable = float, default: object = None):
    """``convert(d[key])`` (no ``convert``: the value itself), or of ``default`` where ``key``
    is absent (no default: required); a missing field or a refused value names ``key``."""
    if key in d:
        value = d[key]
    elif default is None:
        raise ValueError(f"missing field {key!r}")
    else:
        value = default
    try:
        return value if convert is None else convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


class ImproperRotationError(ValueError):
    """Raised for reflections (det = -1): the pseudo-tensor parity law is not modeled."""


def _as_matrix(values: object, name: str) -> np.ndarray:
    m = np.array(values, dtype=float)
    if m.shape == (9,):
        m = m.reshape(3, 3)
    if m.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} entries must be finite")
    m.flags.writeable = False
    return m


def _check_proper_rotation(r: np.ndarray, tol: float = ORTHOGONALITY_TOL) -> None:
    with np.errstate(all="ignore"):  # huge entries overflow to inf or NaN: not orthogonal
        gram_error = np.max(np.abs(r.T @ r - np.eye(3)))
    if not gram_error <= tol:
        raise ValueError("rotation matrix is not orthogonal to tolerance")
    det = float(np.linalg.det(r))
    if abs(det + 1.0) <= 1e-6:
        raise ImproperRotationError("improper rotation (det = -1) rejected")
    if abs(det - 1.0) > tol:
        raise ValueError(f"rotation determinant {det} not +1 within {tol}")


@dataclass(frozen=True, eq=False)
class MagnetoElectricTensor:
    """Intrinsic chi0 (3x3, dimensionless) plus induced-response scalars."""

    chi0: np.ndarray
    kappa1: float = 0.0  # response per E*B product
    kappa2: float = 0.0  # response per E
    kappa3: float = 0.0  # response per B

    def __post_init__(self) -> None:
        m = _as_matrix(self.chi0, "chi0")
        if np.max(np.abs(m)) > CHI0_SANITY_BOUND:
            raise ValueError(
                f"|chi0| entries exceed sanity bound {CHI0_SANITY_BOUND}"
            )
        object.__setattr__(self, "chi0", m)
        for k in ("kappa1", "kappa2", "kappa3"):
            object.__setattr__(self, k, check(k, float(getattr(self, k)), "finite"))

    @classmethod
    def from_xy(
        cls,
        chi0_xy: float,
        kappa1: float = 0.0,
        kappa2: float = 0.0,
        kappa3: float = 0.0,
    ) -> "MagnetoElectricTensor":
        """Tensor with a single intrinsic xy component, the driven one."""
        m = np.zeros((3, 3))
        m[0, 1] = chi0_xy
        return cls(m, kappa1, kappa2, kappa3)

    @property
    def chi0_xy(self) -> float:
        return float(self.chi0[0, 1])

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.chi0))


@dataclass(frozen=True, eq=False)
class Particle:
    """A magneto-electric cube: size, density, response tensor, orientation."""

    size_a: float  # m
    density_rho: float  # kg/m^3
    tensor: MagnetoElectricTensor
    orientation: np.ndarray = field(default_factory=lambda: np.eye(3))
    epsilon: float = 1.0  # linear dielectric constant

    def __post_init__(self) -> None:
        check("size_a", self.size_a, "positive")
        check("density_rho", self.density_rho, "positive")
        check("epsilon", self.epsilon, "at_least_one")
        r = _as_matrix(self.orientation, "orientation")
        _check_proper_rotation(r)
        object.__setattr__(self, "orientation", r)

    @property
    def mass(self) -> float:
        """Mass in kg; exactly density * size**3 (cube convention)."""
        return self.density_rho * self.size_a**3

    @property
    def oriented_tensor(self) -> MagnetoElectricTensor:
        """Response tensor expressed in the lab frame."""
        return rotate_tensor(self.tensor, self.orientation)

    @property
    def chi0_xy(self) -> float:
        """Lab-frame intrinsic xy component, the one driving momentum transfer."""
        return self.oriented_tensor.chi0_xy

    def rotated(self, r: np.ndarray) -> "Particle":
        """Particle after applying rotation ``r`` in the lab frame.

        The composed orientation is re-orthonormalized (nearest proper
        rotation via SVD) so long maneuver chains cannot drift.
        """
        m = np.asarray(r, dtype=float)
        _check_proper_rotation(m)
        return replace(self, orientation=_nearest_rotation(m @ self.orientation))


_FLIP_Z = np.diag([1.0, 1.0, -1.0])


def _nearest_rotation(composed: np.ndarray) -> np.ndarray:
    """Nearest proper rotation (SVD) of a 3x3 matrix or of each in a stack."""
    u, _, vt = np.linalg.svd(composed)
    nearest = u @ vt
    improper = np.linalg.det(nearest) < 0  # numerically safe: inputs are proper
    if np.any(improper):
        nearest[improper] = u[improper] @ _FLIP_Z @ vt[improper]
    return nearest


def _reject_first(bad: np.ndarray, message: str) -> None:
    if np.any(bad):
        raise ValueError(f"particle {int(np.argmax(bad))}: {message}")


def _check_proper_rotations(r: np.ndarray) -> None:
    """:func:`_check_proper_rotation` over an (N, 3, 3) stack, naming the index."""
    with np.errstate(all="ignore"):  # as in _check_proper_rotation
        gram_error = np.abs(np.swapaxes(r, 1, 2) @ r - np.eye(3)).max(axis=(1, 2))
        det_error = np.abs(np.linalg.det(r) - 1.0)
    for i in np.flatnonzero(~(gram_error <= ORTHOGONALITY_TOL) | ~(det_error <= ORTHOGONALITY_TOL)):
        try:
            _check_proper_rotation(r[i])
        except ValueError as exc:
            raise type(exc)(f"particle {i}: {exc}") from None


# (field, per-particle shape) of ParticleState, in validation order
_STATE_FIELDS = (
    ("size_a", ()),
    ("density", ()),
    ("epsilon", ()),
    ("chi0", (3, 3)),
    ("kappa", (3,)),
    ("orientation", (3, 3)),
)


@dataclass(frozen=True, eq=False)
class ParticleState:
    """N particles as arrays: what a list of :class:`Particle` holds, per field.

    Construction converts and checks every field batched, with the checks of
    :class:`Particle` and :class:`MagnetoElectricTensor`; an error names the
    particle index.  The arrays are read-only, so a valid state stays valid.
    """

    size_a: np.ndarray  # (N,) m
    density: np.ndarray  # (N,) kg/m^3
    epsilon: np.ndarray  # (N,) linear dielectric constant
    chi0: np.ndarray  # (N, 3, 3) intrinsic tensor, body frame
    kappa: np.ndarray  # (N, 3) kappa1, kappa2, kappa3
    orientation: np.ndarray  # (N, 3, 3) proper rotations, body to lab

    def __post_init__(self) -> None:
        n = np.shape(self.size_a)[0] if np.ndim(self.size_a) == 1 else -1
        for name, shape in _STATE_FIELDS:
            a = np.array(getattr(self, name), dtype=float)
            if n < 0 or a.shape != (n, *shape):
                raise ValueError(f"{name} must be N arrays of shape {shape}, got {a.shape}")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        _reject_first(
            ~np.array([representable_size(a) for a in self.size_a.tolist()], dtype=bool),
            "size_a must be positive, with a finite, non-zero a^4 and 1/a^4",
        )
        # as the "positive" and "at_least_one" rules: +inf fails too
        _reject_first(~((self.density > 0) & (self.density < np.inf)), "density must be positive")
        _reject_first(~((self.epsilon >= 1) & (self.epsilon < np.inf)), "epsilon must be >= 1")
        _reject_first(~np.isfinite(self.chi0).all(axis=(1, 2)), "chi0 entries must be finite")
        _reject_first(
            np.abs(self.chi0).max(axis=(1, 2)) > CHI0_SANITY_BOUND,
            f"|chi0| entries exceed sanity bound {CHI0_SANITY_BOUND}",
        )
        _reject_first(~np.isfinite(self.kappa).all(axis=1), "kappas must be finite")
        _reject_first(
            ~np.isfinite(self.orientation).all(axis=(1, 2)), "orientation entries must be finite"
        )
        _check_proper_rotations(self.orientation)

    def __len__(self) -> int:
        return self.size_a.shape[0]

    @classmethod
    def from_particles(cls, particles: Sequence[Particle]) -> "ParticleState":
        ps = list(particles)
        n = len(ps)
        return cls(
            size_a=[p.size_a for p in ps],
            density=[p.density_rho for p in ps],
            epsilon=[p.epsilon for p in ps],
            chi0=np.reshape([p.tensor.chi0 for p in ps], (n, 3, 3)),
            kappa=np.reshape(
                [(p.tensor.kappa1, p.tensor.kappa2, p.tensor.kappa3) for p in ps], (n, 3)
            ),
            orientation=np.reshape([p.orientation for p in ps], (n, 3, 3)),
        )

    @classmethod
    def from_dicts(cls, records: Sequence[object]) -> "ParticleState":
        """State from records in the :func:`particle_to_dict` schema.

        Fields and defaults are those of :func:`particle_from_dict` (one
        table, ``_RECORD_SCALARS``); an error names the record's index and
        field.
        """
        scalars: dict[str, list[float]] = {key: [] for key in _RECORD_SCALARS}
        chi0s, orientations = [], []
        for i, d in enumerate(records):
            if not isinstance(d, Mapping):
                raise ValueError(f"particle {i}: expected an object, got {type(d).__name__}")
            try:
                for key in _RECORD_SCALARS:
                    scalars[key].append(_record_float(d, key))
                chi0s.append(record_field(d, "chi0", None))
            except ValueError as exc:
                raise ValueError(f"particle {i}: {exc}") from None
            orientations.append(_record_orientation(d))
        return cls(
            size_a=scalars["size_a_m"],
            density=scalars["density_kg_m3"],
            epsilon=scalars["epsilon"],
            chi0=_matrix_column(chi0s, "chi0"),
            kappa=np.array([scalars[k] for k in ("kappa1", "kappa2", "kappa3")]).T,
            orientation=_matrix_column(orientations, "orientation"),
        )

    @cached_property
    def chi0_xy(self) -> np.ndarray:
        """Lab-frame intrinsic xy components: one batched R chi0 R^T."""
        lab = self.orientation @ self.chi0 @ np.swapaxes(self.orientation, 1, 2)
        _reject_first(
            np.abs(lab).max(axis=(1, 2)) > CHI0_SANITY_BOUND,
            f"lab-frame |chi0| entries exceed sanity bound {CHI0_SANITY_BOUND}",
        )
        xy = lab[:, 0, 1].copy()
        xy.flags.writeable = False
        return xy

    def rotated(self, r: np.ndarray) -> "ParticleState":
        """State after rotating every particle by ``r`` (see :meth:`Particle.rotated`)."""
        m = np.asarray(r, dtype=float)
        _check_proper_rotation(m)
        return replace(self, orientation=_nearest_rotation(m @ self.orientation))


def _matrix_column(values: list, key: str) -> np.ndarray:
    """(N, 3, 3) from per-record 9-entry lists, flat or nested."""
    try:
        return np.array(values, dtype=float).reshape(len(values), 3, 3)
    except (TypeError, ValueError, OverflowError):
        pass  # ragged or malformed: convert record by record to find it
    rows = []
    for i, v in enumerate(values):
        try:
            rows.append(np.array(v, dtype=float).reshape(3, 3))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"particle {i}: field {key!r}: {exc}") from None
    return np.array(rows)


def rotation_about(axis: object, angle: float) -> np.ndarray:
    """Proper rotation matrix for ``angle`` radians about ``axis`` (Rodrigues)."""
    v = unit_vector(axis, "axis")
    k = np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotate_tensor(t: MagnetoElectricTensor, r: object) -> MagnetoElectricTensor:
    """Orthogonal conjugation chi0' = R chi0 R^T; kappas carried through unchanged."""
    m = np.asarray(r, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("rotation must be a 3x3 matrix")
    _check_proper_rotation(m)
    return MagnetoElectricTensor(
        m @ t.chi0 @ m.T, t.kappa1, t.kappa2, t.kappa3
    )


# -- JSON serialization ------------------------------------------------------

# Particle record schema, shared by the parsers below and
# ParticleState.from_dicts.  Scalar fields with their defaults (None marks a
# required field); "chi0" (9 entries) is required, and a missing or null
# "orientation" means the identity.
_RECORD_SCALARS = {
    "size_a_m": None,
    "density_kg_m3": None,
    "epsilon": 1.0,
    "kappa1": 0.0,
    "kappa2": 0.0,
    "kappa3": 0.0,
}
_IDENTITY = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


def _record_float(d: Mapping, key: str) -> float:
    return record_field(d, key, default=_RECORD_SCALARS[key])


def _record_orientation(d: Mapping) -> object:
    orientation = d.get("orientation")
    return _IDENTITY if orientation is None else orientation


def tensor_to_dict(t: MagnetoElectricTensor) -> dict:
    return {
        "chi0": [float(x) for x in t.chi0.reshape(9)],
        "kappa1": t.kappa1,
        "kappa2": t.kappa2,
        "kappa3": t.kappa3,
    }


def tensor_from_dict(d: Mapping) -> MagnetoElectricTensor:
    return MagnetoElectricTensor(
        chi0=record_field(d, "chi0", None),
        kappa1=_record_float(d, "kappa1"),
        kappa2=_record_float(d, "kappa2"),
        kappa3=_record_float(d, "kappa3"),
    )


def particle_to_dict(p: Particle) -> dict:
    d = tensor_to_dict(p.tensor)
    d.update(
        {
            "size_a_m": p.size_a,
            "density_kg_m3": p.density_rho,
            "epsilon": p.epsilon,
            "orientation": [float(x) for x in p.orientation.reshape(9)],
        }
    )
    return d


def particle_from_dict(d: Mapping) -> Particle:
    return Particle(
        size_a=_record_float(d, "size_a_m"),
        density_rho=_record_float(d, "density_kg_m3"),
        tensor=tensor_from_dict(d),
        orientation=np.array(_record_orientation(d), dtype=float).reshape(3, 3),
        epsilon=_record_float(d, "epsilon"),
    )

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

Every numeric input obeys a rule of :data:`RULES`, whose predicates take
floats and arrays alike.  One table of particle-field rules drives one
validator over N rows, which names the first bad particle.  Each rotation
matrix is checked once, where it enters.

:class:`ParticleState` holds particles as arrays (struct of arrays); its
constructor converts, checks and puts many particles in the lab frame at once.
A :class:`Particle`, a :class:`MagnetoElectricTensor` and a rotation matrix
get the state's checks on their own fields as a stack of one, each error the
state's without ``particle 0: ``; a particle keeps only its fields and the
lab-frame ``chi0_xy`` of the state's kernel.  The lab-frame tensors
``L_i = O_i chi0_i O_i^T`` are one batched conjugation, checked against the
sanity bound when the state is built, and every rotation of the state shares
them: it turns one 3x3 frame ``F`` by one checked Newton-Schulz polar step,
and its lab-frame xy entries, those of ``F L_i F^T``, are one pass of nine
multiply-adds over the particles.  Only a particle whose ``|L_i|_F`` reaches
the sanity bound can break it in some frame, so only such particles get the
full ``F L_i F^T`` on a rotation.  A state of particles joins their fields, checked
once more as one batch; records are read a column at a time.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Mapping, Sequence

from ._deferred import OnFirstUse
from .quantities import Record

np = OnFirstUse(globals(), "numpy", "np")

__all__ = [
    "ORTHOGONALITY_TOL",
    "CHI0_SANITY_BOUND",
    "MAX_N_PER_AXIS",
    "RULES",
    "check",
    "representable_size",
    "REQUIRED",
    "read_record",
    "unit_vector",
    "ImproperRotationError",
    "MagnetoElectricTensor",
    "Particle",
    "ParticleState",
    "rotation_about",
    "rotate_tensor",
    "particle_to_dict",
    "particle_from_dict",
]

ORTHOGONALITY_TOL = 1e-12
CHI0_SANITY_BOUND = 1.0
# the mode-sum oracle's memory grows as n^2 and its time as n^3: about 1.2-1.35 s
# and 94 MB at n = 2048 on one core of a 2-vCPU shared host; its uint16 shell
# counts reach 53,328 there, below 2^16, so its shell terms r3(s)*sqrt(s) stay below 2^27
MAX_N_PER_AXIS = 2048


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
# arguments, records), by name; NaN and +-inf fail every rule.  Each rule but
# "size" (Python's float pow) also maps an array to its elementwise verdicts.
RULES: dict[str, Callable] = {
    "finite": lambda v: abs(v) < math.inf,
    "positive": lambda v: (0 < v) & (v < math.inf),
    "size": representable_size,
    "chi": lambda v: abs(v) <= CHI0_SANITY_BOUND,
    "unit": lambda v: (0 < v) & (v <= 1),
    "at_least_one": lambda v: (1 <= v) & (v < math.inf),
    "n_per_axis": lambda v: (8 <= v) & (v <= MAX_N_PER_AXIS),
}


def check(name: str, value: float, rule: str) -> float:
    """``value`` if it obeys ``RULES[rule]``, else a ValueError that names ``name``."""
    if RULES[rule](value):
        return value
    if not RULES["finite"](value):  # not math.isfinite: an int may be too large for a float
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


_NUMBER_TYPES = frozenset({int, float})


def _numbers(value: list) -> bool:
    """Whether ``value`` holds only JSON numbers, or only lists of JSON numbers."""
    if _NUMBER_TYPES.issuperset(map(type, value)):  # one pass in C
        return True
    return all(type(v) is list and _NUMBER_TYPES.issuperset(map(type, v)) for v in value)


# per JSON kind of a record field: what its value must be, and the exact types that
# json.load gives such a value (a bool is not a number, and a numpy scalar is not either)
_KINDS = {
    float: ("a number", _NUMBER_TYPES),
    str: ("a string", frozenset({str})),
    list: ("a list of numbers", frozenset({list})),
}
REQUIRED = object()  # the schema default of a field that every record must hold


def record_field(d: Mapping, key: str, kind: type = float, default: object = None):
    """``d[key]``, or ``default`` where it is absent (no default: required), if it is of the
    JSON ``kind``: ``float``, a number (not a bool), returned as a float; ``str``, a string;
    ``list``, a list of numbers or of lists of numbers, which numpy converts after.  The one
    place a JSON record value becomes a number; an error names ``key``."""
    value = d.get(key, default)
    expected, types = _KINDS[kind]
    if type(value) not in types or kind is list and not _numbers(value):
        if value is None and key not in d:
            raise ValueError(f"missing field {key!r}")
        raise ValueError(f"field {key!r} must be {expected}, got {value!r}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def read_record(d: object, schema: Mapping[str, tuple[type, object]]) -> dict:
    """The fields of JSON object ``d`` by ``schema``, key -> (JSON kind, default), each read by
    :func:`record_field`; a default of None reads null or absent as None.  No other key passes."""
    if not isinstance(d, (dict, Mapping)):  # dict first: the Mapping check takes 8x longer
        raise ValueError(f"expected an object, got {type(d).__name__}")
    if not d.keys() <= schema.keys():
        raise ValueError(f"unknown fields: {sorted(d.keys() - schema.keys())}")
    return {
        key: None if default is None and d.get(key) is None
        else record_field(d, key, kind, None if default is REQUIRED else default)
        for key, (kind, default) in schema.items()
    }


class ImproperRotationError(ValueError):
    """Raised for reflections (det = -1): the pseudo-tensor parity law is not modeled."""


def _as_matrix(values: object, name: str) -> np.ndarray:
    m = np.array(values, dtype=float)
    if m.shape == (9,):
        m = m.reshape(3, 3)
    if m.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix, got shape {m.shape}")
    m.flags.writeable = False
    return m


_CHI0_BOUND = f"|chi0| entries exceed sanity bound {CHI0_SANITY_BOUND}"
# every particle field: its per-particle shape and its checks, (rule in RULES,
# message), in validation order; ParticleState holds each as an (N, *shape) array
_PARTICLE_FIELDS = {
    "size_a": ((), [("size", "size_a must be positive, with a finite, non-zero a^4 and 1/a^4")]),
    "density": ((), [("positive", "density must be positive")]),
    "epsilon": ((), [("at_least_one", "epsilon must be >= 1")]),
    "chi0": ((3, 3), [("finite", "chi0 entries must be finite"), ("chi", _CHI0_BOUND)]),
    "kappa": ((3,), [("finite", "kappas must be finite")]),
    "orientation": ((3, 3), [("finite", "orientation entries must be finite")]),
}
_KAPPAS = ("kappa1", "kappa2", "kappa3")


def _reject_first(bad: np.ndarray, message: str, error: type = ValueError) -> None:
    """``error(message)`` for the first row where ``bad`` holds, named by its index."""
    if np.any(bad):
        raise error(f"particle {int(np.argmax(bad))}: {message}")


def _unnamed(check: Callable, *args):
    """``check(*args)`` on a stack of one, its error of the same type without ``particle 0: ``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise type(exc)(str(exc).removeprefix("particle 0: ")) from None


def _check_particles(fields: Mapping[str, np.ndarray]) -> None:
    """Apply the checks of ``_PARTICLE_FIELDS`` to the (N, *shape) fields given, then check
    that each orientation is a proper rotation."""
    for name, (_, checks) in _PARTICLE_FIELDS.items():
        if name not in fields:
            continue
        for rule, message in checks:
            if rule == "size":  # Python's float pow, entry by entry
                ok = np.array([representable_size(a) for a in fields[name].tolist()], dtype=bool)
            else:
                ok = RULES[rule](fields[name])
            _reject_first(~ok.all(axis=tuple(range(1, ok.ndim))), message)
    if "orientation" in fields:
        _check_rotations(fields["orientation"])


def _orthogonal(r: np.ndarray) -> np.ndarray:
    """Per matrix of an (N, 3, 3) stack, whether ``r^T r`` is ``I`` to ``ORTHOGONALITY_TOL``."""
    with np.errstate(all="ignore"):  # huge entries overflow to inf or NaN: not orthogonal
        gram = np.ascontiguousarray(np.swapaxes(r, 1, 2)) @ r  # a strided operand is ~3x slower
        gram_error = np.abs(gram - np.eye(3)).max(axis=(1, 2))
    return gram_error <= ORTHOGONALITY_TOL


_NOT_ORTHOGONAL = "rotation matrix is not orthogonal to tolerance"


def _check_rotations(r: np.ndarray) -> None:
    """Refuse the first matrix of an (N, 3, 3) stack that is not a proper rotation."""
    orthogonal = _orthogonal(r)
    with np.errstate(all="ignore"):
        det = np.linalg.det(r)
    bad = ~orthogonal | ~(np.abs(det - 1.0) <= ORTHOGONALITY_TOL)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    error = ValueError
    message = f"rotation determinant {float(det[i])} not +1 within {ORTHOGONALITY_TOL}"
    if not orthogonal[i]:
        message = _NOT_ORTHOGONAL
    elif abs(det[i] + 1.0) <= 1e-6:
        error, message = ImproperRotationError, "improper rotation (det = -1) rejected"
    _reject_first(bad, message, error)


def _proper_rotation(r: object) -> np.ndarray:
    """``r`` as a 3x3 float matrix; ValueError unless it is a proper rotation."""
    m = np.asarray(r, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("rotation must be a 3x3 matrix")
    _unnamed(_check_rotations, m[None])
    return m


class MagnetoElectricTensor(Record):
    """Intrinsic ``chi0`` (3x3, dimensionless) plus induced-response scalars: ``kappa1``
    per E*B product, ``kappa2`` per E and ``kappa3`` per B."""

    _fields = ("chi0", *_KAPPAS)

    def __init__(
        self, chi0: object, kappa1: float = 0.0, kappa2: float = 0.0, kappa3: float = 0.0
    ) -> None:
        chi0 = _as_matrix(chi0, "chi0")
        kappas = [float(kappa1), float(kappa2), float(kappa3)]
        self.__dict__.update(zip(self._fields, (chi0, *kappas)))
        _unnamed(_check_particles, {"chi0": chi0[None], "kappa": np.array([kappas])})

    @classmethod
    def from_xy(
        cls, chi0_xy: float, kappa1: float = 0.0, kappa2: float = 0.0, kappa3: float = 0.0
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


# a tuple, which no particle shares: _as_matrix makes each particle its own array
_EYE = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class Particle(Record):
    """A magneto-electric cube: ``size_a`` in m, ``density_rho`` in kg/m^3, response
    ``tensor``, ``orientation`` (body to lab, the identity by default) and linear dielectric
    constant ``epsilon``.  Its fields get the :class:`ParticleState` checks as a stack of one
    (the tensor checked its own), and it keeps its lab-frame ``chi0_xy``; to turn particles,
    turn a :class:`ParticleState` (of one, for one particle)."""

    _fields = ("size_a", "density_rho", "tensor", "orientation", "epsilon")

    def __init__(self, size_a: float, density_rho: float, tensor: MagnetoElectricTensor,
                 orientation: object = _EYE, epsilon: float = 1.0) -> None:
        size_a, density_rho, epsilon = float(size_a), float(density_rho), float(epsilon)
        orientation = _as_matrix(orientation, "orientation")
        _unnamed(_check_particles, {  # each a stack of one
            "size_a": np.array([size_a]), "density": np.array([density_rho]),
            "epsilon": np.array([epsilon]), "orientation": orientation[None]})
        lab = _unnamed(_lab_tensors, orientation[None], tensor.chi0[None])
        # the lab-frame intrinsic xy component, the one driving momentum transfer
        self.__dict__.update(size_a=size_a, density_rho=density_rho, tensor=tensor,
                             orientation=orientation, epsilon=epsilon, chi0_xy=float(lab[0, 0, 1]))

    @property
    def mass(self) -> float:
        """Mass in kg; exactly density * size**3 (cube convention)."""
        return self.density_rho * self.size_a**3


def _conjugate(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``R X R^T`` over (N, 3, 3) stacks."""
    r_t = np.ascontiguousarray(np.swapaxes(r, 1, 2))  # a strided operand is ~3x slower
    return r @ x @ r_t


_LAB_BOUND = f"lab-frame {_CHI0_BOUND}"


def _lab_tensors(orientation: np.ndarray, chi0: np.ndarray) -> np.ndarray:
    """The lab-frame tensors ``L_i = O_i chi0_i O_i^T`` of (N, 3, 3) stacks checked where they
    entered; ValueError for the first particle with an entry past the sanity bound."""
    tensors = _conjugate(orientation, chi0)
    _reject_first(np.abs(tensors).max(axis=(1, 2)) > CHI0_SANITY_BOUND, _LAB_BOUND)
    return tensors


# One Newton-Schulz step of the polar decomposition, ``M (3I - M^T M) / 2`` (Bjorck & Bowie,
# SIAM J. Numer. Anal. 8, 1971), pulls a product of proper rotations back onto the rotations.
# Each factor was checked where it entered, so the product is orthogonal to
# ORTHOGONALITY_TOL; the step squares that error, down to rounding, and keeps det = +1, so
# long chains cannot drift.  The result therefore needs the Gram test alone: the product has
# det > 0, and the step multiplies it by (3I - M^T M) / 2, within 1e-12 of I, so a result that
# passes the Gram test has det = +1 to rounding.  Matrices that enter from outside get both.
def _polar_step(m: np.ndarray) -> np.ndarray:
    return m @ (3.0 * np.eye(3) - np.ascontiguousarray(np.swapaxes(m, -1, -2)) @ m) * 0.5


class ParticleState(Record):
    """N particles as arrays: what a list of :class:`Particle` holds, per field.

    Construction converts every field and applies the particle checks batched,
    then computes and checks the lab-frame tensors (see
    :func:`_lab_tensors`); an error names the particle index.  The arrays are
    read-only, so a valid state stays valid.  A rotated state shares them and
    adds one 3x3 frame (see :meth:`rotated`).  ``chi0_xy`` holds the lab-frame
    xy components.

    The fields: ``size_a`` (N,) in m, ``density`` (N,) in kg/m^3, ``epsilon`` (N,) linear
    dielectric constant, ``chi0`` (N, 3, 3) intrinsic tensor in the body frame, ``kappa``
    (N, 3) kappa1, kappa2, kappa3, and ``orientation`` (N, 3, 3) proper rotations, body to lab.
    """

    _fields = tuple(_PARTICLE_FIELDS)

    def __init__(self, size_a: object, density: object, epsilon: object, chi0: object,
                 kappa: object, orientation: object) -> None:
        given = (size_a, density, epsilon, chi0, kappa, orientation)  # in _PARTICLE_FIELDS order
        n = np.shape(size_a)[0] if np.ndim(size_a) == 1 else -1
        fields = {}
        for (name, (shape, _)), value in zip(_PARTICLE_FIELDS.items(), given):
            a = np.array(value, dtype=float)
            if n < 0 or a.shape != (n, *shape):
                raise ValueError(f"{name} must be N arrays of shape {shape}, got {a.shape}")
            a.flags.writeable = False
            fields[name] = a
        _check_particles(fields)
        self.__dict__.update(fields)
        tensors = _lab_tensors(self.orientation, self.chi0)
        # no entry of F L F^T exceeds |L|_F for a rotation F, so only a particle whose
        # Frobenius norm reaches the bound, less a margin for rounding, can break it
        norm = np.linalg.norm(tensors, axis=(1, 2))
        near = np.flatnonzero(~(norm <= CHI0_SANITY_BOUND * (1.0 - 1e-9)))
        xy = tensors[:, 0, 1].copy()
        xy.flags.writeable = False
        self.__dict__.update(  # shared by every rotation of the state
            chi0_xy=xy,
            _built=self.orientation,  # the orientations O that the frame F turns
            _frame=np.eye(3),
            _columns=np.ascontiguousarray(tensors.reshape(-1, 9).T),  # (9, N): L_i[j, k] by row
            _near=(near, tensors[near]),
        )

    def __getattr__(self, name: str):
        # only a rotated state lacks its orientation stack (see rotated): built on first read
        if name != "orientation" or "_built" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        orientation = _polar_step(self._frame @ self._built)  # F checked in rotated
        orientation.flags.writeable = False
        self.__dict__["orientation"] = orientation
        return orientation

    def __len__(self) -> int:
        return self.size_a.shape[0]

    @classmethod
    def from_particles(cls, particles: Sequence[Particle]) -> "ParticleState":
        # the particles' own fields, joined field by field and checked again as one batch
        columns = [[p.size_a, p.density_rho, p.epsilon, p.tensor.chi0,
                    [getattr(p.tensor, k) for k in _KAPPAS], p.orientation] for p in particles]
        return cls(*(np.reshape([c[i] for c in columns], (len(columns), *shape))
                     for i, (shape, _) in enumerate(_PARTICLE_FIELDS.values())))

    @classmethod
    def from_dicts(cls, records: Sequence[object]) -> "ParticleState":
        """State from records in the :func:`particle_to_dict` schema, read a column at a time
        with the checks :func:`particle_from_dict` applies to one; an error names the index
        and field of the first bad record."""
        columns = _particle_columns(records)
        if columns is None:  # a record fails a check, or mixes layouts: read each in turn
            rows = []
            for i, d in enumerate(records):
                try:
                    rows.append(_particle_record(d))
                except ValueError as exc:
                    raise ValueError(f"particle {i}: {exc}") from None
            columns = {key: [row[key] for row in rows] for key in _PARTICLE_SCHEMA}
        return cls(
            size_a=columns["size_a_m"],
            density=columns["density_kg_m3"],
            epsilon=columns["epsilon"],
            chi0=_matrix_column(columns["chi0"], "chi0"),
            kappa=np.array([columns[k] for k in _KAPPAS]).T,
            orientation=_matrix_column(columns["orientation"], "orientation"),
        )

    def rotated(self, r: np.ndarray) -> "ParticleState":
        """State after rotating every particle by ``r``: one 3x3 frame ``F' = r F`` by the
        polar step, Gram-checked alone (``r`` gets both tests), and one O(N) pass for the
        new ``chi0_xy``, nine multiply-adds in one fixed order, so a stack of one and a stack
        of N give the same bits; ValueError for the first particle past the lab-frame bound.
        Every array is shared, and ``orientation`` is built on first read."""
        frame = _polar_step(_proper_rotation(r) @ self._frame)
        if not _orthogonal(frame[None])[0]:
            raise ValueError(_NOT_ORTHOGONAL)
        frame.flags.writeable = False
        near, near_tensors = self._near
        if near.size:
            turned = _conjugate(np.broadcast_to(frame, near_tensors.shape), near_tensors)
            bad = np.zeros(len(self), dtype=bool)
            bad[near] = np.abs(turned).max(axis=(1, 2)) > CHI0_SANITY_BOUND
            _reject_first(bad, _LAB_BOUND)
        weights = np.multiply.outer(frame[0], frame[1]).ravel().tolist()  # F[0, j] * F[1, k]
        xy = weights[0] * self._columns[0]
        for weight, column in zip(weights[1:], self._columns[1:]):
            xy += weight * column
        xy.flags.writeable = False
        after = object.__new__(ParticleState)  # skips __init__: only the frame is new
        shared = {k: v for k, v in self.__dict__.items() if k != "orientation"}
        after.__dict__.update(shared, _frame=frame, chi0_xy=xy)
        return after


def _particle_columns(records: Sequence[object]) -> dict | None:
    """Each field of ``_PARTICLE_SCHEMA`` over the records, numbers as a float array, or None
    where some record is not a dict, holds a key outside the schema or misses a required
    one, holds a value of the wrong JSON kind or an int too large for a float, or mixes flat
    and nested matrices across records: :func:`read_record`'s checks, by C-level set tests."""
    if not {dict}.issuperset(map(type, records)):
        return None
    if not _PARTICLE_SCHEMA.keys() >= set().union(*records):
        return None
    columns = {}
    for key, (kind, default) in _PARTICLE_SCHEMA.items():
        values = [d.get(key, default) for d in records]  # a missing required key: REQUIRED
        if default is None:  # null or absent: the identity, as in _particle_record
            values = [_IDENTITY if v is None else v for v in values]
        if kind is float:
            if not _NUMBER_TYPES.issuperset(map(type, values)):
                return None
            try:
                values = np.array(values, dtype=float)
            except OverflowError:
                return None
        elif not {list}.issuperset(map(type, values)):
            return None
        elif not _numbers(list(chain.from_iterable(values))):  # all flat, or all nested
            return None
        columns[key] = values
    return columns


def _matrix_column(values: list, key: str) -> np.ndarray:
    """(N, 3, 3) from the 9-entry lists, flat or nested, of field ``key`` of N records."""
    try:
        return np.array(values, dtype=float).reshape(len(values), 3, 3)
    except (ValueError, OverflowError):
        pass  # ragged or malformed: convert record by record to find it
    matrices = []
    for i, v in enumerate(values):
        try:
            matrices.append(np.array(v, dtype=float).reshape(3, 3))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"particle {i}: field {key!r}: {exc}") from None
    return np.array(matrices)


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
    m = _proper_rotation(r)
    return type(t)(_conjugate(m[None], t.chi0[None])[0], t.kappa1, t.kappa2, t.kappa3)


# -- JSON serialization ------------------------------------------------------

# the particle record schema, key -> (JSON kind, default), read by _particle_record for
# particle_from_dict and by _particle_columns for ParticleState.from_dicts; a null or absent
# orientation is the identity
_PARTICLE_SCHEMA = {
    "size_a_m": (float, REQUIRED),
    "density_kg_m3": (float, REQUIRED),
    "epsilon": (float, 1.0),
    "kappa1": (float, 0.0),
    "kappa2": (float, 0.0),
    "kappa3": (float, 0.0),
    "chi0": (list, REQUIRED),
    "orientation": (list, None),
}
_IDENTITY = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


def _particle_record(d: object) -> dict:
    fields = read_record(d, _PARTICLE_SCHEMA)
    if fields["orientation"] is None:
        fields["orientation"] = _IDENTITY
    return fields


def particle_to_dict(p: Particle) -> dict:
    t = p.tensor
    return {
        "chi0": [float(x) for x in t.chi0.reshape(9)],
        **{k: getattr(t, k) for k in _KAPPAS},
        "size_a_m": p.size_a,
        "density_kg_m3": p.density_rho,
        "epsilon": p.epsilon,
        "orientation": [float(x) for x in p.orientation.reshape(9)],
    }


def particle_from_dict(d: dict) -> Particle:
    f = _particle_record(d)
    tensor = MagnetoElectricTensor(f["chi0"], *(f[k] for k in _KAPPAS))
    return Particle(f["size_a_m"], f["density_kg_m3"], tensor, f["orientation"], f["epsilon"])

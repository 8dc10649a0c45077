import copy
import inspect
import pickle

import numpy as np
import pytest

from zpfdrive.dynamics import (
    Aggregation, CavityModulation, FieldModulation, FieldTimeSeries, ForceDecomposition,
    LedgerEntry, Rotation,
)
from zpfdrive.material import MagnetoElectricTensor, Particle, ParticleState, rotation_about
from zpfdrive.mission import MissionReport
from zpfdrive.quantities import HBAR_J_S, Quantity
from zpfdrive.vacuum import ModeGrid, VacuumModel


class TestConstants:
    def test_codata_values(self):
        assert HBAR_J_S == 1.054571817e-34

    def test_immutable(self):
        q = Quantity(HBAR_J_S, "J s")
        with pytest.raises(AttributeError):
            q.value = 1.0


EMPTY = inspect.Parameter.empty
FRESH_IDENTITY = object()  # a default that gives each record its own identity matrix


def _tensor():
    return MagnetoElectricTensor.from_xy(1e-3, kappa1=2e-5, kappa3=-1e-6)


def _state():
    turned = rotation_about([0, 0, 1], 0.3)
    return ParticleState([1e-9, 2e-9], [1000.0, 800.0], [1.0, 2.0], [_tensor().chi0] * 2,
                         [[2e-5, 0.0, -1e-6]] * 2, [np.eye(3), turned])


def _series():
    return FieldTimeSeries(np.arange(3.0), [0.0, 1.0, 2.0], [1.0, 1.0, 1.0], chi0_xy=[1e-3] * 3)


_SERIES_REPR = ("FieldTimeSeries(t=array([0., 1., 2.]), e_x=array([0., 1., 2.]), "
                "b_y=array([1., 1., 1.]), chi0_xy=array([0.001, 0.001, 0.001]), "
                "kappa1=None, kappa2=None, kappa3=None)")
ZEROS = "array([0., 0., 0.])"
# the records compared and hashed by value; every other compares by identity
BY_VALUE = {Quantity, VacuumModel, ModeGrid, CavityModulation, MissionReport}
# by record: how to build one, its repr where pinned (each repr is checked against the
# dataclass formula too), and each constructor parameter, all positional-or-keyword,
# with its default
RECORDS = {
    Quantity: (lambda: Quantity(2.0, "m/s"), "Quantity(value=2.0, unit='m/s')",
               {"value": EMPTY, "unit": EMPTY}),
    VacuumModel: (VacuumModel, "VacuumModel(prefactor_a=0.01)", {"prefactor_a": 0.01}),
    ModeGrid: (lambda: ModeGrid(16, 2.5), "ModeGrid(n_per_axis=16, k_cut=2.5)",
               {"n_per_axis": EMPTY, "k_cut": EMPTY}),
    MagnetoElectricTensor: (_tensor, None,
                            {"chi0": EMPTY, "kappa1": 0.0, "kappa2": 0.0, "kappa3": 0.0}),
    Particle: (lambda: Particle(1e-9, 1000.0, _tensor(), rotation_about([1, 0, 0], 0.5), 2.0),
               None, {"size_a": EMPTY, "density_rho": EMPTY, "tensor": EMPTY,
                      "orientation": FRESH_IDENTITY, "epsilon": 1.0}),
    ParticleState: (_state, None, dict.fromkeys(
        ["size_a", "density", "epsilon", "chi0", "kappa", "orientation"], EMPTY)),
    FieldTimeSeries: (_series, _SERIES_REPR, {
        "t": EMPTY, "e_x": EMPTY, "b_y": EMPTY, **dict.fromkeys(
            ["chi0_xy", "kappa1", "kappa2", "kappa3"], None)}),
    ForceDecomposition: (
        lambda: ForceDecomposition(np.zeros(2), np.ones(2), np.full(2, 2.0)),
        "ForceDecomposition(dielectric=array([0., 0.]), magnetoelectric=array([1., 1.]),"
        " chi_rate=array([2., 2.]))",
        dict.fromkeys(["dielectric", "magnetoelectric", "chi_rate"], EMPTY)),
    Rotation: (lambda: Rotation([0, 0, 2], 0.5), "Rotation(axis=array([0., 0., 1.]), angle=0.5)",
               {"axis": EMPTY, "angle": EMPTY}),
    Aggregation: (lambda: Aggregation(27, 1e-9, [0, 0, 1]),
                  "Aggregation(n=27, size_a=1e-09, direction=array([0., 0., 1.]))",
                  {"n": EMPTY, "size_a": EMPTY, "direction": EMPTY}),
    FieldModulation: (lambda: FieldModulation(_series()), f"FieldModulation(series={_SERIES_REPR})",
                      {"series": EMPTY}),
    CavityModulation: (lambda: CavityModulation(2.0, 0.5),
                       "CavityModulation(db2_dt=2.0, duration=0.5)",
                       {"db2_dt": EMPTY, "duration": EMPTY}),
    LedgerEntry: (lambda: LedgerEntry(0, "rotation", np.zeros(3), np.zeros(3), np.zeros(3)),
                  f"LedgerEntry(maneuver_id=0, kind='rotation', dp_particles={ZEROS},"
                  f" dp_vacuum={ZEROS}, cumulative_v={ZEROS})",
                  dict.fromkeys(["maneuver_id", "kind", "dp_particles", "dp_vacuum",
                                 "cumulative_v"], EMPTY)),
    MissionReport: (lambda: MissionReport(1.0, 2.0, True, 2.0),
                    "MissionReport(required_tangential_v=1.0, achieved_tangential_v=2.0,"
                    " feasible=True, margin=2.0)",
                    dict.fromkeys(["required_tangential_v", "achieved_tangential_v", "feasible",
                                   "margin"], EMPTY)),
}


def same(a, b) -> bool:
    """Whether ``a`` and ``b`` hold the same values, arrays (bit for bit, read-only alike) and
    nested records included."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype, a.shape, a.tobytes(), a.flags.writeable) == (
            b.dtype, b.shape, b.tobytes(), b.flags.writeable)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if hasattr(a, "__dict__"):
        return same(vars(a), vars(b))
    return a == b


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    """Each record behaves as the frozen dataclass it was; a copy keeps its read-only arrays."""
    make, text, parameters = RECORDS[cls]
    record = make()
    names = list(parameters)
    for name in names:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    for copied in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert copied is not record and same(copied, record)
    twin = make()
    if cls in BY_VALUE:
        assert record == twin and hash(record) == hash(twin)
    else:
        assert record == record and record != twin and hash(record) == object.__hash__(record)
    pairs = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{cls.__qualname__}({pairs})" == (text or repr(record))
    signature = [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
    expected = [(k, inspect.Parameter.POSITIONAL_OR_KEYWORD, v) for k, v in parameters.items()]
    if FRESH_IDENTITY in parameters.values():  # compared by what it builds
        i = names.index("orientation")
        assert signature[i][2] is not EMPTY
        signature[i] = expected[i]
        plain = [cls(1e-9, 1000.0, _tensor()) for _ in range(2)]
        assert all(np.array_equal(p.orientation, np.eye(3)) for p in plain)
        assert not np.shares_memory(plain[0].orientation, plain[1].orientation)
    assert signature == expected


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_owns_its_arrays(cls, monkeypatch):
    """The arrays a caller passes keep their flags; each array field refuses writes and is a
    copy of its own, which the caller's later writes do not reach, even through an array the
    caller passed read-only and turned writeable again."""
    init = cls.__init__
    make, _, parameters = RECORDS[cls]
    for read_only in (False, True):
        given = []

        def own(a):
            if read_only and isinstance(a, np.ndarray):
                a = a.copy()  # owns its data, so its caller can turn writes back on
                a.flags.writeable = False
            return a

        def spy(self, *args, **kwargs):
            args, kwargs = [own(a) for a in args], {k: own(v) for k, v in kwargs.items()}
            arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
            given.extend(a for a in arrays if a.flags.writeable != read_only)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
        record = make()
        assert all(a.flags.writeable != read_only for a in given)
        fields = {name: getattr(record, name) for name in parameters}
        fields = {k: (v, v.tobytes()) for k, v in fields.items() if isinstance(v, np.ndarray)}
        for a in given:
            a.flags.writeable = True
            a[...] = 99.0
        for name, (value, before) in fields.items():
            assert value.tobytes() == before, (name, read_only)
            assert not any(np.shares_memory(value, a) for a in given), (name, read_only)
            with pytest.raises(ValueError, match="read-only"):
                value.flat[0] = 5.0


def test_copied_rotated_state_keeps_its_frame():
    turned = _state().rotated(rotation_about([1, 2, 3], 0.4))
    copies = [copy.deepcopy(turned), pickle.loads(pickle.dumps(turned))]
    assert all("orientation" not in vars(c) and same(c, turned) for c in copies)
    assert all(same(c.orientation, turned.orientation) for c in copies)

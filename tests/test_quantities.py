import copy
import inspect
import pickle

import numpy as np
import pytest

from zpfdrive.material import MagnetoElectricTensor, Particle, ParticleState, rotation_about
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


# by record: how to build one, its repr if it compares by value (None: by identity), and
# each constructor parameter, all positional-or-keyword, with its default
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
}


def same(a, b) -> bool:
    """Whether ``a`` and ``b`` hold the same values, arrays and nested records included."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if hasattr(a, "__dict__"):
        return same(vars(a), vars(b))
    return a == b


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    """Each record that every command loads behaves as the frozen dataclass it was."""
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
    if text is None:
        assert record == record and record != twin and hash(record) == object.__hash__(record)
    else:
        assert record == twin and hash(record) == hash(twin) and repr(record) == text
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

import pytest

from zpfdrive.quantities import HBAR_J_S, Quantity


class TestConstants:
    def test_codata_values(self):
        assert HBAR_J_S == 1.054571817e-34

    def test_immutable(self):
        q = Quantity(HBAR_J_S, "J s")
        with pytest.raises(AttributeError):
            q.value = 1.0

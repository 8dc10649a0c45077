"""The package keeps every public name, and imports a name's module on its first read."""

import subprocess
import sys

import pytest

import zpfdrive


@pytest.mark.parametrize("name", zpfdrive.__all__)
def test_public_name_is_its_defining_module_s_object(name):
    value = getattr(zpfdrive, name)
    assert value.__module__ == f"zpfdrive.{zpfdrive._MODULE_OF[name]}"
    assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_every_public_name():
    assert set(zpfdrive.__all__) <= set(dir(zpfdrive))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from zpfdrive import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(zpfdrive.__all__)
    assert all(namespace[name] is getattr(zpfdrive, name) for name in zpfdrive.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'zpfdrive' has no attribute 'warp'$"):
        zpfdrive.warp
    with pytest.raises(ImportError, match="cannot import name 'warp'"):
        exec("from zpfdrive import warp", {})


def submodules_after(statements: str) -> list[str]:
    """The zpfdrive submodules loaded after ``statements`` run in a new interpreter."""
    probe = f"import sys\n{statements}\nprint(*sorted(m for m in sys.modules if 'zpfdrive.' in m))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_import_loads_no_submodule():
    assert submodules_after("import zpfdrive") == []


def test_first_read_of_a_name_loads_its_module_alone():
    assert submodules_after("import zpfdrive\nzpfdrive.Quantity") == ["zpfdrive.quantities"]


def test_dynamics_re_exports_the_rotation_kernels_of_vacuum():
    from zpfdrive import dynamics, vacuum

    assert dynamics.rotation_dv is vacuum.rotation_dv
    assert dynamics.checked_rotation_dv is vacuum.checked_rotation_dv

"""Modules imported on first use, so that a call that does not read one never loads it."""

from __future__ import annotations

import sys


class OnFirstUse:
    """Stands in for a module in one module's globals until an attribute is read.

    ``np = OnFirstUse(globals(), "numpy", "np")``: the first ``np.`` read
    imports numpy, which the import system runs under its module lock, so two
    threads' first reads import it once; the read then rebinds the global
    ``np`` to numpy itself, so every later ``np.`` access is a plain global
    lookup.  ``importlib.util.LazyLoader`` is not used: it puts a stand-in for the
    module into ``sys.modules`` for the whole process, and on Python 3.10 and
    3.11 its load is not guarded against two threads' first use.
    """

    __slots__ = ("_namespace", "_module", "_name")

    def __init__(self, namespace: dict, module: str, name: str) -> None:
        self._namespace, self._module, self._name = namespace, module, name

    def __getattr__(self, attr: str) -> object:
        __import__(self._module)  # the import statement's path, which -X importtime reports
        module = self._namespace[self._name] = sys.modules[self._module]
        return getattr(module, attr)

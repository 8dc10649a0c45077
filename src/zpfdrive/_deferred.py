"""numpy imported on first use, so that commands computing on floats alone never load it."""

from __future__ import annotations


class NumpyOnFirstUse:
    """Stands in for ``np`` in one module's globals until an attribute is read.

    The first read runs ``import numpy``, which the import system runs under
    its module lock, so two threads' first reads import numpy once; the read
    then rebinds the module's global ``np`` to numpy itself, so every later
    ``np.`` access is a plain global lookup.  ``importlib.util.LazyLoader`` is
    not used: it puts a stand-in for numpy into ``sys.modules`` for the whole
    process, and on Python 3.10 and 3.11 its load is not guarded against two
    threads' first use.
    """

    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict) -> None:
        self._namespace = namespace

    def __getattr__(self, name: str) -> object:
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)

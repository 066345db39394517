import gc
import tracemalloc
import weakref

import hypothesis
import pytest

from fraclap import FAMILIES, geometry, renorm

hypothesis.settings.register_profile(
    "fraclap", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("fraclap")


class _Traced:
    """Traces the allocations of a ``with`` block (tracemalloc): ``start``
    holds the traced bytes on entry, and ``held`` and ``peak`` those on exit
    and at the peak.  The cyclic collector is off inside the block, as
    ``cli.run`` runs a command, so ``held`` and ``peak`` count what a
    reference cycle keeps whenever the collector would have run."""

    def __enter__(self):
        self.collecting = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        self.start = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc):
        self.held, self.peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if self.collecting:
            gc.enable()


@pytest.fixture
def traced():
    return _Traced()


@pytest.fixture
def refines(monkeypatch):
    """The ``(family, level)`` of every level ``geometry.build_level`` makes,
    one level at a time from the one below, from here on, in order, with no
    level built beforehand: the level store starts empty and records each
    level put in it, and each family's structure, which refines its seed
    geometrically once per process, is made first."""
    for family in FAMILIES:
        geometry._structure(family)
    made = []

    class Store(weakref.WeakValueDictionary):
        def __setitem__(self, key, mesh):
            made.append(key)
            super().__setitem__(key, mesh)

    monkeypatch.setattr(geometry, "_LEVELS", Store())
    return made


def _refused(*args):
    raise AssertionError("a level was built, walked, searched for, embedded or solved")


@pytest.fixture
def builds_nothing(monkeypatch):
    """From here on every way to a level raises: ``build_level``, the
    coordinates of the copy-tree walk (``_vertex_blocks``), the geometric
    refine and its dedup, and with them ``embed`` and the condensed solve
    that ``renorm`` calls.  Each family's structure, which refines its seed
    geometrically once per process, is made first."""
    for family in FAMILIES:
        geometry._structure(family)
    for name in ("build_level", "_vertex_blocks", "_refine", "_dedup", "embed"):
        monkeypatch.setattr(geometry, name, _refused)
    monkeypatch.setattr(renorm, "_solve_level", _refused)

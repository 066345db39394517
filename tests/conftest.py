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
    and at the peak."""

    def __enter__(self):
        tracemalloc.start()
        self.start = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc):
        self.held, self.peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()


@pytest.fixture
def traced():
    return _Traced()


@pytest.fixture
def refines(monkeypatch):
    """The ``(family, level)`` of every level ``geometry._glue`` makes, the
    one step by which ``build_level`` makes each level, from here on, in
    order, with no level built beforehand: the level store starts empty,
    and each family's structure, which refines its seed geometrically once
    per process, is made first."""
    for family in FAMILIES:
        geometry._structure(family)
    monkeypatch.setattr(geometry, "_LEVELS", weakref.WeakValueDictionary())
    made, glue = [], geometry._glue

    def counted(coarse):
        mesh = glue(coarse)
        made.append((mesh.family, mesh.level))
        return mesh

    monkeypatch.setattr(geometry, "_glue", counted)
    return made


def _refused(*args):
    raise AssertionError("a level was built, glued, searched for, embedded or solved")


@pytest.fixture
def builds_nothing(monkeypatch):
    """From here on every way to a level raises: ``build_level``, the glue,
    the geometric refine and its dedup, and with them ``embed`` and the
    condensed solve that ``renorm`` calls.  Each family's structure, which
    refines its seed geometrically once per process, is made first."""
    for family in FAMILIES:
        geometry._structure(family)
    for name in ("build_level", "_glue", "_refine", "_dedup", "embed"):
        monkeypatch.setattr(geometry, name, _refused)
    monkeypatch.setattr(renorm, "_solve_level", _refused)

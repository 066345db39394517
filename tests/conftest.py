import tracemalloc

import hypothesis
import pytest

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

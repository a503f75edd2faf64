import contextlib
import tracemalloc
from types import SimpleNamespace

import pytest

from sqfpairs import verify


@pytest.fixture(scope="session")
def suite_results():
    """Every verify suite's result at seed 12345, by name, from one run per
    test session."""
    return {r.name: r for r in verify.run_suites(seed=12345)}


@pytest.fixture
def traced_peak():
    """A context manager that traces its block with tracemalloc:

        with traced_peak() as traced:
            ...
        assert traced.peak <= stated

    On a normal exit, traced.peak is the block's traced peak in bytes."""
    @contextlib.contextmanager
    def trace():
        traced = SimpleNamespace(peak=None)
        tracemalloc.start()
        try:
            yield traced
            traced.peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return trace

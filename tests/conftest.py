import pytest

from sqfpairs import verify


@pytest.fixture(scope="session")
def suite_results():
    """Every verify suite's result at seed 12345, by name, from one run per
    test session."""
    return {r.name: r for r in verify.run_suites(seed=12345)}

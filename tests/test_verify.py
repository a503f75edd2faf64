import random
import re

import numpy as np
import pytest

from sqfpairs import counting, expsums, lambdasums
from sqfpairs.verify import (
    _Recorder,
    suite_gauss_reduce,
    suite_lambda_bound,
    suite_truncation_report,
    suite_weil_bound,
)


def test_failure_count_beyond_stored_samples():
    rec = _Recorder("many-failures")
    for i in range(5000):
        rec.check(False, f"failure {i}")
    result = rec.result()
    assert not result.ok
    assert result.checked == 5000
    assert result.failed == 5000
    assert len(result.failures) == 1000
    lines = result.line().splitlines()
    assert lines[1:11] == [f"    failure {i}" for i in range(10)]
    assert lines[-1] == "    ... 4990 more"


def test_truncation_report_checks_the_dropped_terms(monkeypatch):
    assert suite_truncation_report(H_values=(10, 20)).ok
    truncated = counting.count_pairs_mobius_truncated
    monkeypatch.setattr(counting, "count_pairs_mobius_truncated",
                        lambda H, z: truncated(H, z) + 1)
    result = suite_truncation_report(H_values=(10, 20))
    assert (result.checked, result.failed) == (2, 2)


def _too_large(q, n, m):
    # every value exceeds any bound, so each check fails and names its (q, n, m)
    return np.full(np.broadcast(n, m).shape, 1e9 + 0j)


def _named_arguments(result, pattern):
    return [tuple(map(int, re.match(pattern, f).groups())) for f in result.failures]


def test_weil_bound_draws_are_the_scalar_order(monkeypatch):
    monkeypatch.setattr(expsums, "kloosterman_direct", _too_large)
    result = suite_weil_bound(seed=5, qmax=30, per_q=3)
    rng = random.Random(5)
    want = []
    for q in range(1, 31):
        for _ in range(3):
            n = rng.randrange(-3 * q, 3 * q + 1)
            m = rng.randrange(-3 * q, 3 * q + 1)
            want.append((q, n, m))
    assert result.failed == result.checked == 90
    assert _named_arguments(result, r"\|K\((\d+);(-?\d+),(-?\d+)\)\|") == want


def test_lambda_bound_draws_are_the_scalar_order(monkeypatch):
    monkeypatch.setattr(lambdasums, "lambda_direct", _too_large)
    result = suite_lambda_bound(seed=5, qmax=30, per_q=3)
    rng = random.Random(5)
    want = []
    for q in range(1, 31):
        if q % 8 == 0:
            continue
        for _ in range(3):
            n = rng.randrange(-2 * q, 2 * q + 1)
            m = rng.randrange(-2 * q, 2 * q + 1)
            want.append((q, n, m))
    assert result.failed == result.checked == len(want) == 81
    assert _named_arguments(result, r"\|lam\((\d+);(-?\d+),(-?\d+)\)\|") == want


@pytest.mark.parametrize("qmax", [1, 2, 41, 64])
def test_gauss_reduce_keeps_every_grid_it_reads(qmax):
    # cached grids are dropped after the last multiple of their modulus
    result = suite_gauss_reduce(seed=3, qmax=qmax)
    assert result.ok
    assert (result.checked, result.failed) == (4 * qmax, 0)

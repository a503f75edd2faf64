import math
import random
import re

import numpy as np
import pytest

from sqfpairs import counting, expsums, lambdasums
from sqfpairs.verify import (
    _Recorder,
    suite_gauss_closed,
    suite_gauss_reduce,
    suite_lambda_any,
    suite_lambda_bound,
    suite_lambda_fast,
    suite_lambda_triple,
    suite_truncation_report,
    suite_weil_bound,
)


def test_failure_count_beyond_stored_samples():
    rec = _Recorder("many-failures")
    for i in range(600):
        rec.check(False, "failure {i}", i=i)
    rec.check(True, "never stored")
    # odd entries fail: 2500 failures, of which the first 400 fit the cap
    rec.check(np.arange(5000) % 2 == 0, "array failure {i} of {n}", i=np.arange(5000), n=5000)
    for i in range(10):
        rec.check(False, "late failure {i}", i=i)
    result = rec.result()
    assert not result.ok
    assert result.checked == 600 + 1 + 5000 + 10
    assert result.failed == 600 + 2500 + 10
    assert result.failures == ([f"failure {i}" for i in range(600)]
                               + [f"array failure {i} of 5000" for i in range(1, 800, 2)])
    lines = result.line().splitlines()
    assert lines[1:11] == [f"    failure {i}" for i in range(10)]
    assert lines[-1] == "    ... 3100 more"


def test_array_check_formats_each_failing_entry_in_order():
    rec = _Recorder("array")
    ok = np.array([[True, False, False], [True, True, False]])
    rec.check(ok, "q={q} n={n} v={v:.1f} roots={r}", q=7, n=np.arange(6).reshape(2, 3),
              v=np.arange(6).reshape(2, 3) / 2, r=[[0], [1], [2, 9], [3], [4], []])
    rec.check(np.array([], dtype=bool), "empty {n}", n=np.array([]))
    result = rec.result()
    assert (result.checked, result.failed) == (6, 3)
    assert result.failures == ["q=7 n=1 v=0.5 roots=[1]", "q=7 n=2 v=1.0 roots=[2, 9]",
                               "q=7 n=5 v=2.5 roots=[]"]


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


def _drawn_with_origin(seed, moduli, per_q):
    # the (q, n, m) of the lambda agreement suites, in the order drawn
    rng = random.Random(seed)
    want = []
    for q in moduli:
        want.append((q, 0, 0))
        for _ in range(per_q):
            n = rng.randrange(-2 * q, 2 * q + 1)
            m = rng.randrange(-2 * q, 2 * q + 1)
            want.append((q, n, m))
    return want


def test_lambda_fast_draws_are_the_scalar_order(monkeypatch):
    monkeypatch.setattr(lambdasums, "lambda_fast_odd", _too_large)
    result = suite_lambda_fast(seed=5, qmax=31, per_q=3)
    want = _drawn_with_origin(5, range(1, 32, 2), 3)
    assert result.failed == result.checked == len(want) == 64
    assert _named_arguments(result, r"fast\((\d+);(-?\d+),(-?\d+)\)") == want


def test_lambda_any_draws_are_the_scalar_order(monkeypatch):
    monkeypatch.setattr(lambdasums, "lambda_any", _too_large)
    result = suite_lambda_any(seed=5, qmax=30, per_q=3)
    want = _drawn_with_origin(5, [q for q in range(1, 31) if q % 8], 3)
    assert result.failed == result.checked == len(want) == 108
    assert _named_arguments(result, r"any\((\d+);(-?\d+),(-?\d+)\)") == want


def test_lambda_triple_draws_are_the_scalar_order(monkeypatch):
    monkeypatch.setattr(lambdasums, "lambda_any", _too_large)
    result = suite_lambda_triple(seed=5, qmax=30, per_q=3)
    want = _drawn_with_origin(5, [q for q in range(1, 31) if q % 8], 3)
    assert result.failed == result.checked == len(want) == 108
    assert _named_arguments(result, r"\((\d+);(-?\d+),(-?\d+)\): evaluator spread") == want


def test_gauss_closed_checks_only_the_evaluator(monkeypatch):
    # with the evaluator wrong everywhere, every check fails: no entry is
    # compared against a closed form computed by the suite itself
    monkeypatch.setattr(expsums, "gauss_closed_odd", _too_large)
    result = suite_gauss_closed(seed=5, qmax=21)
    rng = random.Random(5)
    want = []
    for q in range(1, 22, 2):
        units = [n for n in range(q) if math.gcd(q, n) == 1] or [0]
        want += [("row", q, n) for n in units]
        if q > 1:
            for _ in range(3):
                n = units[rng.randrange(len(units))]
                want.append(("sample", q, n, rng.randrange(q)))
    got = []
    for f in result.failures:
        row = re.match(r"q=(\d+) n=(\d+) max err", f)
        sample = re.match(r"scalar closed mismatch at \((\d+);(\d+),(\d+)\)", f)
        got.append(("row", *map(int, row.groups())) if row
                   else ("sample", *map(int, sample.groups())))
    assert result.failed == result.checked == len(want)
    assert got == want

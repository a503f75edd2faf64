import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from sqfpairs import asymptotic, counting, expsums, lambdasums, ntcore
from sqfpairs.verify import (
    _Recorder,
    suite_congruent_bound,
    suite_gauss_closed,
    suite_gauss_reduce,
    suite_lambda_any,
    suite_lambda_bound,
    suite_lambda_fast,
    suite_lambda_triple,
    suite_rho_envelope,
    suite_sqrt_mod,
    suite_tau_growth,
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


def test_truncation_report_counts_each_term_once(monkeypatch):
    # S(H) comes from the value sieve, so every T(H, d^2) is counted once,
    # either in the truncated sum or among the dropped terms
    seen = []
    count = counting.congruent_pair_count
    monkeypatch.setattr(counting, "congruent_pair_count",
                        lambda H, q: seen.append((H, q)) or count(H, q))
    monkeypatch.setattr(counting, "count_pairs_mobius", None)
    assert suite_truncation_report(H_values=(10, 20)).ok
    assert seen and len(seen) == len(set(seen))


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
    # every gcd class finds the grid of q/d it reads
    result = suite_gauss_reduce(seed=3, qmax=qmax)
    assert result.ok
    assert (result.checked, result.failed) == (4 * qmax, 0)


@pytest.mark.parametrize("q,entry,qmax", [pytest.param(5, (1, 1), 10, id="5-entry0"),
                                          pytest.param(10, (2, 1), 10, id="10-entry1"),
                                          pytest.param(131, (130, 1), 262, id="131-third-slab")])
def test_gauss_reduce_compares_every_gcd_class(monkeypatch, q, entry, qmax):
    # G(5) is the reduced grid of the rows gcd(n, 10) = 2, and G(10)[2, 1]
    # is a column 2 does not divide, where the reduction is 0: either
    # perturbation fails the grid check of q = 10.  Row 130 of G(131) is
    # reduced from n = 260, in the third slab of the 130 rows
    # gcd(n, 262) = 2.
    table = expsums.gauss_direct_table

    def perturbed(k, rows):
        grid = table(k, rows)
        if k == q:
            grid[np.asarray(rows) % k == entry[0], entry[1]] += 1.0
        return grid

    monkeypatch.setattr(expsums, "gauss_direct_table", perturbed)
    result = suite_gauss_reduce(seed=3, qmax=qmax)
    assert not result.ok
    assert any(f.startswith(f"q={qmax} max err") for f in result.failures)


def test_gauss_reduce_checks_the_scalar_reduction(monkeypatch):
    # a reduction that drops every sum with gcd(n, q) > 1 disagrees with
    # the sampled direct sums of the grid
    reduce = expsums.gauss_reduce

    def broken(q, n, m):
        return 0j if math.gcd(n, q) > 1 else reduce(q, n, m)

    monkeypatch.setattr(expsums, "gauss_reduce", broken)
    result = suite_gauss_reduce()
    assert not result.ok and result.checked == 1200
    assert result.failures and all(f.startswith("batch/scalar mismatch")
                                   for f in result.failures)


@pytest.mark.parametrize("suite", [suite_gauss_reduce, suite_gauss_closed])
def test_gauss_suites_hold_no_second_grid(suite):
    # at the default qmax the q x q grid of G(q) is the one grid held; the
    # reduced grid and the full closed-form rows peaked at 6.3 and 7.0 MiB
    tracemalloc.start()
    try:
        assert suite().ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


@pytest.mark.parametrize("suite,cap,checks", [(suite_gauss_reduce, 2 * 2**20, 1200),
                                              (suite_gauss_closed, 2 * 2**20, 18935),
                                              (suite_tau_growth, 1.5 * 2**20, 100_000)])
def test_suites_work_in_slabs(suite, cap, checks):
    # the Gauss suites build only the rows of each slab they compare, and
    # tau-growth checks 2^14 values per step, with every check still made;
    # with whole grids and whole arrays they peaked at 4.2, 4.7 and 2.7 MiB
    tracemalloc.start()
    try:
        result = suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok and result.checked == checks
    assert peak <= cap


@pytest.mark.parametrize("hi", [36, 100, 2520, 3000, 2**14, 2**14 + 1, 3 * 2**14 + 5])
def test_tau_growth_counts_every_divisor(hi):
    # the suite counts divisors in pairs; with lo = hi - 1 its verdict and
    # note read the count at n = hi alone
    result = suite_tau_growth(lo=hi - 1, hi=hi)
    assert result.checked == hi
    assert result.ok == (ntcore.tau(hi) <= hi**0.6)
    assert result.notes == f"max tau(n)/n^0.6 = {ntcore.tau(hi) / hi**0.6:.3f}"


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


def test_lambda_triple_evaluates_the_odd_part_once(monkeypatch):
    # lambda_any(q) is lambda_fast_odd(q) for odd q and wraps lambda_fast_odd(q / 2)
    # when q = 2 mod 4; the suite evaluates neither a second time
    calls = []
    fast = lambdasums.lambda_fast_odd

    def spy(q, n, m):
        calls.append(q)
        return fast(q, n, m)

    monkeypatch.setattr(lambdasums, "lambda_fast_odd", spy)
    result = suite_lambda_triple(seed=5, qmax=30, per_q=3)
    assert result.ok and result.checked == 108
    assert calls == [q if q % 2 else q // 2 for q in range(1, 31) if q % 4]


def test_sqrt_mod_is_one_call_per_prime_power(monkeypatch):
    calls = []
    solve = ntcore.sqrt_mod

    def spy(a, p, e=1):
        calls.append((p, e))
        return solve(a, p, e)

    monkeypatch.setattr(ntcore, "sqrt_mod", spy)
    result = suite_sqrt_mod()
    assert result.ok and result.checked == 288_805
    assert len(calls) == len(set(calls)) == 323


def test_sqrt_mod_failures_are_counted_and_named(monkeypatch):
    # one wrong root in a list of the right length (mod 9), and mod 5 one
    # list too short and one wrong root: each residue is one failure
    solve = ntcore.sqrt_mod
    wrong = {(3, 2): {0: [0, 3, 7]}, (5, 1): {1: [1], 4: [2, 4]}}

    def stub(a, p, e=1):
        got = solve(a, p, e)
        for residue, roots in wrong.get((p, e), {}).items():
            got[residue] = roots
        return got

    monkeypatch.setattr(ntcore, "sqrt_mod", stub)
    result = suite_sqrt_mod(limit=30)
    assert (result.checked, result.failed) == (sum(p**e for p in (3, 5, 7, 11, 13, 17, 19, 23, 29)
                                                   for e in (1, 2, 3) if p**e <= 30), 3)
    assert result.failures == ["sqrt_mod(0,3,2)=[0, 3, 7] want [0, 3, 6]",
                               "sqrt_mod(1,5,1)=[1] want [1, 4]",
                               "sqrt_mod(4,5,1)=[2, 4] want [2, 3]"]


def test_rho_envelope_checks_every_draw_in_bounded_slabs(monkeypatch):
    # with the series wrong everywhere, every check fails, in the order of
    # the scalar draws; each call takes at most 32 t and 2**12 phases
    shapes = []

    def wrong(D, t):
        shapes.append((D, t.size))
        return asymptotic.rho(t) + 10.0

    monkeypatch.setattr(asymptotic, "rho_fourier", wrong)
    result = suite_rho_envelope(seed=5, D_values=(10, 1000), trials=100)
    rng = random.Random(5)
    want = []
    for D in (10, 1000):
        for _ in range(100):
            t = rng.uniform(-5.0, 5.0)
            if min(t % 1.0, 1.0 - t % 1.0) < 1e-3:
                t += 2e-3
            want.append((D, f"{t:.6f}"))
    assert result.failed == result.checked == 200
    assert [re.match(r"D=(\d+) t=(\S+):", f).groups() for f in result.failures] == [
        (str(D), t) for D, t in want]
    assert shapes == [(10, 32)] * 3 + [(10, 4)] + [(1000, 4)] * 25


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
        sample = re.match(r"sampled closed mismatch at \((\d+);(\d+),(\d+)\)", f)
        got.append(("row", *map(int, row.groups())) if row
                   else ("sample", *map(int, sample.groups())))
    assert result.failed == result.checked == len(want)
    assert got == want


def test_congruent_bound_solves_each_circle_once(monkeypatch):
    calls = []
    solve = lambdasums.solve_circle

    def spy(q):
        calls.append(q)
        return solve(q)

    monkeypatch.setattr(lambdasums, "solve_circle", spy)
    result = suite_congruent_bound()
    assert result.ok and result.checked == 525
    assert calls == [q for q in range(1, 201) if q % 8]


def test_congruent_bound_checks_in_height_order(monkeypatch):
    # with every T out of range, the failures come H by H, q by q
    monkeypatch.setattr(counting, "congruent_pair_count", lambda H, q: -1)
    result = suite_congruent_bound(qmax=10)
    qs = [q for q in range(1, 11) if q % 8]
    assert result.failures == [
        f"T({H},{q})=-1 outside [0, {len(lambdasums.solve_circle(q)) * (H / q + 1) ** 2:.2f}]"
        for H in (10, 50, 100) for q in qs]

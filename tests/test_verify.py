import inspect
import math
import random
import re

import numpy as np
import pytest

from sqfpairs import asymptotic, counting, expsums, lambdasums, ntcore, verify
from sqfpairs.verify import (
    ALL_SUITES,
    DEFAULT_SEED,
    _divisor_counts,
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


def test_every_suite_takes_the_seed_alone():
    # each suite's sweep is fixed in its body; a call can set only the seed
    for name, suite in ALL_SUITES.items():
        params = inspect.signature(suite).parameters
        assert list(params) == ["seed"], name
        assert params["seed"].default == DEFAULT_SEED, name


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


def test_truncation_report_checks_the_dropped_terms(monkeypatch, suite_results):
    assert suite_results["truncation-report"].ok
    truncated = counting.count_pairs_mobius_truncated
    monkeypatch.setattr(counting, "count_pairs_mobius_truncated",
                        lambda H, z: truncated(H, z) + 1)
    result = suite_truncation_report()
    assert (result.checked, result.failed) == (4, 4)


def test_truncation_report_counts_each_term_once(monkeypatch):
    # S(H) comes from the value sieve, so every T(H, d^2) is counted once,
    # either in the truncated sum or among the dropped terms
    seen = []
    count = counting.congruent_pair_count
    monkeypatch.setattr(counting, "congruent_pair_count",
                        lambda H, q: seen.append((H, q)) or count(H, q))
    monkeypatch.setattr(counting, "count_pairs_mobius", None)
    assert suite_truncation_report().ok
    assert seen and len(seen) == len(set(seen))


def _too_large(q, n, m):
    # every value exceeds any bound, so each check fails and names its (q, n, m)
    return np.full(np.broadcast(n, m).shape, 1e9 + 0j)


def _named_arguments(result, pattern):
    return [tuple(map(int, re.match(pattern, f).groups())) for f in result.failures]


# _Recorder keeps the first 1000 failure messages
STORED = 1000


def test_weil_bound_draws_are_the_scalar_order(monkeypatch):
    monkeypatch.setattr(expsums, "kloosterman_direct", _too_large)
    result = suite_weil_bound(seed=5)
    rng = random.Random(5)
    want = []
    for q in range(1, 2001):
        for _ in range(20):
            n = rng.randrange(-3 * q, 3 * q + 1)
            m = rng.randrange(-3 * q, 3 * q + 1)
            want.append((q, n, m))
    assert result.failed == result.checked == len(want) == 40_000
    assert _named_arguments(result, r"\|K\((\d+);(-?\d+),(-?\d+)\)\|") == want[:STORED]


def test_lambda_bound_draws_are_the_scalar_order(monkeypatch):
    monkeypatch.setattr(lambdasums, "lambda_direct", _too_large)
    result = suite_lambda_bound(seed=5)
    rng = random.Random(5)
    want = []
    for q in range(1, 1501):
        if q % 8 == 0:
            continue
        for _ in range(20):
            n = rng.randrange(-2 * q, 2 * q + 1)
            m = rng.randrange(-2 * q, 2 * q + 1)
            want.append((q, n, m))
    assert result.failed == result.checked == len(want) == 26_260
    assert _named_arguments(result, r"\|lam\((\d+);(-?\d+),(-?\d+)\)\|") == want[:STORED]


@pytest.fixture(scope="module")
def gauss_reduce_reads():
    """suite_gauss_reduce at seed 3 and, for each modulus q it sweeps, the
    (k, rows) of every gauss_direct_table call it makes for q, in order."""
    table, entries = expsums.gauss_direct_table, verify._gauss_entries
    reads = {}

    def entries_of(q, n, m):
        # the suite's first read for each q is its sampled entries
        reads[q] = []
        return entries(q, n, m)

    def recorded(k, rows):
        reads[next(reversed(reads))].append((k, np.array(rows)))
        return table(k, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_gauss_entries", entries_of)
        mp.setattr(expsums, "gauss_direct_table", recorded)
        result = suite_gauss_reduce(seed=3)
    return result, reads


@pytest.mark.parametrize("q", [1, 2, 41, 64])
def test_gauss_reduce_keeps_every_grid_it_reads(gauss_reduce_reads, suite_results, q):
    # every gcd class d > 1 of q finds the grid of q/d it reads: the rows
    # gcd(n, q) > 1 of G(q) once each, and the rows n/d of G(q/d) once each
    for result in (gauss_reduce_reads[0], suite_results["gauss-reduce-vs-direct"]):
        assert result.ok
        assert (result.checked, result.failed) == (1200, 0)
    (k, sampled), *grids = gauss_reduce_reads[1][q]
    assert k == q and sampled.shape == (3,)
    gcds = np.gcd(np.arange(q), q)
    read = {}
    for k, rows in grids:
        read.setdefault(k, []).extend(rows.tolist())
    want = {q: sorted(np.flatnonzero(gcds > 1).tolist())} if q > 1 else {}
    for d in np.unique(gcds[gcds > 1]).tolist():
        want[q // d] = (np.flatnonzero(gcds == d) // d).tolist()
    assert {k: sorted(rows) for k, rows in read.items()} == want


@pytest.mark.parametrize("q,entry,failing", [pytest.param(5, (1, 1), 10, id="5-entry0"),
                                             pytest.param(10, (2, 1), 10, id="10-entry1"),
                                             pytest.param(131, (130, 1), 262, id="131-third-slab")])
def test_gauss_reduce_compares_every_gcd_class(monkeypatch, q, entry, failing):
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
    result = suite_gauss_reduce(seed=3)
    assert not result.ok
    assert any(f.startswith(f"q={failing} max err") for f in result.failures)


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


@pytest.mark.parametrize("suite,cap,checks", [(suite_gauss_reduce, 2 * 2**20, 1200),
                                              (suite_gauss_closed, 2 * 2**20, 18935),
                                              (suite_tau_growth, 1.5 * 2**20, 100_000)])
def test_suites_work_in_slabs(traced_peak, suite, cap, checks):
    # the Gauss suites build only the rows of each slab they compare, and
    # tau-growth checks 2^14 values per step, with every check still made;
    # with whole grids and whole arrays they peaked at 4.2, 4.7 and 2.7
    # MiB, and with a second grid (the reduced grid of G(q/d), the full
    # closed-form rows) at 6.3 and 7.0 MiB
    with traced_peak() as traced:
        result = suite()
    assert result.ok and result.checked == checks
    assert traced.peak <= cap


@pytest.mark.parametrize("hi", [36, 100, 2520, 3000, 2**14, 2**14 + 1, 3 * 2**14 + 5])
def test_tau_growth_counts_every_divisor(hi):
    # the suite counts divisors in pairs d < n/d, plus d = n/d at squares
    counts = _divisor_counts(hi)
    assert counts.shape == (hi + 1,) and counts[0] == 0
    assert counts[1:].tolist() == [ntcore.tau(n) for n in range(1, hi + 1)]


def test_tau_growth_note_reads_tau(suite_results):
    # every n <= 1e5 is checked, and the note is the largest
    # tau(n)/n^0.6 beyond 1e4, read off ntcore.tau
    result = suite_results["tau-growth"]
    worst = max(ntcore.tau(n) / n**0.6 for n in range(10_001, 100_001))
    assert result.ok and result.checked == 100_000
    assert result.notes == f"max tau(n)/n^0.6 = {worst:.3f}"


def _drawn_with_origin(seed, moduli):
    # the (q, n, m) of the lambda agreement suites, in the order drawn
    rng = random.Random(seed)
    want = []
    for q in moduli:
        want.append((q, 0, 0))
        for _ in range(10):
            n = rng.randrange(-2 * q, 2 * q + 1)
            m = rng.randrange(-2 * q, 2 * q + 1)
            want.append((q, n, m))
    return want


def test_lambda_fast_draws_are_the_scalar_order(monkeypatch):
    monkeypatch.setattr(lambdasums, "lambda_fast_odd", _too_large)
    result = suite_lambda_fast(seed=5)
    want = _drawn_with_origin(5, range(1, 602, 2))
    assert result.failed == result.checked == len(want) == 3311
    assert _named_arguments(result, r"fast\((\d+);(-?\d+),(-?\d+)\)") == want[:STORED]


def test_lambda_any_draws_are_the_scalar_order(monkeypatch):
    monkeypatch.setattr(lambdasums, "lambda_any", _too_large)
    result = suite_lambda_any(seed=5)
    want = _drawn_with_origin(5, [q for q in range(1, 602) if q % 8])
    assert result.failed == result.checked == len(want) == 5786
    assert _named_arguments(result, r"any\((\d+);(-?\d+),(-?\d+)\)") == want[:STORED]


def test_lambda_triple_draws_are_the_scalar_order(monkeypatch):
    monkeypatch.setattr(lambdasums, "lambda_any", _too_large)
    result = suite_lambda_triple(seed=5)
    want = _drawn_with_origin(5, [q for q in range(1, 602) if q % 8])
    assert result.failed == result.checked == len(want) == 5786
    assert (_named_arguments(result, r"\((\d+);(-?\d+),(-?\d+)\): evaluator spread")
            == want[:STORED])


def test_lambda_triple_evaluates_the_odd_part_once(monkeypatch):
    # lambda_any(q) is lambda_fast_odd(q) for odd q and wraps lambda_fast_odd(q / 2)
    # when q = 2 mod 4; the suite evaluates neither a second time
    calls = []
    fast = lambdasums.lambda_fast_odd

    def spy(q, n, m):
        calls.append(q)
        return fast(q, n, m)

    monkeypatch.setattr(lambdasums, "lambda_fast_odd", spy)
    result = suite_lambda_triple(seed=5)
    assert result.ok and result.checked == 5786
    assert calls == [q if q % 2 else q // 2 for q in range(1, 602) if q % 4]


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
    result = suite_sqrt_mod()
    assert (result.checked, result.failed) == (288_805, 3)
    assert result.failures == ["sqrt_mod(0,3,2)=[0, 3, 7] want [0, 3, 6]",
                               "sqrt_mod(1,5,1)=[1] want [1, 4]",
                               "sqrt_mod(4,5,1)=[2, 4] want [2, 3]"]


def test_rho_envelope_checks_every_draw_in_bounded_slabs(monkeypatch):
    # with the series wrong everywhere, every check fails; the series sees
    # every draw in the scalar order, at most 32 t and 2**12 phases a call
    calls = []

    def wrong(D, t):
        calls.append((D, t.tolist()))
        return asymptotic.rho(t) + 10.0

    monkeypatch.setattr(asymptotic, "rho_fourier", wrong)
    result = suite_rho_envelope(seed=5)
    rng = random.Random(5)
    want = []
    for D in (10, 100, 1000):
        for _ in range(1000):
            t = rng.uniform(-5.0, 5.0)
            if min(t % 1.0, 1.0 - t % 1.0) < 1e-3:
                t += 2e-3
            want.append((D, t))
    assert result.failed == result.checked == len(want) == 3000
    assert [(D, t) for D, ts in calls for t in ts] == want
    assert [re.match(r"D=(\d+) t=(\S+):", f).groups() for f in result.failures] == [
        (str(D), f"{t:.6f}") for D, t in want[:STORED]]
    assert [(D, len(ts)) for D, ts in calls] == ([(10, 32)] * 31 + [(10, 8)] + [(100, 32)] * 31
                                                 + [(100, 8)] + [(1000, 4)] * 250)


def test_gauss_closed_checks_only_the_evaluator(monkeypatch):
    # with the evaluator wrong everywhere, every check fails: no entry is
    # compared against a closed form computed by the suite itself
    monkeypatch.setattr(expsums, "gauss_closed_odd", _too_large)
    result = suite_gauss_closed(seed=5)
    rng = random.Random(5)
    want = []
    for q in range(1, 302, 2):
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
    assert result.failed == result.checked == len(want) == 18_935
    assert got == want[:STORED]


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
    result = suite_congruent_bound()
    qs = [q for q in range(1, 201) if q % 8]
    assert result.failed == result.checked == 525
    assert result.failures == [
        f"T({H},{q})=-1 outside [0, {len(lambdasums.solve_circle(q)) * (H / q + 1) ** 2:.2f}]"
        for H in (10, 50, 100) for q in qs]

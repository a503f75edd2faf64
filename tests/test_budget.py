"""The one memory budget: a single refusal site, no budget parameters, and
stated bytes that bound what each allocator really holds at its peak."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sqfpairs import asymptotic, counting, expsums, lambdasums, ntcore
from sqfpairs.ntcore import budget_scope, check_bytes

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqfpairs"


def _raises_budget_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "BudgetError"


def test_one_budget_check_and_no_budget_parameter():
    raise_sites, budget_params = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for func in functions:
            args = func.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            if "memory_budget" in names:
                budget_params.append(f"{path.stem}.{func.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and _raises_budget_error(node):
                owners = [f.name for f in functions if node in ast.walk(f)]
                raise_sites.append(f"{path.stem}.{owners[-1] if owners else '<module>'}")
    assert raise_sites == ["ntcore.check_bytes"]
    assert budget_params == []


def _congruent_pair_count(H):
    return counting.congruent_pair_count(H, 10**6 + 3)


@pytest.mark.parametrize("allocate,n", [
    (ntcore.primes_upto, 10**6),
    (ntcore.primes_upto, 10**7),
    (ntcore.mobius_sieve, 10**6),
    (asymptotic.constant_c, 10**6),
    (_congruent_pair_count, 10**6),
    (counting.count_pairs_direct, 300),
    (counting.count_pairs_direct, 8000),
])
def test_peak_is_within_the_stated_bytes(monkeypatch, allocate, n):
    stated = []

    def record(nbytes, what):
        stated.append(nbytes)
        check_bytes(nbytes, what)

    for module in (ntcore, counting, asymptotic):
        monkeypatch.setattr(module, "check_bytes", record)
    tracemalloc.start()
    try:
        allocate(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stated and peak <= max(stated)


def test_a_larger_budget_raises_the_ceiling(monkeypatch):
    monkeypatch.delenv("SQFPAIRS_MEMORY_BUDGET", raising=False)
    q = 20_000_000  # above the default ceiling of 2**24 residues
    with pytest.raises(ntcore.BudgetError, match="ceiling"):
        expsums._check_table(q, "solve_circle")
    with budget_scope(4_000_000_000):
        assert expsums._check_table(q, "solve_circle") == q


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Admits every per-residue table mod 20011 (a prime), and little more.
_TABLES_MOD_20011 = 128 * 20011 + 1000


@pytest.mark.parametrize("evaluate,m", [(lambdasums.lambda_direct, 0),
                                        (expsums.kloosterman_direct, 1)])
def test_broadcast_direct_sums_state_their_grid(evaluate, m):
    # 20,000 pairs mod 101 hold 48 bytes a pair and one chunk of 20,000
    # pairs x 1 term at 32 bytes an entry, far more than their tables
    n, stated = np.arange(20_000), 1_600_000

    def refused():
        with budget_scope(stated - 1), pytest.raises(ntcore.BudgetError, match="20000 pairs"):
            evaluate(101, n, m)

    assert _traced_peak(refused) < 2**20
    with budget_scope(stated):
        assert evaluate(101, n, m).shape == n.shape
    # the whole grid of 200 pairs x about 20011 residues (92 MiB) is never
    # held, so the tables' budget admits the chunked sum
    with budget_scope(_TABLES_MOD_20011):
        assert evaluate(20011, np.arange(200), m).shape == (200,)


def test_lambda_fast_odd_reads_the_row_for_few_pairs_mod_a_large_l():
    def run():
        with budget_scope(_TABLES_MOD_20011):
            lambdasums.lambda_fast_odd(20011, np.arange(200), 0)

    assert _traced_peak(run) < 4 * 2**20


@pytest.mark.parametrize("count", [
    counting.count_pairs_mobius,
    pytest.param(lambda H: counting.count_pairs_mobius_truncated(H, 2 * H * H), id="truncated"),
])
def test_mobius_identity_refused_before_its_sieve(count):
    # the Moebius sieve to sqrt(2H^2 + 1) and its list of d took 8.1 MiB
    H = 200_000

    def refused():
        with budget_scope(48 * H - 1), pytest.raises(ntcore.BudgetError):
            count(H)

    assert _traced_peak(refused) < 2**20


@pytest.mark.parametrize("evaluate,units,dmax", [(asymptotic.dirichlet_tail_bound, 20, 10**4),
                                                 (asymptotic.dirichlet_partial_sum, 1, 10**5)])
def test_dirichlet_float_arrays_are_stated(evaluate, units, dmax):
    # the Moebius sieve's 3 bytes per value fit this budget; the float
    # arrays beside it do not
    def refused():
        with budget_scope(3 * (units * dmax + 1)), pytest.raises(ntcore.BudgetError):
            evaluate(dmax)

    assert _traced_peak(refused) < 2**20


@pytest.mark.parametrize("allocate,n", [
    (asymptotic.dirichlet_tail_bound, 10**4),
    (asymptotic.dirichlet_partial_sum, 10**5),
    pytest.param(lambda q: expsums.kloosterman_direct(q, np.arange(100), 1), 2003,
                 id="kloosterman_direct-grid"),
    pytest.param(lambda q: lambdasums.lambda_direct(q, np.arange(100), 0), 2003,
                 id="lambda_direct-grid"),
])
def test_grids_and_float_arrays_within_the_stated_bytes(monkeypatch, allocate, n):
    stated = []

    def record(nbytes, what):
        stated.append(nbytes)
        check_bytes(nbytes, what)

    for module in (ntcore, expsums, asymptotic):
        monkeypatch.setattr(module, "check_bytes", record)
    peak = _traced_peak(lambda: allocate(n))
    assert stated and peak <= max(stated)


def _kloosterman_grid(q, n, m):
    # the whole (pairs x units) grid in one step: the reference for the chunks
    units = np.array([x for x in range(1, q + 1) if math.gcd(x, q) == 1])
    invs = np.array([pow(int(x), -1, q) if q > 1 else 0 for x in units])
    t = (np.multiply.outer(n, units) + np.multiply.outer(m, invs)) % q
    return np.exp(2j * np.pi * t / q).sum(axis=-1)


def _lambda_grid(q, n, m):
    sols = lambdasums.solve_circle(q)
    t = (np.multiply.outer(n, sols.xs) + np.multiply.outer(m, sols.ys)) % q
    return np.exp(2j * np.pi * t / q).sum(axis=-1)


@pytest.mark.parametrize("evaluate,whole", [(expsums.kloosterman_direct, _kloosterman_grid),
                                            (lambdasums.lambda_direct, _lambda_grid)])
@pytest.mark.parametrize("q,pairs", [
    (7, expsums.CHUNK_ENTRIES + 5000),  # blocks of pairs, one term per chunk
    (40_009, 2),  # one block of pairs, chunks of terms
    (2003, 100),  # one block of 100 pairs, 327 terms per chunk
])
def test_direct_sums_in_chunks(evaluate, whole, q, pairs):
    rng = np.random.default_rng(q)
    n = rng.integers(0, q, size=pairs)
    m = rng.integers(0, q, size=pairs)
    got = evaluate(q, n, m)
    assert got.shape == (pairs,)
    assert np.abs(got - whole(q, n, m)).max() <= 1e-9 * q
    # beside the per-residue tables (128 bytes per residue) and, per pair,
    # the flat arguments and the sums (48 bytes), a chunk's at most
    # CHUNK_ENTRIES phases and their indices take under 1 MiB; the whole
    # grid of 100 pairs mod 2003 took 4.6 MiB
    assert _traced_peak(lambda: evaluate(q, n, m)) <= 128 * q + 48 * pairs + 2**20

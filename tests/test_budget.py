"""The one memory budget: a single refusal site, no budget parameters, and
stated bytes that bound what each allocator really holds at its peak."""

import ast
import math
from functools import partial
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
    (asymptotic.constant_c, 10**4),  # one chunk's scratch is over 4 bytes per unit of P
    (asymptotic.constant_c, 10**6),
    (asymptotic.constant_c, 5 * 10**6),
    (_congruent_pair_count, 10**6),
    pytest.param(partial(asymptotic.rho_fourier, t=np.zeros(16)), 10**4, id="rho_fourier-10000"),
])
def test_peak_is_within_the_stated_bytes(monkeypatch, traced_peak, allocate, n):
    # the pair probe's own statement bounds its trace in
    # tests/test_counting.py::test_probe_traces_within_its_stated_bytes
    stated = []

    def record(nbytes, what):
        stated.append(nbytes)
        check_bytes(nbytes, what)

    for module in (ntcore, counting, asymptotic):
        monkeypatch.setattr(module, "check_bytes", record)
    with traced_peak() as traced:
        allocate(n)
    assert stated and traced.peak <= max(stated)


@pytest.mark.parametrize("budget,D,t", [
    pytest.param(10**5, 10**4, np.zeros(16), id="D10000-16-points"),
    pytest.param(ntcore.DEFAULT_MEMORY_BUDGET, 10**12, 0.3, id="D1e12"),
])
def test_rho_fourier_refused_before_its_phases(traced_peak, budget, D, t):
    # unrefused, the first ran on 4 MB of phases and the second ended in
    # numpy's MemoryError
    with traced_peak() as traced, budget_scope(budget), \
            pytest.raises(ntcore.BudgetError, match="rho_fourier"):
        asymptotic.rho_fourier(D, t)
    assert traced.peak < 64 * 2**10


def test_a_larger_budget_raises_the_ceiling(monkeypatch):
    monkeypatch.delenv("SQFPAIRS_MEMORY_BUDGET", raising=False)
    q = 20_000_000  # above the default ceiling of 2**24 residues
    with pytest.raises(ntcore.BudgetError, match="ceiling"):
        expsums._check_table(q, "solve_circle")
    with budget_scope(4_000_000_000):
        assert expsums._check_table(q, "solve_circle") == q


# Admits every per-residue table mod 20011 (a prime), and little more.
_TABLES_MOD_20011 = 128 * 20011 + 1000


@pytest.mark.parametrize("evaluate,m", [(lambdasums.lambda_direct, 0),
                                        (expsums.kloosterman_direct, 1)])
def test_broadcast_direct_sums_state_their_grid(traced_peak, evaluate, m):
    # 20,000 pairs mod 101 hold 48 bytes a pair and one chunk of 20,000
    # pairs x 1 term at 32 bytes an entry, far more than their tables
    n, stated = np.arange(20_000), 1_600_000
    with traced_peak() as traced, budget_scope(stated - 1), \
            pytest.raises(ntcore.BudgetError, match="20000 pairs"):
        evaluate(101, n, m)
    assert traced.peak < 2**20
    with budget_scope(stated):
        assert evaluate(101, n, m).shape == n.shape
    # the whole grid of 200 pairs x about 20011 residues (92 MiB) is never
    # held, so the tables' budget admits the chunked sum
    with budget_scope(_TABLES_MOD_20011):
        assert evaluate(20011, np.arange(200), m).shape == (200,)


@pytest.mark.parametrize("evaluate,q", [(expsums.gauss_closed_odd, 101),
                                        (lambdasums.lambda_fast_odd, 101),
                                        (lambdasums.lambda_any, 202)])
def test_broadcast_evaluators_state_their_pairs(traced_peak, evaluate, q):
    # 200,000 pairs took 10.8-13.7 MiB; refused, they hold only their
    # reduced arguments (3.1 MiB)
    rng = np.random.default_rng(q)
    n = rng.integers(1, 101, size=200_000)  # units mod 101
    m = rng.integers(0, q, size=200_000)
    with traced_peak() as traced, budget_scope(200_000), \
            pytest.raises(ntcore.BudgetError, match="200000 pairs"):
        evaluate(q, n, m)
    assert traced.peak < 4 * 2**20


def test_lambda_fast_odd_reads_the_row_for_few_pairs_mod_a_large_l(traced_peak):
    n = np.arange(200)
    with traced_peak() as traced, budget_scope(_TABLES_MOD_20011):
        lambdasums.lambda_fast_odd(20011, n, 0)
    assert traced.peak < 4 * 2**20


@pytest.mark.parametrize("count", [
    counting.count_pairs_mobius,
    pytest.param(lambda H: counting.count_pairs_mobius_ladder([H // 2, H]), id="ladder"),
])
def test_mobius_identity_refused_before_its_sieve(traced_peak, count):
    # the Moebius sieve to sqrt(2H^2 + 1) and its list of d took 8.1 MiB
    H = 200_000
    with traced_peak() as traced, budget_scope(48 * H - 1), pytest.raises(ntcore.BudgetError):
        count(H)
    assert traced.peak < 2**20


@pytest.mark.parametrize("evaluate,units,dmax", [(asymptotic.dirichlet_tail_bound, 20, 10**4),
                                                 (asymptotic.dirichlet_partial_sum, 1, 10**5)])
def test_dirichlet_float_arrays_are_stated(traced_peak, evaluate, units, dmax):
    # the Moebius sieve's 3 bytes per value fit this budget; the float
    # arrays beside it do not
    with traced_peak() as traced, budget_scope(3 * (units * dmax + 1)), \
            pytest.raises(ntcore.BudgetError):
        evaluate(dmax)
    assert traced.peak < 2**20


def _on_pairs(evaluate):
    """For q, evaluate(q, n, m) on 50,000 pairs, every n a unit mod q: far
    more pairs than residues, so the pairs' statement is the larger.  The
    pairs are the caller's, so they are drawn before the call is traced."""
    def prepare(q):
        rng = np.random.default_rng(q)
        units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
        return partial(evaluate, q, units[rng.integers(0, units.size, 50_000)],
                       rng.integers(0, q, 50_000))
    return prepare


@pytest.mark.parametrize("prepare,n", [
    pytest.param(lambda n: partial(asymptotic.dirichlet_tail_bound, n), 10**4,
                 id="dirichlet_tail_bound-10000"),
    pytest.param(lambda n: partial(asymptotic.dirichlet_partial_sum, n), 10**5,
                 id="dirichlet_partial_sum-100000"),
    pytest.param(lambda q: partial(expsums.kloosterman_direct, q, np.arange(100), 1), 2003,
                 id="kloosterman_direct-grid"),
    pytest.param(lambda q: partial(lambdasums.lambda_direct, q, np.arange(100), 0), 2003,
                 id="lambda_direct-grid"),
    *[pytest.param(_on_pairs(evaluate), q, id=f"{evaluate.__name__}-{q}")
      for evaluate, q in [(expsums.gauss_closed_odd, 315), (expsums.gauss_closed_odd, 3465),
                          (lambdasums.lambda_fast_odd, 315), (lambdasums.lambda_fast_odd, 3465),
                          (lambdasums.lambda_any, 630), (lambdasums.lambda_any, 6930),
                          (lambdasums.lambda_any, 60062)]],
])
def test_grids_and_float_arrays_within_the_stated_bytes(monkeypatch, traced_peak, prepare, n):
    # prepare(n) builds the arguments and returns the call; only the call
    # is traced
    stated = []

    def record(nbytes, what):
        stated.append(nbytes)
        check_bytes(nbytes, what)

    for module in (ntcore, expsums, asymptotic):
        monkeypatch.setattr(module, "check_bytes", record)
    call = prepare(n)
    with traced_peak() as traced:
        call()
    assert stated and traced.peak <= max(stated)


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
def test_direct_sums_in_chunks(traced_peak, evaluate, whole, q, pairs):
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
    with traced_peak() as traced:
        evaluate(q, n, m)
    assert traced.peak <= 128 * q + 48 * pairs + 2**20

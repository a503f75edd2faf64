"""The one memory budget: a single refusal site, no budget parameters, and
stated bytes that bound what each allocator really holds at its peak."""

import ast
import tracemalloc
from pathlib import Path

import pytest

from sqfpairs import asymptotic, counting, expsums, ntcore
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

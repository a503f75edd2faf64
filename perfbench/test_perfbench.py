"""Fast tests of the benchmark itself, on tiny workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# S(10) = 78 and S(20) = 302; residue-count runs 296 checks for every seed.
TINY = {
    "scan": run.ScanWorkload({10: 78, 20: 302}, 1000),
    "verify": run.VerifyWorkload({"residue-count": 296}),
}


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_spec():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name, capsys):
    result = run.run(name, TINY[name], seed=3, seconds=0, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Each time is the median of the measured times over the host slowdown.
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    samples = [r for r in rows if r["row"] == "sample"]
    setups = [r for r in rows if r["row"] == "setup"]
    for metric, key, records in (("wall_s", "wall_s", samples), ("setup_s", "setup_s", setups)):
        expected = statistics.median(r[key] / r["host_slowdown"] for r in records)
        assert result["metrics"][metric]["value"] == pytest.approx(expected)


def test_host_probe_is_stopped_and_times_both_kernels():
    with run.HostProbe(60, max(os.sched_getaffinity(0))) as probe:
        start = time.monotonic()
        time.sleep(0.5)
        end = time.monotonic()
    assert probe.proc.returncode == 0
    assert {name for _, _, name in probe.runs} == {"py", "mem"}
    weights = {"py": 0.5, "mem": 0.5}
    assert probe.slowdown(start, end, weights) == pytest.approx(
        (probe.slowdown(start, end, {"py": 1.0}) * probe.slowdown(start, end, {"mem": 1.0})) ** 0.5)
    with pytest.raises(RuntimeError):
        probe.slowdown(end + 60, end + 61, weights)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(name, monkeypatch):
    monkeypatch.setattr(run, "SCAN_S", TINY["scan"].S_by_H)  # a small threaded-probe height
    result = run.run(name, TINY[name], seed=3, seconds=0, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cli.main.calls"]["value"] == 1


def test_wrong_reference_value_counts_as_failed():
    result = run.run("scan", run.ScanWorkload({10: 78, 20: 303}, 1000), seed=3, seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0


def test_each_wrong_row_is_one_failed_operation():
    rows = [{"H": 10, "S": 78}, {"H": 20, "S": 302}]
    outcome = run.ScanWorkload({10: 78, 20: 303}, 1000).check(3, 0, json.dumps({"rows": rows}))
    assert (outcome.attempted, outcome.failed) == (3, 1)  # two rows and the exit code


def _suite(name, ok, checked):
    return {"name": name, "ok": ok, "checked": checked, "elapsed": 0.01,
            "failures": [] if ok else ["x"]}


def test_wrong_reference_check_count_counts_as_failed():
    workload = run.VerifyWorkload({"residue-count": 295})
    outcome = workload.check(3, 0, json.dumps([_suite("residue-count", True, 296)]))
    assert (outcome.attempted, outcome.failed) == (3, 1)  # verdict, count, exit code


def test_failing_or_missing_suite_counts_as_failed():
    workload = run.VerifyWorkload({"residue-count": 296, "jacobi": 3020})
    outcome = workload.check(3, 3, json.dumps([_suite("residue-count", False, 296)]))
    # residue-count fails its verdict; jacobi is missing (verdict and
    # count); the exit code is nonzero.
    assert (outcome.attempted, outcome.failed) == (5, 4)


def test_lambda_table_check_count_follows_the_seed():
    # Counts printed by `sqfpairs verify --suite lambda-table-consistency`.
    assert [run._lambda_table_checks(s) for s in (1, 2, 12345)] == [423, 441, 450]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_main(t, unwrapped_call):
    def leaf():
        time.sleep(0.02)

    leaf = t.wrap("leaf", leaf)

    def main():
        leaf()
        if unwrapped_call:
            time.sleep(0.02)  # work the tracer does not see

    t.wrap("main", main)()
    return t.summary()


def test_spans_under_main_account_for_its_wall_time():
    summary = _traced_main(tracer.Tracer(), unwrapped_call=False)
    wall = summary["functions"]["main"]["total_s"]
    assert summary["covered_s"] == pytest.approx(summary["functions"]["leaf"]["total_s"])
    assert run.spans_account_for(summary["covered_s"], wall, overhead=0.0)


def test_unwrapped_call_under_main_is_not_accounted_for():
    summary = _traced_main(tracer.Tracer(), unwrapped_call=True)
    wall = summary["functions"]["main"]["total_s"]
    assert not run.spans_account_for(summary["covered_s"], wall, overhead=0.0)


def test_self_times_add_up_to_the_top_level_span():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.01)

    leaf = t.wrap("leaf", leaf)

    def outer():
        leaf()
        leaf()
        time.sleep(0.01)

    t.wrap("outer", outer)()
    summary = t.summary()
    functions = summary["functions"]
    assert functions["leaf"]["calls"] == 2 and functions["outer"]["calls"] == 1
    assert functions["leaf"]["self_s"] + functions["outer"]["self_s"] == pytest.approx(
        functions["outer"]["total_s"])
    assert summary["covered_s"] == pytest.approx(functions["leaf"]["total_s"])
    assert functions["outer"]["self_s"] < functions["leaf"]["self_s"]

"""The benchmark gates every verify suite's check count; keep them in step.

`perfbench/run.py` is loaded by path, as `test_traced_names.py` loads the
tracer, so a change that renames, reorders or resizes a verify suite
fails here rather than in a benchmark run.  Every suite's count is read
from the session's one run of all 29 (the `suite_results` fixture).
The ladder probe must also give the gated scan counts SCAN_S at all four
heights (about 1 s, up to H = 16000), so a probe that miscounts fails here
too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sqfpairs import verify
from sqfpairs.counting import count_pairs_ladder

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
SEED = 12345  # the seed of the suite_results fixture


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up by name
    spec.loader.exec_module(run)
    return run


BENCH = _load_run()


def test_gated_suites_are_the_verify_suites_in_order():
    assert list(BENCH.VERIFY_CHECKS) == list(verify.ALL_SUITES)


@pytest.mark.parametrize("name", list(verify.ALL_SUITES))
def test_suite_gives_its_gated_check_count(name, suite_results):
    want = BENCH.VERIFY_CHECKS[name]
    if want is None:
        want = BENCH._lambda_table_checks(SEED)
    result = suite_results[name]
    assert result.ok, result.line()
    assert result.checked == want


def test_ladder_probe_gives_the_gated_scan_counts():
    assert [r.S for r in count_pairs_ladder(list(BENCH.SCAN_S))] == list(BENCH.SCAN_S.values())

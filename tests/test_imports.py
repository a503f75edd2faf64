"""Each command loads only the modules it runs.

`expsums`, `lambdasums` and `verify` are registered lazily by the package
and execute on the first read of one of their attributes; the probe
imports its thread pool only when it runs on more than one worker.  Each
check starts a fresh interpreter, since this test process has long since
loaded every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEFERRED = ("sqfpairs.expsums", "sqfpairs.lambdasums", "sqfpairs.verify")

# Printed as the last line of every script: which deferred modules have
# run (a lazy module's own __dict__ gains __all__ when it executes; reading
# it through object.__getattribute__ does not trigger the load) and
# whether the thread pool was imported.
REPORT = f"""
import json as _json, sys as _sys
print(_json.dumps({{
    "executed": [name for name in {DEFERRED!r} if name in _sys.modules and
                 "__all__" in object.__getattribute__(_sys.modules[name], "__dict__")],
    "pool": "concurrent.futures" in _sys.modules,
}}))
"""


def fresh(script: str) -> tuple[dict, list[str]]:
    """Run `script` then REPORT in a new interpreter with ./src on the
    path; return the report and the lines printed before it."""
    src = str(ROOT / "src")
    env = dict(os.environ, SQFPAIRS_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script + REPORT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    return json.loads(last), lines


def cli_script(*argv: str) -> str:
    return ("import sqfpairs\nfrom sqfpairs import cli\n"
            f"print('rc', cli.main({list(argv)!r}))\n")


@pytest.mark.parametrize("argv", [
    ("scan", "--H-ladder", "10,20,40,80", "--P", "1000", "--output-format", "json"),
    ("count", "--H", "30"),
    ("constant", "--P", "1000"),
], ids=["scan", "count", "constant"])
def test_counting_commands_load_no_exponential_sums_and_no_pool(argv):
    report, lines = fresh(cli_script(*argv))
    assert lines[-1] == "rc 0"
    assert report == {"executed": [], "pool": False}


def test_import_alone_executes_no_deferred_module():
    report, _ = fresh("import sqfpairs\nfrom sqfpairs import cli\n")
    assert report == {"executed": [], "pool": False}


def test_threaded_count_runs_through_the_pool():
    # two workers even on a one-CPU host; the pool's threads read no deferred module
    script = ("import os, sys\nos.cpu_count = lambda: 2\n"
              + cli_script("count", "--H", "300", "--threads", "2", "--method", "value-sieve")
              + "print('thread pool', 'concurrent.futures.thread' in sys.modules)\n")
    report, lines = fresh(script)
    assert "S(300) = " in lines[0] and lines[1:] == ["rc 0", "thread pool True"]
    assert report == {"executed": [], "pool": True}


def test_every_public_name_resolves():
    script = """
import sqfpairs
from sqfpairs import lambdasums
names = {}
exec("from sqfpairs import *", names)
print(json.dumps({
    "missing": [n for n in sqfpairs.__all__ if n not in names],
    "not_in_dir": sorted(set(sqfpairs.__all__) - set(dir(sqfpairs))),
    "same_object": sqfpairs.solve_circle is lambdasums.solve_circle,
}))
"""
    report, lines = fresh("import json\n" + script)
    assert json.loads(lines[0]) == {"missing": [], "not_in_dir": [], "same_object": True}
    assert report["executed"] == ["sqfpairs.expsums", "sqfpairs.lambdasums"]


def test_unknown_attribute_is_an_attribute_error():
    report, lines = fresh("import sqfpairs\nprint(hasattr(sqfpairs, 'no_such_name'))\n")
    assert lines == ["False"] and report["executed"] == []


@pytest.mark.parametrize("argv, expect", [
    (("verify", "--list"), "weil-bound"),
    (("verify", "--suite", "jacobi"), "1/1 suites passed"),
    (("lambda", "--q", "15", "--n", "2", "--m", "3"), "agreement: yes"),
])
def test_exponential_sum_commands_load_on_first_use(argv, expect):
    report, lines = fresh(cli_script(*argv))
    assert expect in lines and lines[-1] == "rc 0"
    assert set(report["executed"]) >= {"sqfpairs.lambdasums"}


def test_tracer_installs_after_the_lazy_import():
    # perfbench/tracer.py reads sys.modules for every layer right after
    # `import sqfpairs; from sqfpairs import cli`, and its install loads them
    script = f"""
import contextlib, importlib.util, io, json, sys
import sqfpairs
from sqfpairs import cli
spec = importlib.util.spec_from_file_location("tracer", {str(ROOT / "perfbench" / "tracer.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer, sqfpairs)
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["verify", "--suite", "weil-bound"])
functions = tracer.summary()["functions"]
print(json.dumps({{"rc": rc, "kloosterman": functions["expsums.kloosterman_direct"]["calls"],
                   "run_suites": functions["verify.run_suites"]["calls"]}}))
"""
    report, lines = fresh(script)
    found = json.loads(lines[0])
    assert found["rc"] == 0 and found["run_suites"] == 1 and found["kloosterman"] > 0
    assert report["executed"] == list(DEFERRED)

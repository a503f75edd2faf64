"""End-to-end and per-layer benchmark of the sqfpairs command line.

    python3 perfbench/run.py --workload scan|verify \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Every sample is a fresh interpreter (perfbench/child.py), so
each one starts, like a user's run, with empty module caches.  The
environment is pinned (PINNED_ENV; SQFPAIRS_MEMORY_BUDGET is removed so
the default budget applies).  The seed goes to `verify --seed`; the
scan workload is deterministic.

--trace 0 measures the end-to-end metrics: set-up time (median over
interpreters that only import the package and parse the arguments),
and the median wall time, CPU time and peak RSS of the workload
samples.  Samples run one at a time (a closed loop with one client)
while the next one is expected to end within --seconds; at least
MIN_SAMPLES run.  All of them run on one CPU beside the host probe
(perfbench/probe.py), and every time is reported at a reference host
speed: divided by the slowdown the probe measured while it was taken.
The rows give the measured times and slowdowns.  --trace 1 runs,
unpinned and without the probe, one untraced and one traced sample,
then the pair probe at the largest scan height with one thread and
with nproc threads, and reports the per-layer metrics.

Every sample's output is checked against reference values recorded at
the seed commit.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before
it are one JSON row per set-up and workload sample and one run record
(machine, versions, commit, seed, arguments, pinned environment).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
PROBE = Path(__file__).resolve().parent / "probe.py"

PINNED_ENV = {
    "SQFPAIRS_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
UNSET_ENV = ("SQFPAIRS_MEMORY_BUDGET",)

# SETUP_PER_SAMPLE set-up interpreters run before the first workload
# sample and after each, so the set-up median spans the run.
SETUP_PER_SAMPLE = 4
MIN_SAMPLES = 2
# A run must end within 180 s; no child may start a wait beyond this.
RUN_DEADLINE_S = 170.0
# End-to-end times are reported at a reference host speed: the one at
# which each probe kernel takes its PROBE_REF_S, about its median on the
# 2-vCPU host the benchmark was tuned on.  A child's time counts the
# probe runs that start within PROBE_WINDOW_S of the child's life.
PROBE_REF_S = {"py": 0.005, "mem": 0.001}
PROBE_WINDOW_S = 0.5
# Set-up is interpreter start and imports: pure-Python work.
SETUP_PROBE_WEIGHTS = {"py": 1.0}

# Reference outputs, recorded at the seed commit.  The threaded-probe
# comparison of a traced run uses the largest height of SCAN_S.
SCAN_P = 1_000_000
SCAN_S = {2000: 3122183, 4000: 12490582, 8000: 49964328, 16000: 199855421}
# Check count of each verify suite; lambda-table-consistency depends on
# the seed and is computed by _lambda_table_checks.
VERIFY_CHECKS = {
    "mobius-identity": 10000,
    "inverse-involution": 500,
    "jacobi": 3020,
    "sqrt-mod-exhaustive": 288805,
    "tau-growth": 100000,
    "weil-bound": 40000,
    "gauss-square": 1001,
    "gauss-reduce-vs-direct": 1200,
    "gauss-closed-vs-direct": 18935,
    "kloosterman-diagonal-real": 1500,
    "lambda-bound": 26260,
    "lambda-growth": 875,
    "lambda-fast-vs-direct": 3311,
    "lambda-any-vs-direct": 5786,
    "lambda-triple-agreement": 5786,
    "lambda-multiplicative": 100,
    "lambda-symmetry": 2630,
    "lambda-prime-square": 44,
    "lambda-table-consistency": None,
    "count-oracle-equivalence": 53,
    "residue-count": 296,
    "congruent-pair-bound": 525,
    "squarefree-density": 1,
    "truncation-report": 4,
    "constant-consistency": 7,
    "dirichlet-form": 1,
    "rho-envelope": 3000,
    "harmonic-envelope": 392,
    "scan-envelope": 7,
}

def _lambda_table_checks(seed: int) -> int:
    # The suite checks one table and 8 sampled entries for every q in
    # 1..35 plus 20 seeded draws from [36, 150], skipping multiples of 8.
    rng = random.Random(seed)
    qs = list(range(1, 36)) + [rng.randrange(36, 151) for _ in range(20)]
    return 9 * sum(1 for q in qs if q % 8)


@dataclass
class Outcome:
    """Operations attempted and failed in one sample, and what it produced."""

    attempted: int = 0
    failed: int = 0
    signature: list = field(default_factory=list)  # outputs a traced run must reproduce
    suite_s: dict = field(default_factory=dict)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _records(stdout, key=None) -> list[dict]:
    """The JSON objects the CLI printed as a list (under `key` if given), or []."""
    try:
        data = json.loads(stdout) if stdout else None
    except json.JSONDecodeError:
        return []
    if key is not None:
        data = data.get(key) if isinstance(data, dict) else None
    return [r for r in data if isinstance(r, dict)] if isinstance(data, list) else []


@dataclass(frozen=True)
class ScanWorkload:
    """`scan` over a ladder; each row's S and the exit code are operations.

    Its time is both pure-Python and NumPy work and random reads from
    the sieve, so the host slowdown weighs both probe kernels alike.
    """

    S_by_H: dict
    P: int
    probe_weights = {"py": 0.5, "mem": 0.5}

    def args(self, seed: int) -> list[str]:
        ladder = ",".join(str(h) for h in self.S_by_H)
        return ["scan", "--H-ladder", ladder, "--P", str(self.P), "--output-format", "json"]

    def check(self, seed: int, rc, stdout) -> Outcome:
        found = {r.get("H"): r.get("S") for r in _records(stdout, "rows")}
        out = Outcome(signature=sorted(found.items()))
        for H, S in self.S_by_H.items():
            out.op(found.get(H) == S)
        out.op(rc == 0)
        return out


@dataclass(frozen=True)
class VerifyWorkload:
    """`verify` over the given suites.

    Each suite is two operations, its verdict and its check count against
    the reference, and the exit code is one more; so one failing suite of
    29 moves ops_ok_frac by 1/59.  Its time is pure-Python work, so the
    host slowdown is that of the pure-Python probe kernel.
    """

    checks: dict
    probe_weights = {"py": 1.0}

    def expected(self, seed: int) -> dict:
        return {
            name: _lambda_table_checks(seed) if count is None else count
            for name, count in self.checks.items()
        }

    def args(self, seed: int) -> list[str]:
        args = ["verify", "--seed", str(seed), "--output-format", "json"]
        for name in self.checks:
            args += ["--suite", name]
        return args

    def check(self, seed: int, rc, stdout) -> Outcome:
        found = {r.get("name"): r for r in _records(stdout)}
        out = Outcome(
            signature=sorted((n, r.get("ok"), r.get("checked")) for n, r in found.items()),
            suite_s={n: r.get("elapsed", 0.0) for n, r in found.items()},
        )
        for name, count in self.expected(seed).items():
            r = found.get(name, {})
            out.op(r.get("ok") is True)
            out.op(r.get("checked") == count)
        out.op(rc == 0)
        return out


WORKLOADS = {
    "scan": ScanWorkload(SCAN_S, SCAN_P),
    "verify": VerifyWorkload(VERIFY_CHECKS),
}


class Runner:
    """Starts child interpreters one at a time and stops each by the run deadline.

    With `cpu` set, every child runs on that CPU alone.
    """

    def __init__(self, deadline: float, cpu: int | None = None):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
        self.env.update(PINNED_ENV, PYTHONPATH=str(ROOT / "src"))
        self.cpu = cpu

    def spawn(self, mode: str, trace: int, args: list[str]):
        """Run one child to its end.

        Returns (record, error): the child's JSON record with the
        monotonic `start` and `end` of the child added, or None and the
        reason it has none.
        """
        if time.monotonic() >= self.deadline:
            return None, "run deadline reached before the sample started"
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, repr(t0), str(trace), "--", *args],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=None if self.cpu is None else (lambda: os.sched_setaffinity(0, {self.cpu})),
        )
        try:
            out, err = proc.communicate(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None, f"{mode} sample killed at the run deadline"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, f"{mode} sample exited {proc.returncode}: {err.strip()[-2000:]}"
        return {**json.loads(lines[-1]), "start": t0, "end": time.monotonic()}, ""


class HostProbe:
    """probe.py, run beside the samples on their CPU while it is open.

    On leaving the `with` block the probe is stopped and waited for, and
    `slowdown` can be asked for any interval of the run.
    """

    def __init__(self, lifetime_s: float, cpu: int):
        self.runs = []
        self.proc = subprocess.Popen(
            [sys.executable, str(PROBE), repr(lifetime_s)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, err = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, err = self.proc.communicate()
        if exc[0] is None:
            if self.proc.returncode != 0:
                raise RuntimeError(f"host probe exited {self.proc.returncode}: {err.strip()[-2000:]}")
            self.runs = json.loads(out)
        return False

    def slowdown(self, start: float, end: float, weights: dict) -> float:
        """The host slowdown over [start, end], widened by PROBE_WINDOW_S.

        Each kernel's slowdown is its mean time there over its
        PROBE_REF_S; they are combined as a geometric mean with the
        given weights.
        """
        result = 1.0
        for kernel, weight in weights.items():
            times = [s for t, s, name in self.runs
                     if name == kernel and start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
            if not times:
                raise RuntimeError(f"the host probe recorded no {kernel} kernel run during a sample")
            result *= (statistics.fmean(times) / PROBE_REF_S[kernel]) ** weight
        return result


def _emit(row: dict) -> None:
    print(json.dumps(row), flush=True)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sqfpairs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _sample(runner: Runner, workload, name: str, seed: int, trace: int, i: int):
    """Run workload sample `i`, traced or not.

    Returns (record, outcome, row): the child record (None if the sample
    produced none), the checked outcome and the sample's output row.
    """
    record, error = runner.spawn("run", trace, workload.args(seed))
    row = {"row": "sample", "workload": name, "trace": trace, "i": i}
    if record is None:
        outcome = workload.check(seed, None, None)
        print(f"sample {i} failed: {error}", file=sys.stderr)
        row["error"] = error
    else:
        outcome = workload.check(seed, record["rc"], record["stdout"])
        row.update({k: record[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "rc")})
    row.update(attempted=outcome.attempted, failed=outcome.failed)
    return record, outcome, row


def measure_end_to_end(runner, workload, name, seed, seconds):
    """(metrics, attempted, failed, versions) of an untraced run.

    Samples run one after another while the next one is expected to end
    within `seconds` (at least MIN_SAMPLES samples).  SETUP_PER_SAMPLE
    set-up interpreters run before the first sample and after each.  The
    host probe runs meanwhile on the children's CPU (`runner.cpu`); once
    it has stopped, every time is divided
    by the host slowdown it measured over the child that took it.  The
    rows, printed then, give the measured times and the slowdown.
    """
    args = workload.args(seed)
    setups, samples, outcomes, rows = [], [], [], []
    with HostProbe(runner.deadline - time.monotonic(), runner.cpu) as probe:
        runner.spawn("setup", 0, args)  # writes bytecode caches; not counted

        def measure_setup():
            for _ in range(SETUP_PER_SAMPLE):
                record, error = runner.spawn("setup", 0, args)
                if record is None:
                    raise RuntimeError(f"set-up sample failed: {error}")
                row = {"row": "setup", "workload": name, "i": len(setups),
                       "setup_s": record["setup_s"]}
                setups.append(record)
                rows.append((row, record))

        measure_setup()
        start = time.monotonic()
        last = 0.0
        while len(samples) < MIN_SAMPLES or time.monotonic() - start + last <= seconds:
            began = time.monotonic()
            record, outcome, row = _sample(runner, workload, name, seed, 0, len(outcomes))
            outcomes.append(outcome)
            rows.append((row, record))
            if record is None:
                break
            samples.append(record)
            measure_setup()
            last = time.monotonic() - began
    for row, record in rows:
        if record is not None:
            weights = SETUP_PROBE_WEIGHTS if row["row"] == "setup" else workload.probe_weights
            record["host_slowdown"] = row["host_slowdown"] = probe.slowdown(
                record["start"], record["end"], weights)
        _emit(row)
    if not samples:
        raise RuntimeError("no workload sample completed")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    def at_reference_speed(records, key):
        return statistics.median(r[key] / r["host_slowdown"] for r in records)

    metrics = {
        "setup_s": (at_reference_speed(setups, "setup_s"), "s"),
        "wall_s": (at_reference_speed(samples, "wall_s"), "s"),
        "cpu_s": (at_reference_speed(samples, "cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
        "ops_ok_frac": (1.0 - failed / attempted, "frac"),
    }
    return metrics, attempted, failed, samples[0]


def spans_account_for(covered_s: float, untraced_wall_s: float, overhead: float) -> bool:
    """Whether the spans called from cli.main cover the untraced wall time.

    They must match it to within the tracing overhead, plus 1 % and 5 ms
    for what they leave out: building the parser, parsing the arguments,
    printing the output and the wrapper calls themselves.  A call from
    cli.main that the tracer missed shows as a gap.
    """
    slack = (abs(overhead) + 0.01) * untraced_wall_s + 0.005
    return abs(covered_s - untraced_wall_s) <= slack


def measure_layers(runner, workload, name, seed):
    """(metrics, attempted, failed, versions) of a traced run.

    One untraced and one traced sample of the workload, then the pair
    probe at the largest scan height with one thread and with nproc
    threads.
    """
    runner.spawn("setup", 0, workload.args(seed))  # writes bytecode caches; not counted
    base, base_out, row = _sample(runner, workload, name, seed, 0, 0)
    _emit(row)
    traced, traced_out, row = _sample(runner, workload, name, seed, 1, 1)
    _emit(row)
    if base is None or traced is None:
        raise RuntimeError("the untraced or the traced sample failed")
    attempted = base_out.attempted + traced_out.attempted
    failed = base_out.failed + traced_out.failed

    nproc = _nproc()
    speedup_H = max(SCAN_S)
    speed, error = runner.spawn("speedup", 0, [str(speedup_H), str(nproc)])
    if speed is None:
        raise RuntimeError(f"threaded-probe sample failed: {error}")
    _emit({"row": "speedup", "workload": name, "H": speedup_H, "threads": nproc,
           **{k: speed[k] for k in ("single_s", "threaded_s", "S")}})
    speed_ok = all(S == SCAN_S[speedup_H] for S in speed["S"])
    attempted += 2
    failed += 0 if speed_ok else 2

    # The traced run must reproduce the untraced outputs exactly, and the
    # spans under cli.main must account for the untraced wall time.
    trace = traced["trace"]
    functions = trace["functions"]
    overhead = traced["wall_s"] / base["wall_s"] - 1.0
    same_outputs = (base_out.signature == traced_out.signature
                    and base["rc"] == traced["rc"])
    accounted = spans_account_for(trace["covered_s"], base["wall_s"], overhead)
    _emit({"row": "trace", "workload": name, "spans": trace["spans"],
           "covered_s": trace["covered_s"], "untraced_wall_s": base["wall_s"],
           "traced_wall_s": traced["wall_s"], "same_outputs": same_outputs,
           "accounted": accounted})
    attempted += 2
    failed += (not same_outputs) + (not accounted)

    metrics = {}
    for fn, stats in functions.items():
        metrics[f"{fn}.calls"] = (stats["calls"], "count")
        metrics[f"{fn}.self_s"] = (stats["self_s"], "s")
        metrics[f"{fn}.total_s"] = (stats["total_s"], "s")
    solve = functions["lambdasums.solve_circle"]
    metrics["lambdasums.solve_circle.first_calls"] = (solve["first_calls"], "count")
    metrics["lambdasums.solve_circle.repeat_calls"] = (solve["repeat_calls"], "count")
    metrics["lambdasums.solve_circle.hit_ratio"] = (
        solve["repeat_calls"] / solve["calls"] if solve["calls"] else 0.0, "ratio")
    metrics["lambdasums.solve_circle.pairs"] = (solve["pairs"], "count")
    metrics["counting.build_sieve.bytes"] = (functions["counting.build_sieve"]["bytes"], "bytes")
    probe = functions["counting.count_pairs_direct"]
    metrics["counting.count_pairs_direct.lookups"] = (probe["lookups"], "count")
    metrics["counting.count_pairs_direct.lookups_per_s"] = (
        probe["lookups"] / probe["self_s"] if probe["self_s"] > 0 else 0.0, "1/s")
    metrics["counting.count_pairs_direct.threads_speedup"] = (
        speed["single_s"] / speed["threaded_s"], "ratio")
    metrics["asymptotic.constant_c.primes"] = (functions["asymptotic.constant_c"]["primes"], "count")
    for suite in VERIFY_CHECKS:
        metrics[f"verify.{suite}.s"] = (base_out.suite_s.get(suite, 0.0), "s")
    metrics["trace_overhead_frac"] = (overhead, "frac")
    return metrics, attempted, failed, base


def run(name: str, workload, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload and return the result object (the last output line)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        metrics, attempted, failed, versions = measure_layers(
            Runner(deadline), workload, name, seed)
    else:
        # The samples and the host probe share one CPU, so the probe
        # measures the speed the samples get.
        metrics, attempted, failed, versions = measure_end_to_end(
            Runner(deadline, cpu=max(os.sched_getaffinity(0))), workload, name, seed, seconds)
    _emit({
        "row": "run",
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cli_args": ["sqfpairs", *workload.args(seed)],
        "probe_ref_s": None if trace else PROBE_REF_S,
        "probe_weights": None if trace else workload.probe_weights,
        "pinned_env": PINNED_ENV,
        "unset_env": list(UNSET_ENV),
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    })
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sqfpairs" / "__init__.py").is_file():
        print(f"no sqfpairs sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind, so that the probe and a running child are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())

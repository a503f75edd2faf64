"""Host-speed probe: times two fixed kernels, again and again.

    python3 probe.py <lifetime_s>

Runs the kernels in turn, sleeping PERIOD_S after each, until SIGTERM or
until <lifetime_s> has passed; then prints one JSON list of
[start, seconds, kernel] triples, one per kernel run, with start on
time.monotonic() (system-wide on Linux, so the parent's clock agrees).

run.py starts it on the CPU the workload samples are pinned to.  On a
shared host that CPU's speed changes by 2x and more over seconds to
minutes, in two ways that need not come together: pure-Python code slows
when another tenant loads the same physical core, and random reads from
a large array slow when other tenants crowd it out of the shared cache.
The "py" kernel is modular arithmetic in pure Python; the "mem" kernel
gathers random bytes from a 64 MB array, as the pair probe of
`sqfpairs scan` does from its 64 MB sieve.  The probe does not import
sqfpairs, so no change to the program under test changes what it
measures.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.0225

_TABLE = np.zeros(64 << 20, dtype=np.uint8)
_TABLE[::3] = 1
_INDICES = np.random.default_rng(1).integers(0, _TABLE.size, 60_000)


def py_kernel() -> int:
    s = 0
    for i in range(1, 12_000):
        s = (s * 31 + pow(i, 5, 1_000_003)) % 1_000_003
    return s


def mem_kernel() -> int:
    return int(_TABLE[_INDICES].sum())


KERNELS = {"py": py_kernel, "mem": mem_kernel}


def main(argv: list[str]) -> int:
    end = time.monotonic() + float(argv[0])
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    runs = []
    while not stopped and time.monotonic() < end:
        for name, kernel in KERNELS.items():
            start = time.monotonic()
            kernel()
            runs.append((start, time.monotonic() - start, name))
            time.sleep(PERIOD_S)
    print(json.dumps(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

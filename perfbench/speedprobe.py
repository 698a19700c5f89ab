"""Host-speed probe: times one fixed piece of work again and again, in a
process of its own, while the benchmark runs.

    python3 perfbench/speedprobe.py

``run.py`` starts it and stops it by closing its standard input; it then
prints one JSON list of ``[start, seconds]`` pairs, ``start`` on the
``time.perf_counter`` clock (CLOCK_MONOTONIC, the same in every process).
Each repetition of a workload is scaled by the probe's timings taken
while it ran, so a stretch in which other tenants slow the host is
cancelled in the very repetition it slowed.  The work shares no code
with the program but resembles what it does: small objects, dict lookups
and hashing in the interpreter, then many small numpy calls.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np

#: pause after each timing, so the probe takes about a fifth of one core
PAUSE_S = 0.05


class _Node:
    __slots__ = ("kind", "args", "attrs")

    def __init__(self, kind, args, attrs):
        self.kind, self.args, self.attrs = kind, args, attrs


def reference_work() -> None:
    memo = {}
    for i in range(3600):
        node = _Node("add", (i % 17, i % 5), {"name": f"v{i % 97}"})
        key = (node.kind, node.args, node.attrs["name"])
        memo[key] = memo.get(key, 0) + len(node.attrs["name"])
        sorted(node.args)
    x = np.random.default_rng(0).random(256)
    for _ in range(900):
        order = np.argsort(x, kind="stable")
        csum = np.cumsum(x[order])
        int(np.argmax(csum - csum.mean()))


def main() -> None:
    stop = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.read()
        stop.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    samples = []
    while True:  # at least one timing, however soon the run stops it
        t0 = time.perf_counter()
        reference_work()
        samples.append((t0, time.perf_counter() - t0))
        if stop.wait(PAUSE_S):
            break
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()

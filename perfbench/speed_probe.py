"""Machine-speed probe, started by run.py as a child process.

    python3 perfbench/speed_probe.py CPU

Pins itself to CPU (when given), prints "ready" once warm, then times a fixed
kernel of about 4 ms every PERIOD_S seconds until it receives SIGTERM. It then
prints one JSON line: [[start, seconds], ...], with start on the
time.perf_counter clock (CLOCK_MONOTONIC, shared by all processes), so the
parent can take the samples that fall inside any interval it timed itself.

The kernel mixes a Python integer loop, small elementwise numpy ops and a
small BLAS matmul, the three kinds of work the program does, in buffers
allocated once. The host this benchmark was built on drifts in speed by up
to a quarter over tens of seconds, and all three kinds of work, on both of
its vCPUs, drift together; so the probe's median over a command measures how
fast the machine ran during that command.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

PERIOD_S = 0.05  # about 6 % of one CPU
MAX_LIFE_S = 900.0  # stop on our own if the parent never does


def main() -> int:
    if len(sys.argv) > 1:
        os.sched_setaffinity(0, {int(sys.argv[1])})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 256))
    y = np.empty_like(x)
    m = rng.standard_normal((128, 128)) / 11.0
    p = np.empty_like(m)

    def kernel():
        s = 0
        for i in range(16000):
            s += i * i
        for _ in range(120):
            np.multiply(x, 0.01, out=y)
            np.exp(y, out=y)
            np.add(y, x, out=y)
            np.maximum(y, x, out=y)
        for _ in range(6):
            np.matmul(m, m, out=p)

    for _ in range(20):
        kernel()
    parent = os.getppid()
    print("ready", flush=True)
    perf = time.perf_counter
    born = perf()
    samples = []
    while not stop and perf() - born < MAX_LIFE_S and os.getppid() == parent:
        t0 = perf()
        kernel()
        samples.append((t0, perf() - t0))
        time.sleep(PERIOD_S)
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

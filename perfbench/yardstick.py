"""A yardstick for the host's speed while the benchmark's commands run.

    python3 perfbench/yardstick.py

The host's speed drifts by tens of percent within seconds, so run.py
keeps this process running beside the commands, on the CPU they run on.
Every GAP_S seconds it does a small fixed computation (about 2 ms)
twice and records when the second started and the CPU time it took; the
first warms the caches, so that what the command left in them does not
count.  It prints "ready" once it samples.  When its stdin closes it
prints one JSON object and exits: "samples", a list of [start, cpu_s]
pairs, start on the clock of time.perf_counter, which all processes
share, and "cpu_s", the CPU time it used in all.  run.py scales a
command's time by the mean of the samples taken while it ran: the
mean, not the median, because a command slowed by a short burst is
slowed by exactly the share of its time the burst takes.

The computation is of the kind legendre-mw does, written here so that
no change to the package can change it: polynomials with coefficients
in F_3[w]/(w^4 - w - 2) as numpy coefficient rows, multiplied column by
column with np.convolve and divided row by row in a Python loop with
tuple coefficient arithmetic.
"""

from __future__ import annotations

import json
import select
import sys
import time

import numpy as np

P, K = 3, 4
# w^4 = w + 2, w^5 = w^2 + 2w, w^6 = w^3 + 2w^2, as coefficient rows
RED = np.array([[1, 2, 0, 0], [0, 1, 2, 0], [0, 0, 1, 2]], dtype=np.int64)

# seconds between samples; each costs about 4 ms, so the commands lose
# about 4% of the CPU to them
GAP_S = 0.1
# what work() returns
CHECK = 21


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    acc = np.zeros((a.shape[0] + b.shape[0] - 1, 2 * K - 1), dtype=np.int64)
    for i in range(K):
        for j in range(K):
            acc[:, i + j] += np.convolve(a[:, i], b[:, j])
    for m in range(2 * K - 2, K - 1, -1):
        acc[:, :K] += acc[:, m, None] * RED[m - K][None, :]
    return acc[:, :K] % P


def coef_mul(x: tuple, y: tuple) -> tuple:
    c = [0] * (2 * K - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                c[i + j] += xi * yj
    for m in range(2 * K - 2, K - 1, -1):
        if c[m]:
            for t in range(K):
                c[m - K + t] += c[m] * int(RED[m - K][t])
    return tuple(v % P for v in c[:K])


def mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a mod b, for b monic."""
    r = a.copy()
    db = b.shape[0] - 1
    for i in range(r.shape[0] - 1, db - 1, -1):
        if not r[i].any():
            continue
        coef = coef_mul(tuple(int(v) for v in r[i]), (1, 0, 0, 0))
        col = np.array(coef, dtype=np.int64)[None, :]
        r[i - db:i + 1] = (r[i - db:i + 1] - mul(b, col)) % P
    return r[:db]


_rng = np.random.default_rng(0)
F = _rng.integers(0, P, size=(12, K))
G = _rng.integers(0, P, size=(8, K))
G[-1] = (1, 0, 0, 0)


def work() -> int:
    """The fixed computation; returns CHECK."""
    return int(mod(mul(F, F), G).sum())


def main() -> int:
    if work() != CHECK:
        print("the yardstick computes a wrong result", file=sys.stderr)
        return 1
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], GAP_S)[0]:
        work()
        start, cpu = time.perf_counter(), time.process_time()
        work()
        samples.append((start, time.process_time() - cpu))
    print(json.dumps({"samples": samples, "cpu_s": time.process_time()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

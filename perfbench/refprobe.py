"""A fixed reference workload that measures how fast the host runs right now.

The benchmark's host is a few vCPUs of a shared machine. Other tenants
slow every instruction for seconds to minutes at a time, by 1.5-1.8x;
the process's CPU time grows with its wall time, so this is not time
stolen from the vCPU. `sampled_call` times this probe while a training
iteration runs, so run.py can scale the iteration's time by how slow the
host was meanwhile and report the program's speed on a quiet host.

The probe's parts are those of a training iteration: Python-level grid
code with numpy calls on 7x7 arrays, forward and backward passes of a
small dense net on a 2048-row batch, and passes over a 4 MB array. They
slow by different amounts (about 1.6x, 1.4x and 1.3x in one slow
phase), and so do the workloads: NoIntrinsic, mostly Python, slows more
than DEIR, whose bonus model adds batched matmuls. The mix is weighted
so that the probe slows by about as much as the workloads do, between
the two. It uses nothing from `src/`, so a change to the program does
not change the probe.
"""
import signal
import statistics
import time

import numpy as np

# About the probe's seconds on a quiet core of the 2-vCPU Xeon host that
# measured baseline.json; scaled times are quoted against it.
QUIET_PROBE_S = 0.0049

_MOVES = ((1, 0), (0, 1), (-1, 0), (0, -1))
_rng = np.random.default_rng(0)
_GRID = _rng.integers(0, 6, size=(11, 11)).astype(np.int64)
_X = _rng.standard_normal((2048, 72)).astype(np.float32)
_W1 = _rng.standard_normal((72, 32)).astype(np.float32) * 0.1
_W2 = _rng.standard_normal((32, 32)).astype(np.float32) * 0.1
_BIG = _rng.standard_normal(1_000_000).astype(np.float32)


def _grid_steps(n):
    """Python-level walk with 7x7 egocentric crops, as in env stepping."""
    cells = _GRID.tolist()
    x, y, acc = 5, 5, 0
    for i in range(n):
        dx, dy = _MOVES[(i * 31 + acc) % 4]
        if 0 <= x + dx < 11 and 0 <= y + dy < 11 and cells[y + dy][x + dx]:
            x, y = x + dx, y + dy
        xs = np.clip(np.arange(x - 3, x + 4), 0, 10)
        ys = np.clip(np.arange(y - 3, y + 4), 0, 10)
        view = np.where(_GRID[np.ix_(ys, xs)] > 2, 1, 0)
        acc = (acc + int(view.sum())) % 997
    return acc


def _dense_steps(n):
    """Forward and backward of a small two-layer net, as in a PPO update."""
    w1, w2 = _W1.copy(), _W2.copy()
    for _ in range(n):
        h = np.maximum(_X @ w1, 0.0)
        out = h @ w2
        g_out = out - out.mean(axis=0, keepdims=True)
        g_h = (g_out @ w2.T) * (h > 0)
        w2 -= 1e-4 * (h.T @ g_out)
        w1 -= 1e-4 * (_X.T @ g_h)
    return float(w1.sum() + w2.sum())


def _array_passes(n):
    """Elementwise passes over an array larger than the L2 cache."""
    return sum(float((_BIG * 1.5 + 2.0).sum()) for _ in range(n))


def probe_s():
    """Wall seconds of one pass of the reference work."""
    t0 = time.perf_counter()
    _grid_steps(30)
    _dense_steps(4)
    _array_passes(2)
    return time.perf_counter() - t0


def host_slowdown(repeats=3):
    """How much slower than a quiet core the host runs now: the median of
    `repeats` probe passes over QUIET_PROBE_S."""
    return statistics.median(probe_s() for _ in range(repeats)) / QUIET_PROBE_S


def sampled_call(fn, interval=0.15):
    """Call fn() and time the probe at its start and then every `interval`
    wall seconds until it returns, from a SIGALRM handler. Returns fn's
    result, its wall and CPU seconds without the probe passes, and the
    host slowdown: the mean probe pass over QUIET_PROBE_S.

    The handler runs between bytecodes of the main thread and touches no
    state of fn, so fn computes what it would compute unsampled."""
    passes = []  # (wall, cpu) seconds of each probe pass

    def sample(*_):
        c0 = time.process_time()
        wall = probe_s()
        passes.append((wall, time.process_time() - c0))

    previous = signal.signal(signal.SIGALRM, sample)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        sample()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0 - sum(w for w, _ in passes)
    cpu = time.process_time() - c0 - sum(c for _, c in passes)
    slowdown = statistics.mean(w for w, _ in passes) / QUIET_PROBE_S
    return result, wall, cpu, slowdown

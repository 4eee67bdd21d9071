"""Training-throughput benchmark for gridexplore.

    python3 perfbench/run.py --workload deir_multiroom --seed 0 \
        --seconds 24 --trace 0

Run it from the repository root; it imports the package from `src/`.
It trains `harness.Trainer` on one workload (see workloads.py) with the
given seed and prints, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 measures the end-to-end metrics. The first iteration is a
warm-up; further iterations are timed until the next would pass
`--seconds`. The checkpoint is saved after iteration 3 and loaded into a
fresh trainer. Seven set-up samples, each its own process, are spread
over the run and their median is reported.

Times are quoted at the speed of a quiet host. The shared host slows
every instruction by 1.5-1.8x for seconds to minutes at a time, so a
fixed reference workload (refprobe.py) is timed at the start of every
iteration and every 0.15 s within it. Each iteration's wall and CPU
time, less the probe passes, is divided by the host slowdown the passes
measured. `frames_per_s` and `cpu_s_per_kframe` come from the medians of
these scaled per-iteration times; each set-up sample is scaled by a
probe in its own process. The unscaled throughput, the median unscaled
iteration time with its sample count, and the slowdowns seen are
printed too.

--trace 1 gives the per-layer metrics. It trains 10 iterations untraced,
then 10 traced iterations of the same seed (tracer.py), and reduces the
spans of the traced warm iterations. A fixed iteration count keeps its
counts repeatable.

Every iteration is checked (checks.py); one that raises or fails a check
counts in `failed`. Temporary files go to `.perfbench/` in the working
directory. BLAS runs on one thread unless OPENBLAS_NUM_THREADS says
otherwise; more BLAS threads than cores is refused.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from refprobe import sampled_call  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHECKED_ITERS = 3  # rows digested and checkpoint taken after these
TRACED_ITERS = 10  # iterations of each trainer in the traced run
SETUP_SAMPLES = 7

END_TO_END = {
    "frames_per_s": "frames/s",
    "cpu_s_per_kframe": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ckpt_bytes": "bytes",
}


def blas_context():
    """(library, threads) of the BLAS numpy loaded; threads from the
    library itself where it says, else from OPENBLAS_NUM_THREADS."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return name, int(getattr(lib, fn)())
    return name, threads


def run_context(workload, seed):
    import numpy as np

    commit = "unknown"  # a source export without git metadata
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas, threads = blas_context()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def setup_sample(workload, seed):
    """Seconds of imports + Trainer construction, in a separate process,
    over the host slowdown that process measured."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         str(seed)], capture_output=True, text=True, timeout=120, check=True)
    setup_s, slowdown = map(float, out.stdout.split()[-2:])
    return setup_s / slowdown


class Run:
    """Iterations of one trainer with their timings and failures. The
    first iteration is the warm-up; the rest are timed. With `probe`,
    the host slowdown is measured during each iteration (refprobe.py)."""

    def __init__(self, trainer, probe=False):
        self.trainer = trainer
        self.frames_per_iter = (trainer.config.rollout_steps
                                * trainer.config.workers)
        self.rows, self.wall, self.cpu = [], [], []
        self.probe = probe
        self.slowdown = []  # host slowdown during each iteration
        self.failures = {}  # iteration index -> reasons
        self.broken = False

    def fail(self, index, reason):
        self.failures.setdefault(index, []).append(reason)

    def iterate(self):
        from checks import row_problems

        index = len(self.rows)
        prev = self.trainer.frames
        try:
            if self.probe:
                row, wall, cpu, slowdown = sampled_call(
                    self.trainer.train_iteration)
            else:
                t0, c0 = time.perf_counter(), time.process_time()
                row = self.trainer.train_iteration()
                wall = time.perf_counter() - t0
                cpu, slowdown = time.process_time() - c0, 1.0
        except Exception:  # a failed iteration is a measured outcome
            traceback.print_exc()
            self.fail(index, "raised")
            self.broken = True
            return
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.slowdown.append(slowdown)
        self.rows.append(row)
        for problem in row_problems(row, prev, self.frames_per_iter):
            self.fail(index, problem)

    def run_until(self, iterations=0, seconds=0.0, between=None):
        """At least `iterations` in all, then more while the next one is
        expected to end within `seconds` of timed time; `between` is
        called after each iteration."""
        while not self.broken and (
                len(self.rows) < iterations
                or (self.wall and self.timed_s() + self.wall[-1] <= seconds)):
            self.iterate()
            if between:
                between()

    @property
    def attempted(self):
        return len(self.rows) + self.broken

    def timed_s(self):
        return sum(self.wall[1:])

    def scaled(self, times):
        """Timed iterations' `times` over the host slowdown during each."""
        return [t / f for t, f in zip(times[1:], self.slowdown[1:])]


def checkpoint_roundtrip(trainer, path):
    """Save, load into a fresh trainer; (bytes, save_s, resume_s, arrays
    that are not bit-equal after the load)."""
    from checks import array_mismatches, model_arrays
    from gridexplore.harness import Trainer

    t0 = time.perf_counter()
    trainer.save(path)
    t1 = time.perf_counter()
    fresh = Trainer(trainer.config, trainer.seed).load(path)
    t2 = time.perf_counter()
    size = os.path.getsize(path)
    bad = array_mismatches(model_arrays(trainer), model_arrays(fresh))
    os.remove(path)
    return size, t1 - t0, t2 - t1, bad


def measure(cfg, workload, seed, seconds, out_dir):
    """--trace 0: the end-to-end metrics."""
    from checks import rows_digest
    from gridexplore.harness import Trainer

    setup = []

    def sample_setup():  # spread over the run, one at most per iteration
        if (len(setup) < SETUP_SAMPLES
                and run.timed_s() >= len(setup) * seconds / SETUP_SAMPLES):
            setup.append(setup_sample(workload, seed))

    run = Run(Trainer(cfg, seed), probe=True)
    sample_setup()
    run.run_until(iterations=CHECKED_ITERS, between=sample_setup)
    if run.broken:
        return [run], {}
    ckpt_bytes, _, _, bad = checkpoint_roundtrip(
        run.trainer, os.path.join(out_dir, f"{workload}.ckpt"))
    if bad:
        run.fail(CHECKED_ITERS - 1, f"checkpoint arrays differ: {bad}")
    digest = rows_digest(run.rows[:CHECKED_ITERS],
                         os.path.join(out_dir, f"{workload}.csv"))
    print(f"digest {workload} seed={seed} rows={CHECKED_ITERS} "
          f"sha256={digest} ckpt_bytes={ckpt_bytes}")
    run.run_until(seconds=seconds, between=sample_setup)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload, seed))
    wall, cpu = run.wall[1:], run.cpu[1:]
    kframes = run.frames_per_iter / 1e3
    print(f"iter_s_p50 {statistics.median(wall):.6g} s over {len(wall)} "
          f"timed iterations of {run.frames_per_iter} frames; unscaled "
          f"frames_per_s={run.frames_per_iter * len(wall) / sum(wall):.6g} "
          f"cpu_s_per_kframe={sum(cpu) / (kframes * len(cpu)):.6g}")
    slowdown = run.slowdown[1:]
    print(f"host slowdown median={statistics.median(slowdown):.4g} "
          f"min={min(slowdown):.4g} max={max(slowdown):.4g}; "
          f"wall_s={[round(w, 4) for w in wall]} "
          f"cpu_s={[round(c, 4) for c in cpu]} "
          f"slowdown={[round(s, 3) for s in slowdown]}")
    metrics = {
        "frames_per_s": run.frames_per_iter
        / statistics.median(run.scaled(run.wall)),
        "cpu_s_per_kframe": statistics.median(run.scaled(run.cpu)) / kframes,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ckpt_bytes": ckpt_bytes,
    }
    return [run], {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def measure_layers(cfg, workload, seed, out_dir):
    """--trace 1: the per-layer metrics from a traced run."""
    from gridexplore.harness import Trainer
    from tracer import LAYER_METRICS, Tracer

    untraced = Run(Trainer(cfg, seed))
    untraced.run_until(iterations=TRACED_ITERS)
    tracer = Tracer().install(cfg.method)
    try:
        traced = Run(Trainer(cfg, seed))
        traced.run_until(iterations=TRACED_ITERS)
        if untraced.broken or traced.broken:
            return [untraced, traced], {}
        _, save_s, resume_s, bad = checkpoint_roundtrip(
            traced.trainer, os.path.join(out_dir, f"{workload}.ckpt"))
    finally:
        tracer.uninstall()
    if bad:
        traced.fail(TRACED_ITERS - 1, f"checkpoint arrays differ: {bad}")
    for i, (a, b) in enumerate(zip(untraced.rows, traced.rows)):
        if a != b:
            traced.fail(i, "traced row differs from untraced row")
    for i in tracer.reward_mismatches:
        traced.fail(i, "intrinsic_reward differs from brute force")
    tracer.save(os.path.join(out_dir, f"trace-{workload}-seed{seed}.npz"))
    metrics = tracer.layer_metrics(cfg.method)
    metrics["harness.ckpt_save_s"] = save_s
    metrics["harness.resume_s"] = resume_s
    metrics["trace.overhead_frac"] = (traced.timed_s()
                                      / untraced.timed_s() - 1.0)
    return [untraced, traced], {k: (metrics[k], unit)
                                for k, (unit, _) in LAYER_METRICS.items()}


def summarize(runs, metrics):
    """Print failures and metrics for a reader; return the result object."""
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failures) for r in runs)
    for r in runs:
        for index, reasons in sorted(r.failures.items()):
            print(f"iteration {index + 1} failed: {'; '.join(reasons)}")
    print(f"iters_failed_frac {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "gridexplore")):
        print(f"error: no gridexplore package under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import make_config

    try:
        cfg = make_config(args.workload)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    context = run_context(args.workload, args.seed)
    print("context " + json.dumps(context))
    if context["blas_threads"] > context["nproc"]:
        print(f"error: {context['blas_threads']} BLAS threads exceed "
              f"{context['nproc']} cores", file=sys.stderr)
        return 3

    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        runs, metrics = measure_layers(cfg, args.workload, args.seed, out_dir)
    else:
        runs, metrics = measure(cfg, args.workload, args.seed, args.seconds,
                                out_dir)
    result = summarize(runs, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

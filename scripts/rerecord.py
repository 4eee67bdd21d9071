#!/usr/bin/env python3
"""Re-record cached acceptance runs after a numerics change.

Usage:
    python3 scripts/rerecord.py [TAG ...] [--jobs N]

Each named cache under tests/acceptance_runs/ (all of them when none is
named) is retrained, seed by seed, with the config its gate builds
(`CACHED_RUNS` in tests/test_acceptance.py), through the gate's own
`_run_cached`, which writes the CSV, wall time, config record with the
numerics fingerprint, and bonus weights. Up to N runs train at once, each
in its own process on one BLAS thread. Prints one line per finished run
with its final mean return before and after.
"""
import argparse
import csv
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

# set before numpy loads: each training process uses one BLAS thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests")]

import test_acceptance  # noqa: E402

_FILES = ("csv", "elapsed", "config", "weights")


def _final_return(path):
    if not os.path.exists(path):
        return None
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["mean_return"]) if rows else None


def rerecord_one(tag, cfg, seed, root):
    """Delete run (tag, seed) under root and retrain it through
    `_run_cached`; returns (tag, seed, old final return or None, new
    final return, wall seconds)."""
    stem = os.path.join(root, tag, f"seed{seed}")
    old = _final_return(stem + ".csv")
    for ext in _FILES:
        if os.path.exists(f"{stem}.{ext}"):
            os.remove(f"{stem}.{ext}")
    row, secs = test_acceptance._run_cached(tag, cfg, seed, root=root)
    return tag, seed, old, float(row["mean_return"]), secs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tags", nargs="*", metavar="TAG",
                        help="caches to re-record (default: all)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="runs trained at once")
    args = parser.parse_args(argv)
    runs = test_acceptance.CACHED_RUNS
    unknown = sorted(set(args.tags) - set(runs))
    if unknown:
        parser.error(f"unknown cache {unknown[0]!r}; known: "
                     f"{', '.join(runs)}")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    jobs = [(tag, runs[tag], seed, test_acceptance.CACHE)
            for tag in (args.tags or runs) for seed in runs[tag].seeds]
    with ProcessPoolExecutor(max_workers=args.jobs,
                             mp_context=multiprocessing.get_context(
                                 "spawn")) as pool:
        futures = [pool.submit(rerecord_one, *job) for job in jobs]
        for future in futures:
            tag, seed, old, new, secs = future.result()
            old_text = "none" if old is None else f"{old:.6f}"
            print(f"{tag} seed{seed}: final return {old_text} -> {new:.6f} "
                  f"({secs:.0f} s)", flush=True)


if __name__ == "__main__":
    main()

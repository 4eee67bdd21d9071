#!/usr/bin/env python3
"""Paired before/after runs of perfbench/run.py in two checkouts.

Usage:
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --tag hotpath \\
        --workload deir_multiroom --seeds 100-109 [--trace-seeds 0]

PARENT_DIR and CHANGE_DIR must be git checkouts (e.g. `git clone`) with
no uncommitted change to a tracked file: each run records the commit of
its checkout, and the script refuses a side whose commit it cannot name.

For each seed, `perfbench/run.py --trace 0` runs once in each checkout,
one after the other; the side that runs first alternates from seed to
seed, so a slow spell of the host hits both sides alike. Every run lasts
the `run_seconds` of the change checkout's BENCHMARK.json. Each
`--trace-seeds` seed adds one `--trace 1` run per side, alternating the
same way. The runs are sequential.

The result goes to BENCH_<tag>.json under
`workloads.<workload>`; other workloads already in the file are kept, so
one file can collect several invocations. Per workload it records every
run (metrics, digest line, commit), each side's median and quartiles
per metric, the change's relative gain in the median (positive is
better), whether that gap exceeds the parent's interquartile range, in
how many pairs the change was better, and whether the digests of the
first CSV rows matched in every pair. Whether lower or higher is better
comes from the change checkout's BENCHMARK.json.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np


def parse_seeds(text):
    """'100-109' or '0,1,2' -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def checkout_commit(checkout):
    """The HEAD commit of a clean git checkout; SystemExit otherwise."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        commit = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError) as exc:
        raise SystemExit(f"{checkout}: not a git checkout ({exc})")
    if dirty:
        raise SystemExit(f"{checkout}: tracked files differ from {commit}:"
                         f"\n{dirty}")
    return commit


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run: its result, digest line and commit."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((l for l in lines if l.startswith("digest ")), "")
    return {
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digest": digest,
        "rows_sha256": next((f[len("sha256="):] for f in digest.split()
                             if f.startswith("sha256=")), None),
        "commit": checkout_commit(checkout),
    }


def summarize(parent_runs, change_runs, better):
    """Per metric: both sides' median and quartiles, and the pair wins."""
    out = {}
    for name in parent_runs[0]["metrics"]:
        a = np.array([r["metrics"][name] for r in parent_runs])
        b = np.array([r["metrics"][name] for r in change_runs])
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        pa = np.percentile(a, [25, 50, 75])
        pb = np.percentile(b, [25, 50, 75])
        out[name] = {
            "better": better.get(name),
            "parent": {"q1": pa[0], "median": pa[1], "q3": pa[2]},
            "change": {"q1": pb[0], "median": pb[1], "q3": pb[2]},
            "gain": (sign * (pb[1] - pa[1]) / abs(pa[1])
                     if pa[1] else 0.0),
            "gap_exceeds_parent_iqr": bool(
                abs(pb[1] - pa[1]) > pa[2] - pa[0]),
            "pairs": len(a),
            "change_wins": int((sign * (b - a) > 0).sum()),
            "ties": int((a == b).sum()),
        }
    return out


def benchmark(checkout):
    """Run length and which way each metric is better, from BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    return bench["run_seconds"], better


def paired(parent, change, workload, seeds, seconds, trace):
    """Alternating runs; (parent runs, change runs) in seed order."""
    checkouts = {"parent": parent, "change": change}
    sides = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        sequence = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sequence:
            run = run_once(checkouts[side], workload, seed, seconds, trace)
            run["ran_first"] = side == sequence[0]
            sides[side].append(run)
            print(f"{workload} seed={seed} trace={trace} {side}: "
                  f"{json.dumps(run['metrics'])}", flush=True)
    return sides["parent"], sides["change"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--tag", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 100-109 or 0,1,2")
    parser.add_argument("--trace-seeds", type=parse_seeds, default=[],
                        help="seeds of the --trace 1 pairs")
    args = parser.parse_args(argv)
    out = f"BENCH_{args.tag}.json"
    seconds, better = benchmark(args.change_dir)
    commits = {side: checkout_commit(d) for side, d in
               (("parent", args.parent_dir), ("change", args.change_dir))}

    record = {"seeds": args.seeds, "seconds": seconds, "commits": commits}
    parent_runs, change_runs = paired(args.parent_dir, args.change_dir,
                                      args.workload, args.seeds,
                                      seconds, 0)
    record["end_to_end"] = summarize(parent_runs, change_runs, better)
    record["digests_equal"] = all(
        p["rows_sha256"] == c["rows_sha256"]
        for p, c in zip(parent_runs, change_runs))
    runs = {"parent": parent_runs, "change": change_runs}
    if args.trace_seeds:
        p_trace, c_trace = paired(args.parent_dir, args.change_dir,
                                  args.workload, args.trace_seeds,
                                  seconds, 1)
        record["trace_seeds"] = args.trace_seeds
        record["per_layer"] = summarize(p_trace, c_trace, better)
        runs["parent"] += p_trace
        runs["change"] += c_trace
    record["runs"] = runs

    doc = {}
    if os.path.exists(out):
        with open(out) as fh:
            doc = json.load(fh)
    doc.update({
        "tag": args.tag,
        "what": "perfbench/run.py in a parent and a change checkout, "
                "alternating which runs first; medians and quartiles per "
                "side, change wins per pair",
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, Python "
                   f"{platform.python_version()}, numpy {np.__version__}",
    })
    doc.setdefault("workloads", {})[args.workload] = record
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, s in record["end_to_end"].items():
        print(f"{name:20s} parent {s['parent']['median']:.6g} change "
              f"{s['change']['median']:.6g} gain {s['gain']:+.3f} "
              f"wins {s['change_wins']}/{s['pairs']}")
    print(f"digests equal: {record['digests_equal']}; wrote {out}")


if __name__ == "__main__":
    main()

"""Fast self-test of the benchmark, from the repository root:

    python3 perfbench/selftest.py

At tiny widths it runs every method through the traced measurement and
one method through the end-to-end one, and checks that every named
metric is emitted and finite, that BENCHMARK.json names the same metrics
with the same units, and that a corrupted row and a mismatched
checkpoint are each counted as a failed iteration. Exits 1 on a failure.
"""
import dataclasses
import json
import math
import os
import sys

import run  # sets the BLAS thread defaults before numpy loads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from gridexplore.harness import ExperimentConfig, Trainer  # noqa: E402
from gridexplore.methods import METHODS  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

TINY = dict(task="MultiRoomN2S4", embed_dim=4, hidden=8, channels=(2, 2, 2),
            workers=2, rollout_steps=16, bptt_len=16, minibatch=32,
            model_minibatch=16)
LAYER_UNITS = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
# a valid workload name, for the set-up probes of the end-to-end path
WORKLOAD = "nointrinsic_multiroom"


def require(ok, message):
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def check_metrics(metrics, expected, label):
    names = list(metrics)
    require(names == list(expected), f"{label}: emitted {names}")
    for name, (value, unit) in metrics.items():
        require(unit == expected[name], f"{label}: {name} unit {unit}")
        require(math.isfinite(value), f"{label}: {name} = {value}")


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    require(e2e == run.END_TO_END, f"end_to_end differs: {e2e}")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require(layers == LAYER_UNITS,
            f"per_layer differs: {sorted(set(layers) ^ set(LAYER_UNITS))}")


def failed_with(patch_attr, make_patch, out_dir):
    """Failed-iteration count of a tiny end-to-end run while one Trainer
    method is replaced."""
    original = getattr(Trainer, patch_attr)
    setattr(Trainer, patch_attr, make_patch(original))
    try:
        runs, _ = run.measure(ExperimentConfig(method="DEIR", **TINY),
                              WORKLOAD, 0, 0.0, out_dir)
    finally:
        setattr(Trainer, patch_attr, original)
    return run.summarize(runs, {})["failed"]


def corrupt_second_row(train_iteration):
    def patched(trainer):
        row = train_iteration(trainer)
        if trainer.iteration == 2:
            row = dataclasses.replace(row, value_loss=math.nan)
        return row
    return patched


def mismatch_after_save(save):
    def patched(trainer, path):
        save(trainer, path)
        param = trainer.policy.parameters()[0]
        param.data = param.data + 1.0
    return patched


def main():
    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    check_benchmark_json()
    for method in METHODS:
        cfg = ExperimentConfig(method=method, **TINY)
        runs, metrics = run.measure_layers(cfg, f"selftest-{method}", 0,
                                           out_dir)
        require(run.summarize(runs, metrics)["correct"], method)
        check_metrics(metrics, LAYER_UNITS, method)
    runs, metrics = run.measure(ExperimentConfig(method="DEIR", **TINY),
                                WORKLOAD, 0, 0.0, out_dir)
    require(run.summarize(runs, metrics)["correct"], "end-to-end run")
    check_metrics(metrics, run.END_TO_END, "end-to-end")
    require(failed_with("train_iteration", corrupt_second_row, out_dir) == 1,
            "a corrupted row is not counted as failed")
    require(failed_with("save", mismatch_after_save, out_dir) == 1,
            "a mismatched checkpoint is not counted as failed")
    print("selftest passed")


if __name__ == "__main__":
    main()

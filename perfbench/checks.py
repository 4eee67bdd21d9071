"""Output checks on what the trainer produces, and the row digest."""
from __future__ import annotations

import dataclasses
import hashlib
import math
import os

import numpy as np

from gridexplore.harness import MetricRow, write_csv


def row_problems(row: MetricRow, prev_frames: int, frames_per_iter: int):
    """Reasons a metric row is wrong; empty when it passes."""
    problems = []
    for f in dataclasses.fields(MetricRow):
        value = getattr(row, f.name)
        if not math.isfinite(value):
            problems.append(f"{f.name} is not finite: {value!r}")
    if row.frames != prev_frames + frames_per_iter:
        problems.append(f"frames {row.frames} != {prev_frames} + "
                        f"{frames_per_iter}")
    for name in ("mean_return", "episodic_eff", "lifelong_eff"):
        value = getattr(row, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} {value!r} outside [0, 1]")
    return problems


def model_arrays(trainer):
    """Every policy, optimizer and bonus-model array of a trainer."""
    out = {"policy." + k: v for k, v in trainer.policy.state_arrays().items()}
    out.update(trainer.opt.state_arrays("popt."))
    for mname, module in trainer.method.modules().items():
        for k, v in module.state_arrays().items():
            out[f"m.{mname}.{k}"] = v
    for oname, opt in trainer.method.optimizers().items():
        out.update(opt.state_arrays(f"mo.{oname}."))
    return out


def array_mismatches(expected: dict, got: dict):
    """Names of arrays that are missing or not bit-equal (dtype included)."""
    bad = sorted(set(expected) ^ set(got))
    for name in sorted(set(expected) & set(got)):
        a, b = np.asarray(expected[name]), np.asarray(got[name])
        if (a.dtype != b.dtype or a.shape != b.shape
                or a.tobytes() != b.tobytes()):
            bad.append(name)
    return bad


def rows_digest(rows, path):
    """sha256 of the rows as the trainer's own CSV writer emits them."""
    write_csv(path, rows)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    os.remove(path)
    return digest


def brute_force_reward(mem_obs, mem_traj, e_obs, e_traj, epsilon):
    """The episodic bonus by a per-entry loop, in the float32 order of
    intrinsic.intrinsic_reward."""
    if len(mem_obs) == 0:
        return 0.0
    vals = [((o - e_obs) ** 2).sum() / (np.sqrt(((t - e_traj) ** 2).sum())
                                        + epsilon)
            for o, t in zip(mem_obs, mem_traj)]
    return float(np.min(np.array(vals, dtype=np.float32)))

#!/usr/bin/env python3
"""Probe trajectory embeddings for world facts on scripted DoorKey data.

Loads the bonus model from a training checkpoint of any method whose
model embeds trajectories (DEIR, PlainNovelty, ForwardError,
InverseDriven), or uses a frozen random DEIR discriminator of the
default config with --random; embeds scripted episodes of --task in the
environment the model was trained in (view, noise, hidden obstacles),
trains one small head per probe task, and prints validation losses.
ForwardError trains only its encoder and head, so its trajectory
embeddings pass through the GRU weights it was initialized with.

Usage:
    python3 scripts/probe.py --checkpoint runs/seed0.ckpt [--seed N]
    python3 scripts/probe.py --random [--seed N]
"""
import argparse
import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridexplore.harness import (  # noqa: E402
    CheckpointError,
    ExperimentConfig,
    Trainer,
    probe_losses,
)
from gridexplore.harness.probes import ProbeError  # noqa: E402
from gridexplore.methods import make_method  # noqa: E402
from gridexplore.nn import EmbeddingModel  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint", help="training checkpoint to probe")
    source.add_argument("--random", action="store_true",
                        help="probe a frozen randomly initialized encoder")
    parser.add_argument("--task", default="DoorKey8")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--episodes", type=int, default=40)
    args = parser.parse_args(argv)

    if args.checkpoint:
        try:
            trainer = Trainer.from_checkpoint(args.checkpoint)
        except CheckpointError as exc:
            raise SystemExit(f"{args.checkpoint}: {exc}")
        cfg, method = trainer.config, trainer.method
    else:
        cfg = ExperimentConfig(task=args.task)
        method = make_method(cfg, np.random.default_rng(args.seed), 1)
    model = getattr(method, "model", None)
    if not isinstance(model, EmbeddingModel):
        raise SystemExit(f"{args.checkpoint}: method {cfg.method} has no "
                         "trajectory-embedding model to probe")

    spec = replace(cfg.env_spec(), task=args.task)
    try:
        losses = probe_losses(model, spec, args.seed, args.episodes)
    except ProbeError as exc:
        raise SystemExit(f"probe: {exc}")
    for name, loss in losses.items():
        print(f"{name}: {loss:.6g}")


if __name__ == "__main__":
    main()

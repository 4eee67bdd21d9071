#!/usr/bin/env python3
"""Probe trajectory embeddings for world facts on scripted DoorKey data.

Loads the bonus model from a training checkpoint of any method whose
model embeds trajectories (DEIR, PlainNovelty, ForwardError,
InverseDriven), or uses a frozen random discriminator with --random;
embeds scripted episodes, trains one small head per probe task, and
prints validation losses.

Usage:
    python3 scripts/probe.py --checkpoint runs/seed0.ckpt [--seed N]
    python3 scripts/probe.py --random [--seed N]
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridexplore.envs import N_ACTIONS, EnvSpec  # noqa: E402
from gridexplore.harness import (  # noqa: E402
    Trainer,
    collect_probe_dataset,
    load_checkpoint,
    load_config,
    probe_embeddings,
)
from gridexplore.harness.probes import embed_dataset  # noqa: E402
from gridexplore.intrinsic import DiscModel  # noqa: E402
from gridexplore.nn import EmbeddingModel  # noqa: E402


def model_from_checkpoint(path):
    meta, _ = load_checkpoint(path)
    cfg = load_config(None, dict(
        line.split(" = ", 1) for line in meta["config"]
    ))
    method = Trainer(cfg, meta["seed"]).load(path).method
    model = getattr(method, "model", None)
    if not isinstance(model, EmbeddingModel):
        raise SystemExit(f"{path}: method {cfg.method} has no "
                         "trajectory-embedding model to probe")
    return model, cfg


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
        model, cfg = model_from_checkpoint(args.checkpoint)
        spec = EnvSpec(task=args.task, view_size=cfg.view_size)
    else:
        rng = np.random.default_rng(args.seed)
        model = DiscModel(7, N_ACTIONS, rng)
        spec = EnvSpec(task=args.task)

    data = collect_probe_dataset(spec, args.seed, episodes=args.episodes)
    embeddings, labels = embed_dataset(model, data)
    losses = probe_embeddings(embeddings, labels,
                              np.random.default_rng(args.seed))
    for name, loss in losses.items():
        print(f"{name}: {loss:.6g}")


if __name__ == "__main__":
    main()

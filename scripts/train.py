#!/usr/bin/env python3
"""Train one experiment: per-seed metric CSVs, checkpoints, and a
cross-seed aggregate CSV.

Usage:
    python3 scripts/train.py [--config exp.cfg] [--seed N] [--frames N]
                             [--out DIR] [--resume CKPT] [--quiet]
                             [key=value ...]

Positional key=value pairs override config-file entries, e.g.
`run.method=RND ppo.workers=8`. With --seed, only that seed runs;
otherwise every seed in `run.seeds` is trained and aggregated.
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridexplore.harness import (  # noqa: E402
    ConfigError,
    load_config,
    parse_overrides,
    run_experiment,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="flat key/value config file")
    parser.add_argument("--seed", type=int, help="train only this seed")
    parser.add_argument("--frames", type=int, help="override run.frames")
    parser.add_argument("--out", help="override run.out directory")
    parser.add_argument("--resume", help="checkpoint to resume from "
                                         "(single-seed mode only)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress periodic progress lines")
    parser.add_argument("overrides", nargs="*", metavar="key=value",
                        help="config overrides")
    args = parser.parse_args(argv)

    try:
        overrides = parse_overrides(args.overrides)
        if args.frames is not None:
            overrides["run.frames"] = str(args.frames)
        if args.out is not None:
            overrides["run.out"] = args.out
        if args.seed is not None:
            overrides["run.seeds"] = str(args.seed)
        config = load_config(args.config, overrides)
    except ConfigError as exc:
        parser.error(str(exc))

    if args.resume and args.seed is None:
        parser.error("--resume requires --seed")
    run_experiment(config, progress=not args.quiet, resume=args.resume)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Train one experiment: per-seed metric CSVs, checkpoints, and a
cross-seed aggregate CSV.

Usage:
    python3 scripts/train.py [--config exp.cfg] [--resume] [--quiet]
                             [key=value ...]

Positional key=value pairs override config-file entries, e.g.
`run.method=RND ppo.workers=8 run.seeds=0`. Every seed in `run.seeds`
is trained and aggregated. --resume continues each seed from its
checkpoint `run.out/seedN.ckpt`, if it has one, and trains a seed
without one from the start; the outputs are byte for byte those of a
run that never stopped.
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridexplore.harness import (  # noqa: E402
    CheckpointError,
    ConfigError,
    load_config,
    parse_overrides,
    run_experiment,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="flat key/value config file")
    parser.add_argument("--resume", action="store_true",
                        help="continue each seed from its checkpoint in "
                             "run.out")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress periodic progress lines")
    parser.add_argument("overrides", nargs="*", metavar="key=value",
                        help="config overrides")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, parse_overrides(args.overrides))
        run_experiment(config, progress=not args.quiet, resume=args.resume)
    except ConfigError as exc:
        parser.error(str(exc))
    except CheckpointError as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Train one experiment: per-seed metric CSVs, checkpoints, and a
cross-seed aggregate CSV.

Usage:
    python3 scripts/train.py [--config exp.cfg] [--resume CKPT] [--quiet]
                             [key=value ...]

Positional key=value pairs override config-file entries, e.g.
`run.method=RND ppo.workers=8 run.seeds=0`. Every seed in `run.seeds`
is trained and aggregated. --resume continues the run of one seed from
its checkpoint, so `run.seeds` must then name that seed alone.
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
    parser.add_argument("--resume", help="checkpoint to resume from "
                                         "(run.seeds must name its seed)")
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
        raise SystemExit(f"{args.resume}: {exc}")


if __name__ == "__main__":
    main()

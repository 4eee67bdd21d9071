#!/usr/bin/env python3
"""Aggregate per-seed metric CSVs into mean ± standard error per column.

The seed CSVs must share their header and `frames` column, and each row
must hold one number per header column.

Usage:
    python3 scripts/aggregate.py --out aggregate.csv seed0.csv seed1.csv ...
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridexplore.harness import aggregate_csv  # noqa: E402
from gridexplore.harness.outputs import OutputError  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("seed_csvs", nargs="+", help="per-seed metric CSVs")
    args = parser.parse_args(argv)
    try:
        aggregate_csv(args.out, args.seed_csvs)
    except OutputError as exc:
        raise SystemExit(f"aggregate: {exc}")


if __name__ == "__main__":
    main()

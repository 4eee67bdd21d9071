"""CSV emission: one file per seed plus a cross-seed aggregate."""
from __future__ import annotations

import csv
import math
import os

from .metrics import MetricRow


class OutputError(Exception):
    pass


def _fmt(value):
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".6g")


def write_csv(path, rows):
    """MetricRows -> CSV with a header, floats at 6 significant digits."""
    if not rows:
        raise OutputError("empty metric log")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MetricRow.columns())
        for row in rows:
            writer.writerow([_fmt(getattr(row, c)) for c in MetricRow.columns()])


def _read_csv(path):
    """(header, float rows) of a seed CSV; OutputError if it is missing,
    unreadable or empty, or naming the line of a row whose width differs
    from the header's or that holds a non-numeric cell."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc.strerror}") from exc
    if not lines:
        raise OutputError(f"{path}: empty, no header row")
    header, *rows = lines
    table = []
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise OutputError(f"{path}, line {line}: row width {len(row)}, "
                              f"header width {len(header)}")
        try:
            table.append([float(v) for v in row])
        except ValueError as exc:
            raise OutputError(f"{path}, line {line}: {exc}") from exc
    return header, table


def aggregate_csv(out_path, seed_paths):
    """Mean and standard error per column across per-seed CSVs.

    Every seed CSV must have the first one's header and `frames` column,
    so rows align by position. Standard error uses the sample standard
    deviation; a single seed reports zero."""
    if not seed_paths:
        raise OutputError("no seed files to aggregate")
    headers, tables = zip(*(_read_csv(p) for p in seed_paths))
    header, frames = headers[0], [r[0] for r in tables[0]]
    for path, h, t in zip(seed_paths[1:], headers[1:], tables[1:]):
        if h != header:
            raise OutputError(f"{path}: header differs from {seed_paths[0]}")
        if [r[0] for r in t] != frames:
            raise OutputError(f"{path}: frames column differs from "
                              f"{seed_paths[0]}")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        out_header = ["frames"]
        for col in header[1:]:
            out_header += [f"{col}_mean", f"{col}_stderr"]
        writer.writerow(out_header)
        n = len(tables)
        for i, frame in enumerate(frames):
            row = [_fmt(int(frame))]
            for j in range(1, len(header)):
                vals = [t[i][j] for t in tables]
                mean = sum(vals) / n
                if n > 1:
                    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
                    stderr = math.sqrt(var / n)
                else:
                    stderr = 0.0
                row += [_fmt(mean), _fmt(stderr)]
            writer.writerow(row)

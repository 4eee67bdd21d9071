"""Checkpoint container: JSON metadata plus a packed-array blob.

Layout: magic `GXCK`, u64 JSON length, UTF-8 JSON, then the tensor blob.
Writes are atomic (temp file + rename), so a reader never sees a
partially written checkpoint.
"""
from __future__ import annotations

import json
import os
import struct
import tempfile

from ..nn import BlobError, pack_arrays, unpack_arrays

MAGIC = b"GXCK"
VERSION = 7  # 2: uint8 grid planes and queue rows; 3: fused GRU weights;
             # 4: meta config lines without the fixed PPO recipe;
             # 5: no queue network rows without noise; 6: one env plane
             # array, no episode lengths; 7: header values keyed by part


class CheckpointError(Exception):
    pass


def save_checkpoint(path, meta: dict, arrays: dict) -> None:
    meta = dict(meta, version=VERSION)
    payload = json.dumps(meta, sort_keys=True).encode("utf-8")
    blob = pack_arrays(arrays)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Returns (meta, arrays); raises CheckpointError on any corruption."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise CheckpointError("bad checkpoint magic")
    if len(data) < 12:
        raise CheckpointError("truncated checkpoint header")
    (length,) = struct.unpack("<Q", data[4:12])
    if len(data) < 12 + length:
        raise CheckpointError("truncated checkpoint metadata")
    try:
        meta = json.loads(data[12 : 12 + length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError("corrupt metadata: not a JSON object")
    if meta.get("version") != VERSION:
        raise CheckpointError(f"unsupported checkpoint version "
                              f"{meta.get('version')!r}; this code reads "
                              f"version {VERSION}")
    try:
        arrays = unpack_arrays(data[12 + length :])
    except BlobError as exc:
        raise CheckpointError(f"corrupt array blob: {exc}") from exc
    return meta, arrays

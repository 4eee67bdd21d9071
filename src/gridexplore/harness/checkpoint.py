"""Checkpoint container: one state dict in one packed-array blob. Its
numpy arrays are the blob's entries, in the dict's order; every other
value goes into one JSON object, stored as UTF-8 in the first entry,
`meta`. Writes are atomic (temp file + rename), so a reader never sees a
partially written checkpoint."""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from ..nn import BlobError, pack_arrays, unpack_arrays

VERSION = 9


class CheckpointError(Exception):
    pass


def save_checkpoint(path, state: dict) -> None:
    arrays = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
    meta = {k: v for k, v in state.items() if k not in arrays}
    payload = json.dumps(dict(meta, version=VERSION), sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    blob = pack_arrays({"meta": np.frombuffer(payload, np.uint8), **arrays})
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> dict:
    """Returns the state dict; raises CheckpointError on any corruption or
    a file it cannot read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: "
                              f"{exc.strerror or exc}") from exc
    if data[:4] == b"GXCK":
        raise CheckpointError(f"unsupported checkpoint of version 7 or older; "
                              f"this code reads version {VERSION}")
    try:
        arrays = unpack_arrays(data)
    except BlobError as exc:
        raise CheckpointError(f"corrupt array blob: {exc}") from exc
    try:
        meta = json.loads(arrays.pop("meta").tobytes().decode("utf-8"))
    except (KeyError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError("corrupt metadata: not a JSON object")
    if meta.get("version") != VERSION:
        raise CheckpointError(f"unsupported checkpoint version "
                              f"{meta.get('version')!r}; this code reads "
                              f"version {VERSION}")
    return {**meta, **arrays}

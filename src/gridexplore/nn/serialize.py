# Flat binary parameter blob:
#   magic | u64 entry count | per entry: u64 name len, name (utf-8),
#   u8 dtype code, u64 ndim, u64 dims... | concatenated raw little-endian
#   array data in entry order.
from __future__ import annotations

import struct

import numpy as np

MAGIC = b"GXTB"

# dtype code -> (numpy dtype string, bytes per element); float64 is kept
# so optimizer moments and running statistics survive a round trip
# bit-exact, uint8 so grid planes and integer observations stay 1 byte
_DTYPES = {0: ("<f4", 4), 1: ("<f8", 8), 2: ("|u1", 1)}
_CODES = {"<f4": 0, "<f8": 1, "|u1": 2}


class BlobError(Exception):
    """Malformed or truncated parameter blob."""


def _code_for(arr: np.ndarray) -> int:
    key = np.dtype(arr.dtype).newbyteorder("<").str
    if key not in _CODES:
        raise BlobError(f"unsupported array dtype {arr.dtype}")
    return _CODES[key]


def pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    head = [MAGIC, struct.pack("<Q", len(arrays))]
    body = []
    for name, arr in arrays.items():
        code = _code_for(arr)
        dtype, _ = _DTYPES[code]
        encoded = name.encode("utf-8")
        head.append(struct.pack("<Q", len(encoded)))
        head.append(encoded)
        head.append(struct.pack("<B", code))
        head.append(struct.pack("<Q", arr.ndim))
        head.extend(struct.pack("<Q", d) for d in arr.shape)
        body.append(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return b"".join(head) + b"".join(body)


def unpack_arrays(blob: bytes) -> dict[str, np.ndarray]:
    if blob[:4] != MAGIC:
        raise BlobError("bad magic")
    try:
        off = 4
        (count,) = struct.unpack_from("<Q", blob, off)
        off += 8
        shapes = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<Q", blob, off)
            off += 8
            name = blob[off : off + name_len].decode("utf-8")
            off += name_len
            (code,) = struct.unpack_from("<B", blob, off)
            off += 1
            if code not in _DTYPES:
                raise BlobError(f"unknown dtype code {code}")
            (ndim,) = struct.unpack_from("<Q", blob, off)
            off += 8
            dims = struct.unpack_from(f"<{ndim}Q", blob, off)
            off += 8 * ndim
            shapes.append((name, code, dims))
        out = {}
        for name, code, dims in shapes:
            dtype, itemsize = _DTYPES[code]
            n = int(np.prod(dims)) if dims else 1
            raw = blob[off : off + itemsize * n]
            if len(raw) != itemsize * n:
                raise BlobError("truncated array data")
            out[name] = np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
            off += itemsize * n
        if off != len(blob):
            raise BlobError("trailing bytes after arrays")
        return out
    except (struct.error, UnicodeDecodeError) as exc:
        raise BlobError(f"truncated or corrupt header: {exc}") from exc


def restored(saved, like: np.ndarray) -> np.ndarray:
    """A loaded array (or list) of the shape of the array it replaces,
    cast to its dtype; ValueError on any other shape."""
    if np.shape(saved) != like.shape:
        raise ValueError(f"saved shape {np.shape(saved)} is not {like.shape}")
    return np.array(saved, like.dtype)

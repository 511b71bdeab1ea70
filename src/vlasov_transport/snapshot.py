"""Binary snapshot files for density lattices and field profiles.

Layout, all little-endian:

    bytes 0..15   magic, ASCII "SVMSNAP1" padded with NULs to 16 bytes
    bytes 16..19  u32 nx
    bytes 20..23  u32 nv   (0 marks a 1D field profile)
    bytes 24..31  f64 time
    bytes 32..    row-major f64 lattice, nx*nv values (nx for a profile)

Writing the same state twice produces identical bytes.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["MAGIC", "write_snapshot", "read_snapshot"]

MAGIC = b"SVMSNAP1".ljust(16, b"\x00")
_HEADER = struct.Struct("<16sIId")


def write_snapshot(path, values: np.ndarray, time: float) -> None:
    """Write a density lattice (2D) or field profile (1D) to path."""
    values = np.ascontiguousarray(values, dtype="<f8")
    if values.ndim == 2:
        nx, nv = values.shape
        if nv == 0:
            # nv = 0 marks a profile, so the header cannot say this shape
            raise ValueError("a snapshot lattice needs at least one column")
    elif values.ndim == 1:
        nx, nv = values.shape[0], 0
    else:
        raise ValueError("snapshot values must be 1D or 2D")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, nx, nv, float(time)))
        fh.write(values.tobytes())


def read_snapshot(path):
    """Read a snapshot; returns (values, time).

    values is 2D for a density lattice and 1D for a field profile.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated snapshot header")
        magic, nx, nv, time = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad snapshot magic {magic!r}")
        count = nx * nv if nv else nx
        payload = fh.read()    # not a buffer sized by a header that can lie
    if len(payload) < 8 * count:
        raise ValueError(f"{path}: truncated snapshot payload")
    if len(payload) > 8 * count:
        raise ValueError(f"{path}: trailing bytes after payload")
    values = np.frombuffer(payload, dtype="<f8").astype(float)
    if nv:
        values = values.reshape(nx, nv)
    return values, time

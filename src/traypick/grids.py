"""16-bit PGM raster I/O.

Heightmaps and depth images are stored at 0.01 mm per level; owner maps
store raw instance ids. All files are binary (P5) with maxval 65535,
big-endian sample order per the netpbm format.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

HEIGHT_SCALE = 0.01  # mm per level


def write_pgm16(path: str | Path, data: np.ndarray) -> None:
    """Write a 2-D uint16 array as a binary PGM."""
    arr = np.ascontiguousarray(data, dtype=">u2")
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D array, got shape {data.shape}")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(arr.tobytes())


def read_pgm16(path: str | Path) -> np.ndarray:
    """Read a binary PGM written by :func:`write_pgm16` (or compatible)."""
    with open(path, "rb") as f:
        raw = f.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        # skip whitespace and comment lines
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            pos = raw.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"not a binary PGM: magic {fields[0]!r}")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 65535:
        raise ValueError(f"expected 16-bit PGM (maxval 65535), got {maxval}")
    pos += 1  # single whitespace byte after maxval
    data = np.frombuffer(raw, dtype=">u2", count=width * height, offset=pos)
    return data.reshape(height, width).astype(np.uint16)


def heights_to_levels(heights_mm: np.ndarray) -> np.ndarray:
    """Quantize heights in mm to uint16 levels (0.01 mm per level)."""
    return np.clip(np.round(heights_mm / HEIGHT_SCALE), 0, 65535).astype(np.uint16)


def levels_to_heights(levels: np.ndarray) -> np.ndarray:
    """Inverse of :func:`heights_to_levels` (lossy beyond 0.01 mm)."""
    return levels.astype(np.float64) * HEIGHT_SCALE

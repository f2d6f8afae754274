"""16-bit PGM raster I/O.

Heightmaps and depth images are stored at 0.01 mm per level; owner maps
store raw instance ids. All files are binary (P5) with maxval 65535,
big-endian sample order per the netpbm format.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ParameterError

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
    """Read a binary PGM written by :func:`write_pgm16` (or compatible). A file
    that is not a 16-bit binary PGM (magic P5, maxval 65535) or holds fewer
    samples than its header's width x height raises ParameterError naming it."""
    with open(path, "rb") as f:
        raw = f.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        # skip whitespace and comment lines; past the end every field is empty
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            pos = raw.find(b"\n", pos) + 1 or len(raw)
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise ParameterError(f"{path}: not a binary PGM: magic {fields[0]!r}")
    if not all(f.isdigit() for f in fields[1:]):
        raise ParameterError(f"{path}: PGM header needs width, height and maxval, got {fields[1:]!r}")
    width, height, maxval = (int(f) for f in fields[1:])
    if maxval != 65535:
        raise ParameterError(f"{path}: expected 16-bit PGM (maxval 65535), got {maxval}")
    pos += 1  # single whitespace byte after maxval
    if len(raw) - pos < 2 * width * height:
        raise ParameterError(f"{path}: {width} x {height} samples need {2 * width * height} bytes, "
                             f"the file holds {max(0, len(raw) - pos)}")
    data = np.frombuffer(raw, dtype=">u2", count=width * height, offset=pos)
    return data.reshape(height, width).astype(np.uint16)


def heights_to_levels(heights_mm: np.ndarray) -> np.ndarray:
    """Quantize heights in mm to uint16 levels (0.01 mm per level)."""
    return np.clip(np.round(heights_mm / HEIGHT_SCALE), 0, 65535).astype(np.uint16)


def levels_to_heights(levels: np.ndarray) -> np.ndarray:
    """Inverse of :func:`heights_to_levels` (lossy beyond 0.01 mm)."""
    return levels.astype(np.float64) * HEIGHT_SCALE

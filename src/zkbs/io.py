"""On-disk formats: snapshot binaries, diagnostics CSV, JSON summaries.

Snapshot layout (little-endian throughout):

    bytes 0-3   magic "ZKBS"
    bytes 4-7   format version, u32 (currently 1)
    bytes 8-11  nx, u32
    bytes 12-15 ny, u32
    then        nx * ny float64 grid samples, row-major (x rows)

The diagnostics CSV always carries exactly the columns below, one row
per step boundary, every float printed with repr-faithful %.17g so a
rerun with identical configuration is byte-identical.

JSON reports are strict JSON: a non-finite float (a residual or a norm
that overflowed) is written as one of the strings "nan", "inf" and
"-inf", never as a bare NaN or Infinity token.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .trajectory import Trajectory

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "CSV_COLUMNS",
    "write_snapshot",
    "read_snapshot",
    "write_diagnostics_csv",
    "read_diagnostics_csv",
    "write_json",
]

SNAPSHOT_MAGIC = b"ZKBS"
SNAPSHOT_VERSION = 1
CSV_COLUMNS = ("t", "l2", "h1", "h2", "diss_l2", "diss_h1", "nonlin_flux")


def write_snapshot(path, values: np.ndarray) -> None:
    """Write one real grid snapshot."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    if arr.ndim != 2:
        raise ValueError("snapshot must be a 2-d grid")
    nx, ny = arr.shape
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<III", SNAPSHOT_VERSION, nx, ny))
        fh.write(arr.tobytes(order="C"))


def read_snapshot(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: bad snapshot magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise ValueError(f"{path}: truncated snapshot header")
        version, nx, ny = struct.unpack("<III", header)
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        size, want = os.fstat(fh.fileno()).st_size, 16 + 8 * nx * ny  # before any read
        if size != want:
            what = "truncated snapshot payload" if size < want else "trailing bytes"
            raise ValueError(f"{path}: {what}: a {nx} x {ny} snapshot is {want} bytes, "
                             f"the file is {size}")
        data = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8")
    return data.reshape(nx, ny).astype(float)


def write_diagnostics_csv(path, traj: Trajectory) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i, t in enumerate(traj.times):
            row = (
                f"{t:.17g}",
                f"{traj.l2[i]:.17g}",
                f"{traj.h1[i]:.17g}",
                f"{traj.h2[i]:.17g}",
                f"{traj.diss_l2[i]:.17g}",
                f"{traj.diss_h1[i]:.17g}",
                f"{traj.nonlin_flux[i]:.17g}",
            )
            fh.write(",".join(row) + "\n")


def read_diagnostics_csv(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV columns {header}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    # a run that blew up before its first boundary leaves the header alone
    data = np.array(rows, dtype=float).reshape(-1, len(CSV_COLUMNS))
    return {name: data[:, i] for i, name in enumerate(CSV_COLUMNS)}


def _strict(value):
    """value with every non-finite float inside it replaced by "nan", "inf" or "-inf"."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def write_json(path, payload: dict) -> None:
    text = json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")

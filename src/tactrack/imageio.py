"""File formats for episode data: PFM images, P5 PGM masks, ASCII PLY
clouds and JSON records."""

from __future__ import annotations

import json
import math
import re

import numpy as np

# Netpbm's P5 header: magic, width, height and maxval between whitespace
# and '#' comments to the end of a line, then one whitespace byte.
_SPACE = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PGM_HEADER = re.compile(rb"P5%s(\d+)%s(\d+)%s(\d+)\s" % ((_SPACE,) * 3))
# A PFM size line, stripped: width and height.
_PFM_SIZE = re.compile(rb"(\d+)\s+(\d+)")


def write_json(path, record) -> None:
    """Write `record` as indented JSON with sorted keys and a final newline,
    encoded whole and written at once (`json.dump` writes chunk by chunk)."""
    with open(path, "w") as f:
        f.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def write_pfm(path, data: np.ndarray) -> None:
    """Write a 1- or 3-channel float32 PFM (little-endian, rows bottom-to-top)."""
    data = np.asarray(data, dtype=np.float32)
    if data.ndim == 2:
        header = b"Pf"
    elif data.ndim == 3 and data.shape[2] == 3:
        header = b"PF"
    else:
        raise ValueError("PFM data must be HxW or HxWx3")
    h, w = data.shape[:2]
    with open(path, "wb") as f:
        f.write(header + b"\n")
        f.write(f"{w} {h}\n".encode())
        f.write(b"-1.0\n")  # negative scale marks little-endian
        f.write(np.ascontiguousarray(data[::-1]).tobytes())


def _read_exactly(f, size: int, path) -> bytes:
    """The next `size` bytes of the open file `f`; ValueError naming `path`
    if it ends sooner."""
    data = f.read(size)
    if len(data) < size:
        raise ValueError(f"{path} is truncated: its pixel data needs {size} "
                         f"bytes, found {len(data)}")
    return data


def read_pfm(path) -> np.ndarray:
    """Read a 1- or 3-channel PFM as float32, rows top-to-bottom.  The size
    line must hold two ints > 0, and the scale line a finite nonzero number
    whose sign gives the byte order (negative: little-endian); ValueError
    naming `path` otherwise, or if the pixel data is truncated."""
    with open(path, "rb") as f:
        header = f.readline().strip()
        if header not in (b"PF", b"Pf"):
            raise ValueError(f"not a PFM file: {path}")
        size, scale = f.readline().strip(), f.readline().strip()
        match = _PFM_SIZE.fullmatch(size)
        w, h = (int(v) for v in match.groups()) if match else (0, 0)
        if w == 0 or h == 0:
            raise ValueError(f"PFM size {size!r} is not two ints > 0: {path}")
        try:
            value = float(scale)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value != 0):
            raise ValueError(f"PFM scale {scale!r} is not a finite nonzero "
                             f"number: {path}")
        channels = 3 if header == b"PF" else 1
        count = w * h * channels
        dtype = "<f4" if value < 0 else ">f4"
        data = np.frombuffer(_read_exactly(f, count * 4, path), dtype=dtype)
    shape = (h, w, 3) if channels == 3 else (h, w)
    return np.ascontiguousarray(data.reshape(shape)[::-1], dtype=np.float32)


def write_pgm_mask(path, mask: np.ndarray) -> None:
    """Write a boolean mask as binary P5 PGM (255 inside the mask)."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write((mask.astype(np.uint8) * 255).tobytes())


def read_pgm_mask(path) -> np.ndarray:
    """Read a binary P5 PGM with maxval 1..255 and a Netpbm header
    (`_PGM_HEADER`) as a boolean mask: a pixel is inside where its value is
    above half the maxval."""
    with open(path, "rb") as f:
        header = _PGM_HEADER.match(f.read())
        if header is None:
            raise ValueError(f"not a binary PGM file: {path}")
        w, h, maxval = (int(v) for v in header.groups())
        if not 1 <= maxval <= 255:
            raise ValueError(f"PGM maxval {maxval} is not in 1..255: {path}")
        f.seek(header.end())
        data = np.frombuffer(_read_exactly(f, w * h, path), dtype=np.uint8)
    return data.reshape(h, w) > maxval // 2


def write_ply(path, points: np.ndarray, normals: np.ndarray) -> None:
    """ASCII PLY with x y z nx ny nz properties (millimetres)."""
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(points)}",
        "property float x",
        "property float y",
        "property float z",
        "property float nx",
        "property float ny",
        "property float nz",
        "end_header",
    ]
    rows = np.hstack([points, normals])
    body = (("%.6f %.6f %.6f %.6f %.6f %.6f\n" * len(rows))
            % tuple(rows.ravel().tolist()))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n" + body)


def read_ply(path):
    with open(path) as f:
        line = f.readline().strip()
        if line != "ply":
            raise ValueError(f"not a PLY file: {path}")
        count = 0
        while True:
            line = f.readline()
            if not line:
                raise ValueError(f"PLY header has no end_header: {path}")
            line = line.strip()
            if line.startswith("element vertex"):
                count = int(line.split()[-1])
            if line == "end_header":
                break
        rows = [f.readline().split() for _ in range(count)]
    data = np.asarray(rows, dtype=float).reshape(count, 6)
    return data[:, :3], data[:, 3:6]

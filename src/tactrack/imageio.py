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
# Rows that read_pfm flips per block: flipping a stack of frames in place
# holds one block aside, not a second copy of the stack.
_FLIP_ROWS = 64


def write_json(path, record) -> None:
    """Write `record` as indented JSON with sorted keys and a final newline,
    encoded whole and written at once (`json.dump` writes chunk by chunk)."""
    with open(path, "w") as f:
        f.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _frames(data) -> list:
    """`data` as a list of frames: a list of images of one shape as given,
    or one image as a list of one."""
    frames = data if isinstance(data, list) else [data]
    shape = np.shape(frames[0])
    if any(np.shape(frame) != shape for frame in frames):
        raise ValueError("stacked frames must share one shape")
    return frames


def write_pfm(path, data) -> None:
    """Write a 1- or 3-channel float32 PFM (little-endian, rows bottom-to-top).

    `data` is one HxW or HxWx3 image, or a list of F such frames stacked top
    to bottom into one (F*H)xW[x3] image.  Frames are converted and flipped
    one at a time, so no flipped copy of the whole stack is made.
    """
    frames = _frames(data)
    shape = np.shape(frames[0])
    if len(shape) == 2:
        header = b"Pf"
    elif len(shape) == 3 and shape[2] == 3:
        header = b"PF"
    else:
        raise ValueError("PFM data must be HxW or HxWx3")
    h, w = shape[0] * len(frames), shape[1]
    with open(path, "wb") as f:
        f.write(header + b"\n")
        f.write(f"{w} {h}\n".encode())
        f.write(b"-1.0\n")  # negative scale marks little-endian
        for frame in reversed(frames):
            f.write(np.asarray(frame, dtype=np.float32)[::-1].tobytes())


def _truncated(path, size: int, found: int) -> ValueError:
    return ValueError(f"{path} is truncated: its pixel data needs {size} "
                      f"bytes, found {found}")


def _flip_rows(data: np.ndarray) -> None:
    """Reverse the rows of `data` in place, swapping blocks of at most
    _FLIP_ROWS rows from either end."""
    top, bottom = 0, len(data)
    while bottom - top > 1:
        n = min(_FLIP_ROWS, (bottom - top) // 2)
        block = data[top:top + n].copy()
        data[top:top + n] = data[bottom - n:bottom][::-1]
        data[bottom - n:bottom] = block[::-1]
        top, bottom = top + n, bottom - n


def read_pfm(path) -> np.ndarray:
    """Read a 1- or 3-channel PFM as float32, rows top-to-bottom.  The size
    line must hold two ints > 0, and the scale line a finite nonzero number
    whose sign gives the byte order (negative: little-endian); ValueError
    naming `path` otherwise, or if the pixel data is truncated.  The pixels
    are read straight into the returned array and flipped there."""
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
        shape = (h, w, 3) if header == b"PF" else (h, w)
        data = np.empty(shape, dtype="<f4" if value < 0 else ">f4")
        found = f.readinto(data.reshape(-1).view(np.uint8))
        if found < data.nbytes:
            raise _truncated(path, data.nbytes, found)
    _flip_rows(data)
    return data.astype(np.float32, copy=False)


def write_pgm_mask(path, mask) -> None:
    """Write a boolean mask as binary P5 PGM (255 inside the mask).  `mask`
    is one HxW mask, or a list of F such frames stacked top to bottom into
    one (F*H)xW image."""
    frames = _frames(mask)
    h, w = np.shape(frames[0])
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h * len(frames)}\n255\n".encode())
        for frame in frames:
            f.write((np.asarray(frame, dtype=bool).astype(np.uint8) * 255)
                    .tobytes())


def read_pgm_mask(path) -> np.ndarray:
    """Read a binary P5 PGM with maxval 1..255 and a Netpbm header
    (`_PGM_HEADER`) as a boolean mask: a pixel is inside where its value is
    above half the maxval."""
    with open(path, "rb") as f:
        raw = f.read()
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise ValueError(f"not a binary PGM file: {path}")
    w, h, maxval = (int(v) for v in header.groups())
    if not 1 <= maxval <= 255:
        raise ValueError(f"PGM maxval {maxval} is not in 1..255: {path}")
    found = len(raw) - header.end()
    if found < w * h:
        raise _truncated(path, w * h, found)
    data = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=header.end())
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

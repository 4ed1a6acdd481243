"""Signed-distance primitives used by the tactile renderer.

Each shape evaluates a signed distance (negative inside, positive outside)
for points given in the object frame.  Every primitive carries an offset
pose (object-from-shape) that places it within the object.
The distances are exact for sphere and box; the pyramid uses a half-space
intersection which is a conservative lower bound, which is all sphere
tracing requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .config import ConfigError, require, require_pose
from .geometry import Pose


# Projection onto the surface stops once every point is this close (mm).
PROJECTION_TOLERANCE = 1e-9


def _size(value, what) -> float:
    """A size as a float; ConfigError unless a finite number > 0."""
    return float(require(value, what, 0, strict=True))


def _row_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (N, 3) array, the same bits as
    `np.linalg.norm(v, axis=1)`.  A reduction along the short axis pays
    numpy's per-row overhead; column by column it runs about four times
    faster at a few thousand rows.  `Box` takes its row maximum the same
    way, with nested `np.maximum`."""
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    return np.sqrt(x * x + y * y + z * z)


@dataclass
class ShapeSDF:
    """Base class: signed distance in the object frame.  A subclass must
    define `_sdf_local(points)`, the signed distance of points given in
    the shape's own frame, which `offset` places in the object frame, and
    `descriptor()`, the mapping `shape_from_descriptor` reads back.  It keeps each size as a float:
    ConfigError unless it is a finite number > 0."""

    offset: Pose = field(default_factory=Pose.identity)

    def sdf(self, points: np.ndarray) -> np.ndarray:
        local = geometry.inverse(self.offset).transform_points(points)
        return self._sdf_local(local)

    def gradient(self, points: np.ndarray, eps: float = 1e-5) -> np.ndarray:
        """Finite-difference SDF gradient (unit surface normal away from edges)."""
        grad = np.empty_like(points, dtype=float)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = eps
            grad[:, axis] = (self.sdf(points + step) - self.sdf(points - step)) / (2 * eps)
        return grad

    def project_to_surface(self, points: np.ndarray, iters: int = 12) -> np.ndarray:
        """Move points onto the zero level set by sphere-trace style
        projection, until every |sdf| is below `PROJECTION_TOLERANCE` or
        after `iters` steps."""
        pts = np.asarray(points, dtype=float).copy()
        for _ in range(iters):
            d = self.sdf(pts)
            if np.abs(d).max(initial=0.0) < PROJECTION_TOLERANCE:
                break
            g = self.gradient(pts)
            norm = _row_norm(g)[:, None]
            norm[norm < 1e-12] = 1.0
            pts -= (d[:, None]) * g / norm
        return pts


@dataclass
class Sphere(ShapeSDF):
    radius: float = 6.35

    def __post_init__(self):
        self.radius = _size(self.radius, "sphere radius")

    def _sdf_local(self, points):
        return _row_norm(points) - self.radius

    def descriptor(self):
        return {"type": "sphere", "radius": self.radius,
                "offset": geometry.to_quat_trans(self.offset)}


@dataclass
class Box(ShapeSDF):
    half_extents: tuple = (10.0, 10.0, 10.0)

    def __post_init__(self):
        if not (isinstance(self.half_extents, (list, tuple))
                and len(self.half_extents) == 3):
            raise ConfigError("box half_extents must hold 3 values, got "
                              f"{self.half_extents!r}")
        self.half_extents = tuple(_size(v, "box half_extents")
                                  for v in self.half_extents)

    def _sdf_local(self, points):
        h = np.asarray(self.half_extents, dtype=float)
        q = np.abs(points) - h
        outside = _row_norm(np.maximum(q, 0.0))
        qx, qy, qz = q[:, 0], q[:, 1], q[:, 2]
        inside = np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
        return outside + inside

    def descriptor(self):
        return {"type": "box", "half_extents": list(self.half_extents),
                "offset": geometry.to_quat_trans(self.offset)}


@dataclass
class Pyramid(ShapeSDF):
    """Square pyramid, apex pointing down -z at (0, 0, -height/2)."""

    base_half_length: float = 22.225
    height: float = 12.7

    def __post_init__(self):
        self.base_half_length = _size(self.base_half_length,
                                      "pyramid base_half_length")
        self.height = _size(self.height, "pyramid height")

    def _sdf_local(self, points):
        a, h = self.base_half_length, self.height
        apex = np.array([0.0, 0.0, -h / 2.0])
        rel = points - apex
        scale = 1.0 / np.hypot(h, a)
        # Four side faces through the apex, plus the base plane on top.
        d = np.maximum.reduce([
            (h * rel[:, 0] - a * rel[:, 2]) * scale,
            (-h * rel[:, 0] - a * rel[:, 2]) * scale,
            (h * rel[:, 1] - a * rel[:, 2]) * scale,
            (-h * rel[:, 1] - a * rel[:, 2]) * scale,
            points[:, 2] - h / 2.0,
        ])
        return d

    def descriptor(self):
        return {"type": "pyramid", "base_half_length": self.base_half_length,
                "height": self.height, "offset": geometry.to_quat_trans(self.offset)}


# Each descriptor type's shape class and size fields.
_SHAPE_TYPES = {"sphere": (Sphere, ("radius",)),
                "box": (Box, ("half_extents",)),
                "pyramid": (Pyramid, ("base_half_length", "height"))}


def shape_from_descriptor(desc: dict) -> ShapeSDF:
    """The shape a `descriptor()` describes, or ConfigError naming the field
    that is missing or bad.  The `offset` may be left out (identity)."""
    if not isinstance(desc, dict):
        raise ConfigError(f"a shape descriptor must be a mapping, got {desc!r}")
    if "type" not in desc:
        raise ConfigError(f"a shape descriptor needs a type, got {desc!r}")
    kind = desc["type"]
    if not (isinstance(kind, str) and kind in _SHAPE_TYPES):
        raise ConfigError(f"unknown shape type {kind!r}")
    cls, fields = _SHAPE_TYPES[kind]
    for name in fields:
        if name not in desc:
            raise ConfigError(f"a {kind} shape needs {name}, got {desc!r}")
    offset = require_pose(desc.get("offset", [1, 0, 0, 0, 0, 0, 0]),
                          "shape offset")
    return cls(offset=offset, **{name: desc[name] for name in fields})

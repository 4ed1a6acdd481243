"""Idealized tactile sensor simulator.

The gel rest surface is the plane z = 0 of the sensor frame, with the image
x axis along columns and y along rows, centred on the gel.  An object
pressing into the gel dips below that plane; per-pixel penetration depth is
positive into the gel.  Deformed-surface points therefore sit at z = -depth
in the sensor frame, and surface normals (unit, n_z > 0) are the gel-surface
normals pointing toward the object.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import geometry
from .config import require
from .geometry import Pose
from .shapes import ShapeSDF


@dataclass
class GelConfig:
    """Gel geometry: image resolution (ints >= 4, the least the Poisson solve
    takes), physical extent (mm) and the maximum indentation, finite and > 0;
    pixels map orthographically onto the gel plane."""

    width: int = 64
    height: int = 64
    extent_x: float = 20.0
    extent_y: float = 20.0
    max_indent: float = 1.5

    def __post_init__(self):
        for name in ("width", "height"):
            require(getattr(self, name), f"gel {name}", 4, integer=True)
        for name in ("extent_x", "extent_y", "max_indent"):
            require(getattr(self, name), f"gel {name}", 0, strict=True)

    @property
    def pitch_x(self) -> float:
        return self.extent_x / self.width

    @property
    def pitch_y(self) -> float:
        return self.extent_y / self.height

    def pixel_centers(self):
        """Sensor-frame (x, y) coordinates of every pixel centre, shape
        (H, W).  Read-only: every call on the same grid shares the arrays."""
        return _pixel_centers(self.width, self.height, self.extent_x,
                              self.extent_y)


# typed: a float32 extent divides in float32, so it keys apart from an
# equal float.
@functools.lru_cache(maxsize=8, typed=True)
def _pixel_centers(width, height, extent_x, extent_y):
    x = (np.arange(width) + 0.5) * (extent_x / width) - extent_x / 2.0
    y = (np.arange(height) + 0.5) * (extent_y / height) - extent_y / 2.0
    xs, ys = np.meshgrid(x, y)
    xs.setflags(write=False)
    ys.setflags(write=False)
    return xs, ys


@dataclass
class DepthImage:
    """Per-pixel penetration depth in mm (0 = undisturbed gel) plus contact mask."""

    values: np.ndarray
    mask: np.ndarray


@dataclass(eq=False, frozen=True)
class NormalImage:
    """Per-pixel unit normals (H, W, 3) plus contact mask; (0, 0, 1) away
    from the contact region.

    Images compare and hash by identity, because `tracker` keeps the
    contact cloud reconstructed from an image keyed by the object.  An
    image is therefore read-only once tracked, as a `PointCloud`'s arrays
    are once made: its fields cannot be rebound, and the tracker makes
    both arrays read-only when it keeps the image's cloud.  A deep copy is
    writable again, and a new image to the tracker."""

    values: np.ndarray
    mask: np.ndarray


def _trace_lower_envelope(shape: ShapeSDF, object_from_sensor: Pose,
                          xs, ys, z_start: float, z_range: float,
                          tol: float = 1e-5, max_iters: int = 200):
    """Sphere-trace along +z from z_start; returns (hit, z_surf) per pixel.

    Pixels whose start point is already inside the object are reported as
    hits at z_start.
    """
    n = xs.size
    pts_sensor = np.column_stack([xs.ravel(), ys.ravel(), np.full(n, z_start)])
    rot = object_from_sensor.rotation
    trans = object_from_sensor.translation
    step_dir = rot[:, 2]  # sensor +z expressed in the object frame

    # Only the live rays are marched: their grid indices, points, distances
    # and travel are kept in compact arrays, in grid order, and a ray leaves
    # them once it hits or runs past z_range.
    pts = pts_sensor @ rot.T + trans
    d = shape.sdf(pts)
    hit = d <= tol
    t = np.zeros(n)
    live = np.flatnonzero(~hit & (t < z_range))
    pts, d, t_live = pts[live], d[live], t[live]
    for _ in range(max_iters):
        if not live.size:
            break
        t_live += d
        pts += d[:, None] * step_dir
        d = shape.sdf(pts)
        newly_hit = d <= tol
        hit[live[newly_hit]] = True
        t[live[newly_hit]] = t_live[newly_hit]
        keep = ~newly_hit & (t_live < z_range)
        live, pts, d, t_live = live[keep], pts[keep], d[keep], t_live[keep]
    z_surf = np.where(hit, z_start + t, np.nan)
    return hit.reshape(xs.shape), z_surf.reshape(xs.shape)


def render_depth(shape: ShapeSDF, object_pose: Pose, sensor_pose: Pose,
                 gel: GelConfig) -> DepthImage:
    """Render per-pixel penetration of the object below the gel plane.

    Depth is found by sphere tracing the SDF along the gel normal, clamped
    to [0, max_indent]; the mask marks pixels with positive penetration.
    """
    xs, ys = gel.pixel_centers()
    margin = 0.1
    z_start = -(gel.max_indent + margin)
    object_from_sensor = geometry.compose(geometry.inverse(object_pose), sensor_pose)
    hit, z_surf = _trace_lower_envelope(
        shape, object_from_sensor, xs, ys, z_start,
        z_range=gel.max_indent + margin, tol=1e-5)
    depth = np.where(hit, np.clip(-z_surf, 0.0, gel.max_indent), 0.0)
    mask = depth > 0.0
    depth[~mask] = 0.0
    return DepthImage(values=depth, mask=mask)


def depth_to_normals(depth: DepthImage, gel: GelConfig) -> NormalImage:
    """Surface normals of the deformed gel from depth gradients.

    Normals are proportional to (dz/dx, dz/dy, 1) where z is penetration
    depth; this is the gel-surface normal with positive z component for
    surface points at z = -depth.  Central differences inside the image,
    one-sided at the border.  Normals are computed at every pixel, so the
    one-pixel ring just outside the contact (where the stencil straddles
    the rim) keeps its tilt; pixels farther out come out (0, 0, 1) since
    the depth is identically zero there.
    """
    z = depth.values
    zy, zx = np.gradient(z, gel.pitch_y, gel.pitch_x)
    normals = np.dstack([zx, zy, np.ones_like(z)])
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    return NormalImage(values=normals, mask=depth.mask.copy())


def perturb_normals(normals: NormalImage, sigma: float, seed: int) -> NormalImage:
    """Rotate each masked normal by a half-normal angle about a random
    perpendicular axis, emulating prediction error of a learned normal model.

    sigma = 0 returns the input unchanged; fixed seed gives identical output.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return normals
    rng = np.random.default_rng(seed)
    out = normals.values.copy()
    if not normals.mask.any():
        return NormalImage(out, normals.mask.copy())
    n = out[normals.mask]  # (N, 3)
    angles = np.abs(rng.normal(0.0, sigma, size=len(n)))
    phis = rng.uniform(0.0, 2.0 * np.pi, size=len(n))

    # Orthonormal basis perpendicular to each normal.
    ref = np.zeros_like(n)
    smallest = np.argmin(np.abs(n), axis=1)
    ref[np.arange(len(n)), smallest] = 1.0
    u = np.cross(n, ref)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(n, u)

    axis = np.cos(phis)[:, None] * u + np.sin(phis)[:, None] * v
    # Rodrigues rotation of n about a perpendicular axis by `angles`.
    c = np.cos(angles)[:, None]
    s = np.sin(angles)[:, None]
    rotated = n * c + np.cross(axis, n) * s
    rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
    out[normals.mask] = rotated
    return NormalImage(out, normals.mask.copy())


def contact_touches_border(mask: np.ndarray) -> bool:
    """True iff any masked pixel lies on the outermost image row or column."""
    if mask.size == 0 or not mask.any():
        return False
    return bool(mask[0, :].any() or mask[-1, :].any()
                or mask[:, 0].any() or mask[:, -1].any())

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
from .shapes import ShapeSDF, _row_norm


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
    """Per-pixel penetration depth in mm (0 = undisturbed gel) plus contact
    mask, each (H, W), or (F, H, W) for a batch of F frames."""

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
    """Sphere-trace along sensor +z from z_start; returns (hit, z_surf) per
    pixel, shaped as the batch of `object_from_sensor` followed by xs.shape.

    `object_from_sensor` is one pose or a batch of F poses, as in
    `geometry`; one pose is a batch of one.  Each frame's rays are
    evaluated once on its own full grid, and pixels whose start point is
    already inside the object are hits at z_start.  The other rays of all
    frames then march together, each along its own frame's +z, stepping
    t += d until d <= tol.  A ray retires once t reaches z_range, before it
    is evaluated there, or after `max_iters` steps.
    """
    rotations = object_from_sensor.rotation.reshape(-1, 3, 3)
    translations = object_from_sensor.translation.reshape(-1, 3)
    out_shape = object_from_sensor.rotation.shape[:-2] + xs.shape
    n = xs.size
    pts_sensor = np.column_stack([xs.ravel(), ys.ravel(), np.full(n, z_start)])
    hit = np.zeros(len(rotations) * n, dtype=bool)
    t = np.zeros(len(rotations) * n)

    # Only the live rays are marched: their indices into the frames' grids,
    # points, distances, travel and step directions are kept in compact
    # arrays, in grid order, and a ray leaves them once it hits or its next
    # step would take it to z_range.
    live, pts, d, dirs = [], [], [], []
    for f, (rot, trans) in enumerate(zip(rotations, translations)):
        grid_pts = pts_sensor @ rot.T + trans
        grid_d = shape.sdf(grid_pts)
        grid_hit = grid_d <= tol
        hit[f * n:(f + 1) * n] = grid_hit
        keep = np.flatnonzero(~grid_hit & (grid_d < z_range))
        live.append(keep + f * n)
        pts.append(grid_pts.take(keep, axis=0))
        d.append(grid_d[keep])
        # sensor +z expressed in the object frame
        dirs.append(np.broadcast_to(rot[:, 2], (keep.size, 3)))
    live, pts, d, dirs = (np.concatenate(a) for a in (live, pts, d, dirs))
    t_live = np.zeros(live.size)
    for _ in range(max_iters):
        if not live.size:
            break
        t_live += d
        pts += d[:, None] * dirs
        d = shape.sdf(pts)
        newly_hit = d <= tol
        hit[live[newly_hit]] = True
        t[live[newly_hit]] = t_live[newly_hit]
        keep = np.flatnonzero(~newly_hit & (t_live + d < z_range))
        live, d, t_live = live[keep], d[keep], t_live[keep]
        pts, dirs = pts.take(keep, axis=0), dirs.take(keep, axis=0)
    z_surf = np.where(hit, z_start + t, np.nan)
    return hit.reshape(out_shape), z_surf.reshape(out_shape)


def render_depth(shape: ShapeSDF, object_pose: Pose, sensor_pose: Pose,
                 gel: GelConfig) -> DepthImage:
    """Render per-pixel penetration of the object below the gel plane.

    Depth is found by sphere tracing the SDF along the gel normal, clamped
    to [0, max_indent]; the mask marks pixels with positive penetration.
    `sensor_pose` is one pose, giving (H, W) depth and mask, or a batch of
    F poses, giving (F, H, W), all traced together.  The trace starts
    max_indent + 0.1 mm below the gel plane and retires a ray once it
    reaches the plane, where its penetration would clamp to 0.
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
    norm = np.sqrt(zx * zx + zy * zy + 1.0)
    normals = np.dstack([zx / norm, zy / norm, 1.0 / norm])
    return NormalImage(values=normals, mask=depth.mask.copy())


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of each row of two (N, 3) arrays, with the same
    arithmetic as `np.cross` and without its per-call overhead."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.column_stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                            a0 * b1 - a1 * b0])


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
    u = _cross(n, ref)
    u /= _row_norm(u)[:, None]
    v = _cross(n, u)

    axis = np.cos(phis)[:, None] * u + np.sin(phis)[:, None] * v
    # Rodrigues rotation of n about a perpendicular axis by `angles`.
    c = np.cos(angles)[:, None]
    s = np.sin(angles)[:, None]
    rotated = n * c + _cross(axis, n) * s
    rotated /= _row_norm(rotated)[:, None]
    out[normals.mask] = rotated
    return NormalImage(out, normals.mask.copy())


def contact_touches_border(mask: np.ndarray) -> bool:
    """True iff any masked pixel lies on the outermost image row or column."""
    if mask.size == 0 or not mask.any():
        return False
    return bool(mask[0, :].any() or mask[-1, :].any()
                or mask[:, 0].any() or mask[:, -1].any())

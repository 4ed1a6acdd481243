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


def _gradient(z, pitch, axis, out):
    """Write `np.gradient(z, pitch, axis=axis)` into `out` with its
    arithmetic (central differences inside, one-sided at both ends),
    without its two temporaries."""
    z, out = np.moveaxis(z, axis, -1), np.moveaxis(out, axis, -1)
    # (destination, minuend, subtrahend, divisor): inside, first, last.
    parts = ((out[..., 1:-1], z[..., 2:], z[..., :-2], 2.0 * pitch),
             (out[..., 0], z[..., 1], z[..., 0], pitch),
             (out[..., -1], z[..., -1], z[..., -2], pitch))
    for dst, hi, lo, step in parts:
        np.subtract(hi, lo, out=dst)
        np.divide(dst, step, out=dst)


def depth_to_normals(depth: DepthImage, gel: GelConfig) -> NormalImage:
    """Surface normals of the deformed gel from depth gradients.

    Normals are proportional to (dz/dx, dz/dy, 1) where z is penetration
    depth; this is the gel-surface normal with positive z component for
    surface points at z = -depth.  Central differences inside the image,
    one-sided at the border.  Normals are computed at every pixel, so the
    one-pixel ring just outside the contact (where the stencil straddles
    the rim) keeps its tilt; pixels farther out come out (0, 0, 1) since
    the depth is identically zero there.  An (H, W) depth gives (H, W, 3)
    normals and an (F, H, W) stack (F, H, W, 3), each frame as if alone.
    """
    z = depth.values
    # Each channel is computed in place, so a stack costs one temporary;
    # the dtype is np.gradient's, float32 for a float32 depth.
    normals = np.empty(z.shape + (3,), np.result_type(z, 1.0))
    zx, zy, norm = normals[..., 0], normals[..., 1], normals[..., 2]
    _gradient(z, gel.pitch_x, -1, zx)
    _gradient(z, gel.pitch_y, -2, zy)
    np.multiply(zx, zx, out=norm)
    norm += zy * zy
    norm += 1.0
    np.sqrt(norm, out=norm)
    zx /= norm
    zy /= norm
    np.divide(1.0, norm, out=norm)
    return NormalImage(values=normals, mask=depth.mask.copy())


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of each row of two (N, 3) arrays, with the same
    arithmetic as `np.cross` and without its per-call overhead."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.column_stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                            a0 * b1 - a1 * b0])


def perturb_normals(normals: NormalImage, sigma: float, seed) -> NormalImage:
    """Rotate each masked normal by a half-normal angle about a random
    perpendicular axis, emulating prediction error of a learned normal model.

    `normals` is one (H, W, 3) image or an (F, H, W, 3) stack, and `seed`
    holds one int per frame (one int for one image).  Frame i draws its
    angles, then its axes, from `default_rng(seed[i])` over its own masked
    pixels in row-major order, so a frame perturbs alike alone or in a
    stack.  The values are rotated in place and `normals` is returned; sigma
    = 0 leaves them unchanged.  ValueError for a sigma that is negative or
    not finite, or a seed count that is not the frame count.
    """
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and non-negative, got {sigma!r}")
    seeds = np.atleast_1d(seed)
    frames = normals.mask.reshape(-1, *normals.mask.shape[-2:])
    if seeds.shape != (len(frames),):
        raise ValueError(f"perturb_normals needs one seed per frame: "
                         f"{len(frames)} frames, seeds {seed!r}")
    n = normals.values[normals.mask]  # (N, 3), frame by frame
    if sigma == 0 or not len(n):
        return normals
    counts = np.count_nonzero(frames, axis=(1, 2))
    streams = [np.random.default_rng(int(s)) for s in seeds]
    angles = np.abs(np.concatenate([rng.normal(0.0, sigma, size=count)
                                    for rng, count in zip(streams, counts)]))
    phis = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, size=count)
                           for rng, count in zip(streams, counts)])

    # Orthonormal basis perpendicular to each normal.
    ref = np.zeros_like(n)
    smallest = np.argmin(np.abs(n), axis=1)
    ref[np.arange(len(n)), smallest] = 1.0
    u = _cross(n, ref)
    u /= _row_norm(u)[:, None]
    v = _cross(n, u)

    # Sums accumulate in place, which keeps a stack's (N, 3) temporaries
    # few; products are new arrays, so a float32 image computes in float64.
    axis = np.cos(phis)[:, None] * u
    axis += np.sin(phis)[:, None] * v
    # Rodrigues rotation of n about a perpendicular axis by `angles`:
    # (axis x n) sin(angle) + n cos(angle).
    rotated = _cross(axis, n)
    rotated *= np.sin(angles)[:, None]
    rotated += n * np.cos(angles)[:, None]
    rotated /= _row_norm(rotated)[:, None]
    normals.values[normals.mask] = rotated
    return normals


def contact_touches_border(mask: np.ndarray) -> bool:
    """True iff any masked pixel lies on the outermost image row or column."""
    if mask.size == 0 or not mask.any():
        return False
    return bool(mask[0, :].any() or mask[-1, :].any()
                or mask[:, 0].any() or mask[:, -1].any())

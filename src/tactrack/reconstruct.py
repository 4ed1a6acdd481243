"""Surface reconstruction: normal image -> depth gradients -> Poisson-integrated
depth -> unprojected 3-D point cloud with per-point normals."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy.spatial import cKDTree

from .render import DepthImage, GelConfig, NormalImage

N_Z_CLAMP = 0.05  # bounds gradients at slope 20 for grazing normals


@dataclass
class GradientField:
    """Per-pixel depth gradients p = dz/dx, q = dz/dy (mm per mm)."""

    p: np.ndarray
    q: np.ndarray
    mask: np.ndarray


@dataclass
class PointCloud:
    """3-D points (mm) with unit normals, expressed in a declared frame.

    A cloud's arrays are not changed once it is made, so what is derived
    from them is built on first use and kept: its k-d tree as a target
    (`search`) and the outcomes of its registrations as a source
    (`registrations`)."""

    points: np.ndarray
    normals: np.ndarray
    frame: str = "sensor"
    step: int = -1

    def __len__(self):
        return len(self.points)

    @functools.cached_property
    def search(self):
        """A k-d tree over the points, and the points and normals side by
        side as one (n, 6) array to gather matches from."""
        return cKDTree(self.points), np.hstack([self.points, self.normals])

    @functools.cached_property
    def registrations(self) -> dict:
        """`registration.icp_register`'s memo of this cloud's registrations
        as the source: (target id, init bytes) -> (weak reference to the
        target, outcome).  It holds no target alive."""
        return {}

    def transformed(self, pose, frame: str) -> "PointCloud":
        return PointCloud(points=pose.transform_points(self.points),
                          normals=self.normals @ pose.rotation.T,
                          frame=frame, step=self.step)


def normals_to_gradients(normals: NormalImage) -> GradientField:
    """Invert the normal/gradient relation: p = n_x / n_z, q = n_y / n_z,
    with n_z clamped below at 0.05 before the division.

    The gradient support is the contact mask plus any tilted pixels in the
    one-pixel ring around it; keeping that ring preserves the rim of the
    contact, which the integrator needs to recover the depth step there.
    The returned field's mask covers exactly that support, so gradients
    are zero outside it.
    """
    n = normals.values
    nz = np.maximum(n[..., 2], N_Z_CLAMP)
    p = n[..., 0] / nz
    q = n[..., 1] / nz
    support = normals.mask | (p != 0.0) | (q != 0.0)
    p = np.where(support, p, 0.0)
    q = np.where(support, q, 0.0)
    return GradientField(p=p, q=q, mask=support)


def dst2(field: np.ndarray) -> np.ndarray:
    """Separable type-I discrete sine transform along both axes."""
    field = np.asarray(field, dtype=float)
    if field.shape[0] < 2 or field.shape[1] < 2:
        raise ValueError("dst2 requires at least a 2x2 field")
    return sfft.dst(sfft.dst(field, type=1, axis=0), type=1, axis=1)


def idst2(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`dst2` (normalization 2/(n+1) per axis)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] < 2 or coeffs.shape[1] < 2:
        raise ValueError("idst2 requires at least a 2x2 field")
    return sfft.idst(sfft.idst(coeffs, type=1, axis=0), type=1, axis=1)


@functools.lru_cache(maxsize=8)
def _laplacian_eigenvalues(m: int, n: int, hx: float, hy: float) -> np.ndarray:
    """Eigenvalues of the 5-point Laplacian on an m x n interior with
    Dirichlet boundary, in the type-I DST basis.  Read-only: every solve on
    the same grid shares the array."""
    u = np.arange(1, m + 1)
    v = np.arange(1, n + 1)
    # Row modes see the y pitch, column modes the x pitch.
    eig = ((2.0 * np.cos(np.pi * u / (m + 1)) - 2.0)[:, None] * (hx / hy)**2
           + (2.0 * np.cos(np.pi * v / (n + 1)) - 2.0)[None, :]) / hx**2
    eig.setflags(write=False)
    return eig


def poisson_solve(grad: GradientField, pixel_pitch) -> DepthImage:
    """Integrate a gradient field into depth with a DST Poisson solver.

    `pixel_pitch` is the pixel size in mm, one number for square pixels or
    a (pitch_x, pitch_y) pair.  Solves the discrete Poisson equation
    Lap(z) = dp/dx + dq/dy (central difference divergence) with Dirichlet
    boundary on the image border, by diagonalizing the 5-point Laplacian
    with the type-I DST.  The result is shifted so the unmasked region
    means zero.
    """
    p, q = np.asarray(grad.p, float), np.asarray(grad.q, float)
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("gradient field must be finite")
    if p.shape != q.shape:
        raise ValueError("p and q must share dimensions")
    hx, hy = (float(h) for h in np.broadcast_to(pixel_pitch, 2))
    rows, cols = p.shape
    if rows < 3 or cols < 3:
        raise ValueError("image too small for the Poisson solve")

    # Central-difference divergence on the interior, the only part the
    # solve uses (np.gradient's interior arithmetic).
    rhs = ((p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * hx)
           + (q[2:, 1:-1] - q[:-2, 1:-1]) / (2.0 * hy))
    z_int = idst2(dst2(rhs) / _laplacian_eigenvalues(rows - 2, cols - 2, hx, hy))
    z = np.zeros_like(p)
    z[1:-1, 1:-1] = z_int

    background = ~grad.mask
    z += -z[background].mean() if grad.mask.any() and background.any() else 0.0
    return DepthImage(values=z, mask=grad.mask.copy())


def depth_to_pointcloud(depth: DepthImage, normals: NormalImage,
                        gel: GelConfig, step: int = -1) -> PointCloud:
    """Unproject masked pixels into a sensor-frame cloud with normals.

    The sensor frame has its origin at the gel centre; a pixel maps to its
    centre scaled by the physical pitch, and depth d maps to z = -d.
    """
    if depth.values.shape != normals.values.shape[:2]:
        raise ValueError("depth and normal images must share dimensions")
    if depth.mask.shape != depth.values.shape:
        raise ValueError("mask and depth must share dimensions")
    mask = depth.mask
    xs, ys = gel.pixel_centers()
    pts = np.column_stack([xs[mask], ys[mask], -depth.values[mask]])
    return PointCloud(points=pts, normals=normals.values[mask].copy(),
                      frame="sensor", step=step)


def reconstruct_cloud(normals: NormalImage, gel: GelConfig, step: int = -1):
    """Full per-frame pipeline: normals -> gradients -> depth -> cloud.

    Returns (DepthImage, PointCloud); the cloud is empty when the mask is.
    """
    grad = normals_to_gradients(normals)
    depth = poisson_solve(grad, (gel.pitch_x, gel.pitch_y))
    # Unproject only true contact pixels; the integration support is wider
    # by the one-pixel rim ring, which carries no surface points.
    contact = DepthImage(values=depth.values, mask=normals.mask.copy())
    cloud = depth_to_pointcloud(contact, normals, gel, step=step)
    return contact, cloud

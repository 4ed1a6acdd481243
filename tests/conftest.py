"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from tactrack import geometry
from tactrack.geometry import Pose
from tactrack.reconstruct import PointCloud
from tactrack.render import GelConfig


def numerical_jacobian(f, at: Pose, eps: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``at`` in tangent coordinates;
    the oracle for the closed-form factor Jacobians.

    ``f`` maps a Pose to either a vector or a Pose.  Column i perturbs
    tangent coordinate i by +/- eps via ``geometry.oplus``.  For Pose-valued
    ``f`` the output difference is taken with ``geometry.ominus``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cols = []
    for i in range(6):
        delta = np.zeros(6)
        delta[i] = eps
        fp = f(geometry.oplus(at, delta))
        fm = f(geometry.oplus(at, -delta))
        if isinstance(fp, Pose):
            diff = geometry.ominus(fm, fp)
        else:
            diff = np.asarray(fp, dtype=float) - np.asarray(fm, dtype=float)
        cols.append(diff / (2.0 * eps))
    return np.stack(cols, axis=1)


def matrix(pose: Pose) -> np.ndarray:
    """The 4x4 homogeneous matrix of one pose."""
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return m


def rot_z(angle: float) -> np.ndarray:
    """Rotation by `angle` radians about z."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)


def read_ply(path):
    """(points, normals) of an ASCII PLY written by `imageio.write_ply`."""
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


def random_pose(rng, max_angle=1.0, max_trans=5.0) -> Pose:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    trans = rng.uniform(-max_trans, max_trans, size=3)
    return geometry.exp(np.concatenate([axis * angle, trans]))


_CAP_CACHE = {}


def sphere_cap_cloud(radius=6.35, indent=1.0, n=None, seed=0) -> PointCloud:
    """Spherical-cap contact cloud produced by the rendering and
    reconstruction pipeline.

    An exact analytic cap is rotation-degenerate (every normal passes
    through the sphere center), so registration tests use the realistic
    reconstructed cloud, whose discretization breaks that symmetry.  `n`
    optionally subsamples the cloud deterministically.
    """
    key = (radius, indent)
    if key not in _CAP_CACHE:
        from tactrack.reconstruct import reconstruct_cloud
        from tactrack.render import depth_to_normals, render_depth
        from tactrack.shapes import Sphere

        gel = GelConfig()
        shape = Sphere(radius=radius,
                       offset=Pose(np.eye(3), np.array([0, 0, radius - indent])))
        depth = render_depth(shape, Pose.identity(), Pose.identity(), gel)
        normals = depth_to_normals(depth, gel)
        _, cloud = reconstruct_cloud(normals, gel)
        _CAP_CACHE[key] = cloud
    cloud = _CAP_CACHE[key]
    if n is None or n >= len(cloud):
        return cloud
    idx = np.random.default_rng(seed).choice(len(cloud), size=n, replace=False)
    return PointCloud(points=cloud.points[idx], normals=cloud.normals[idx],
                      frame="sensor")


def plane_cloud(n=400, extent=8.0, seed=0) -> PointCloud:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-extent / 2, extent / 2, n)
    y = rng.uniform(-extent / 2, extent / 2, n)
    pts = np.column_stack([x, y, np.zeros(n)])
    normals = np.tile([0.0, 0.0, 1.0], (n, 1))
    return PointCloud(points=pts, normals=normals, frame="sensor")


def pyramid_face_cloud(n=500, seed=0) -> PointCloud:
    """Points on the four faces near the apex of the default pyramid,
    arranged like a wedge imprint (constrains all six degrees of freedom)."""
    from tactrack.shapes import Pyramid

    shape = Pyramid()
    rng = np.random.default_rng(seed)
    apex = np.array([0.0, 0.0, -shape.height / 2.0])
    raw = apex + rng.normal(scale=2.0, size=(n, 3))
    pts = shape.project_to_surface(raw)
    keep = np.abs(shape.sdf(pts)) < 1e-4
    pts = pts[keep]
    normals = shape.gradient(pts)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(points=pts, normals=normals, frame="sensor")


@pytest.fixture
def gel() -> GelConfig:
    return GelConfig()

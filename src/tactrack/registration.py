"""Point-to-plane ICP producing the measured relative transforms consumed by
the factor graph, with fitness and degeneracy diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import geometry
from .geometry import Pose
from .reconstruct import PointCloud

CONDITION_LIMIT = 1e8
MAX_ITERATIONS = 30
# Large enough that a vision-prior-sized initialization error (a few mm)
# still yields correspondences on the first registration of an episode.
MAX_CORRESPONDENCE_DISTANCE = 6.0   # mm
CONVERGENCE_THRESHOLD = 1e-5        # update twist norm
MIN_CORRESPONDENCES = 20


class DegenerateGeometryError(RuntimeError):
    """Normal matrix is rank deficient (flat or featureless geometry)."""

    def __init__(self, condition_number: float):
        super().__init__(f"degenerate registration geometry "
                         f"(condition number {condition_number:.3e})")
        self.condition_number = condition_number


class InsufficientOverlapError(RuntimeError):
    def __init__(self, count: int, required: int):
        super().__init__(f"only {count} correspondences, need {required}")
        self.count = count
        self.required = required


@dataclass
class ICPResult:
    """Transform maps source-frame points into the target frame."""

    transform: Pose
    converged: bool
    iterations: int
    inlier_rmse: float
    correspondence_count: int
    condition_number: float

    def to_dict(self):
        return {"transform": geometry.to_quat_trans(self.transform),
                "converged": self.converged, "iterations": self.iterations,
                "inlier_rmse": self.inlier_rmse,
                "correspondence_count": self.correspondence_count,
                "condition_number": self.condition_number}


def point_to_plane_step(src_pts, tgt_pts, tgt_normals):
    """One linearized point-to-plane solve over matched point pairs.

    Returns (update twist [w, v], condition number of the 6x6 normal
    matrix).  Raises InsufficientOverlapError for fewer than 6 pairs and
    DegenerateGeometryError when the condition number is above 1e8 (e.g. a
    flat patch sliding in-plane).
    """
    if len(src_pts) < 6:
        raise InsufficientOverlapError(len(src_pts), 6)
    # Rows of the linearized system for twist [w, v]:
    # residual n . (p + w x p + v - q).
    a = np.hstack([np.cross(src_pts, tgt_normals), tgt_normals])
    b = np.einsum("ij,ij->i", tgt_normals, tgt_pts - src_pts)
    ata = a.T @ a
    cond = float(np.linalg.cond(ata))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateGeometryError(cond)
    return np.linalg.solve(ata, a.T @ b), cond


def _point_rmse(src, tgt):
    return float(np.sqrt(np.mean(np.sum((src - tgt) ** 2, axis=1))))


def icp_register(source: PointCloud, target: PointCloud,
                 init: Pose) -> ICPResult:
    """Iterative point-to-plane registration from an initial guess.

    Correspondences are re-estimated each iteration with a k-d tree; the
    point-to-point inlier RMSE is reported as the fitness metric.
    """
    if len(source) == 0 or len(target) == 0:
        raise InsufficientOverlapError(min(len(source), len(target)),
                                       MIN_CORRESPONDENCES)
    tree = cKDTree(target.points)
    transform = init
    converged = False
    iterations = 0
    rmse = np.inf
    cond = 1.0
    count = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        moved = transform.transform_points(source.points)
        dists, idx = tree.query(moved, distance_upper_bound=MAX_CORRESPONDENCE_DISTANCE)
        keep = np.isfinite(dists)
        count = int(keep.sum())
        if count < MIN_CORRESPONDENCES:
            raise InsufficientOverlapError(count, MIN_CORRESPONDENCES)
        src = moved[keep]
        tgt = target.points[idx[keep]]
        nrm = target.normals[idx[keep]]
        rmse = _point_rmse(src, tgt)
        delta, cond = point_to_plane_step(src, tgt, nrm)
        transform = geometry.compose(geometry.exp(delta), transform)
        if np.linalg.norm(delta) < CONVERGENCE_THRESHOLD:
            converged = True
            break
    moved = transform.transform_points(source.points)
    dists, idx = tree.query(moved, distance_upper_bound=MAX_CORRESPONDENCE_DISTANCE)
    keep = np.isfinite(dists)
    if keep.any():
        rmse = _point_rmse(moved[keep], target.points[idx[keep]])
        count = int(keep.sum())
    return ICPResult(transform=transform, converged=converged,
                     iterations=iterations, inlier_rmse=rmse,
                     correspondence_count=count, condition_number=cond)

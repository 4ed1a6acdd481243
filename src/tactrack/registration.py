"""Point-to-plane ICP producing the measured relative transforms consumed by
the factor graph, with fitness and degeneracy diagnostics."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import Pose
from .reconstruct import PointCloud

CONDITION_LIMIT = 1e8
MAX_ITERATIONS = 30
# Large enough that a vision-prior-sized initialization error (a few mm)
# still yields correspondences on the first registration of an episode.
MAX_CORRESPONDENCE_DISTANCE = 6.0   # mm
CONVERGENCE_THRESHOLD = 1e-5        # update twist norm
# Stop once a step's predicted share of the point-to-plane cost is this small.
MIN_PREDICTED_REDUCTION = 1e-2
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
    predicted_reduction: float   # of the last step, see point_to_plane_step

    def to_dict(self):
        return {"transform": geometry.to_quat_trans(self.transform),
                "converged": self.converged, "iterations": self.iterations,
                "inlier_rmse": self.inlier_rmse,
                "correspondence_count": self.correspondence_count,
                "condition_number": self.condition_number,
                "predicted_reduction": self.predicted_reduction}


def point_to_plane_step(src_pts, tgt_pts, tgt_normals):
    """One linearized point-to-plane solve over matched point pairs.

    Returns (update twist [w, v], condition number of the 6x6 normal
    matrix, predicted relative reduction).  The last is the share of the
    squared point-to-plane residual ||b||^2 that the linearized model says
    the step removes: ||A delta||^2 / ||b||^2, which for the Gauss-Newton
    solution equals delta . A^T b / ||b||^2 and lies in [0, 1]; it is 0 when
    every residual is already 0.  Raises InsufficientOverlapError for fewer
    than 6 pairs and DegenerateGeometryError when the condition number is
    above 1e8 (e.g. a flat patch sliding in-plane).
    """
    if len(src_pts) < 6:
        raise InsufficientOverlapError(len(src_pts), 6)
    # Rows of the linearized system for twist [w, v]:
    # residual n . (p + w x p + v - q).  The columns p x n are written out
    # with the same arithmetic as np.cross.
    p, n = src_pts, tgt_normals
    a = np.empty((len(p), 6))
    a[:, 0] = p[:, 1] * n[:, 2] - p[:, 2] * n[:, 1]
    a[:, 1] = p[:, 2] * n[:, 0] - p[:, 0] * n[:, 2]
    a[:, 2] = p[:, 0] * n[:, 1] - p[:, 1] * n[:, 0]
    a[:, 3:] = n
    b = np.einsum("ij,ij->i", n, tgt_pts - p)
    ata = a.T @ a
    # The 2-norm condition number, as np.linalg.cond computes it.
    s = np.linalg.svd(ata, compute_uv=False)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateGeometryError(cond)
    atb = a.T @ b
    delta = np.linalg.solve(ata, atb)
    total = b @ b
    return delta, cond, float(delta @ atb / total) if total > 0 else 0.0


def _point_rmse(src, tgt):
    return float(np.sqrt(np.mean(np.sum((src - tgt) ** 2, axis=1))))


def icp_register(source: PointCloud, target: PointCloud,
                 init: Pose) -> ICPResult:
    """Iterative point-to-plane registration from an initial guess.

    Correspondences are re-estimated each iteration with the target's k-d
    tree.  The loop applies each Gauss-Newton step and then ends, with
    `converged` True, on the first step that either

    - is shorter than CONVERGENCE_THRESHOLD (twist norm), which ends a fit
      whose residuals go to zero, as on noise-free data, where each step
      still removes nearly all of the remaining cost;
    - or is predicted to remove at most MIN_PREDICTED_REDUCTION of the
      point-to-plane cost: the fit has flattened, and further steps only
      wander along directions the contact does not observe.

    `converged` is False only when MAX_ITERATIONS steps pass neither test.
    The fitness metric is the point-to-point RMSE of the returned transform
    over the last iteration's matches, so a call makes one tree query per
    iteration; it is reported with those matches' count and the last step's
    predicted reduction.

    Each registration is solved once: its outcome is kept in
    `source.registrations`, keyed by the target's identity and the exact
    bytes of `init`, and a repeated call replays it without a tree query.
    A replayed result is the object the solve returned.  A replayed
    failure is raised as a fresh exception of the same type and message;
    the memo keeps only its constructor arguments, since an exception's
    traceback would hold the frames, and so the tracker, of the call that
    raised it.  The target is held by a weak reference, so the memo keeps
    no cloud alive.
    """
    key = (id(target), init.rotation.tobytes(), init.translation.tobytes())
    entry = source.registrations.get(key)
    if entry is None or entry[0]() is not target:
        try:
            outcome = _solve(source, target, init)
        except DegenerateGeometryError as err:
            outcome = (DegenerateGeometryError, err.condition_number)
        except InsufficientOverlapError as err:
            outcome = (InsufficientOverlapError, err.count, err.required)
        entry = source.registrations[key] = (weakref.ref(target), outcome)
    outcome = entry[1]
    if isinstance(outcome, ICPResult):
        return outcome
    error, *args = outcome
    raise error(*args)


def _solve(source: PointCloud, target: PointCloud, init: Pose) -> ICPResult:
    """`icp_register`'s solve, without its memo."""
    if len(source) == 0 or len(target) == 0:
        raise InsufficientOverlapError(min(len(source), len(target)),
                                       MIN_CORRESPONDENCES)
    tree, target_rows = target.search
    transform = init
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        moved = transform.transform_points(source.points)
        dists, idx = tree.query(moved, distance_upper_bound=MAX_CORRESPONDENCE_DISTANCE)
        keep = np.isfinite(dists)
        count = int(keep.sum())
        if count < MIN_CORRESPONDENCES:
            raise InsufficientOverlapError(count, MIN_CORRESPONDENCES)
        if count == len(moved):   # the usual case: every point matched
            src, matched = moved, target_rows[idx]
        else:
            src, matched = moved[keep], target_rows[idx[keep]]
        delta, cond, reduction = point_to_plane_step(src, matched[:, :3],
                                                     matched[:, 3:])
        transform = geometry.compose(geometry.exp(delta), transform)
        if (np.linalg.norm(delta) < CONVERGENCE_THRESHOLD
                or reduction <= MIN_PREDICTED_REDUCTION):
            converged = True
            break
    # Score the returned transform on the last iteration's matches.
    moved = transform.transform_points(source.points[keep])
    return ICPResult(transform=transform, converged=converged,
                     iterations=iterations,
                     inlier_rmse=_point_rmse(moved, matched[:, :3]),
                     correspondence_count=count, condition_number=cond,
                     predicted_reduction=reduction)

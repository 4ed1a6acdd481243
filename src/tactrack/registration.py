"""Point-to-plane ICP producing the measured relative transforms consumed by
the factor graph, with fitness and degeneracy diagnostics.

scipy.linalg's LAPACK wrappers, which solve each step, are imported where
they are called: code that only reconstructs never pays their memory."""

from __future__ import annotations

import math
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
_SOLVED = weakref.WeakKeyDictionary()   # icp_register's memo, see there


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

    Each pair (p, q, n) gives the row ``[p x n, n]`` of A and the entry
    ``n . (q - p)`` of b, the residual of the twist [w, v] being
    ``n . (p + w x p + v - q)`` linearized.  One product of the m-row
    matrix [A, b] with itself gives AᵀA, Aᵀb and ||b||^2.

    Returns (update twist [w, v], condition number of AᵀA, predicted
    relative reduction).  The condition number is λmax/λmin of AᵀA's
    eigenvalues (LAPACK ``dsyev``), infinite when λmin <= m ε λmax for m
    pairs, the rounding noise of a singular AᵀA's eigenvalues.  The twist
    solves AᵀA δ = Aᵀb by Cholesky (``dposv``).  The predicted reduction
    is the share of the squared point-to-plane residual ||b||^2 that the
    linearized model says the step removes: ||A δ||^2 / ||b||^2, which for
    the Gauss-Newton solution equals δ . Aᵀb / ||b||^2 and lies in [0, 1];
    it is 0 when every residual is already 0.

    Raises InsufficientOverlapError for fewer than 6 pairs, and
    DegenerateGeometryError (e.g. a flat patch sliding in-plane) when the
    condition number is infinite or above CONDITION_LIMIT, or when the
    Cholesky factorization fails; the error carries the condition number.
    """
    if len(src_pts) < 6:
        raise InsufficientOverlapError(len(src_pts), 6)
    # [A, b] is stored transposed, one contiguous row per column; the
    # columns p x n are written out with the same arithmetic as np.cross.
    p, n = src_pts.T, tgt_normals.T
    system = np.empty((7, len(src_pts)))
    system[0] = p[1] * n[2] - p[2] * n[1]
    system[1] = p[2] * n[0] - p[0] * n[2]
    system[2] = p[0] * n[1] - p[1] * n[0]
    system[3:6] = n
    system[6] = np.einsum("ij,ij->i", tgt_normals, tgt_pts - src_pts)
    normal = system @ system.T
    ata = normal[:6, :6]
    from scipy.linalg import lapack
    eigenvalues, _, info = lapack.dsyev(ata, compute_v=0)
    lowest, highest = float(eigenvalues[0]), float(eigenvalues[-1])
    noise = len(src_pts) * np.finfo(float).eps * highest
    cond = highest / lowest if info == 0 and lowest > noise else math.inf
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateGeometryError(cond)
    _, delta, info = lapack.dposv(ata, normal[:6, 6:])
    if info != 0:
        raise DegenerateGeometryError(cond)
    delta = delta[:, 0]
    total = float(normal[6, 6])
    reduction = float(delta @ normal[:6, 6]) / total if total > 0 else 0.0
    return delta, cond, reduction


def _increment(twist):
    """(R, V v) of exp([w, v]) for a twist given as six Python floats.

    The same closed form as `geometry.exp`, with its Taylor series below
    the same angle, but on scalars: an ICP iteration applies one small
    twist, where geometry.exp's array calls cost more than the arithmetic.
    R is not reorthonormalized; `_solve` does that once, at the end.
    """
    wx, wy, wz, vx, vy, vz = twist
    xx, yy, zz = wx * wx, wy * wy, wz * wz
    t2 = xx + yy + zz
    theta = math.sqrt(t2)
    if theta < geometry._SERIES_ANGLE:
        a, b, c = (geometry._poly(theta, series) for series in
                   (geometry._SIN_T, geometry._COS_T2, geometry._SIN_T3))
    else:
        sin, cos = math.sin(theta), math.cos(theta)
        a, b, c = sin / theta, (1.0 - cos) / t2, (theta - sin) / (t2 * theta)
    # R = I + a [w]x + b [w]x^2, with [w]x^2 = w wᵀ - theta^2 I.
    xy, xz, yz = b * wx * wy, b * wx * wz, b * wy * wz
    ax, ay, az = a * wx, a * wy, a * wz
    rot = np.array([[1.0 - b * (yy + zz), xy - az, xz + ay],
                    [xy + az, 1.0 - b * (xx + zz), yz - ax],
                    [xz - ay, yz + ax, 1.0 - b * (xx + yy)]])
    # V v = v + b (w x v) + c (w x (w x v)).
    ux, uy, uz = wy * vz - wz * vy, wz * vx - wx * vz, wx * vy - wy * vx
    sx, sy, sz = wy * uz - wz * uy, wz * ux - wx * uz, wx * uy - wy * ux
    trans = np.array([vx + b * ux + c * sx, vy + b * uy + c * sy,
                      vz + b * uz + c * sz])
    return rot, trans


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

    Only results are kept (`_SOLVED`), keyed by the identity of the source
    and the target cloud, both held weakly, and the exact bytes of `init`:
    a repeated call returns the same object without a tree query, and an
    entry dies with either cloud.  A failed call keeps nothing and is
    solved again.
    """
    key = (init.rotation.tobytes(), init.translation.tobytes())
    result = _SOLVED.get(source, {}).get(target, {}).get(key)
    if result is None:
        result = _solve(source, target, init)
        _SOLVED.setdefault(source, weakref.WeakKeyDictionary()).setdefault(
            target, {})[key] = result
    return result


def _solve(source: PointCloud, target: PointCloud, init: Pose) -> ICPResult:
    """`icp_register`'s solve, without its memo.  An empty source or
    target matches nothing, so its first iteration raises
    InsufficientOverlapError."""
    tree, target_rows = target.search
    rot, trans = init.rotation, init.translation
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        moved = source.points @ rot.T + trans
        dists, idx = tree.query(moved, distance_upper_bound=MAX_CORRESPONDENCE_DISTANCE)
        keep = np.isfinite(dists)
        count = int(np.count_nonzero(keep))
        if count < MIN_CORRESPONDENCES:
            raise InsufficientOverlapError(count, MIN_CORRESPONDENCES)
        if count == len(moved):   # the usual case: every point matched
            src, matched = moved, target_rows.take(idx, axis=0)
        else:
            src, matched = moved[keep], target_rows.take(idx[keep], axis=0)
        delta, cond, reduction = point_to_plane_step(src, matched[:, :3],
                                                     matched[:, 3:])
        twist = delta.tolist()
        step_rot, step_trans = _increment(twist)
        rot, trans = step_rot @ rot, step_rot @ trans + step_trans
        if (math.hypot(*twist) < CONVERGENCE_THRESHOLD
                or reduction <= MIN_PREDICTED_REDUCTION):
            converged = True
            break
    transform = Pose(geometry._reorthonormalize(rot), trans)
    # Score the returned transform on the last iteration's matches.
    moved = transform.transform_points(source.points[keep])
    return ICPResult(transform=transform, converged=converged,
                     iterations=iterations,
                     inlier_rmse=_point_rmse(moved, matched[:, :3]),
                     correspondence_count=count, condition_number=cond,
                     predicted_reduction=reduction)

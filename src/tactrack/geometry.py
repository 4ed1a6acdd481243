"""SE(3) pose algebra: composition, exp/log maps, retraction operators,
adjoints and the closed-form inverse right Jacobian.

Every operation here also works on a batch: a :class:`Pose` may hold
rotations of shape ``(..., 3, 3)`` and translations of shape ``(..., 3)``,
and twists may have shape ``(..., 6)``.  A single pose is the same code with
no batch dimension.  A batch evaluates only the branches its rows need: the
angle coefficients of exp, log and right_jacobian_inv come from their
Taylor series or their closed forms, and only a batch with angles on both
sides of the switch evaluates both; the rotation-to-quaternion conversion
skips Shepperd's general case when every trace is positive.  Either way
each row equals what the general path gives it.

The factor Jacobians are closed-form products of :func:`right_jacobian_inv`
and :func:`adjoint`; the tests check them against central differences.

Conventions used throughout the package:

* A pose maps body-frame coordinates to world-frame coordinates
  (world-from-body).
* A twist is a 6-vector ``[wx wy wz vx vy vz]`` with the rotational part
  first (radians) and the translational part second (millimetres).
* Retraction is right-multiplicative: ``oplus(a, xi) = a * exp(xi)``,
  i.e. perturbations live in the body frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Raised when a manifold operation is evaluated outside its domain
    (rotation angle at or beyond pi)."""


_EPS_ANGLE = 1e-9
_SMALL = 1e-10
# Below this rotation angle the angle coefficients of exp, log and
# right_jacobian_inv, whose closed forms cancel near zero, come from their
# Taylor series.
_SERIES_ANGLE = 1e-2
_I3 = np.eye(3)
_I3.setflags(write=False)
# Levi-Civita symbol: skew(w)[i, k] = sum_j eps[i, j, k] w[j].
_LEVI_CIVITA = np.array([[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                         [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                         [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]], dtype=float)
# The same as one linear map from w to the row-major entries of skew(w).
_SKEW_MAP = np.moveaxis(_LEVI_CIVITA, 1, 0).reshape(3, 9)
_SKEW_MAP.setflags(write=False)


def _skew(w):
    """Cross-product matrices: skew(w) @ v == cross(w, v)."""
    w = np.asarray(w, dtype=float)
    return (w @ _SKEW_MAP).reshape(w.shape[:-1] + (3, 3))


def _norm(x):
    # vecdot takes the same BLAS dot as np.linalg.norm of a single vector,
    # so a batch rounds like its elements do one at a time.
    return np.sqrt(np.vecdot(x, x))


def _t(m):
    return m.swapaxes(-1, -2)


def _mv(m, v):
    """Matrix-vector product over matching batch dimensions."""
    return (m @ v[..., None])[..., 0]


def _scale(coef, m):
    """Multiply each 3x3 matrix of a batch by its scalar coefficient."""
    return coef[..., None, None] * m


def _poly(theta, series):
    """The Taylor polynomial in ``theta**2`` whose coefficients are
    `series`."""
    t2 = theta * theta
    return series[0] + t2 * (series[1] + t2 * series[2])


# Taylor coefficients, in powers of theta**2, of the angle coefficients of
# exp, log and right_jacobian_inv, whose closed forms cancel near zero:
# sin t / t, (1 - cos t) / t^2, (t - sin t) / t^3, then the wx^2
# coefficient of the inverse SO(3) Jacobians and inverse V matrix,
# 1 / t^2 - (1 + cos t) / (2 t sin t), then (t^2 + 2 cos t - 2) / (2 t^4)
# and (2 t - 3 sin t + t cos t) / (2 t^5).
_SIN_T = (1.0, -1.0 / 6.0, 1.0 / 120.0)
_COS_T2 = (0.5, -1.0 / 24.0, 1.0 / 720.0)
_SIN_T3 = (1.0 / 6.0, -1.0 / 120.0, 1.0 / 5040.0)
_SO3_INV = (1.0 / 12.0, 1.0 / 720.0, 1.0 / 30240.0)
_COS_T4 = (1.0 / 24.0, -1.0 / 720.0, 1.0 / 40320.0)
_SIN_T5 = (1.0 / 120.0, -1.0 / 2520.0, 1.0 / 120960.0)


# The closed forms, one set per function, share one sin and one cos.  They
# use products, not powers: a power of a single angle (a NumPy scalar)
# rounds differently from the same power of an array.
def _exp_closed(t):
    sin, cos = np.sin(t), np.cos(t)
    return sin / t, (1.0 - cos) / (t * t), (t - sin) / (t * t * t)


def _log_closed(t):
    return (1.0 / (t * t) - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t)),)


def _jr_inv_closed(t):
    sin, cos = np.sin(t), np.cos(t)
    return ((t - sin) / (t * t * t),
            (t * t + 2.0 * cos - 2.0) / (2.0 * t * t * t * t),
            (2.0 * t - 3.0 * sin + t * cos) / (2.0 * t * t * t * t * t),
            1.0 / (t * t) - (1.0 + cos) / (2.0 * t * sin))


# (series, closed) per function: the Taylor coefficients stacked as
# series[power][coefficient], and the closed forms.
_EXP_COEFS = (np.array([_SIN_T, _COS_T2, _SIN_T3]).T, _exp_closed)
_LOG_COEFS = (np.array([_SO3_INV]).T, _log_closed)
_JR_INV_COEFS = (np.array([_SIN_T3, _COS_T4, _SIN_T5, _SO3_INV]).T,
                 _jr_inv_closed)


def _angle_coefs(theta, coefs):
    """The angle coefficients `coefs` (one of the tables above) of the
    rotation angles `theta`, one array per coefficient: the closed form at
    and above ``_SERIES_ANGLE``, the Taylor polynomial below it.  A batch
    on one side evaluates only that side's formulas; a batch with rows on
    both evaluates both and selects, with the same values row for row."""
    series, closed = coefs
    below = theta < _SERIES_ANGLE
    count = np.count_nonzero(below)
    if count == 0:
        return closed(theta)
    # One polynomial over every coefficient, which is the leading axis.
    values = _poly(theta, series.reshape(series.shape + (1,) * np.ndim(theta)))
    if count == below.size:
        return values
    return np.where(below, values, closed(np.maximum(theta, _SERIES_ANGLE)))


def _reorthonormalize(rot):
    # One Newton step toward the orthogonal polar factor; applied where
    # rotations are synthesized from series or quaternions so products of
    # Pose rotations stay orthonormal to machine precision.
    return rot @ (1.5 * _I3 - 0.5 * (_t(rot) @ rot))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: 3x3 rotation matrix plus translation in millimetres,
    or a batch of them (leading dimensions on both arrays)."""

    rotation: np.ndarray
    translation: np.ndarray

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def stack(poses) -> "Pose":
        """One batched Pose from a sequence of single poses."""
        return Pose(np.array([p.rotation for p in poses]).reshape(-1, 3, 3),
                    np.array([p.translation for p in poses]).reshape(-1, 3))

    def __getitem__(self, index) -> "Pose":
        """The pose, or the batch of poses, at `index` of the batch."""
        return Pose(self.rotation[index], self.translation[index])

    def transform_points(self, points: np.ndarray) -> np.ndarray:
        """Apply the pose to an (N, 3) array of points."""
        return points @ self.rotation.T + self.translation


def compose(a: Pose, b: Pose) -> Pose:
    """a * b: maps b-frame coordinates through b, then a."""
    return Pose(a.rotation @ b.rotation,
                _mv(a.rotation, b.translation) + a.translation)


def inverse(a: Pose) -> Pose:
    rot = _t(a.rotation)
    return Pose(rot, -_mv(rot, a.translation))


def exp(xi: np.ndarray) -> Pose:
    """SE(3) exponential of a twist [w, v], with the V-matrix coupling."""
    xi = np.asarray(xi, dtype=float)
    w, v = xi[..., :3], xi[..., 3:]
    theta = _norm(w)
    wx = _skew(w)
    wx2 = wx @ wx
    a, b, c = _angle_coefs(theta, _EXP_COEFS)
    rot = _I3 + _scale(a, wx) + _scale(b, wx2)
    vmat = _I3 + _scale(b, wx) + _scale(c, wx2)
    return Pose(_reorthonormalize(rot), _mv(vmat, v))


def _mat_to_quat(rot):
    # Shepperd's method; returns [w, x, y, z] with w >= 0.  The symmetric
    # matrix `k` equals 4 q q^T, so its row i is q scaled by 4 q_i = s.
    # Row 0 serves if the trace is positive (|w| > 1/2), else the row of
    # the largest diagonal element of `rot`.  The component axis comes
    # first until q is normalized.  A batch whose traces are all positive
    # reads row 0 directly, with the values of the general path, except
    # that an exactly zero component keeps its sign there (rot_x(-0.0)
    # gives x = -0.0, where the masked sum of the general path gives 0.0).
    m = rot
    m00, m11, m22 = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    tr = m00 + m11 + m22
    wx, wy, wz = (m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0],
                  m[..., 1, 0] - m[..., 0, 1])
    if (tr > 0).all():
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.stack([0.25 * s, wx / s, wy / s, wz / s], axis=-1)
        return q / _norm(q)[..., None]
    xy, xz, yz = (m[..., 0, 1] + m[..., 1, 0], m[..., 0, 2] + m[..., 2, 0],
                  m[..., 1, 2] + m[..., 2, 1])
    k = np.array([[tr + 1.0, wx, wy, wz],
                  [wx, 1.0 + m00 - m11 - m22, xy, xz],
                  [wy, xy, 1.0 + m11 - m00 - m22, yz],
                  [wz, xz, yz, 1.0 + m22 - m00 - m11]])
    # Diagonal elements lie in [-1, 1], so +-2 ranks row 0 first or last;
    # argmax takes the first of equal scores.
    scores = np.array([4.0 * (tr > 0) - 2.0, m00, m11, m22])
    picked = (scores.argmax(axis=0)
              == np.arange(4).reshape((4,) + (1,) * np.ndim(tr)))
    row = (picked[:, None] * k).sum(axis=0)
    s = np.sqrt((picked * row).sum(axis=0)) * 2.0
    q = np.where(picked, 0.25 * s, row / s)
    q = np.ascontiguousarray(q.transpose((*range(1, q.ndim), 0)))
    q = q * np.where(q[..., :1] < 0, -1.0, 1.0)
    return q / _norm(q)[..., None]


def rotation_log(rot: np.ndarray) -> np.ndarray:
    """Rotation-vector logarithm of a rotation matrix (angle < pi)."""
    q = _mat_to_quat(rot)
    vec_norm = _norm(q[..., 1:])
    theta = 2.0 * np.arctan2(vec_norm, q[..., 0])
    if (theta >= np.pi - _EPS_ANGLE).any():
        raise DomainError(f"rotation angle {np.max(theta):.9f} is at the "
                          "log singularity (pi)")
    # Below _SMALL, sin(theta/2) ~ theta/2, so q_vec ~ axis * theta / 2.
    tiny = vec_norm < _SMALL
    scale = np.where(tiny, 2.0, theta / np.where(tiny, 1.0, vec_norm))
    return q[..., 1:] * scale[..., None]


def rotation_angle(rot: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix in radians."""
    q = _mat_to_quat(rot)
    return float(2.0 * np.arctan2(np.linalg.norm(q[1:]), q[0]))


def log(a: Pose) -> np.ndarray:
    """SE(3) logarithm; inverse of :func:`exp` for rotation angle < pi."""
    w = rotation_log(a.rotation)
    wx = _skew(w)
    coef, = _angle_coefs(_norm(w), _LOG_COEFS)
    vinv = _I3 - 0.5 * wx + _scale(coef, wx @ wx)
    return np.concatenate([w, _mv(vinv, a.translation)], axis=-1)


def oplus(a: Pose, xi: np.ndarray) -> Pose:
    """Right-perturbation retraction a * exp(xi)."""
    return compose(a, exp(xi))


def ominus(a: Pose, b: Pose) -> np.ndarray:
    """Twist difference log(a^-1 * b); zero iff a == b."""
    return log(compose(inverse(a), b))


def adjoint(a: Pose) -> np.ndarray:
    """6x6 adjoint ``[[R, 0], [t^ R, R]]`` in ``[w, v]`` order, so that
    ``a * exp(xi) * a^-1 == exp(adjoint(a) @ xi)``."""
    rot = a.rotation
    out = np.zeros(rot.shape[:-2] + (6, 6))
    out[..., :3, :3] = rot
    out[..., 3:, 3:] = rot
    out[..., 3:, :3] = _skew(a.translation) @ rot
    return out


def right_jacobian_inv(xi: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian of SE(3) at the twist ``xi = [w, v]``:
    ``log(exp(xi) * exp(d)) = xi + right_jacobian_inv(xi) @ d + O(|d|^2)``.

    Closed form from Barfoot's left Jacobian ("State Estimation for
    Robotics") with ``Jr(xi) = Jl(-xi)``.  Below ``_SERIES_ANGLE`` the angle
    coefficients, which cancel catastrophically near zero, come from their
    Taylor series.
    """
    xi = np.asarray(xi, dtype=float)
    wx, vx = _skew(xi[..., :3]), _skew(xi[..., 3:])
    theta = _norm(xi[..., :3])
    a, b, c, so3 = _angle_coefs(theta, _JR_INV_COEFS)
    wv, vw = wx @ vx, vx @ wx
    wvw = wv @ wx
    wwv, vww = wx @ wv, vw @ wx
    # Coupling block of Jr, i.e. Barfoot's Q evaluated at (-v, -w).
    q = (-0.5 * vx + _scale(a, wv + vw - wvw)
         - _scale(b, wwv + vww - 3.0 * wvw)
         + _scale(c, wvw @ wx + wx @ wvw))
    rot_inv = _I3 + 0.5 * wx + _scale(so3, wx @ wx)
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = rot_inv
    out[..., 3:, 3:] = rot_inv
    out[..., 3:, :3] = -rot_inv @ q @ rot_inv
    return out


def to_quat_trans(a: Pose) -> list:
    """Serialize as [qw qx qy qz tx ty tz] (unit quaternion, millimetres);
    a batched Pose gives one such list per pose."""
    q = _mat_to_quat(a.rotation)
    return np.concatenate([q, a.translation], axis=-1).tolist()


def from_quat_trans(values) -> Pose:
    """Inverse of :func:`to_quat_trans`: one [qw qx qy qz tx ty tz], or a
    sequence of them for a batched Pose.  ValueError unless every pose has
    7 finite numbers and a nonzero quaternion."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (7,):
        raise ValueError("pose serialization must have 7 numbers [qw qx qy qz tx ty tz]")
    norm = _norm(values[..., :4])
    if not (np.isfinite(values).all() and (norm > 0).all()):
        raise ValueError("pose serialization must be finite with a nonzero "
                         f"quaternion, got {values.tolist()}")
    w, x, y, z = np.moveaxis(values[..., :4] / norm[..., None], -1, 0)
    rot = np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(values.shape[:-1] + (3, 3))
    return Pose(_reorthonormalize(rot), values[..., 4:].copy())


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)

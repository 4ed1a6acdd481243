"""SE(3) pose algebra: composition, exp/log maps, retraction operators,
adjoints and the closed-form inverse right Jacobian.

The factor Jacobians are closed-form products of :func:`right_jacobian_inv`
and :func:`adjoint`; the central-difference Jacobian at the end of the
pose algebra is only the test oracle they are checked against.

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
# Below this rotation angle right_jacobian_inv uses series coefficients.
_SERIES_ANGLE = 1e-2
_I3 = np.eye(3)
_I3.setflags(write=False)


def _skew(w):
    return np.array([
        [0.0, -w[2], w[1]],
        [w[2], 0.0, -w[0]],
        [-w[1], w[0], 0.0],
    ])


def _reorthonormalize(rot):
    # One Newton step toward the orthogonal polar factor; applied where
    # rotations are synthesized from series or quaternions so products of
    # Pose rotations stay orthonormal to machine precision.
    return rot @ (1.5 * _I3 - 0.5 * (rot.T @ rot))


@dataclass(frozen=True)
class Pose:
    """Rigid transform: 3x3 rotation matrix plus translation in millimetres."""

    rotation: np.ndarray
    translation: np.ndarray

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def transform_points(self, points: np.ndarray) -> np.ndarray:
        """Apply the pose to an (N, 3) array of points."""
        return points @ self.rotation.T + self.translation


def compose(a: Pose, b: Pose) -> Pose:
    """a * b: maps b-frame coordinates through b, then a."""
    return Pose(a.rotation @ b.rotation,
                a.rotation @ b.translation + a.translation)


def inverse(a: Pose) -> Pose:
    rot = a.rotation.T
    return Pose(rot, -rot @ a.translation)


def exp(xi: np.ndarray) -> Pose:
    """SE(3) exponential of a twist [w, v], with the V-matrix coupling."""
    xi = np.asarray(xi, dtype=float)
    w, v = xi[:3], xi[3:]
    theta = np.linalg.norm(w)
    wx = _skew(w)
    wx2 = wx @ wx
    if theta < _SMALL:
        rot = _I3 + wx + 0.5 * wx2
        vmat = _I3 + 0.5 * wx + wx2 / 6.0
    else:
        s, c = np.sin(theta), np.cos(theta)
        rot = _I3 + (s / theta) * wx + ((1.0 - c) / theta**2) * wx2
        vmat = (_I3 + ((1.0 - c) / theta**2) * wx
                + ((theta - s) / theta**3) * wx2)
    return Pose(_reorthonormalize(rot), vmat @ v)


def _mat_to_quat(rot):
    # Shepperd's method; returns [w, x, y, z] with w >= 0.
    m = rot
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s,
                      0.25 * s,
                      (m[0, 1] + m[1, 0]) / s,
                      (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s,
                      (m[0, 1] + m[1, 0]) / s,
                      0.25 * s,
                      (m[1, 2] + m[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s,
                      (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s,
                      0.25 * s])
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def rotation_log(rot: np.ndarray) -> np.ndarray:
    """Rotation-vector logarithm of a rotation matrix (angle < pi)."""
    q = _mat_to_quat(rot)
    vec_norm = np.linalg.norm(q[1:])
    theta = 2.0 * np.arctan2(vec_norm, q[0])
    if theta >= np.pi - _EPS_ANGLE:
        raise DomainError(f"rotation angle {theta:.9f} is at the log singularity (pi)")
    if vec_norm < _SMALL:
        # sin(theta/2) ~ theta/2, so q_vec ~ axis * theta / 2
        return 2.0 * q[1:]
    return q[1:] * (theta / vec_norm)


def rotation_angle(rot: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix in radians."""
    q = _mat_to_quat(rot)
    return float(2.0 * np.arctan2(np.linalg.norm(q[1:]), q[0]))


def log(a: Pose) -> np.ndarray:
    """SE(3) logarithm; inverse of :func:`exp` for rotation angle < pi."""
    w = rotation_log(a.rotation)
    theta = np.linalg.norm(w)
    wx = _skew(w)
    wx2 = wx @ wx
    if theta < _SMALL:
        vinv = _I3 - 0.5 * wx + wx2 / 12.0
    else:
        s, c = np.sin(theta), np.cos(theta)
        coef = (1.0 / theta**2) - (1.0 + c) / (2.0 * theta * s)
        vinv = _I3 - 0.5 * wx + coef * wx2
    return np.concatenate([w, vinv @ a.translation])


def oplus(a: Pose, xi: np.ndarray) -> Pose:
    """Right-perturbation retraction a * exp(xi)."""
    return compose(a, exp(xi))


def ominus(a: Pose, b: Pose) -> np.ndarray:
    """Twist difference log(a^-1 * b); zero iff a == b."""
    return log(compose(inverse(a), b))


def adjoint(a: Pose) -> np.ndarray:
    """6x6 adjoint ``[[R, 0], [t^ R, R]]`` in ``[w, v]`` order, so that
    ``a * exp(xi) * a^-1 == exp(adjoint(a) @ xi)``."""
    out = np.zeros((6, 6))
    out[:3, :3] = a.rotation
    out[3:, 3:] = a.rotation
    out[3:, :3] = _skew(a.translation) @ a.rotation
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
    wx, vx = _skew(xi[:3]), _skew(xi[3:])
    theta = np.linalg.norm(xi[:3])
    t2 = theta * theta
    if theta < _SERIES_ANGLE:
        c_so3 = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
        a = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
        b = 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0
        c = 1.0 / 120.0 - t2 / 2520.0 + t2 * t2 / 120960.0
    else:
        s, co = np.sin(theta), np.cos(theta)
        c_so3 = 1.0 / t2 - (1.0 + co) / (2.0 * theta * s)
        a = (theta - s) / theta**3
        b = (t2 + 2.0 * co - 2.0) / (2.0 * t2 * t2)
        c = (2.0 * theta - 3.0 * s + theta * co) / (2.0 * t2 * t2 * theta)
    wv, vw, wvw = wx @ vx, vx @ wx, wx @ vx @ wx
    wwv, vww = wx @ wv, vw @ wx
    # Coupling block of Jr, i.e. Barfoot's Q evaluated at (-v, -w).
    q = (-0.5 * vx + a * (wv + vw - wvw) - b * (wwv + vww - 3.0 * wvw)
         + c * (wvw @ wx + wx @ wvw))
    rot_inv = _I3 + 0.5 * wx + c_so3 * (wx @ wx)
    out = np.zeros((6, 6))
    out[:3, :3] = rot_inv
    out[3:, 3:] = rot_inv
    out[3:, :3] = -rot_inv @ q @ rot_inv
    return out


def numerical_jacobian(f, at: Pose, eps: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``at`` in tangent coordinates;
    the tests' oracle for the closed-form factor Jacobians.

    ``f`` maps a Pose to either a vector or a Pose.  Column i perturbs
    tangent coordinate i by +/- eps via :func:`oplus`.  For Pose-valued
    ``f`` the output difference is taken with :func:`ominus`.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cols = []
    for i in range(6):
        delta = np.zeros(6)
        delta[i] = eps
        fp = f(oplus(at, delta))
        fm = f(oplus(at, -delta))
        if isinstance(fp, Pose):
            diff = ominus(fm, fp)
        else:
            diff = np.asarray(fp, dtype=float) - np.asarray(fm, dtype=float)
        cols.append(diff / (2.0 * eps))
    return np.stack(cols, axis=1)


def to_quat_trans(a: Pose) -> list:
    """Serialize as [qw qx qy qz tx ty tz] (unit quaternion, millimetres)."""
    q = _mat_to_quat(a.rotation)
    return [float(x) for x in np.concatenate([q, a.translation])]


def from_quat_trans(values) -> Pose:
    values = np.asarray(values, dtype=float)
    if values.shape != (7,):
        raise ValueError("pose serialization must have 7 numbers [qw qx qy qz tx ty tz]")
    w, x, y, z = values[:4] / np.linalg.norm(values[:4])
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    return Pose(_reorthonormalize(rot), values[4:].copy())


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)

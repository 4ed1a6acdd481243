"""SE(3) algebra: composition, exp/log, retraction, numerical Jacobians."""

import numpy as np
import pytest
import scipy.linalg

from tactrack import geometry
from tactrack.geometry import DomainError, Pose

from .conftest import matrix, numerical_jacobian, random_pose, rot_z


def rz(angle):
    return Pose(rot_z(angle), np.zeros(3))


class TestCompose:
    def test_identity_left(self):
        rng = np.random.default_rng(0)
        p = random_pose(rng)
        q = geometry.compose(Pose.identity(), p)
        np.testing.assert_allclose(matrix(q), matrix(p), atol=1e-12)

    def test_inverse_cancels(self):
        rng = np.random.default_rng(1)
        p = random_pose(rng)
        q = geometry.compose(p, geometry.inverse(p))
        np.testing.assert_allclose(matrix(q), np.eye(4), atol=1e-9)

    def test_rz_quarter_turns_add(self):
        q = geometry.compose(rz(np.pi / 2), rz(np.pi / 2))
        expected = rot_z(np.pi / 2) @ rot_z(np.pi / 2)
        np.testing.assert_allclose(q.rotation, expected, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = geometry.compose(geometry.compose(a, b), c)
            right = geometry.compose(a, geometry.compose(b, c))
            np.testing.assert_allclose(matrix(left), matrix(right), atol=1e-9)


class TestInverse:
    def test_identity(self):
        np.testing.assert_allclose(matrix(geometry.inverse(Pose.identity())),
                                   np.eye(4), atol=1e-15)

    def test_pure_translation(self):
        p = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(geometry.inverse(p).translation,
                                   [-1.0, -2.0, -3.0], atol=1e-15)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_pose(rng)
            q = geometry.compose(geometry.inverse(p), p)
            np.testing.assert_allclose(matrix(q), np.eye(4), atol=1e-9)


class TestExpLog:
    def test_exp_zero(self):
        np.testing.assert_allclose(matrix(geometry.exp(np.zeros(6))),
                                   np.eye(4), atol=1e-15)

    def test_pure_translation_twist(self):
        p = geometry.exp(np.array([0, 0, 0, 1.0, -2.0, 0.5]))
        np.testing.assert_allclose(p.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(p.translation, [1.0, -2.0, 0.5], atol=1e-12)

    def test_roundtrip_small_twists(self):
        rng = np.random.default_rng(4)
        xi = rng.uniform(-0.5, 0.5, size=(1000, 6))
        worst = max(np.linalg.norm(geometry.log(geometry.exp(x)) - x)
                    for x in xi)
        assert worst < 1e-9

    def test_log_at_pi_raises(self):
        p = rz(np.pi)
        with pytest.raises(DomainError):
            geometry.log(p)

    # The V-matrix coefficients cancel in closed form at small angles; the
    # translation must still match the matrix exponential.
    @pytest.mark.parametrize("angle", [0.0, 1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 0.5])
    def test_exp_matches_expm(self, angle):
        xi = np.array([0.0, 0.0, angle, 30.0, 0.0, 0.0])
        twist = np.zeros((4, 4))
        twist[:3, :3] = geometry._skew(xi[:3])
        twist[:3, 3] = xi[3:]
        np.testing.assert_allclose(matrix(geometry.exp(xi)),
                                   scipy.linalg.expm(twist), rtol=0,
                                   atol=1e-12)

    def test_oplus_quarter_turn(self):
        p = geometry.oplus(Pose.identity(),
                           np.array([0, 0, np.pi / 2, 0, 0, 0]))
        np.testing.assert_allclose(p.rotation, rot_z(np.pi / 2),
                                   atol=1e-12)


class TestRetraction:
    def test_ominus_same_pose(self):
        rng = np.random.default_rng(5)
        p = random_pose(rng)
        np.testing.assert_allclose(geometry.ominus(p, p), np.zeros(6),
                                   atol=1e-9)

    def test_ominus_axis_aligned(self):
        xi = geometry.ominus(Pose.identity(), rz(0.3))
        np.testing.assert_allclose(xi, [0, 0, 0.3, 0, 0, 0], atol=1e-12)

    def test_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = random_pose(rng)
            xi = rng.uniform(-0.5, 0.5, size=6)
            back = geometry.ominus(a, geometry.oplus(a, xi))
            np.testing.assert_allclose(back, xi, atol=1e-8)

    def test_determinant_through_long_chains(self):
        rng = np.random.default_rng(7)
        p = Pose.identity()
        step = random_pose(rng, max_angle=0.3, max_trans=0.1)
        for _ in range(10_000):
            p = geometry.compose(p, step)
        assert abs(np.linalg.det(p.rotation) - 1.0) < 1e-9
        np.testing.assert_allclose(p.rotation @ p.rotation.T, np.eye(3),
                                   atol=1e-9)


class TestNumericalJacobian:
    def test_identity_map(self):
        rng = np.random.default_rng(8)
        at = random_pose(rng)
        jac = numerical_jacobian(lambda p: p, at)
        np.testing.assert_allclose(jac, np.eye(6), atol=1e-6)

    def test_ominus_at_fixed_pose(self):
        rng = np.random.default_rng(9)
        fixed = random_pose(rng)
        jac = numerical_jacobian(
            lambda p: geometry.ominus(p, fixed), fixed)
        np.testing.assert_allclose(jac, -np.eye(6), atol=1e-6)

    def test_matches_forward_difference(self):
        rng = np.random.default_rng(10)
        at = random_pose(rng)
        target = random_pose(rng)
        eps = 1e-6

        def f(p):
            return geometry.ominus(target, p)

        central = numerical_jacobian(f, at, eps)
        forward = np.zeros((6, 6))
        base = np.asarray(f(at))
        for i in range(6):
            delta = np.zeros(6)
            delta[i] = eps
            forward[:, i] = (np.asarray(f(geometry.oplus(at, delta))) - base) / eps
        assert np.abs(central - forward).max() < 10 * eps

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            numerical_jacobian(lambda p: p, Pose.identity(), eps=0.0)


def _numerical_right_jacobian(xi, eps=1e-6):
    """Jr with exp(xi + d) = exp(xi) * exp(Jr d) to first order."""
    base_inv = geometry.inverse(geometry.exp(xi))
    cols = []
    for i in range(6):
        d = np.zeros(6)
        d[i] = eps
        plus = geometry.log(geometry.compose(base_inv, geometry.exp(xi + d)))
        minus = geometry.log(geometry.compose(base_inv, geometry.exp(xi - d)))
        cols.append((plus - minus) / (2.0 * eps))
    return np.stack(cols, axis=1)


def _twist(rng, angle, max_trans=30.0):
    axis = rng.normal(size=3)
    return np.concatenate([axis / np.linalg.norm(axis) * angle,
                           rng.uniform(-max_trans, max_trans, 3)])


class TestAdjoint:
    def test_homomorphism(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = random_pose(rng, max_angle=2.5, max_trans=30.0)
            b = random_pose(rng, max_angle=2.5, max_trans=30.0)
            np.testing.assert_allclose(
                geometry.adjoint(geometry.compose(a, b)),
                geometry.adjoint(a) @ geometry.adjoint(b), atol=1e-9)

    def test_conjugation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            t = random_pose(rng, max_angle=2.5, max_trans=30.0)
            xi = _twist(rng, rng.uniform(0.0, 1.0), max_trans=5.0)
            lhs = geometry.exp(geometry.adjoint(t) @ xi)
            rhs = geometry.compose(geometry.compose(t, geometry.exp(xi)),
                                   geometry.inverse(t))
            np.testing.assert_allclose(matrix(lhs), matrix(rhs), atol=1e-9)


def _series_right_jacobian(xi):
    """Jr = integral_0^1 exp(-s ad(xi)) ds, read off the exponential of the
    block matrix [[-ad, I], [0, 0]]."""
    w, v = geometry._skew(xi[:3]), geometry._skew(xi[3:])
    ad = np.block([[w, np.zeros((3, 3))], [v, w]])
    block = np.zeros((12, 12))
    block[:6, :6] = -ad
    block[:6, 6:] = np.eye(6)
    return scipy.linalg.expm(block)[:6, 6:]


class TestRightJacobianInv:
    # Central differences of exp(xi + d) lose digits when the angle of
    # xi + d is tiny but not zero, so they check the moderate angles.
    @pytest.mark.parametrize("angle", [0.02, 0.5, 1.5, 2.5])
    def test_inverse_of_numerical_jacobian(self, angle):
        rng = np.random.default_rng(14)
        for _ in range(10):
            xi = _twist(rng, angle)
            expected = np.linalg.inv(_numerical_right_jacobian(xi))
            np.testing.assert_allclose(geometry.right_jacobian_inv(xi),
                                       expected, rtol=0, atol=1e-7)

    # Both sides of the switch to series coefficients at 1e-2 included.
    @pytest.mark.parametrize("angle", [0.0, 1e-8, 1e-3, 1e-2 - 1e-9,
                                       1e-2 + 1e-9, 0.02, 0.5, 1.5, 2.5])
    def test_inverse_of_series_jacobian(self, angle):
        rng = np.random.default_rng(16)
        for _ in range(10):
            xi = _twist(rng, angle)
            expected = np.linalg.inv(_series_right_jacobian(xi))
            np.testing.assert_allclose(geometry.right_jacobian_inv(xi),
                                       expected, rtol=0, atol=1e-10)


class TestBatch:
    """Each operation on a stack of poses equals it applied to each pose."""

    def _poses(self, n, seed):
        rng = np.random.default_rng(seed)
        return [random_pose(rng, max_angle=2.5, max_trans=30.0)
                for _ in range(n)]

    def _assert_rows(self, batched, singles):
        for i, single in enumerate(singles):
            if isinstance(single, Pose):
                np.testing.assert_array_equal(batched.rotation[i],
                                              single.rotation)
                np.testing.assert_array_equal(batched.translation[i],
                                              single.translation)
            else:
                np.testing.assert_array_equal(batched[i], single)

    def test_pose_operations(self):
        a, b = self._poses(7, 20), self._poses(7, 21)
        sa, sb = Pose.stack(a), Pose.stack(b)
        self._assert_rows(geometry.compose(sa, sb),
                          [geometry.compose(x, y) for x, y in zip(a, b)])
        self._assert_rows(geometry.inverse(sa), map(geometry.inverse, a))
        self._assert_rows(geometry.log(sa), map(geometry.log, a))
        self._assert_rows(geometry.adjoint(sa), map(geometry.adjoint, a))

    # "switch" is one batch on both sides of the switch to series
    # coefficients, with an angle of exactly 1e-2 along an axis: a single
    # angle there takes one branch, a batch selects with np.where.
    @pytest.mark.parametrize("angle", [0.0, 1e-9, 1e-3, 0.5, 2.5, "switch"])
    def test_twist_operations(self, angle):
        rng = np.random.default_rng(22)
        if angle == "switch":
            xi = np.stack([_twist(rng, a) for a in (5e-3, 1e-2 - 1e-12,
                                                     1e-2 + 1e-12, 0.02)]
                          + [np.r_[1e-2, 0.0, 0.0, rng.uniform(-30, 30, 3)]])
            theta = np.linalg.norm(xi[:, :3], axis=1)
            assert theta[-1] == 1e-2 and theta.min() < 1e-2 < theta.max()
        else:
            xi = np.stack([_twist(rng, angle * rng.uniform(0.5, 1.0))
                           for _ in range(5)] + [np.zeros(6)])
        self._assert_rows(geometry.exp(xi), map(geometry.exp, xi))
        self._assert_rows(geometry.right_jacobian_inv(xi),
                          map(geometry.right_jacobian_inv, xi))

    # A batch whose angles all lie on one side of 1e-2 evaluates only that
    # side's coefficients; each row must equal the same row of a batch that
    # mixes both sides and selects with np.where.
    def test_one_sided_batches_match_mixed(self):
        rng = np.random.default_rng(24)
        below = np.stack([_twist(rng, a) for a in (0.0, 1e-9, 1e-5, 3e-3,
                                                   1e-2 - 1e-12)])
        above = np.stack([_twist(rng, a) for a in (1e-2 + 1e-12, 0.02, 0.5,
                                                   2.5)]
                         + [np.r_[1e-2, 0.0, 0.0, rng.uniform(-30, 30, 3)]])
        mixed = np.concatenate([below, above])
        for side, rows in ((below, slice(0, 5)), (above, slice(5, None))):
            self._assert_rows(geometry.exp(side), geometry.exp(mixed)[rows])
            self._assert_rows(geometry.right_jacobian_inv(side),
                              geometry.right_jacobian_inv(mixed)[rows])
        poses = geometry.exp(mixed)
        angles = np.linalg.norm(geometry.log(poses)[:, :3], axis=1)
        assert (angles[:5] < 1e-2).all() and (angles[5:] >= 1e-2).all()
        self._assert_rows(geometry.log(poses[:5]), geometry.log(poses)[:5])
        self._assert_rows(geometry.log(poses[5:]), geometry.log(poses)[5:])

    def test_empty_batch(self):
        empty = Pose.stack([])
        assert geometry.log(empty).shape == (0, 6)
        assert geometry.exp(np.zeros((0, 6))).rotation.shape == (0, 3, 3)

    def test_log_raises_if_any_rotation_at_pi(self):
        batch = Pose.stack(self._poses(3, 23) + [rz(np.pi)])
        with pytest.raises(DomainError):
            geometry.log(batch)


class TestSerialization:
    def test_quat_trans_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_pose(rng)
            q = geometry.from_quat_trans(geometry.to_quat_trans(p))
            np.testing.assert_allclose(matrix(q), matrix(p), atol=1e-9)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            geometry.from_quat_trans([1, 0, 0, 0])

    @pytest.mark.parametrize("values", [
        [0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, np.inf, 0, 0],
        [np.nan, 0, 0, 1, 0, 0, 0]], ids=["zero_quaternion", "inf", "nan"])
    def test_zero_quaternion_and_non_finite_rejected(self, values):
        # Either would give a NaN pose instead of an error.
        with pytest.raises(ValueError, match="finite with a nonzero"):
            geometry.from_quat_trans(values)

    def test_batch_equals_each_pose(self):
        # The first four take the four branches of Shepperd's method: a
        # positive trace, then the largest diagonal element x, y or z.
        rng = np.random.default_rng(12)
        rotations = [rot_z(0.3), geometry.rot_x(3.0),
                     geometry.rot_y(3.0), rot_z(3.0)]
        branches = [np.argmax([4.0 * (np.trace(r) > 0) - 2.0, *np.diag(r)])
                    for r in rotations]
        assert branches == [0, 1, 2, 3]
        poses = ([Pose(r, rng.uniform(-30, 30, 3)) for r in rotations]
                 + [random_pose(rng, max_angle=3.0, max_trans=30.0)
                    for _ in range(4)])
        batched = geometry.to_quat_trans(Pose.stack(poses))
        singles = [geometry.to_quat_trans(p) for p in poses]
        np.testing.assert_array_equal(np.array(batched), np.array(singles))
        assert all(type(x) is float for row in batched for x in row)

    def test_batch_parses_as_each_pose(self):
        rng = np.random.default_rng(14)
        poses = [random_pose(rng, max_angle=3.0, max_trans=30.0)
                 for _ in range(50)]
        values = geometry.to_quat_trans(Pose.stack(poses))
        values[0][:4] = [2.0, 0.5, -0.5, 1.0]   # not a unit quaternion
        batched = geometry.from_quat_trans(values)
        assert batched.rotation.shape == (50, 3, 3)
        for i, row in enumerate(values):
            single = geometry.from_quat_trans(row)
            assert batched.rotation[i].tobytes() == single.rotation.tobytes()
            assert batched.translation[i].tobytes() == \
                single.translation.tobytes()
        values[7][2] = np.nan
        with pytest.raises(ValueError, match="finite with a nonzero"):
            geometry.from_quat_trans(values)

    def test_positive_trace_batch_matches_general_path(self):
        # A batch whose traces are all positive skips the Shepperd matrix;
        # appending rot_x(3.0), whose trace is negative, sends the same rows
        # through the general path.  assert_array_equal takes -0.0 == 0.0,
        # the one difference the docstring allows.
        rng = np.random.default_rng(13)
        poses = ([Pose(geometry.rot_x(-0.0), np.zeros(3)),
                  Pose(rot_z(2.0), rng.uniform(-30, 30, 3))]
                 + [random_pose(rng, max_angle=2.0, max_trans=30.0)
                    for _ in range(6)])
        flipped = Pose(geometry.rot_x(3.0), np.zeros(3))
        assert all(np.trace(p.rotation) > 0 for p in poses)
        assert np.trace(flipped.rotation) < 0
        fast = geometry.to_quat_trans(Pose.stack(poses))
        general = geometry.to_quat_trans(Pose.stack(poses + [flipped]))
        np.testing.assert_array_equal(np.array(fast), np.array(general[:-1]))
        fast_log = geometry.log(Pose.stack(poses))
        general_log = geometry.log(Pose.stack(poses + [flipped]))
        np.testing.assert_array_equal(fast_log, general_log[:-1])

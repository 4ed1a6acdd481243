"""Point-to-plane ICP: single steps, full registration, and icp_register's
memo, which keeps solved results only, keyed by the identity of both clouds
and holding them weakly; a failed call is solved again."""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from tactrack import geometry, registration
from tactrack.episodes import generate_episode
from tactrack.geometry import Pose
from tactrack.harness import default_suite_config, episode_seed
from tactrack.reconstruct import PointCloud, reconstruct_cloud
from tactrack.registration import (CONDITION_LIMIT, CONVERGENCE_THRESHOLD,
                                   MAX_CORRESPONDENCE_DISTANCE,
                                   MAX_ITERATIONS, MIN_CORRESPONDENCES,
                                   MIN_PREDICTED_REDUCTION,
                                   DegenerateGeometryError,
                                   InsufficientOverlapError, icp_register,
                                   point_to_plane_step)
from tactrack.shapes import shape_from_descriptor
from tactrack.tracker import GATE_IM2IM, Tracker, TrackerConfig, TrackerMode

from .conftest import matrix, plane_cloud, random_pose, sphere_cap_cloud


class TestPointToPlaneStep:
    def test_zero_residual_zero_twist(self):
        cloud = sphere_cap_cloud(n=200)
        twist, cond, reduction = point_to_plane_step(cloud.points, cloud.points,
                                                     cloud.normals)
        np.testing.assert_allclose(twist, np.zeros(6), atol=1e-12)
        assert np.isfinite(cond) and cond >= 1.0
        assert reduction == 0.0

    def test_normal_shift_recovered(self):
        src = sphere_cap_cloud(n=200)
        shifted = src.points + np.array([0, 0, 0.1])
        twist, _, reduction = point_to_plane_step(src.points, shifted,
                                                  src.normals)
        moved = geometry.exp(twist).transform_points(src.points)
        residual = np.einsum("ij,ij->i", src.normals, moved - shifted)
        assert np.abs(residual).max() < 1e-6
        # A pure shift is in the model's span: the step removes all the cost.
        assert abs(reduction - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_predicted_reduction_is_model_decrease(self, seed):
        # ||b||^2 - ||b - A delta||^2, the cost the linearized model loses
        # over the step, as a share of ||b||^2.
        src, tgt, nrm = _random_match(np.random.default_rng(seed), 300)
        twist, _, reduction = point_to_plane_step(src, tgt, nrm)
        a = np.hstack([np.cross(src, nrm), nrm])
        b = np.einsum("ij,ij->i", nrm, tgt - src)
        left = b - a @ twist
        assert 0.0 < reduction < 1.0
        assert abs(reduction - (b @ b - left @ left) / (b @ b)) < 1e-12

    def test_plane_patch_degenerate(self):
        src = plane_cloud(n=200)
        # A single plane constrains only 3 of 6 degrees of freedom, so the
        # normal matrix is rank deficient regardless of the applied shift.
        shifted = src.points + np.array([0.3, 0, 0.1])
        with pytest.raises(DegenerateGeometryError):
            point_to_plane_step(src.points, shifted, src.normals)

    def test_singular_system_reports_infinity(self):
        # The plane's AᵀA is singular; rounding leaves its smallest
        # eigenvalue anywhere within m ε λmax of zero, either sign, which
        # read as λmax/λmin made finite condition numbers of noise.  Posed
        # anywhere, the plane reports an infinite one.
        plane = plane_cloud(n=200)
        shifted = plane.points + np.array([0.3, 0, 0.1])
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_pose(rng)
            with pytest.raises(DegenerateGeometryError) as err:
                point_to_plane_step(g.transform_points(plane.points),
                                    g.transform_points(shifted),
                                    plane.normals @ g.rotation.T)
            assert err.value.condition_number == math.inf

    def test_too_few_correspondences(self):
        cloud = sphere_cap_cloud(n=10)
        with pytest.raises(InsufficientOverlapError):
            point_to_plane_step(cloud.points[:4], cloud.points[:4],
                                cloud.normals[:4])


def _reference_step(src_pts, tgt_pts, tgt_normals):
    """point_to_plane_step as first written: np.cross and np.hstack build
    the system, np.linalg.cond gives its condition number and
    np.linalg.solve its twist."""
    a = np.hstack([np.cross(src_pts, tgt_normals), tgt_normals])
    b = np.einsum("ij,ij->i", tgt_normals, tgt_pts - src_pts)
    ata, atb = a.T @ a, a.T @ b
    cond = float(np.linalg.cond(ata))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateGeometryError(cond)
    delta = np.linalg.solve(ata, atb)
    total = b @ b
    return delta, cond, float(delta @ atb / total) if total > 0 else 0.0


def _relative(value, reference):
    """Distance of `value` from `reference` over the reference's norm."""
    return (np.linalg.norm(np.subtract(value, reference))
            / np.linalg.norm(reference))


def _random_match(rng, n):
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    src = rng.uniform(-4.0, 4.0, size=(n, 3))
    return src, src + rng.normal(scale=0.2, size=(n, 3)), normals


def _cap_match(rng, n):
    cap = sphere_cap_cloud(n=n)
    shift = geometry.exp(rng.uniform(-0.05, 0.05, 6))
    return cap.points, shift.transform_points(cap.points), cap.normals


# Bounds on the lean step and loop against the np.linalg reference: the
# twist and transform (norm of the difference over the reference's norm),
# the condition number (relative), and the increment against geometry.exp
# (absolute on R, relative to |v| on V v).
TWIST_RTOL = 1e-12
COND_RTOL = 1e-9
INCREMENT_TOL = 1e-15


class TestStepMatchesReference:
    """The LAPACK step against the np.linalg one."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("make, n", [(_random_match, 7), (_random_match, 500),
                                         (_cap_match, 60), (_cap_match, 400)])
    def test_same_bits(self, make, n, seed):
        # The same bits on contiguous inputs and on the strided views
        # icp_register passes, within the bounds of the reference.
        src, tgt, nrm = make(np.random.default_rng(seed), n)
        expected, expected_cond, _ = _reference_step(src, tgt, nrm)
        stacked = np.hstack([tgt, nrm])
        twist, cond, reduction = point_to_plane_step(src, tgt, nrm)
        assert _relative(twist, expected) <= TWIST_RTOL
        assert abs(cond - expected_cond) <= COND_RTOL * expected_cond
        strided = point_to_plane_step(src, stacked[:, :3], stacked[:, 3:])
        np.testing.assert_array_equal(strided[0], twist)
        assert strided[1:] == (cond, reduction)

    def test_plane_still_degenerate(self):
        plane = plane_cloud(n=200)
        shifted = plane.points + np.array([0.3, 0, 0.1])
        with pytest.raises(DegenerateGeometryError) as expected:
            _reference_step(plane.points, shifted, plane.normals)
        with pytest.raises(DegenerateGeometryError) as err:
            point_to_plane_step(plane.points, shifted, plane.normals)
        assert err.value.condition_number == expected.value.condition_number

    @pytest.mark.parametrize("direction, normal", [
        ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        ((1.0, 2.0, 3.0), (-2.0, 1.0, 0.3))])
    def test_rank_deficient_system(self, direction, normal):
        # Collinear points with one normal span two of the six columns of
        # A, so AᵀA has rank 2: its smallest eigenvalue is 0 up to rounding.
        src, nrm = _line(direction, normal)
        with pytest.raises(DegenerateGeometryError) as err:
            point_to_plane_step(src, src + 0.1 * nrm, nrm)
        cond = err.value.condition_number
        assert not np.isfinite(cond) or cond > CONDITION_LIMIT

    def test_rank_deficient_registration_recorded_as_null(self, gel):
        # The tracker records the infinite condition number as null.
        line = PointCloud(*_line((1.0, 2.0, 3.0), (-2.0, 1.0, 0.3)))
        tracker = Tracker(TrackerMode.IMAGE_TO_IMAGE, TrackerConfig(),
                          Pose.identity(), gel)
        diag = {}
        assert tracker._register("im2im", line, line, Pose.identity(),
                                 GATE_IM2IM, diag) is None
        assert json.dumps(diag["icp_im2im"]) == (
            '{"fate": "degenerate", "condition_number": null}')

    def test_failed_factorization_is_degenerate(self, monkeypatch):
        # A Cholesky failure (LAPACK info > 0) is reported like any other
        # degenerate system, never as a LinAlgError.
        def failed(a, b):
            return a, b, 1

        monkeypatch.setattr(scipy.linalg.lapack, "dposv", failed)
        src, tgt, nrm = _cap_match(np.random.default_rng(0), 60)
        with pytest.raises(DegenerateGeometryError) as err:
            point_to_plane_step(src, tgt, nrm)
        assert np.isfinite(err.value.condition_number)


def _line(direction, normal, n=50):
    """`n` points on a line through (1, -2, 0.5) with one shared normal:
    (points, normals)."""
    direction = np.asarray(direction) / np.linalg.norm(direction)
    normal = np.asarray(normal) / np.linalg.norm(normal)
    points = (np.array([1.0, -2.0, 0.5])
              + np.linspace(-3.0, 3.0, n)[:, None] * direction)
    return points, np.tile(normal, (n, 1))


class TestIncrement:
    """ICP's scalar SE(3) increment against geometry.exp."""

    @pytest.mark.parametrize("angle", [
        0.0, 1e-9, 1e-4,                    # the series branch
        1e-2 * (1 - 1e-9), 1e-2 * (1 + 1e-9),   # either side of its switch
        0.3, np.pi / 2 - 1e-6, np.pi / 2, np.pi / 2 + 1e-6])
    def test_matches_exp(self, angle):
        rng = np.random.default_rng(0)
        for _ in range(50):
            axis = rng.normal(size=3)
            twist = np.concatenate([angle * axis / np.linalg.norm(axis),
                                    rng.uniform(-5.0, 5.0, 3)])
            rot, trans = registration._increment(twist.tolist())
            expected = geometry.exp(twist)
            assert np.abs(rot - expected.rotation).max() <= INCREMENT_TOL
            assert (np.abs(trans - expected.translation).max()
                    <= INCREMENT_TOL * np.linalg.norm(twist[3:]))

    def test_orthonormal_after_max_iterations(self, monkeypatch):
        # With both stop tests off, a noisy fit applies MAX_ITERATIONS
        # increments before the one reorthonormalization.
        monkeypatch.setattr(registration, "CONVERGENCE_THRESHOLD", 0.0)
        monkeypatch.setattr(registration, "MIN_PREDICTED_REDUCTION", -1.0)
        src, tgt, _ = _cap_rotated_about_centre(noise=0.01)
        result = icp_register(src, tgt, Pose.identity())
        assert result.iterations == MAX_ITERATIONS and not result.converged
        rot = result.transform.rotation
        assert np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-12


def _cap_rotated_about_centre(noise, angle=0.05, radius=6.35, indent=1.0):
    """The reconstructed cap with `noise` (mm) added to its points, and a
    noise-free copy rotated by `angle` about the sphere's centre, with that
    rotation: (source, target, transform)."""
    cap = sphere_cap_cloud(radius=radius, indent=indent)
    centre = np.array([0.0, 0.0, radius - indent])
    rotation = geometry.rot_x(angle)
    true = Pose(rotation, centre - rotation @ centre)
    rng = np.random.default_rng(0)
    src = PointCloud(points=cap.points + rng.normal(scale=noise,
                                                    size=cap.points.shape),
                     normals=cap.normals, frame="sensor")
    return src, cap.transformed(true, frame="sensor"), true


class _Recorded:
    """A k-d tree that records the points and answer of every query."""

    def __init__(self, tree):
        self.tree = tree
        self.queries = []

    def query(self, points, **kwargs):
        dists, idx = self.tree.query(points, **kwargs)
        self.queries.append((points, dists, idx))
        return dists, idx


def _recorded(target):
    """A copy of `target` whose k-d tree is _Recorded."""
    copy = PointCloud(points=target.points, normals=target.normals)
    tree, rows = target.search
    copy.search = (_Recorded(tree), rows)
    return copy


class TestIcpRegister:
    def test_self_registration_identity(self):
        cloud = sphere_cap_cloud(n=300)
        result = icp_register(cloud, cloud, Pose.identity())
        assert result.converged
        assert result.iterations <= 2
        assert result.inlier_rmse < 1e-9
        np.testing.assert_allclose(matrix(result.transform), np.eye(4),
                                   atol=1e-9)

    def test_known_transform_recovery(self):
        src = sphere_cap_cloud(n=400)
        true = geometry.exp(np.array([np.deg2rad(3.0), 0, 0, 0.5, 0, 0]))
        tgt = src.transformed(true, frame="sensor")
        result = icp_register(src, tgt, Pose.identity())
        assert result.converged
        err = geometry.ominus(true, result.transform)
        assert np.linalg.norm(err[:3]) < 1e-3
        assert np.linalg.norm(err[3:]) < 1e-2

    def test_warm_start_fast(self):
        src = sphere_cap_cloud(n=400)
        true = geometry.exp(np.array([np.deg2rad(3.0), 0, 0, 0.5, 0, 0]))
        tgt = src.transformed(true, frame="sensor")
        result = icp_register(src, tgt, true)
        assert result.converged
        assert result.iterations <= 2

    def test_noisy_fit_stops_on_predicted_reduction(self):
        # Rotation about the sphere's centre barely changes the cap, so on
        # noisy points the cost flattens within a few steps while the twist
        # keeps wandering along that direction; the twist test alone ran
        # this to the iteration cap.
        src, tgt, true = _cap_rotated_about_centre(noise=0.01)
        result = icp_register(src, tgt, Pose.identity())
        assert result.converged
        assert result.iterations <= MAX_ITERATIONS // 3
        assert result.predicted_reduction <= MIN_PREDICTED_REDUCTION
        err = geometry.ominus(true, result.transform)
        assert np.linalg.norm(err[3:]) < 0.05

    def test_noise_free_fit_stops_on_twist(self):
        # Without noise every step removes nearly all of the remaining cost,
        # so only the twist test can end the loop, at criterion 3's accuracy.
        src, tgt, true = _cap_rotated_about_centre(noise=0.0)
        result = icp_register(src, tgt, Pose.identity())
        assert result.converged
        assert result.predicted_reduction > MIN_PREDICTED_REDUCTION
        err = geometry.ominus(true, result.transform)
        assert np.linalg.norm(err[:3]) < 1e-3
        assert np.linalg.norm(err[3:]) < 1e-2

    def test_final_rmse_not_worse_than_initial(self):
        rng = np.random.default_rng(1)
        src = sphere_cap_cloud(n=300)
        true = random_pose(rng, max_angle=0.05, max_trans=0.5)
        tgt = src.transformed(true, frame="sensor")
        init_moved = src.points
        init_rmse = np.sqrt(np.mean(np.sum(
            (init_moved - tgt.points)**2, axis=1)))
        result = icp_register(src, tgt, Pose.identity())
        assert result.inlier_rmse <= init_rmse + 1e-12

    def test_equivariance_under_conjugation(self):
        rng = np.random.default_rng(2)
        src = sphere_cap_cloud(n=300)
        true = geometry.exp(np.array([0.02, -0.01, 0.03, 0.2, -0.1, 0.3]))
        tgt = src.transformed(true, frame="sensor")
        g = random_pose(rng, max_angle=0.5, max_trans=3.0)
        base = icp_register(src, tgt, Pose.identity()).transform
        conj = icp_register(src.transformed(g, frame="sensor"),
                            tgt.transformed(g, frame="sensor"),
                            Pose.identity()).transform
        expected = geometry.compose(g, geometry.compose(base, geometry.inverse(g)))
        assert np.abs(matrix(conj) - matrix(expected)).max() < 1e-6

    def test_cap_better_conditioned_than_plane(self):
        cap = sphere_cap_cloud(n=300)
        cap_result = icp_register(cap, cap, Pose.identity())
        plane = plane_cloud(n=300)
        with pytest.raises(DegenerateGeometryError) as err:
            point_to_plane_step(plane.points, plane.points, plane.normals)
        assert cap_result.condition_number < err.value.condition_number

    def test_insufficient_overlap(self):
        a = sphere_cap_cloud(n=50)
        b = PointCloud(points=a.points + 100.0, normals=a.normals)
        with pytest.raises(InsufficientOverlapError):
            icp_register(a, b, Pose.identity())

    def test_fitness_of_returned_transform(self):
        src = sphere_cap_cloud(n=300)
        true = geometry.exp(np.array([0.02, -0.01, 0.03, 0.2, -0.1, 0.3]))
        tgt = src.transformed(true, frame="sensor")
        result = icp_register(src, tgt, Pose.identity())
        moved = result.transform.transform_points(src.points)
        dists, idx = tgt.search[0].query(moved, distance_upper_bound=6.0)
        keep = np.isfinite(dists)
        assert result.correspondence_count == keep.sum()
        assert result.inlier_rmse == np.sqrt(np.mean(np.sum(
            (moved[keep] - tgt.points[idx[keep]]) ** 2, axis=1)))

    @pytest.mark.parametrize("outliers", [0, 10])
    def test_scored_on_last_matches_with_one_query_per_iteration(
            self, outliers):
        # The fitness is the RMSE of the returned transform T over the last
        # iteration's matches, so no query follows the loop.  Outliers 100 mm
        # off never match, so with them every iteration keeps a subset.
        cap = sphere_cap_cloud(n=300)
        src = PointCloud(points=np.vstack([cap.points,
                                           cap.points[:outliers] + 100.0]),
                         normals=np.vstack([cap.normals,
                                            cap.normals[:outliers]]))
        true = geometry.exp(np.array([0.02, -0.01, 0.03, 0.2, -0.1, 0.3]))
        tgt = cap.transformed(true, frame="sensor")
        recorded = _recorded(tgt)
        result = icp_register(src, recorded, Pose.identity())
        queries = recorded.search[0].queries
        assert len(queries) == result.iterations
        _, dists, idx = queries[-1]
        keep = np.isfinite(dists)
        assert result.correspondence_count == keep.sum() == len(cap)
        moved = result.transform.transform_points(src.points[keep])
        assert result.inlier_rmse == np.sqrt(np.mean(np.sum(
            (moved - tgt.points[idx[keep]]) ** 2, axis=1)))

    def test_result_serializable(self):
        cloud = sphere_cap_cloud(n=100)
        d = icp_register(cloud, cloud, Pose.identity()).to_dict()
        assert set(d) == {"transform", "converged", "iterations",
                          "inlier_rmse", "correspondence_count",
                          "condition_number", "predicted_reduction"}


def _masked_icp(source, target, init, lean):
    """icp_register's loop gathering every iteration's matches through the
    finite-distance mask, with its overlap check, both stop tests and the
    fitness of the returned transform over the last matches, as a tuple of
    the ICPResult fields.  With `lean` False it is the loop as first
    written: the np.linalg step (_reference_step), each step applied as
    compose(exp(delta), T) and the twist norm taken by np.linalg.norm.
    With `lean` True it applies steps as `icp_register` does."""
    tree, rows = target.search
    transform = init
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        moved = transform.transform_points(source.points)
        dists, idx = tree.query(
            moved, distance_upper_bound=MAX_CORRESPONDENCE_DISTANCE)
        keep = np.isfinite(dists)
        if keep.sum() < MIN_CORRESPONDENCES:
            raise InsufficientOverlapError(int(keep.sum()),
                                           MIN_CORRESPONDENCES)
        matched = rows[idx[keep]]
        step = point_to_plane_step if lean else _reference_step
        delta, cond, reduction = step(moved[keep], matched[:, :3],
                                      matched[:, 3:])
        if lean:
            rot, trans = registration._increment(delta.tolist())
            transform = Pose(rot @ transform.rotation,
                             rot @ transform.translation + trans)
            norm = math.hypot(*delta)
        else:
            transform = geometry.compose(geometry.exp(delta), transform)
            norm = np.linalg.norm(delta)
        if (norm < CONVERGENCE_THRESHOLD
                or reduction <= MIN_PREDICTED_REDUCTION):
            converged = True
            break
    if lean:
        transform = Pose(geometry._reorthonormalize(transform.rotation),
                         transform.translation)
    moved = transform.transform_points(source.points[keep])
    rmse = np.sqrt(np.mean(np.sum((moved - matched[:, :3]) ** 2, axis=1)))
    return (transform, converged, iterations, float(rmse), int(keep.sum()),
            cond, reduction)


def _assert_near_reference(result, reference):
    """`result` against _masked_icp's tuple as first written: the same
    iterations, stop and matches; the transform within TWIST_RTOL, the
    condition number within COND_RTOL."""
    transform, converged, iterations, _, count, cond, _ = reference
    assert (result.converged, result.iterations,
            result.correspondence_count) == (converged, iterations, count)
    for array in ("rotation", "translation"):
        assert _relative(getattr(result.transform, array),
                         getattr(transform, array)) <= TWIST_RTOL
    assert abs(result.condition_number - cond) <= COND_RTOL * cond


class TestIcpMatchesReference:
    @staticmethod
    def _partly_unmatched():
        # Started 6.2 mm off along the cap's axis and 3 mm across it, part
        # of the source lies beyond the correspondence distance until the
        # first step pulls it in; later iterations match every point.
        src = sphere_cap_cloud()
        tgt = src.transformed(geometry.exp(np.array([0.02, -0.01, 0.03,
                                                     0.2, -0.1, 0.3])),
                              frame="sensor")
        init = geometry.exp(np.array([0.0, 0.0, 0.0, 3.0, 0.0, 6.2]))
        return src, tgt, init

    def test_same_bits_with_and_without_unmatched_points(self):
        src, tgt, init = self._partly_unmatched()
        recorded = _recorded(tgt)
        result = icp_register(src, recorded, init)
        unmatched = [int(np.isinf(dists).sum())
                     for _, dists, _ in recorded.search[0].queries]
        assert unmatched[0] > 0 and 0 in unmatched
        transform, *fields = _masked_icp(src, tgt, init, lean=True)
        np.testing.assert_array_equal(result.transform.rotation,
                                      transform.rotation)
        np.testing.assert_array_equal(result.transform.translation,
                                      transform.translation)
        assert [result.converged, result.iterations, result.inlier_rmse,
                result.correspondence_count, result.condition_number,
                result.predicted_reduction] == fields

    def test_near_first_written_loop(self):
        src, tgt, init = self._partly_unmatched()
        _assert_near_reference(icp_register(src, tgt, init),
                               _masked_icp(src, tgt, init, lean=False))

    @pytest.mark.parametrize("name", ["sphere", "cube", "pyramid"])
    def test_episode_im2im_pairs_keep_their_fates(self, name):
        # Every consecutive pair of contact clouds of the default suite's
        # first episode, started at the measured end-effector motion as
        # the tracker's im2im call is: the same fate, and for a solved
        # registration the same iterations, stop and matches, as the loop
        # as first written.
        suite = default_suite_config()
        index = [o.name for o in suite.objects].index(name)
        episode = generate_episode(
            shape_from_descriptor(suite.objects[index].shape),
            suite.trajectories[0], suite.gel, suite.noise,
            seed=episode_seed(suite, index, 0))
        frames = [(reconstruct_cloud(f.normals, suite.gel)[1], f.eff_measured)
                  for f in episode.frames if f.normals.mask.any()]
        fates = set()
        for (target, before), (source, after) in zip(frames, frames[1:]):
            init = geometry.compose(geometry.inverse(before), after)
            outcomes = []
            for solve in (icp_register,
                          lambda *args: _masked_icp(*args, lean=False)):
                try:
                    outcomes.append(solve(source, target, init))
                except (DegenerateGeometryError,
                        InsufficientOverlapError) as err:
                    outcomes.append(type(err))
            result, reference = outcomes
            if isinstance(reference, tuple):
                _assert_near_reference(result, reference)
                fates.add("solved")
            else:
                assert result is reference
                fates.add(reference.__name__)
        assert "solved" in fates


class TestIcpMemo:
    """icp_register keeps each solved (source, target, init) and returns
    its result again; a failed call keeps nothing and is solved again."""

    @staticmethod
    def _pair():
        src = sphere_cap_cloud(n=300)
        true = geometry.exp(np.array([0.02, -0.01, 0.03, 0.2, -0.1, 0.3]))
        return src, _recorded(src.transformed(true, frame="sensor"))

    def test_repeat_replays_without_tree_query(self):
        src, tgt = self._pair()
        first = icp_register(src, tgt, Pose.identity())
        queries = len(tgt.search[0].queries)
        assert queries == first.iterations > 0
        again = icp_register(src, tgt, Pose.identity())
        assert len(tgt.search[0].queries) == queries
        assert again is first

    def test_other_init_or_target_misses(self):
        src, tgt = self._pair()
        init = Pose.identity()
        first = icp_register(src, tgt, init)
        queries = len(tgt.search[0].queries)
        # One ulp on one init entry is another registration.
        for array in ("rotation", "translation"):
            moved = Pose(init.rotation.copy(), init.translation.copy())
            getattr(moved, array).flat[0] = np.nextafter(
                getattr(init, array).flat[0], np.inf)
            assert icp_register(src, tgt, moved) is not first
            assert len(tgt.search[0].queries) > queries
            queries = len(tgt.search[0].queries)
        # A target with equal arrays is another cloud, and is solved anew.
        twin = _recorded(tgt)
        result = icp_register(src, twin, init)
        assert len(twin.search[0].queries) == result.iterations
        assert result is not first and result.to_dict() == first.to_dict()

    def test_equal_clouds_are_distinct(self):
        # The memo keys clouds by identity: equal arrays make another key.
        cloud = sphere_cap_cloud(n=300)
        twin = PointCloud(points=cloud.points, normals=cloud.normals)
        assert cloud == cloud and cloud != twin
        assert hash(cloud) != hash(twin)

    @staticmethod
    def _raised(source, target, error):
        with pytest.raises(error) as caught:
            icp_register(source, target, Pose.identity())
        return caught.value

    @pytest.mark.parametrize("error", [DegenerateGeometryError,
                                       InsufficientOverlapError])
    def test_repeated_failure_is_solved_again(self, error):
        if error is DegenerateGeometryError:
            src = plane_cloud(n=300)
            tgt = _recorded(src)
            attrs = ("condition_number",)
        else:
            src = sphere_cap_cloud(n=50)
            tgt = _recorded(PointCloud(points=src.points + 100.0,
                                       normals=src.normals))
            attrs = ("count", "required")
        first = self._raised(src, tgt, error)
        queries = len(tgt.search[0].queries)
        assert queries > 0
        again = self._raised(src, tgt, error)
        assert len(tgt.search[0].queries) == 2 * queries
        assert again is not first
        assert type(again) is type(first) and str(again) == str(first)
        assert ([getattr(again, a) for a in attrs]
                == [getattr(first, a) for a in attrs])
        # A failure leaves no memo entry.
        assert src not in registration._SOLVED

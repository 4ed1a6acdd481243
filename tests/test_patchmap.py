"""Local patch map: keyframe policy, fusion, consistency."""

import numpy as np
import pytest

from tactrack import geometry, tracker
from tactrack.geometry import Pose
from tactrack.episodes import NoiseSpec, TrajectorySpec, generate_episode
from tactrack.patchmap import VOXEL_SIZE, _voxel_downsample, fuse_keyframe
from tactrack.reconstruct import PointCloud, reconstruct_cloud
from tactrack.render import GelConfig, depth_to_normals, render_depth
from tactrack.shapes import Pyramid, Sphere
from tactrack.tracker import (ConfigError, TrackerConfig, TrackerMode,
                              track_episode)


def sphere_contact_cloud(sensor_pose, radius=6.35, gel=None):
    gel = gel or GelConfig()
    shape = Sphere(radius=radius)
    depth = render_depth(shape, Pose.identity(), sensor_pose, gel)
    normals = depth_to_normals(depth, gel)
    _, cloud = reconstruct_cloud(normals, gel)
    return cloud


def sensor_pose_over_sphere(offset_x, radius=6.35, indent=1.0):
    """Sensor pose over an origin-centred sphere, shifted along x, with the
    gel plane cutting `indent` into the surface.  The gel presses against
    the underside of the object, so the contact surface dips below the
    sensor-frame z = 0 plane."""
    surface = -np.sqrt(max(radius**2 - offset_x**2, 0.0))
    return Pose(np.eye(3), np.array([offset_x, 0.0, surface + indent]))


@pytest.fixture(scope="module")
def keyframe_flags():
    """Per-step keyframe flags of a patchgraph run with a keyframe interval
    of 5."""
    gel = GelConfig()
    ep = generate_episode(Pyramid(),
                          TrajectorySpec(steps=6, indent=1.25, length=1.0),
                          gel, NoiseSpec(), seed=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tracker, "KEYFRAME_INTERVAL", 5)
        result = track_episode(ep, TrackerMode.PATCH_GRAPH)
    assert all(not d["skipped_registration"] for d in result.diagnostics)
    return [d["keyframe"] for d in result.diagnostics]


class TestKeyframePolicy:
    def test_fixed_interval_first_frame(self, keyframe_flags):
        assert keyframe_flags[0]

    def test_fixed_interval_between(self, keyframe_flags):
        assert keyframe_flags[1:6] == [False, False, False, False, True]

    def test_invalid_policy_rejected(self):
        # The interval is a constant, not a setting.
        with pytest.raises(ConfigError):
            TrackerConfig.from_dict({"keyframe_interval": 2})
        with pytest.raises(ConfigError):
            TrackerConfig.from_dict({"keyframes": {"interval": 2}})


class TestFuseKeyframe:
    def test_fuse_into_empty(self):
        cloud = sphere_contact_cloud(sensor_pose_over_sphere(0.0))
        pose = geometry.exp(np.array([0, 0, 0, 1.0, 0, 0]))
        pmap = fuse_keyframe([(cloud, pose)])
        assert not pmap.is_empty()
        assert pmap.cloud.frame == "object"
        # Downsampling only merges points; the fused cloud covers the same
        # region as the transformed input.
        moved = pose.transform_points(cloud.points)
        np.testing.assert_allclose(pmap.cloud.points.mean(axis=0),
                                   moved.mean(axis=0), atol=0.2)

    def test_refusing_same_cloud_stable(self):
        cloud = sphere_contact_cloud(sensor_pose_over_sphere(0.0))
        pose = Pose.identity()
        once = fuse_keyframe([(cloud, pose)])
        twice = fuse_keyframe([(cloud, pose)] * 2)
        assert abs(len(twice.cloud) - len(once.cloud)) <= 0.05 * len(once.cloud)

    def test_sphere_radius_from_fused_caps(self):
        radius = 6.35
        keyframes = []
        for offset in (-1.5, 0.0, 1.5):
            pose = sensor_pose_over_sphere(offset, radius)
            cloud = sphere_contact_cloud(pose, radius)
            object_from_sensor = geometry.inverse(Pose.identity())
            object_from_sensor = geometry.compose(object_from_sensor, pose)
            keyframes.append((cloud, object_from_sensor))
        pts = fuse_keyframe(keyframes).cloud.points
        # Algebraic least-squares sphere fit.
        A = np.column_stack([2 * pts, np.ones(len(pts))])
        b = np.sum(pts**2, axis=1)
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        center = sol[:3]
        fit_radius = np.sqrt(sol[3] + center @ center)
        assert abs(fit_radius - radius) < 0.02 * radius

    def test_pairs_fused_in_one_pass(self):
        # Several keyframes in one call give the voxel mean of all their
        # points, not a mean of per-keyframe means.
        keyframes = []
        for offset in (-1.5, 0.0, 1.5):
            pose = sensor_pose_over_sphere(offset)
            keyframes.append((sphere_contact_cloud(pose), pose))
        fused = fuse_keyframe(keyframes).cloud
        moved = [cloud.transformed(pose, frame="object")
                 for cloud, pose in keyframes]
        points, normals = _voxel_downsample(
            np.vstack([m.points for m in moved]),
            np.vstack([m.normals for m in moved]), VOXEL_SIZE)
        np.testing.assert_array_equal(fused.points, points)
        np.testing.assert_array_equal(fused.normals, normals)

    def test_wrong_frame_rejected(self):
        cloud = PointCloud(points=np.zeros((1, 3)), normals=np.zeros((1, 3)),
                           frame="object")
        with pytest.raises(ValueError):
            fuse_keyframe([(cloud, Pose.identity())])


class TestInvariants:
    def test_groundtruth_fusion_consistency(self):
        """Keyframes fused at ground-truth poses form a patch lying on the
        true surface to within a voxel."""
        radius = 6.35
        shape = Sphere(radius=radius)
        keyframes = []
        for offset in (-1.5, 0.0, 1.5):
            pose = sensor_pose_over_sphere(offset, radius)
            keyframes.append((sphere_contact_cloud(pose, radius), pose))
        pmap = fuse_keyframe(keyframes)
        dists = np.abs(shape.sdf(pmap.cloud.points))
        assert np.median(dists) < 0.3

    def test_map_size_bounded(self):
        cloud = sphere_contact_cloud(sensor_pose_over_sphere(0.0))
        pmap = fuse_keyframe([(cloud, Pose.identity())] * 10)
        lo = pmap.cloud.points.min(axis=0) - 0.3
        hi = pmap.cloud.points.max(axis=0) + 0.3
        assert len(pmap.cloud) <= np.prod(hi - lo) / 0.3**3


def _reference_downsample(points, normals, voxel):
    """_voxel_downsample as first written: voxels grouped with
    np.unique(axis=0) and summed with np.add.at."""
    keys = np.floor(points / voxel).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                   return_counts=True)
    centroids = np.zeros((len(counts), 3))
    mean_normals = np.zeros((len(counts), 3))
    np.add.at(centroids, inverse, points)
    np.add.at(mean_normals, inverse, normals)
    centroids /= counts[:, None]
    norms = np.linalg.norm(mean_normals, axis=1, keepdims=True)
    norms[norms < 1e-9] = 1.0
    mean_normals /= norms
    return centroids, mean_normals


def _negative(rng):
    return rng.uniform(-5.0, -0.1, size=(300, 3))


def _duplicates(rng):
    points = rng.uniform(-2.0, 2.0, size=(100, 3))
    return np.vstack([points, points[::2], points[:10]])


def _single(rng):
    return rng.uniform(-2.0, 2.0, size=(1, 3))


def _wide(rng):
    # A span of 2e4 mm is over 6e4 voxels of 0.3 mm on every axis.
    return rng.uniform(-1e4, 1e4, size=(500, 3))


def _merging(rng):
    # Pairs straddling voxel faces: neighbouring voxels whose centroids land
    # closer than half a voxel apart.
    centres = 0.3 * rng.integers(-10, 10, size=(60, 3))
    offset = rng.uniform(0.0, 0.01, size=(60, 3))
    return np.vstack([centres - offset, centres + offset])


INPUTS = [_negative, _duplicates, _single, _wide, _merging]


class TestVoxelDownsample:
    """The lexsort and bincount grouping gives the bits of np.unique and
    np.add.at."""

    @pytest.mark.parametrize("make", INPUTS)
    def test_same_bits_as_reference(self, make):
        rng = np.random.default_rng(5)
        points = make(rng)
        normals = rng.normal(size=points.shape)
        got = _voxel_downsample(points, normals, 0.3)
        expected = _reference_downsample(points, normals, 0.3)
        for a, b in zip(got, expected):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("make", INPUTS)
    def test_one_point_per_occupied_voxel(self, make):
        rng = np.random.default_rng(5)
        points = make(rng)
        centroids, _ = _voxel_downsample(points, rng.normal(size=points.shape),
                                         0.3)
        occupied = np.unique(np.floor(points / 0.3), axis=0)
        # Each centroid lies in the voxel it stands for.
        np.testing.assert_array_equal(
            np.unique(np.floor(centroids / 0.3), axis=0), occupied)
        assert len(centroids) == len(occupied)

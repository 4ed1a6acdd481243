"""Tracking loop: mode behavior, zero-noise regressions, determinism."""

import dataclasses

import numpy as np
import pytest
import yaml

from tactrack import geometry
from tactrack.episodes import NoiseSpec, TrajectorySpec, generate_episode
from tactrack.geometry import Pose
from tactrack.harness import default_suite_config, episode_seed
from tactrack.shapes import Box, Pyramid, Sphere, shape_from_descriptor
from tactrack.factors import OptimizerParams, obj_key
from tactrack.reconstruct import PointCloud
from tactrack.registration import MAX_ITERATIONS
from tactrack.render import GelConfig
from tactrack.tracker import (ConfigError, Tracker, TrackerConfig, TrackerMode,
                              pose_errors, track_episode)

ZERO_NOISE = NoiseSpec(normal_sigma=0.0, eff_sigma_rot=0.0,
                       eff_sigma_trans=0.0, vis_sigma_rot=0.0,
                       vis_sigma_trans=0.0)


def corner_tilted_cube(half=9.0):
    tilt = geometry.rot_y(np.arctan(1.0 / np.sqrt(2.0)) + 0.15) \
        @ geometry.rot_x(np.pi / 4.0 + 0.1)
    return Box(half_extents=(half, half, half),
               offset=Pose(tilt, np.zeros(3)))


class TestPoseErrors:
    def test_exact_estimate(self):
        p = Pose.identity()
        assert pose_errors(p, p) == (0.0, 0.0)

    def test_translation_offset(self):
        est = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        rot, trans = pose_errors(est, Pose.identity())
        assert abs(rot) < 1e-12 and abs(trans - 1.0) < 1e-12

    def test_rotation_offset(self):
        est = Pose(geometry.rot_z(0.1), np.zeros(3))
        rot, trans = pose_errors(est, Pose.identity())
        assert abs(rot - 0.1) < 1e-9 and trans < 1e-12


class TestTrackerSetup:
    def test_gtpatch_requires_shape(self):
        with pytest.raises(ConfigError):
            Tracker(TrackerMode.GROUNDTRUTH_PATCH, TrackerConfig(),
                    Pose.identity(), Pose.identity(), GelConfig())

    def test_gt_target_covers_contact_on_tall_gel(self):
        # A flat face under the whole 10 x 20 mm gel: the sample ball must
        # reach the ends of the long side, 10 mm from the contact centre.
        gel = GelConfig(width=32, height=64, extent_x=10.0, extent_y=20.0)
        face = Box(half_extents=(30.0, 30.0, 5.0),
                   offset=Pose(np.eye(3), np.array([0.0, 0.0, 5.0])))
        tracker = Tracker(TrackerMode.GROUNDTRUTH_PATCH, TrackerConfig(),
                          Pose.identity(), Pose.identity(), gel, shape=face)
        tracker.t = 1
        x, y = gel.pixel_centers()
        contact = np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])
        tracker._ensure_gt_target(PointCloud(points=contact,
                                             normals=np.zeros_like(contact),
                                             frame="sensor"))
        target = tracker.gt_target.points
        gaps = np.linalg.norm(contact[:, None, :2] - target[None, :, :2],
                              axis=2).min(axis=1)
        assert gaps.max() < 1.0

    def test_init_values_match_priors(self, gel):
        ep = generate_episode(Sphere(radius=6.35),
                              TrajectorySpec(steps=3, indent=1.0, length=0.0),
                              gel, ZERO_NOISE, seed=0)
        tracker = Tracker(TrackerMode.CONST_VEL, TrackerConfig(),
                          ep.vision_prior, ep.frames[0].eff_measured, gel)
        est = tracker.step(ep.frames[0].normals, ep.frames[0].eff_measured)
        np.testing.assert_allclose(est.object_pose.matrix(),
                                   ep.vision_prior.matrix(), atol=1e-8)
        np.testing.assert_allclose(est.eff_pose.matrix(),
                                   ep.frames[0].eff_measured.matrix(),
                                   atol=1e-8)

    def test_config_roundtrip(self):
        cfg = TrackerConfig(
            sigma_eff=(0.02, 1.5), sigma_vis=(0.06, 2.5),
            sigma_vel=(0.01, 0.2),
            optimizer=OptimizerParams(max_iterations=20, cost_tolerance=1e-8))

        def leaves(d, prefix=""):
            for name, value in d.items():
                if isinstance(value, dict):
                    yield from leaves(value, prefix + name + ".")
                elif isinstance(value, tuple):
                    for i, v in enumerate(value):
                        yield f"{prefix}{name}[{i}]", v
                else:
                    yield prefix + name, value

        default = dict(leaves(dataclasses.asdict(TrackerConfig())))
        # Every settable value; a new knob must be named here.
        assert set(default) == {
            "sigma_eff[0]", "sigma_eff[1]", "sigma_vis[0]", "sigma_vis[1]",
            "sigma_vel[0]", "sigma_vel[1]",
            "optimizer.max_iterations", "optimizer.cost_tolerance"}
        for name, value in leaves(dataclasses.asdict(cfg)):
            assert value != default[name], name
        text = yaml.safe_dump({"tracker": dataclasses.asdict(cfg)})
        assert TrackerConfig.from_dict(yaml.safe_load(text)["tracker"]) == cfg

    @pytest.mark.parametrize("overrides", [
        {"fixd_lag": 4},
        {"icp": {"max_iterations": 30}},        # ICP settings are constants
        {"gel": {"camera": "clip"}},
        {"keyframe_interval": 2},               # a constant too
        {"optimizer": {"lambda_scale": 10.0}},  # so is the LM schedule
        {"fixed_lag": 4},
        {"fixed_lag": None},
        {"gel": {}},
        {"sigma_eff": [-1, 1]},
        {"sigma_vis": [1, 2, 3]},
        {"sigma_vel": [0.005, float("inf")]},
        {"optimizer": {"max_iterations": 2.5}},
        {"optimizer": {"max_iterations": True}},
    ])
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ConfigError):
            TrackerConfig.from_dict(overrides)


class TestZeroNoiseRegressions:
    def test_constvel_stationary_exact(self, gel):
        ep = generate_episode(Sphere(radius=6.35),
                              TrajectorySpec(steps=4, indent=1.0, length=0.0),
                              gel, ZERO_NOISE, seed=0)
        result = track_episode(ep, TrackerMode.CONST_VEL)
        assert result.final_translation_error < 1e-6
        assert result.final_rotation_error < 1e-6

    def test_patchgraph_cube_slide(self, gel):
        ep = generate_episode(corner_tilted_cube(),
                              TrajectorySpec(steps=20, indent=1.25, length=2.0),
                              gel, ZERO_NOISE, seed=0)
        result = track_episode(ep, TrackerMode.PATCH_GRAPH)
        assert result.final_translation_error < 0.5
        assert result.final_rotation_error < 0.02

    def test_patchgraph_sphere_translation_only(self, gel):
        # Sphere rotation is unconstrained by the contact geometry, so only
        # the translation error is asserted.
        ep = generate_episode(Sphere(radius=6.35),
                              TrajectorySpec(steps=12, indent=1.25, length=2.0),
                              gel, NoiseSpec(), seed=0)
        result = track_episode(ep, TrackerMode.PATCH_GRAPH)
        assert result.final_translation_error < 4.0


class TestModes:
    def test_all_modes_produce_estimates(self, gel):
        ep = generate_episode(Pyramid(),
                              TrajectorySpec(steps=6, indent=1.25, length=1.0),
                              gel, NoiseSpec(), seed=1)
        for mode in TrackerMode:
            result = track_episode(ep, mode)
            assert len(result.object_trajectory) == len(ep.frames)
            assert np.isfinite(result.final_translation_error)

    def test_determinism(self, gel):
        ep = generate_episode(Pyramid(),
                              TrajectorySpec(steps=6, indent=1.25, length=1.0),
                              gel, NoiseSpec(), seed=2)
        a = track_episode(ep, TrackerMode.PATCH_GRAPH)
        b = track_episode(ep, TrackerMode.PATCH_GRAPH)
        assert a.object_trajectory == b.object_trajectory
        assert a.final_translation_error == b.final_translation_error
        assert a.final_rotation_error == b.final_rotation_error

    def test_patchgraph_fuses_keyframes(self, gel):
        ep = generate_episode(Pyramid(),
                              TrajectorySpec(steps=6, indent=1.25, length=1.0),
                              gel, NoiseSpec(), seed=3)
        result = track_episode(ep, TrackerMode.PATCH_GRAPH)
        assert not result.patch.is_empty()

    def test_constvel_keeps_patch_empty(self, gel):
        ep = generate_episode(Pyramid(),
                              TrajectorySpec(steps=6, indent=1.25, length=1.0),
                              gel, NoiseSpec(), seed=3)
        result = track_episode(ep, TrackerMode.CONST_VEL)
        assert result.patch.is_empty()

    def test_empty_contact_skips_registration(self, gel):
        ep = generate_episode(Pyramid(),
                              TrajectorySpec(steps=6, indent=1.25, length=1.0),
                              gel, NoiseSpec(), seed=4)
        # Blank out one frame's contact; tracking must continue on priors.
        blank = ep.frames[2].normals
        blank.mask[:] = False
        result = track_episode(ep, TrackerMode.IMAGE_TO_IMAGE)
        assert len(result.object_trajectory) == len(ep.frames)
        assert any("registration skipped" in w["message"]
                   for w in result.warnings)


class TestMotionModel:
    def test_gtpatch_holds_still_object_still(self):
        # Every simulated object is static, so registering against the true
        # shape must keep the estimate within a fraction of a millimetre of
        # its first pose; a motion model under which a steady drift costs
        # little lets end-effector noise build one up (~1 mm here).
        suite = default_suite_config()
        obj = next(o for o in suite.objects if o.name == "pyramid")
        seed = episode_seed(suite, suite.objects.index(obj), 2)
        ep = generate_episode(shape_from_descriptor(obj.shape),
                              suite.trajectories[0], suite.gel, suite.noise,
                              seed=seed)
        tracker = Tracker(TrackerMode.GROUNDTRUTH_PATCH, TrackerConfig(),
                          ep.vision_prior, ep.frames[0].eff_measured, ep.gel,
                          shape=ep.shape)
        for frame in ep.frames:
            estimate = tracker.step(frame.normals, frame.eff_measured)
        first = tracker.values[obj_key(1)]
        drift = geometry.ominus(first, estimate.object_pose)[3:]
        assert np.linalg.norm(drift) < 0.25
        steps = [f.keys[1].t for f in tracker.graph.factors
                 if f.name == "motion_prior"]
        assert sorted(steps) == list(range(2, len(ep.frames) + 1))


class TestRegistrationEffort:
    def test_sphere_patchgraph_icp_counts(self):
        # The default suite's first sphere episode in patchgraph mode.  On a
        # sphere most ICP calls flatten within a few steps and then wander
        # along the rotation the contact cannot observe; with only the
        # twist-norm stop, 6 of these 22 calls ran to the iteration cap
        # (377 iterations in all).  The counts repeat exactly.
        suite = default_suite_config()
        obj = next(o for o in suite.objects if o.name == "sphere")
        seed = episode_seed(suite, suite.objects.index(obj), 0)
        ep = generate_episode(shape_from_descriptor(obj.shape),
                              suite.trajectories[0], suite.gel, suite.noise,
                              seed=seed)
        result = track_episode(ep, TrackerMode.PATCH_GRAPH)
        icp = [d[k] for d in result.diagnostics
               for k in ("icp_im2im", "icp_im2patch") if d[k] is not None]
        capped = [r for r in icp if not r["converged"]]
        assert all(r["iterations"] == MAX_ITERATIONS for r in capped)
        assert len(icp) == 22
        assert len(capped) == 2
        assert sum(r["iterations"] for r in icp) == 197


@pytest.fixture(scope="module")
def long_pyramid_episode():
    """The default suite's pyramid and slide, stretched to 48 steps."""
    suite = default_suite_config()
    obj = next(o for o in suite.objects if o.name == "pyramid")
    traj = dataclasses.replace(suite.trajectories[0], steps=48)
    return generate_episode(shape_from_descriptor(obj.shape), traj, suite.gel,
                            suite.noise, seed=7)


class TestLongEpisodes:
    @pytest.mark.parametrize("mode", list(TrackerMode), ids=lambda m: m.value)
    def test_48_step_slide_stays_on_se3(self, long_pyramid_episode, mode):
        # Long episodes must keep every pose finite and every rotation
        # orthonormal: rotation rounding that grows step after step ends in
        # DomainError.
        ep = long_pyramid_episode
        shape = ep.shape if mode is TrackerMode.GROUNDTRUTH_PATCH else None
        tracker = Tracker(mode, TrackerConfig(), ep.vision_prior,
                          ep.frames[0].eff_measured, ep.gel, shape=shape)
        for frame in ep.frames:
            estimate = tracker.step(frame.normals, frame.eff_measured)
            assert np.isfinite(estimate.object_pose.matrix()).all()
            assert np.isfinite(estimate.eff_pose.matrix()).all()
        assert tracker.t == len(ep.frames) > 36
        for key, pose in tracker.values.items():
            gram = pose.rotation.T @ pose.rotation
            assert np.abs(gram - np.eye(3)).max() < 1e-9, key

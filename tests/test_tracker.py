"""Tracking loop: mode behavior, zero-noise regressions, determinism."""

import copy
import dataclasses
import json
import weakref

import numpy as np
import pytest
import yaml

from tactrack import factors, geometry, patchmap, registration
from tactrack import tracker as tracker_module
from tactrack.episodes import NoiseSpec, TrajectorySpec, generate_episode
from tactrack.geometry import Pose
from tactrack.harness import (default_suite_config, episode_seed, run_tracking,
                              tracking_errors)
from tactrack.shapes import Box, Pyramid, Sphere, shape_from_descriptor
from tactrack.factors import (OptimizerParams, eff_key, eff_prior, linearize,
                              obj_key, vis_prior)
from tactrack.reconstruct import PointCloud
from tactrack.registration import MAX_ITERATIONS, MIN_CORRESPONDENCES
from tactrack.render import GelConfig, contact_touches_border
from tactrack.tracker import (GATE_IM2IM, GATE_IM2PC, REGISTRATION_FATES,
                              REGISTRATION_KINDS, ConfigError, Tracker,
                              TrackerConfig, TrackerMode, track_episode)

from .conftest import matrix


ZERO_NOISE = NoiseSpec(normal_sigma=0.0, eff_sigma_rot=0.0,
                       eff_sigma_trans=0.0, vis_sigma_rot=0.0,
                       vis_sigma_trans=0.0)


def _time(key):
    """The time step t of graph key id `key`, e_t's or o_t's."""
    return key // 2 + 1


def _im2im_spans(graph):
    """Each im2im factor of `graph` with the steps k and t it ties."""
    return [(f, _time(f.keys[0]), _time(f.keys[-1])) for f in graph.factors
            if f.name == "im2im"]


def corner_tilted_cube(half=9.0):
    tilt = geometry.rot_y(np.arctan(1.0 / np.sqrt(2.0)) + 0.15) \
        @ geometry.rot_x(np.pi / 4.0 + 0.1)
    return Box(half_extents=(half, half, half),
               offset=Pose(tilt, np.zeros(3)))


def final_errors(episode, result):
    """(rotation rad, translation mm) error of the final object pose, as the
    harness scores a run against the episode's true poses."""
    errors = tracking_errors(
        result.object_poses, result.eff_poses,
        Pose.stack([f.object_pose for f in episode.frames]),
        Pose.stack([f.eff_pose for f in episode.frames]))
    return (errors["final_rotation_error_rad"],
            errors["final_translation_error_mm"])


def assert_same_estimate(a, b):
    for name in ("object_poses", "eff_poses"):
        for part in ("rotation", "translation"):
            np.testing.assert_array_equal(getattr(getattr(a, name), part),
                                          getattr(getattr(b, name), part))


class TestTrackerSetup:
    def test_gtpatch_requires_shape(self):
        with pytest.raises(ConfigError):
            Tracker(TrackerMode.GROUNDTRUTH_PATCH, TrackerConfig(),
                    Pose.identity(), GelConfig())

    def test_gt_target_covers_contact_on_tall_gel(self):
        # A flat face under the whole 10 x 20 mm gel: the sample ball must
        # reach the ends of the long side, 10 mm from the contact centre.
        gel = GelConfig(width=32, height=64, extent_x=10.0, extent_y=20.0)
        face = Box(half_extents=(30.0, 30.0, 5.0),
                   offset=Pose(np.eye(3), np.array([0.0, 0.0, 5.0])))
        tracker = Tracker(TrackerMode.GROUNDTRUTH_PATCH, TrackerConfig(),
                          Pose.identity(), gel, shape=face)
        tracker.t = 1
        tracker.graph.add(eff_prior(1, Pose.identity(), tracker.eff_noise))
        tracker.graph.add(vis_prior(1, Pose.identity(), tracker.vis_noise))
        tracker.poses = Pose.stack([Pose.identity()] * 2)
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
                          ep.vision_prior, gel)
        est = tracker.step(ep.frames[0].normals, ep.frames[0].eff_measured)
        np.testing.assert_allclose(matrix(est.object_pose),
                                   matrix(ep.vision_prior), atol=1e-8)
        np.testing.assert_allclose(matrix(est.eff_pose),
                                   matrix(ep.frames[0].eff_measured),
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
        {"optimizer": {"max_iterations": None}},
        {"optimizer": None},
        {"optimizer": {"cost_tolerance": float("inf")}},
        {"optimizer": {"cost_tolerance": True}},
    ])
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ConfigError):
            TrackerConfig.from_dict(overrides)

    @pytest.mark.parametrize("optimizer", [
        {"max_iterations": 20}, None, OptimizerParams])
    def test_optimizer_must_be_params(self, optimizer):
        # from_dict builds OptimizerParams from a mapping; the constructor
        # takes no mapping in its place.
        with pytest.raises(ConfigError, match="optimizer"):
            TrackerConfig(optimizer=optimizer)


class TestZeroNoiseRegressions:
    def test_constvel_stationary_exact(self, gel):
        ep = generate_episode(Sphere(radius=6.35),
                              TrajectorySpec(steps=4, indent=1.0, length=0.0),
                              gel, ZERO_NOISE, seed=0)
        rotation, translation = final_errors(
            ep, track_episode(ep, TrackerMode.CONST_VEL))
        assert translation < 1e-6
        assert rotation < 1e-6

    def test_patchgraph_cube_slide(self, gel):
        ep = generate_episode(corner_tilted_cube(),
                              TrajectorySpec(steps=20, indent=1.25, length=2.0),
                              gel, ZERO_NOISE, seed=0)
        rotation, translation = final_errors(
            ep, track_episode(ep, TrackerMode.PATCH_GRAPH))
        assert translation < 0.5
        assert rotation < 0.02

    def test_patchgraph_sphere_translation_only(self, gel):
        # Sphere rotation is unconstrained by the contact geometry, so only
        # the translation error is asserted.
        ep = generate_episode(Sphere(radius=6.35),
                              TrajectorySpec(steps=12, indent=1.25, length=2.0),
                              gel, NoiseSpec(), seed=0)
        _, translation = final_errors(
            ep, track_episode(ep, TrackerMode.PATCH_GRAPH))
        assert translation < 4.0


class TestModes:
    def test_all_modes_produce_estimates(self, gel):
        ep = generate_episode(Pyramid(),
                              TrajectorySpec(steps=6, indent=1.25, length=1.0),
                              gel, NoiseSpec(), seed=1)
        for mode in TrackerMode:
            result = track_episode(ep, mode)
            assert len(result.object_poses.translation) == len(ep.frames)
            assert np.isfinite(final_errors(ep, result)[1])

    def test_determinism(self, gel):
        ep = generate_episode(Pyramid(),
                              TrajectorySpec(steps=6, indent=1.25, length=1.0),
                              gel, NoiseSpec(), seed=2)
        a = track_episode(ep, TrackerMode.PATCH_GRAPH)
        b = track_episode(ep, TrackerMode.PATCH_GRAPH)
        assert_same_estimate(a, b)
        assert final_errors(ep, a) == final_errors(ep, b)

    def test_patchgraph_fuses_keyframes(self, gel):
        ep = generate_episode(Pyramid(),
                              TrajectorySpec(steps=6, indent=1.25, length=1.0),
                              gel, NoiseSpec(), seed=3)
        result = track_episode(ep, TrackerMode.PATCH_GRAPH)
        assert not result.patch.is_empty()

    def test_patch_fused_once_in_finalize(self, gel, monkeypatch):
        # The patch is an output: no step fuses, and finalize fuses all the
        # keyframes in one call, in order, at the final poses.
        ep = generate_episode(Pyramid(),
                              TrajectorySpec(steps=6, indent=1.25, length=1.0),
                              gel, NoiseSpec(), seed=3)
        fuse, fused = patchmap.fuse_keyframe, []

        def recorded(keyframes):
            fused.append((tracker.t, list(keyframes)))
            return fuse(keyframes)

        monkeypatch.setattr(patchmap, "fuse_keyframe", recorded)
        tracker = Tracker(TrackerMode.PATCH_GRAPH, TrackerConfig(),
                          ep.vision_prior, gel)
        for frame in ep.frames:
            tracker.step(frame.normals, frame.eff_measured)
        assert not fused
        result = tracker.finalize()
        assert [k for k, _ in tracker.keyframes] == [1, 3, 5]
        assert len(fused) == 1
        _, keyframes = fused[0]
        assert [cloud for cloud, _ in keyframes] == [
            cloud for _, cloud in tracker.keyframes]
        for (_, pose), (k, _) in zip(keyframes, tracker.keyframes):
            expected = tracker._object_from_sensor(k)
            np.testing.assert_array_equal(pose.rotation, expected.rotation)
            np.testing.assert_array_equal(pose.translation,
                                          expected.translation)
        np.testing.assert_array_equal(result.patch.cloud.points,
                                      fuse(keyframes).cloud.points)

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
        # Blank out one frame's contact, and let the next one touch the
        # border; tracking must continue on priors, and each step records
        # why it registered nothing.
        blank = ep.frames[2].normals
        blank.mask[:] = False
        ep.frames[3].normals.mask[0, 0] = True
        result = track_episode(ep, TrackerMode.IMAGE_TO_IMAGE)
        assert len(result.object_poses.translation) == len(ep.frames)
        assert [d["skipped_registration"] for d in result.diagnostics] == [
            None, None, "empty_mask", "touches_border", None, None]


class TestMeasurementsOnly:
    def test_true_poses_not_read(self, cube_episode):
        # The tracker reads measurements only: with every frame's true
        # poses and depth unknown, each mode gives the same estimate.
        nan = Pose(np.full((3, 3), np.nan), np.full(3, np.nan))
        blind = dataclasses.replace(cube_episode, frames=[
            dataclasses.replace(f, object_pose=nan, eff_pose=nan, depth_gt=None)
            for f in cube_episode.frames])
        for mode in TrackerMode:
            assert_same_estimate(track_episode(blind, mode),
                                 track_episode(cube_episode, mode))


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
                          ep.vision_prior, ep.gel, shape=ep.shape)
        for frame in ep.frames:
            estimate = tracker.step(frame.normals, frame.eff_measured)
        first = tracker.poses[obj_key(1)]
        drift = geometry.ominus(first, estimate.object_pose)[3:]
        assert np.linalg.norm(drift) < 0.25
        steps = [_time(f.keys[-1]) for f in tracker.graph.factors
                 if f.name == "motion_prior"]
        assert sorted(steps) == list(range(2, len(ep.frames) + 1))


@pytest.fixture(scope="module")
def sphere_episode():
    """The default suite's first sphere episode."""
    suite = default_suite_config()
    obj = next(o for o in suite.objects if o.name == "sphere")
    seed = episode_seed(suite, suite.objects.index(obj), 0)
    return generate_episode(shape_from_descriptor(obj.shape),
                            suite.trajectories[0], suite.gel, suite.noise,
                            seed=seed)


class TestRegistrationEffort:
    def test_sphere_patchgraph_icp_counts(self, sphere_episode):
        # The first sphere episode in patchgraph mode.  On a sphere most ICP
        # calls flatten within a few steps and then wander along the
        # rotation the contact cannot observe; the predicted-reduction stop
        # ends them there, so none runs to the iteration cap.  The counts
        # repeat exactly.
        result = track_episode(sphere_episode, TrackerMode.PATCH_GRAPH)
        records = [d[k] for d in result.diagnostics
                   for k in ("icp_im2im", "icp_keyframe") if d[k] is not None]
        # Failed calls record their fate alone; the rest an ICP result.
        icp = [r for r in records if r["fate"] in ("added", "gated")]
        assert len(records) == len(icp)
        capped = [r for r in icp if not r["converged"]]
        assert all(r["iterations"] == MAX_ITERATIONS for r in capped)
        assert len(icp) == 16
        assert len(capped) == 0
        assert sum(r["iterations"] for r in icp) == 95

    def test_sphere_patchgraph_linearization_count(self, sphere_episode,
                                                   monkeypatch):
        # The same episode's 12 steps take one linearization each, as each
        # advances the smoother by one LM iteration, and finalize's
        # converging solve one more: its first trial step is already
        # negligible.  The counts repeat exactly.
        calls = []

        def counted_linearize(graph, poses):
            calls.append(len(poses.translation))
            return linearize(graph, poses)

        monkeypatch.setattr(factors, "linearize", counted_linearize)
        result = track_episode(sphere_episode, TrackerMode.PATCH_GRAPH)
        assert len(calls) == 13
        assert [d["optimizer"]["linearizations"]
                for d in result.diagnostics] == [1] * 12
        assert result.final_optimizer["linearizations"] == 1


class TestIncrementalSmoothing:
    """Each step advances the smoother by at most one LM iteration; finalize
    converges it."""

    @pytest.mark.parametrize("mode", list(TrackerMode))
    def test_one_iteration_per_step(self, sphere_episode, mode):
        result = track_episode(sphere_episode, mode)
        records = [d["optimizer"] for d in result.diagnostics]
        assert all(r["iterations"] <= 1 and r["linearizations"] <= 1
                   for r in records)
        assert set(result.final_optimizer) == {
            "iterations", "initial_cost", "final_cost", "linearizations",
            "predicted_decrease"}
        assert (result.final_optimizer["initial_cost"]
                == records[-1]["final_cost"])

    def test_one_row_per_graph_key(self, sphere_episode):
        # The estimate is indexed by the graph's key ids: after every step it
        # holds one row per key, and the step's estimate is its keys' rows.
        tracker = Tracker(TrackerMode.PATCH_GRAPH, TrackerConfig(),
                          sphere_episode.vision_prior, sphere_episode.gel)
        for t, frame in enumerate(sphere_episode.frames, start=1):
            estimate = tracker.step(frame.normals, frame.eff_measured)
            keys = tracker.graph.key_count
            assert tracker.poses.rotation.shape == (keys, 3, 3)
            assert tracker.poses.translation.shape == (keys, 3)
            for key, pose in ((obj_key(t), estimate.object_pose),
                              (eff_key(t), estimate.eff_pose)):
                np.testing.assert_array_equal(matrix(tracker.poses[key]),
                                              matrix(pose))

    @pytest.mark.parametrize("mode", [TrackerMode.PATCH_GRAPH,
                                      TrackerMode.GROUNDTRUTH_PATCH])
    def test_keys_in_time_order(self, sphere_episode, mode):
        # The constructor adds no factor, and each step introduces e_t then
        # o_t, so the key ids are a time order: e_t is 2t - 2, o_t 2t - 1.
        tracker = Tracker(mode, TrackerConfig(), sphere_episode.vision_prior,
                          sphere_episode.gel, shape=sphere_episode.shape)
        assert len(tracker.graph) == 0 and tracker.graph.key_count == 0
        assert tracker.poses.translation.shape == (0, 3)
        for t, frame in enumerate(sphere_episode.frames, start=1):
            tracker.step(frame.normals, frame.eff_measured)
            introduced = dict.fromkeys(key for factor in tracker.graph.factors
                                       for key in factor.keys)
            assert list(introduced) == [
                key(s) for s in range(1, t + 1) for key in (eff_key, obj_key)]
            assert list(introduced) == list(range(tracker.graph.key_count))

    def test_no_iteration_without_budget(self, sphere_episode):
        config = TrackerConfig(optimizer=OptimizerParams(max_iterations=0))
        result = track_episode(sphere_episode, TrackerMode.PATCH_GRAPH, config)
        for record in [d["optimizer"] for d in result.diagnostics] \
                + [result.final_optimizer]:
            assert record["iterations"] == 0
            assert record["linearizations"] == 0

    @pytest.mark.parametrize("mode", list(TrackerMode))
    def test_finalize_converges(self, sphere_episode, mode):
        # A further solve from finalize's estimate finds no step that pays
        # more than the cost tolerance.
        config = TrackerConfig()
        tracker = Tracker(mode, config, sphere_episode.vision_prior,
                          sphere_episode.gel, shape=sphere_episode.shape)
        for frame in sphere_episode.frames:
            tracker.step(frame.normals, frame.eff_measured)
        tracker.finalize()
        _, stats = factors.optimize(tracker.graph, tracker.poses,
                                    config.optimizer)
        assert factors._negligible(stats.initial_cost - stats.final_cost,
                                   stats.final_cost,
                                   config.optimizer.cost_tolerance)


class TestPatchInit:
    """Where each keyframe registration of frame t against keyframe k
    starts: at the graph's k-to-(t-1) motion chained with this step's im2im
    result when its factor was added, else at the graph's k-to-t motion.
    gtpatch's registrations against the true shape start from the graph."""

    def _run(self, monkeypatch, gel, mode, im2im=None):
        """Track a 6-step pyramid slide in `mode`, with every im2im
        registration forced to be `gated` or `dropped` if asked; returns
        the tracker, the im2im factor measurement of each step that added
        one, and per registration that is not im2im its step, init,
        keyframe (None in gtpatch) and the two candidate inits the tracker
        could have used."""
        ep = generate_episode(Pyramid(),
                              TrajectorySpec(steps=6, indent=1.25, length=1.0),
                              gel, NoiseSpec(), seed=5)
        shape = ep.shape if mode is TrackerMode.GROUNDTRUTH_PATCH else None
        tracker = Tracker(mode, TrackerConfig(), ep.vision_prior, gel,
                          shape=shape)
        register, calls = registration.icp_register, []

        def recorded(source, target, init):
            t = tracker.t
            if target is not tracker.prev_cloud:
                k = next((k for k, cloud in tracker.keyframes
                          if cloud is target), None)
                frame = (Pose.identity() if k is None else geometry.inverse(
                    tracker._object_from_sensor(k)))
                previous = (geometry.compose(frame,
                                             tracker._object_from_sensor(t - 1))
                            if t > 1 else None)
                calls.append((t, init, k, previous, geometry.compose(
                    frame, tracker._object_from_sensor(t))))
            elif im2im == "dropped":
                raise registration.DegenerateGeometryError(np.inf)
            result = register(source, target, init)
            if target is tracker.prev_cloud and im2im == "gated":
                # 10 mm past the initialization: beyond the 3 mm gate.
                far = geometry.compose(init, geometry.exp(
                    np.array([0.0, 0.0, 0.0, 10.0, 0.0, 0.0])))
                result = dataclasses.replace(result, transform=far)
            return result

        monkeypatch.setattr(registration, "icp_register", recorded)
        for frame in ep.frames:
            tracker.step(frame.normals, frame.eff_measured)
        added = {t: f.measured for f, k, t in _im2im_spans(tracker.graph)
                 if k == t - 1}
        return tracker, added, calls

    @staticmethod
    def _assert_same(a, b):
        np.testing.assert_array_equal(a.rotation, b.rotation)
        np.testing.assert_array_equal(a.translation, b.translation)

    def test_starts_from_added_im2im(self, monkeypatch, gel):
        tracker, added, calls = self._run(monkeypatch, gel,
                                          TrackerMode.PATCH_GRAPH)
        used = [t for t, *_ in calls if t in added]
        assert used   # the branch is taken
        for t, init, k, previous, graph in calls:
            diag = tracker.diagnostics[t - 1]
            assert diag["keyframe_target"] == k
            if t in added:
                self._assert_same(init, geometry.compose(previous, added[t]))
                assert diag["keyframe_init"] == "im2im"
            else:
                self._assert_same(init, graph)
                assert diag["keyframe_init"] == "graph"
            assert diag["icp_im2patch"] is None
            assert diag["im2patch_init"] is None

    def test_keyframe_factor_spans_target_to_step(self, monkeypatch, gel):
        tracker, _, calls = self._run(monkeypatch, gel,
                                      TrackerMode.PATCH_GRAPH)
        spans = {(k, t) for _, k, t in _im2im_spans(tracker.graph)
                 if k != t - 1}
        assert spans and spans <= {(k, t) for t, _, k, *_ in calls}
        assert not [f for f in tracker.graph.factors if f.name == "im2patch"]

    @pytest.mark.parametrize("im2im", ["gated", "dropped"])
    def test_graph_init_without_im2im_factor(self, monkeypatch, gel, im2im):
        tracker, added, calls = self._run(monkeypatch, gel,
                                          TrackerMode.PATCH_GRAPH, im2im)
        assert not added and calls
        for t, init, _, _, graph in calls:
            self._assert_same(init, graph)
            assert tracker.diagnostics[t - 1]["keyframe_init"] == "graph"
        # The forced failure has an infinite condition number: null in JSON.
        records = [d["icp_im2im"] for d in tracker.diagnostics
                   if d["icp_im2im"] is not None]
        assert records
        if im2im == "gated":
            assert all(r["fate"] == "gated" for r in records)
        else:
            assert records == [{"fate": "degenerate",
                                "condition_number": None}] * len(records)

    def test_previous_keyframe_skipped(self, monkeypatch, gel):
        # Keyframes are frames 1, 3, 5: frame t registers against t - 2 when
        # t is odd, and the even frames' latest keyframe is t - 1, whose pair
        # im2im registers, so they make no call.  Frame 1 has no keyframe.
        tracker, _, calls = self._run(monkeypatch, gel,
                                      TrackerMode.PATCH_GRAPH)
        assert [(t, k) for t, _, k, *_ in calls] == [(3, 1), (5, 3)]
        for diag in tracker.diagnostics:
            if diag["step"] in (3, 5):
                assert diag["keyframe_target"] == diag["step"] - 2
                assert diag["icp_keyframe"] is not None
            else:
                assert diag["keyframe_target"] is None
                assert diag["keyframe_init"] is None
                assert diag["icp_keyframe"] is None

    def test_first_frame(self, monkeypatch, gel):
        # Patchgraph has no keyframe to register against at the first
        # frame; gtpatch has its target, and starts from the graph.
        tracker, _, calls = self._run(monkeypatch, gel,
                                      TrackerMode.PATCH_GRAPH)
        assert calls[0][0] == 3
        assert tracker.diagnostics[0]["keyframe_init"] is None
        tracker, _, calls = self._run(monkeypatch, gel,
                                      TrackerMode.GROUNDTRUTH_PATCH)
        assert calls[0][0] == 1
        assert tracker.diagnostics[0]["im2patch_init"] == "graph"

    def test_gtpatch_always_starts_from_graph(self, monkeypatch, gel):
        tracker, added, calls = self._run(monkeypatch, gel,
                                          TrackerMode.GROUNDTRUTH_PATCH)
        assert not added and len(calls) == len(tracker.diagnostics)
        assert not tracker.keyframes
        for t, init, _, _, graph in calls:
            self._assert_same(init, graph)
            diag = tracker.diagnostics[t - 1]
            assert diag["im2patch_init"] == "graph"
            assert diag["keyframe_target"] is None
            assert diag["icp_keyframe"] is None


class TestRegistrationFates:
    """Every registration call that ran leaves its `icp_<kind>` record with
    its fate, so `metrics.json` alone tells what became of it; a null
    record means that no call ran."""

    ICP_KEYS = {"transform", "converged", "iterations", "inlier_rmse",
                "correspondence_count", "condition_number",
                "predicted_reduction", "fate"}

    def test_every_call_recorded_with_its_fate(self, cube_episode):
        episode = copy.deepcopy(cube_episode)
        results = {mode: track_episode(episode, mode) for mode in TrackerMode}
        fates = set()
        for mode, result in results.items():
            json.dumps(result.diagnostics, allow_nan=False)   # strict JSON
            for diag in result.diagnostics:
                for kind in REGISTRATION_KINDS:
                    record = diag[f"icp_{kind}"]
                    if record is None:
                        continue
                    fate = record["fate"]
                    fates.add((mode, fate))
                    if fate == "degenerate":
                        assert set(record) == {"fate", "condition_number"}
                    elif fate == "no_overlap":
                        assert set(record) == {"fate", "correspondence_count"}
                        assert record["correspondence_count"] \
                            < MIN_CORRESPONDENCES
                    elif fate == "gated":
                        gate = GATE_IM2PC if kind == "im2patch" else GATE_IM2IM
                        assert set(record) == self.ICP_KEYS | {
                            "jump_rotation_rad", "jump_translation_mm"}
                        assert (record["jump_rotation_rad"] > gate[0]
                                or record["jump_translation_mm"] > gate[1])
                    else:
                        assert fate == "added" and set(record) == self.ICP_KEYS
        assert {fate for _, fate in fates} == set(REGISTRATION_FATES)
        assert not [f for mode, f in fates if mode is TrackerMode.CONST_VEL]
        # im2im and patchgraph make the same im2im calls, with the same fates.
        assert ([d["icp_im2im"] for d in
                 results[TrackerMode.IMAGE_TO_IMAGE].diagnostics]
                == [d["icp_im2im"] for d in
                    results[TrackerMode.PATCH_GRAPH].diagnostics])


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
        tracker = Tracker(mode, TrackerConfig(), ep.vision_prior, ep.gel,
                          shape=shape)
        for frame in ep.frames:
            estimate = tracker.step(frame.normals, frame.eff_measured)
            assert np.isfinite(matrix(estimate.object_pose)).all()
            assert np.isfinite(matrix(estimate.eff_pose)).all()
        assert tracker.t == len(ep.frames) > 36
        for key in range(tracker.graph.key_count):
            rotation = tracker.poses[key].rotation
            gram = rotation.T @ rotation
            assert np.abs(gram - np.eye(3)).max() < 1e-9, key


class TestScenarioMatrix:
    @pytest.mark.parametrize("steps", [3, 48])
    def test_patchgraph_on_every_trajectory_kind(self, steps):
        # The default objects under every trajectory kind, short and long:
        # no exception, finite poses, one diagnostics record per step, and
        # keyframe registrations only against earlier frames.
        suite = default_suite_config()
        for kind in ("linear", "arc", "rotation", "composite"):
            traj = dataclasses.replace(
                suite.trajectories[0], kind=kind, steps=steps,
                spin_deg=10.0 if kind in ("rotation", "composite") else 0.0)
            for index, obj in enumerate(suite.objects):
                ep = generate_episode(shape_from_descriptor(obj.shape), traj,
                                      suite.gel, suite.noise,
                                      seed=episode_seed(suite, index, 0))
                result = track_episode(ep, TrackerMode.PATCH_GRAPH)
                poses = (geometry.to_quat_trans(result.object_poses)
                         + geometry.to_quat_trans(result.eff_poses))
                assert np.isfinite(np.concatenate(poses)).all(), (kind, obj.name)
                assert [d["step"] for d in result.diagnostics] == \
                    list(range(1, steps + 1))
                for d in result.diagnostics:
                    assert d["keyframe_target"] is None \
                        or d["keyframe_target"] < d["step"]


@pytest.fixture(scope="module")
def cube_episode():
    """The default suite's first cube episode, whose registrations have
    every fate: added, gated (a keyframe call) and dropped (degenerate, no
    overlap: im2im and gtpatch calls)."""
    suite = default_suite_config()
    index = [o.name for o in suite.objects].index("cube")
    return generate_episode(shape_from_descriptor(suite.objects[index].shape),
                            suite.trajectories[0], suite.gel, suite.noise,
                            seed=episode_seed(suite, index, 0))


def _track_directly(episode, mode, frames=None, gel=None):
    """Track `frames` (default: the episode's) with a Tracker built
    directly, and finalize it."""
    frames = episode.frames if frames is None else frames
    shape = episode.shape if mode is TrackerMode.GROUNDTRUTH_PATCH else None
    tracker = Tracker(mode, TrackerConfig(), episode.vision_prior,
                      gel or episode.gel, shape=shape)
    for frame in frames:
        tracker.step(frame.normals, frame.eff_measured)
    return tracker.finalize()


def _count_reconstructions(monkeypatch):
    """The steps of every reconstruction the tracker makes from now on."""
    reconstruct, steps = tracker_module.reconstruct_cloud, []

    def counted(normals, gel, step=-1):
        steps.append(step)
        return reconstruct(normals, gel, step=step)

    monkeypatch.setattr(tracker_module, "reconstruct_cloud", counted)
    return steps


def _contact_steps(episode):
    return [t for t, frame in enumerate(episode.frames, start=1)
            if frame.normals.mask.any()
            and not contact_touches_border(frame.normals.mask)]


class TestFrontEnd:
    """The per-frame front end: each frame's contact cloud is kept with its
    normal image, so every tracker stepped over the same images shares it,
    with the results a tracker over fresh images computes."""

    @staticmethod
    def _written(episode, mode, out_dir):
        run_tracking(episode, mode, TrackerConfig(), out_dir)
        return {path.name: path.read_bytes()
                for path in sorted(out_dir.iterdir())}

    def test_shared_front_end_writes_the_bytes_of_fresh_episodes(
            self, cube_episode, sphere_episode, tmp_path):
        modes = list(TrackerMode)
        fresh = {mode: self._written(copy.deepcopy(cube_episode), mode,
                                     tmp_path / "fresh" / mode.value)
                 for mode in modes}
        assert "patch.ply" in fresh[TrackerMode.PATCH_GRAPH]
        # Another live episode keeps its own front end.
        track_episode(sphere_episode, TrackerMode.IMAGE_TO_IMAGE)
        for name, order in (("forward", modes), ("reverse", modes[::-1])):
            episode = copy.deepcopy(cube_episode)
            for mode in order:
                assert self._written(episode, mode,
                                     tmp_path / name / mode.value) \
                    == fresh[mode], (name, mode)

    def test_each_frame_reconstructed_once(
            self, cube_episode, monkeypatch):
        episode = copy.deepcopy(cube_episode)
        episode.frames[4].normals.mask[:] = False   # frame 5 out of contact
        register = registration.icp_register
        reconstructed, im2im = _count_reconstructions(monkeypatch), []

        def counted_register(source, target, init):
            if target.frame == "sensor" and target.step == source.step - 1:
                im2im.append(source.step)
            return register(source, target, init)

        def counted_solve(source, target, init):
            if target.frame == "sensor" and target.step == source.step - 1:
                solved.append(source.step)
            return solve(source, target, init)

        solve, solved = registration._solve, []
        monkeypatch.setattr(registration, "icp_register", counted_register)
        monkeypatch.setattr(registration, "_solve", counted_solve)
        diagnostics = []
        for mode in (TrackerMode.IMAGE_TO_IMAGE, TrackerMode.PATCH_GRAPH,
                     TrackerMode.GROUNDTRUTH_PATCH):
            diagnostics += track_episode(episode, mode).diagnostics
        contact = _contact_steps(episode)
        assert 5 not in contact and len(contact) == len(episode.frames) - 1
        assert reconstructed == contact
        # Each mode that registers image to image makes its own call, and
        # the second mode's call replays the first's outcome.
        pairs = [t for t in contact if t - 1 in contact]
        assert im2im == pairs + pairs
        assert solved == pairs
        assert any((d["icp_im2im"] or {}).get("fate")
                   in ("degenerate", "no_overlap") for d in diagnostics)

    def test_trackers_die_with_their_run(self, cube_episode, monkeypatch):
        # The shared front end lives as long as the episode, so it must hold
        # nothing of a tracker, such as the traceback of a dropped
        # registration's exception, which holds the frames of the tracker
        # that stepped into it.
        made = []

        class Recorded(Tracker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(tracker_module, "Tracker", Recorded)
        episode = copy.deepcopy(cube_episode)
        diagnostics = []
        for mode in TrackerMode:
            diagnostics += track_episode(episode, mode).diagnostics
        assert any((d[f"icp_{kind}"] or {}).get("fate")
                   in ("degenerate", "no_overlap")
                   for d in diagnostics for kind in ("im2im", "im2patch"))
        assert len(made) == len(TrackerMode)
        assert [ref() for ref in made] == [None] * len(made)

    def test_direct_tracker_matches_track_episode(self, cube_episode):
        # The modes in turn on one episode, so that later ones read the
        # clouds earlier ones made; the direct tracker steps other images.
        episode = copy.deepcopy(cube_episode)
        for mode in TrackerMode:
            shared = track_episode(episode, mode)
            direct = _track_directly(cube_episode, mode)
            assert_same_estimate(direct, shared)
            assert final_errors(cube_episode, direct) == \
                final_errors(episode, shared)
            for name in ("diagnostics", "final_optimizer"):
                assert getattr(direct, name) == getattr(shared, name), \
                    (mode, name)
            for name in ("points", "normals"):
                np.testing.assert_array_equal(
                    getattr(direct.patch.cloud, name),
                    getattr(shared.patch.cloud, name))

    def test_direct_tracker_reuses_the_clouds_of_track_episode(
            self, cube_episode, monkeypatch):
        episode = copy.deepcopy(cube_episode)
        reconstructed = _count_reconstructions(monkeypatch)
        shared = track_episode(episode, TrackerMode.PATCH_GRAPH)
        assert reconstructed == _contact_steps(episode)
        reconstructed.clear()
        direct = _track_directly(episode, TrackerMode.PATCH_GRAPH)
        assert reconstructed == []
        assert direct.diagnostics == shared.diagnostics
        assert_same_estimate(direct, shared)

    def test_other_gel_reconstructs_its_own_clouds(self, cube_episode,
                                                   monkeypatch):
        episode = copy.deepcopy(cube_episode)
        track_episode(episode, TrackerMode.IMAGE_TO_IMAGE)
        reconstructed = _count_reconstructions(monkeypatch)
        wider = dataclasses.replace(episode.gel,
                                    extent_x=1.1 * episode.gel.extent_x)
        _track_directly(episode, TrackerMode.IMAGE_TO_IMAGE, gel=wider)
        contact = _contact_steps(episode)
        assert reconstructed == contact
        image = episode.frames[contact[0] - 1].normals
        clouds = tracker_module._CLOUDS[image]
        assert set(clouds) == {dataclasses.astuple(episode.gel),
                               dataclasses.astuple(wider)}
        narrow, wide = clouds.values()
        assert not np.array_equal(narrow.points, wide.points)
        # Both gels' clouds are kept: neither tracks its images again.
        reconstructed.clear()
        track_episode(episode, TrackerMode.IMAGE_TO_IMAGE)
        _track_directly(episode, TrackerMode.IMAGE_TO_IMAGE, gel=wider)
        assert reconstructed == []

    def test_deep_copy_reconstructs_afresh(self, cube_episode, monkeypatch):
        tracked = copy.deepcopy(cube_episode)
        before = track_episode(tracked, TrackerMode.IMAGE_TO_IMAGE)
        added = [d["step"] for d in before.diagnostics
                 if (d["icp_im2im"] or {}).get("fate") == "added"]
        t = added[0]
        episode = copy.deepcopy(tracked)
        normals = episode.frames[t - 1].normals
        normals.values[normals.mask, :2] *= 1.2   # steeper contact
        reconstructed = _count_reconstructions(monkeypatch)
        after = track_episode(episode, TrackerMode.IMAGE_TO_IMAGE)
        assert reconstructed == _contact_steps(episode)
        changed = [d["step"] for d, e in zip(before.diagnostics,
                                            after.diagnostics)
                   if d["icp_im2im"] != e["icp_im2im"]]
        assert changed[0] == t

    def test_tracked_image_is_read_only(self, cube_episode):
        # A write into a tracked image would not be seen, as its cached
        # cloud is returned; it raises instead.
        episode = copy.deepcopy(cube_episode)
        track_episode(episode, TrackerMode.IMAGE_TO_IMAGE)
        image = episode.frames[_contact_steps(episode)[0] - 1].normals
        with pytest.raises(ValueError, match="read-only"):
            image.values[0, 0] = (0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            image.mask[0, 0] = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            image.values = image.values.copy()

    def test_direct_tracker_frees_earlier_clouds(self, sphere_episode):
        # Streaming fresh images, a tracker keeps only the current cloud
        # alive: each cloud's registration memo refers to its im2im
        # target, the previous cloud, only weakly, and the previous image
        # and so its clouds are gone.
        tracker = Tracker(TrackerMode.IMAGE_TO_IMAGE, TrackerConfig(),
                          sphere_episode.vision_prior, sphere_episode.gel)
        clouds = []
        for frame in sphere_episode.frames:
            image = copy.deepcopy(frame.normals)
            tracker.step(image, frame.eff_measured)
            clouds.append(weakref.ref(tracker.prev_cloud))
            assert [ref() is not None for ref in clouds] \
                == [False] * (len(clouds) - 1) + [True]
        assert tracker.prev_cloud.registrations
        assert len(clouds) == len(sphere_episode.frames) > 2

    def test_gtpatch_target_dies_with_its_run(self, cube_episode,
                                              monkeypatch):
        # The images' clouds keep their registrations against the sampled
        # true shape, but not the shape's samples.
        sample, targets = tracker_module._sample_sdf_surface, []

        def recorded(*args, **kwargs):
            target = sample(*args, **kwargs)
            targets.append(weakref.ref(target))
            return target

        monkeypatch.setattr(tracker_module, "_sample_sdf_surface", recorded)
        episode = copy.deepcopy(cube_episode)
        track_episode(episode, TrackerMode.GROUNDTRUTH_PATCH)
        assert len(targets) == 1 and targets[0]() is None
        memos = [entry for frame in episode.frames
                 for cloud in tracker_module._CLOUDS.get(frame.normals,
                                                         {}).values()
                 for entry in cloud.registrations.values()]
        assert memos and all(ref() is None for ref, _ in memos)

"""Per-timestep tracking pipeline: reconstruct the contact cloud, register it
(image to image, image to the latest keyframe, or image to the true shape),
assemble factors and optimize.  A frame's contact cloud depends only on its
normal image and the gel, so it is reconstructed once per image and kept
with it, and every tracker stepped over that image shares it.  Patchgraph
fuses its keyframes into the local patch map once, at the final poses, in
`finalize`."""

from __future__ import annotations

import dataclasses
import enum
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import factors, geometry, patchmap, registration
from .config import ConfigError, from_mapping, require
from .factors import (FactorGraph, NoiseModel, OptimizerParams, eff_key,
                      eff_prior, im2im, im2patch, motion_prior, obj_key,
                      vis_prior)
from .geometry import Pose
from .patchmap import PatchMap
from .reconstruct import PointCloud, reconstruct_cloud
from .render import GelConfig, NormalImage, contact_touches_border
from .shapes import ShapeSDF


class TrackerMode(str, enum.Enum):
    CONST_VEL = "constvel"
    IMAGE_TO_IMAGE = "im2im"
    PATCH_GRAPH = "patchgraph"
    GROUNDTRUTH_PATCH = "gtpatch"


# Registration factor weights and jump gates, (rad, mm) per axis.  Keyframe
# registrations are image-to-image registrations over a longer span and get
# the im2im weight and gate.
SIGMA_IM2IM = (0.05, 2.5)
SIGMA_IM2GT = (0.02, 1.0)
# Registrations whose result jumps this far from their initialization landed
# in a wrong basin (symmetric imprints) and are discarded.  The rotation gate
# stays loose for registrations against the true shape: rotationally
# symmetric contacts (spheres) wander freely in rotation while still
# carrying good translation information.
GATE_IM2IM = (0.2, 3.0)
GATE_IM2PC = (1.0, 8.0)
# What each step records of its registration calls, as "icp_<kind>", and
# the fate of a call that ran (see Tracker._register).
REGISTRATION_KINDS = ("im2im", "keyframe", "im2patch")
REGISTRATION_FATES = ("added", "gated", "degenerate", "no_overlap")
# Patchgraph keeps every k-th frame's cloud as a keyframe, from the first,
# and registers each later frame against the latest one.  With k = 2 every
# other frame spans two steps, and the band of J^T J stays narrow.
KEYFRAME_INTERVAL = 2
# Surface samples of the true shape around the first contact: gtpatch's target.
GT_SAMPLE_RADIUS_SCALE = 1.5   # ball diameter / larger gel extent
GT_SAMPLE_COUNT = 4000
GT_SAMPLE_SEED = 0


@dataclass
class TrackerConfig:
    """(rad, mm) sigma pairs, each a finite number > 0, and the optimizer."""

    sigma_eff: tuple = (0.01, 1.0)        # (rad, mm) per axis
    sigma_vis: tuple = (0.05, 2.0)
    # Per-step sigma of the object's zero-motion random walk: grasped
    # objects barely move between frames, and a looser walk lets the
    # optimizer absorb end-effector measurement noise as spurious object
    # motion over an episode.
    sigma_vel: tuple = (0.005, 0.1)
    optimizer: OptimizerParams = field(default_factory=OptimizerParams)

    def __post_init__(self):
        for name in ("sigma_eff", "sigma_vis", "sigma_vel"):
            pair = getattr(self, name)
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ConfigError(f"{name} must be a pair, got {pair!r}")
            for i, sigma in enumerate(pair):
                require(sigma, f"{name}[{i}]", 0, strict=True)
        if not isinstance(self.optimizer, OptimizerParams):
            raise ConfigError(f"optimizer must be OptimizerParams, "
                              f"got {self.optimizer!r}")

    @staticmethod
    def from_dict(d: dict) -> "TrackerConfig":
        """Inverse of dataclasses.asdict; see from_mapping."""
        return from_mapping(TrackerConfig, d)


@dataclass
class PoseEstimate:
    object_pose: Pose
    eff_pose: Pose
    diagnostics: dict


@dataclass
class EpisodeResult:
    """A tracked episode's estimate: o_t and e_t at finalize's converged
    poses, as two stacked Poses.  `diagnostics` holds one record per step:
    its skip reason, each registration call's fate and its solve's stats."""

    object_poses: Pose
    eff_poses: Pose
    diagnostics: list
    patch: PatchMap
    final_optimizer: dict   # OptimizeStats of finalize's converged solve


def _sample_sdf_surface(shape: ShapeSDF, center: np.ndarray, radius: float,
                        spacing: float, count: int, seed: int) -> PointCloud:
    """Surface points of the true SDF near the contact, density-matched to
    reconstruction clouds: one point per occupied voxel of `spacing`, the
    gel's pixel pitch."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    raw *= radius * rng.uniform(0, 1, size=(count, 1)) ** (1.0 / 3.0)
    pts = shape.project_to_surface(center + raw)
    keep = (np.abs(shape.sdf(pts)) < 1e-3) & \
           (np.linalg.norm(pts - center, axis=1) <= radius)
    pts = pts[keep]
    if len(pts) == 0:
        return PointCloud(points=np.zeros((0, 3)), normals=np.zeros((0, 3)),
                          frame="object")
    normals = shape.gradient(pts)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    pts, normals = patchmap._voxel_downsample(pts, normals, spacing)
    return PointCloud(points=pts, normals=normals, frame="object")


# NormalImage -> {gel field values: the image's sensor-frame contact cloud}.
# Keyed by the image object, so a cloud dies with its image.
_CLOUDS = weakref.WeakKeyDictionary()


class Tracker:
    """Single-episode tracking loop over one of the four baseline modes.

    The graph is smoothed incrementally, as iSAM2 does (Kaess et al., IJRR
    2012): each `step` advances the estimate by at most one
    Levenberg-Marquardt iteration from the previous frame's solution, whose
    warm start carries the rest, and `finalize` runs LM to convergence under
    `config.optimizer` and returns the estimate.  The tracker never sees a
    true pose, only measurements (and, in gtpatch, the object's shape).

    Each frame's contact cloud is looked up by its normal image and the
    gel, and reconstructed on a miss, so trackers stepped over the same
    images, from `track_episode` or built directly, share their clouds.
    The registration calls, the skip checks, the jump gates and the
    factors are the tracker's own, though a call another tracker made on
    the same clouds replays its outcome (`registration.icp_register`).
    Once an image's cloud is kept, its arrays are made read-only.

    The constructor adds no factor, and each `step` adds e_t's first
    factor, then o_t's, and appends their initial poses to the estimate
    `poses`, one stacked Pose in key-id order as `factors.optimize` takes
    it: row 2t - 2 is e_t (`factors.eff_key`), 2t - 1 is o_t (`obj_key`)."""

    def __init__(self, mode: TrackerMode, config: TrackerConfig,
                 vision_prior: Pose, gel: GelConfig, shape: ShapeSDF = None):
        mode = TrackerMode(mode)
        if mode is TrackerMode.GROUNDTRUTH_PATCH and shape is None:
            raise ConfigError("GroundtruthPatch mode needs the object shape")
        self.mode = mode
        self.config = config
        self.gel = gel
        self._gel_key = dataclasses.astuple(gel)   # the gel's field values
        self.shape = shape
        self.graph = FactorGraph()
        self.keyframes: list = []   # (t, sensor-frame cloud), in time order
        self.prev_cloud: PointCloud | None = None
        self.prev_eff_measurement: Pose | None = None
        self.gt_target: PointCloud | None = None
        self.t = 0
        self.diagnostics: list = []

        self.step_optimizer = dataclasses.replace(
            config.optimizer,
            max_iterations=min(1, config.optimizer.max_iterations))
        self.eff_noise = NoiseModel.isotropic(*config.sigma_eff)
        self.vel_noise = NoiseModel.isotropic(*config.sigma_vel)
        self.vision_prior = vision_prior
        self.vis_noise = NoiseModel.isotropic(*config.sigma_vis)
        self.poses = Pose.stack([])

    # -- helpers -----------------------------------------------------------

    def _object_from_sensor(self, t: int) -> Pose:
        return geometry.compose(geometry.inverse(self.poses[obj_key(t)]),
                                self.poses[eff_key(t)])

    def _register(self, kind: str, source, target, init: Pose, gate,
                  diag: dict) -> Pose | None:
        """Register `source` onto `target` from `init` and record the call
        as ``diag["icp_<kind>"]`` with its `fate`:

        - `added`: the ICP result, whose transform is returned;
        - `gated`: the ICP result and its jump from `init`
          (`jump_rotation_rad`, `jump_translation_mm`), past `gate`;
        - `degenerate`: the `condition_number`, null when not finite;
        - `no_overlap`: the `correspondence_count`.

        Every fate but `added` returns None."""
        try:
            result = registration.icp_register(source, target, init)
        except registration.DegenerateGeometryError as err:
            cond = err.condition_number
            diag[f"icp_{kind}"] = {
                "fate": "degenerate",
                "condition_number": cond if math.isfinite(cond) else None}
            return None
        except registration.InsufficientOverlapError as err:
            diag[f"icp_{kind}"] = {"fate": "no_overlap",
                                   "correspondence_count": err.count}
            return None
        record = diag[f"icp_{kind}"] = result.to_dict()
        jump = geometry.ominus(init, result.transform)
        rotation = float(np.linalg.norm(jump[:3]))
        translation = float(np.linalg.norm(jump[3:]))
        if rotation > gate[0] or translation > gate[1]:
            record.update(fate="gated", jump_rotation_rad=rotation,
                          jump_translation_mm=translation)
            return None
        record["fate"] = "added"
        return result.transform

    def _register_keyframe(self, cloud: PointCloud, motion: Pose | None,
                           diag: dict):
        """Register frame t against the latest keyframe k and add an
        im2im factor on (o_k, e_k, o_t, e_t).  Skipped when k = t - 1, a pair
        that im2im already registers."""
        t = self.t
        k, target = self.keyframes[-1]
        if k == t - 1:
            return
        diag["keyframe_target"] = k
        keyframe_from_object = geometry.inverse(self._object_from_sensor(k))
        # Start from this step's accepted image-to-image `motion`, as
        # odometry-initialized scan-to-map registration does (Zhang & Singh,
        # "LOAM", RSS 2014): it carries no end-effector measurement noise,
        # unlike the graph's o_{t-1}^-1 e_t.
        if motion is not None:
            init = geometry.compose(geometry.compose(
                keyframe_from_object, self._object_from_sensor(t - 1)), motion)
            diag["keyframe_init"] = "im2im"
        else:
            init = geometry.compose(keyframe_from_object,
                                    self._object_from_sensor(t))
            diag["keyframe_init"] = "graph"
        measured = self._register("keyframe", cloud, target, init, GATE_IM2IM,
                                  diag)
        if measured is not None:
            self.graph.add(im2im(t, measured,
                                 NoiseModel.isotropic(*SIGMA_IM2IM), k=k))

    def _ensure_gt_target(self, cloud: PointCloud):
        if self.gt_target is not None:
            return
        obj_from_sensor = self._object_from_sensor(self.t)
        center = obj_from_sensor.transform_points(cloud.points).mean(axis=0)
        gel = self.gel
        radius = GT_SAMPLE_RADIUS_SCALE * max(gel.extent_x, gel.extent_y) / 2.0
        self.gt_target = _sample_sdf_surface(
            self.shape, center, radius, spacing=min(gel.pitch_x, gel.pitch_y),
            count=GT_SAMPLE_COUNT, seed=GT_SAMPLE_SEED)

    # -- pipeline ----------------------------------------------------------

    def step(self, normal_image: NormalImage, eff_measurement: Pose) -> PoseEstimate:
        """Process frame t: add e_t's end-effector prior, then o_t's vision
        prior at the first frame or motion prior from t - 1 after it, with
        their initial poses, then its registrations.
        `skipped_registration` is null, or why the frame registers nothing:
        `empty_mask` or `touches_border`."""
        self.t += 1
        t = self.t
        diag = {"step": t, "icp_im2im": None, "icp_keyframe": None,
                "keyframe_target": None, "keyframe_init": None,
                "icp_im2patch": None, "im2patch_init": None,
                "skipped_registration": None, "keyframe": False}

        self.graph.add(eff_prior(t, eff_measurement, self.eff_noise))
        if t == 1:
            self.graph.add(vis_prior(1, self.vision_prior, self.vis_noise))
            new = Pose.stack([eff_measurement, self.vision_prior])
        else:
            self.graph.add(motion_prior(t, self.vel_noise))
            new = Pose.stack([eff_measurement, self.poses[obj_key(t - 1)]])
        self.poses = Pose(np.concatenate([self.poses.rotation, new.rotation]),
                          np.concatenate([self.poses.translation,
                                          new.translation]))

        cloud = None
        if not normal_image.mask.any():
            diag["skipped_registration"] = "empty_mask"
        elif contact_touches_border(normal_image.mask):
            diag["skipped_registration"] = "touches_border"
        elif self.mode is not TrackerMode.CONST_VEL:   # constvel registers nothing
            clouds = _CLOUDS.setdefault(normal_image, {})
            if self._gel_key not in clouds:
                _, clouds[self._gel_key] = reconstruct_cloud(
                    normal_image, self.gel, step=t)
                normal_image.values.flags.writeable = False
                normal_image.mask.flags.writeable = False
            cloud = clouds[self._gel_key]

        motion = None
        if (self.mode in (TrackerMode.IMAGE_TO_IMAGE, TrackerMode.PATCH_GRAPH)
                and cloud is not None and self.prev_cloud is not None):
            # Initialize at the measured relative sensor motion.  Directions
            # the contact geometry cannot observe (e.g. sliding on a sphere)
            # then stay at an unbiased, graph-independent estimate instead of
            # being pulled toward zero motion (steady drift) or toward the
            # graph's own prediction (self-confirming feedback).
            init = geometry.compose(geometry.inverse(self.prev_eff_measurement),
                                    eff_measurement)
            motion = self._register("im2im", cloud, self.prev_cloud, init,
                                    GATE_IM2IM, diag)
            if motion is not None:
                self.graph.add(im2im(t, motion,
                                     NoiseModel.isotropic(*SIGMA_IM2IM)))

        if (self.mode is TrackerMode.PATCH_GRAPH and cloud is not None
                and self.keyframes):
            self._register_keyframe(cloud, motion, diag)

        if cloud is not None and self.mode is TrackerMode.GROUNDTRUTH_PATCH:
            self._ensure_gt_target(cloud)
            if len(self.gt_target) > 0:
                diag["im2patch_init"] = "graph"
                measured = self._register("im2patch", cloud, self.gt_target,
                                          self._object_from_sensor(t),
                                          GATE_IM2PC, diag)
                if measured is not None:
                    self.graph.add(im2patch(
                        t, measured, NoiseModel.isotropic(*SIGMA_IM2GT)))

        self.poses, stats = factors.optimize(self.graph, self.poses,
                                             self.step_optimizer)
        diag["optimizer"] = dict(vars(stats))

        if (self.mode is TrackerMode.PATCH_GRAPH and cloud is not None
                and (t - 1) % KEYFRAME_INTERVAL == 0):
            self.keyframes.append((t, cloud))
            diag["keyframe"] = True

        self.prev_cloud = cloud
        self.prev_eff_measurement = eff_measurement
        self.diagnostics.append(diag)
        return PoseEstimate(object_pose=self.poses[obj_key(t)],
                            eff_pose=self.poses[eff_key(t)],
                            diagnostics=diag)

    def finalize(self) -> EpisodeResult:
        """Converge the smoother, and return the estimate and the patch at
        the converged poses."""
        if self.t < 1:
            raise RuntimeError("finalize requires at least one processed step")
        self.poses, stats = factors.optimize(self.graph, self.poses,
                                             self.config.optimizer)
        # The patch is an output, fused once at the final poses.
        patch = PatchMap()
        if self.keyframes:
            patch = patchmap.fuse_keyframe(
                [(cloud, self._object_from_sensor(k))
                 for k, cloud in self.keyframes])
        steps = np.arange(1, self.t + 1)
        return EpisodeResult(
            object_poses=self.poses[obj_key(steps)],
            eff_poses=self.poses[eff_key(steps)],
            diagnostics=self.diagnostics, patch=patch,
            final_optimizer=dict(vars(stats)))


def track_episode(episode, mode: TrackerMode, config: TrackerConfig = None) -> EpisodeResult:
    """Run the tracker over an episode's measurements: its vision prior and
    each frame's normal image and measured end-effector pose.  Its true
    poses are not read; `harness.tracking_errors` scores the estimate.

    Each frame is reconstructed once per episode however many modes track
    it, since its cloud is kept with its normal image (see `Tracker`)."""
    config = config or TrackerConfig()
    shape = episode.shape if TrackerMode(mode) is TrackerMode.GROUNDTRUTH_PATCH else None
    tracker = Tracker(mode, config, episode.vision_prior, episode.gel,
                      shape=shape)
    for frame in episode.frames:
        tracker.step(frame.normals, frame.eff_measured)
    return tracker.finalize()

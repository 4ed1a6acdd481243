"""Per-timestep tracking pipeline: reconstruct the contact cloud, register it
(image to image, image to the latest keyframe, or image to the true shape),
assemble factors and optimize.  The graph-independent part, each frame's
contact cloud, is a `FrontEnd` that every mode tracking one episode shares.
Patchgraph fuses its keyframes into the local patch map once, at the final
poses, in `finalize`."""

from __future__ import annotations

import dataclasses
import enum
import math
import typing
import weakref
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import factors, geometry, patchmap, registration
from .factors import (FactorGraph, Im2ImFactor, Im2PatchFactor,
                      MotionPriorFactor, NoiseModel, OptimizerParams, eff_key,
                      eff_prior, obj_key, vis_prior)
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


class ConfigError(ValueError):
    """A tracker or suite configuration is invalid."""


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
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(_is_positive_number(v) for v in pair)):
                raise ConfigError(f"{name} must be a pair of finite numbers > 0, "
                                  f"got {pair!r}")

    @staticmethod
    def from_dict(d: dict) -> "TrackerConfig":
        """Inverse of dataclasses.asdict; see from_mapping."""
        return from_mapping(TrackerConfig, d)


def _is_positive_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def from_mapping(cls, data):
    """Build dataclass `cls` from a mapping of its fields, as read from YAML:
    dataclass and `list[Dataclass]` fields from nested mappings, tuples from
    lists, and `int` fields only from ints (not floats or bools).  ConfigError
    for an unknown key at any level or a bad value."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} must be a mapping, got {data!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    try:
        for name, value in data.items():
            hint = hints.get(name)   # an unknown name fails in cls(**kwargs)
            item = typing.get_args(hint)[0] if typing.get_origin(hint) is list else None
            if dataclasses.is_dataclass(hint):
                value = from_mapping(hint, value)
            elif dataclasses.is_dataclass(item):
                value = [from_mapping(item, v) for v in value]
            elif hint is tuple:
                value = tuple(value)
            elif hint is int and type(value) is not int:
                raise ConfigError(f"{name} must be an int, got {value!r}")
            kwargs[name] = value
        return cls(**kwargs)
    except (TypeError, ValueError) as err:   # nested ConfigErrors gain a prefix
        raise ConfigError(f"bad {cls.__name__}: {err}") from err


def read_yaml_mapping(path) -> dict:
    """The top-level mapping of a YAML file, or ConfigError."""
    try:
        with open(path) as f:
            data = yaml.safe_load(f)
    except (OSError, yaml.YAMLError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping")
    return data


@dataclass
class PoseEstimate:
    object_pose: Pose
    eff_pose: Pose
    diagnostics: dict


@dataclass
class EpisodeResult:
    object_trajectory: list
    eff_trajectory: list
    final_rotation_error: float     # rad
    final_translation_error: float  # mm
    diagnostics: list
    patch: PatchMap
    warnings: list
    final_optimizer: dict   # OptimizeStats of finalize's converged solve


def pose_errors(estimate: Pose, truth: Pose):
    """(geodesic rotation error rad, Euclidean translation error mm) of the
    relative pose estimate^-1 * truth."""
    rel = geometry.compose(geometry.inverse(estimate), truth)
    return (geometry.rotation_angle(rel.rotation),
            float(np.linalg.norm(rel.translation)))


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


class FrontEnd:
    """The graph-independent per-frame work, done once per frame and kept:
    frame t's sensor-frame contact cloud.  `track_episode` shares one among
    all the modes that track an episode, so frames are keyed by step alone
    and must not change once tracked.  Each mode's tracker still makes and
    records its own registration calls; since they share these clouds, a
    call that another mode already made (im2im's, which im2im and
    patchgraph both make for each pair of consecutive frames) is replayed
    from the source cloud's memo (`registration.icp_register`)."""

    def __init__(self, gel: GelConfig):
        self.gel = gel
        self.clouds: dict = {}   # t -> sensor-frame contact cloud

    def cloud(self, t: int, normal_image: NormalImage) -> PointCloud:
        if t not in self.clouds:
            _, self.clouds[t] = reconstruct_cloud(normal_image, self.gel, step=t)
        return self.clouds[t]


class Tracker:
    """Single-episode tracking loop over one of the four baseline modes.

    The graph is smoothed incrementally, as iSAM2 does (Kaess et al., IJRR
    2012): each `step` advances the estimate by at most one
    Levenberg-Marquardt iteration from the previous frame's solution, whose
    warm start carries the rest, and `finalize` runs LM to convergence under
    `config.optimizer` before it scores and serializes the estimate.

    Contact clouds come from `front_end`: `track_episode` passes the
    episode's shared one, and a tracker built without one gets its own,
    which keeps only the current frame's cloud.  The registration calls,
    the skip checks, the jump gates, the warnings and the factors are the
    tracker's own, though a call another tracker made on the same clouds
    replays its outcome."""

    def __init__(self, mode: TrackerMode, config: TrackerConfig,
                 vision_prior: Pose, first_eff_measurement: Pose,
                 gel: GelConfig, shape: ShapeSDF = None,
                 front_end: FrontEnd = None):
        mode = TrackerMode(mode)
        if mode is TrackerMode.GROUNDTRUTH_PATCH and shape is None:
            raise ConfigError("GroundtruthPatch mode needs the object shape")
        self.mode = mode
        self.config = config
        self.gel = gel
        self.shape = shape
        self.own_front_end = front_end is None
        self.front_end = FrontEnd(gel) if front_end is None else front_end
        self.graph = FactorGraph()
        self.values: dict = {}
        self.keyframes: list = []   # (t, sensor-frame cloud), in time order
        self.prev_cloud: PointCloud | None = None
        self.prev_eff_measurement: Pose | None = None
        self.gt_target: PointCloud | None = None
        self.t = 0
        self.warnings: list = []
        self.diagnostics: list = []

        self.step_optimizer = dataclasses.replace(
            config.optimizer,
            max_iterations=min(1, config.optimizer.max_iterations))
        self.eff_noise = NoiseModel.isotropic(*config.sigma_eff)
        self.vel_noise = NoiseModel.isotropic(*config.sigma_vel)
        self.graph.add(vis_prior(1, vision_prior,
                                 NoiseModel.isotropic(*config.sigma_vis)))
        self.graph.add(eff_prior(1, first_eff_measurement, self.eff_noise))
        self.values[obj_key(1)] = vision_prior
        self.values[eff_key(1)] = first_eff_measurement

    # -- helpers -----------------------------------------------------------

    def _object_from_sensor(self, t: int) -> Pose:
        return geometry.compose(geometry.inverse(self.values[obj_key(t)]),
                                self.values[eff_key(t)])

    def _warn(self, message: str):
        self.warnings.append({"step": self.t, "message": message})

    def _register(self, kind: str, source, target, init: Pose, gate,
                  diag: dict) -> Pose | None:
        """Register `source` onto `target` from `init` and record the call
        as ``diag["icp_<kind>"]`` with its `fate`:

        - `added`: the ICP result, whose transform is returned;
        - `gated`: the ICP result and its jump from `init`
          (`jump_rotation_rad`, `jump_translation_mm`), past `gate`;
        - `degenerate`: the `condition_number`, null when not finite;
        - `no_overlap`: the `correspondence_count`.

        Every fate but `added` returns None and is logged as a warning."""
        try:
            result = registration.icp_register(source, target, init)
        except registration.DegenerateGeometryError as err:
            cond = err.condition_number
            diag[f"icp_{kind}"] = {
                "fate": "degenerate",
                "condition_number": cond if math.isfinite(cond) else None}
            self._warn(f"{kind} registration dropped: {err}")
            return None
        except registration.InsufficientOverlapError as err:
            diag[f"icp_{kind}"] = {"fate": "no_overlap",
                                   "correspondence_count": err.count}
            self._warn(f"{kind} registration dropped: {err}")
            return None
        record = diag[f"icp_{kind}"] = result.to_dict()
        jump = geometry.ominus(init, result.transform)
        rotation = float(np.linalg.norm(jump[:3]))
        translation = float(np.linalg.norm(jump[3:]))
        if rotation > gate[0] or translation > gate[1]:
            record.update(fate="gated", jump_rotation_rad=rotation,
                          jump_translation_mm=translation)
            self._warn(f"{kind} registration jumped far from its "
                       "initialization; factor omitted")
            return None
        record["fate"] = "added"
        return result.transform

    def _register_keyframe(self, cloud: PointCloud, im2im: Pose | None,
                           diag: dict):
        """Register frame t against the latest keyframe k and add an
        Im2ImFactor on (o_k, e_k, o_t, e_t).  Skipped when k = t - 1, a pair
        that im2im already registers."""
        t = self.t
        k, target = self.keyframes[-1]
        if k == t - 1:
            return
        diag["keyframe_target"] = k
        keyframe_from_object = geometry.inverse(self._object_from_sensor(k))
        # Start from this step's accepted image-to-image motion, as
        # odometry-initialized scan-to-map registration does (Zhang & Singh,
        # "LOAM", RSS 2014): it carries no end-effector measurement noise,
        # unlike the graph's o_{t-1}^-1 e_t.
        if im2im is not None:
            init = geometry.compose(geometry.compose(
                keyframe_from_object, self._object_from_sensor(t - 1)), im2im)
            diag["keyframe_init"] = "im2im"
        else:
            init = geometry.compose(keyframe_from_object,
                                    self._object_from_sensor(t))
            diag["keyframe_init"] = "graph"
        measured = self._register("keyframe", cloud, target, init, GATE_IM2IM,
                                  diag)
        if measured is not None:
            self.graph.add(Im2ImFactor(t, measured,
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
        """Process one frame; the first call corresponds to the frame whose
        measurement already seeded the priors at construction."""
        self.t += 1
        t = self.t
        diag = {"step": t, "icp_im2im": None, "icp_keyframe": None,
                "keyframe_target": None, "keyframe_init": None,
                "icp_im2patch": None, "im2patch_init": None,
                "skipped_registration": False, "keyframe": False}

        if t > 1:
            self.values[eff_key(t)] = eff_measurement
            self.values[obj_key(t)] = self.values[obj_key(t - 1)]
            self.graph.add(eff_prior(t, eff_measurement, self.eff_noise))
            self.graph.add(MotionPriorFactor(t, self.vel_noise))

        if self.own_front_end:   # no other tracker reads its clouds
            self.front_end.clouds.clear()
        cloud = None
        if not normal_image.mask.any():
            diag["skipped_registration"] = True
            self._warn("empty contact mask; registration skipped")
        elif contact_touches_border(normal_image.mask):
            diag["skipped_registration"] = True
            self._warn("contact touches image border; registration skipped")
        elif self.mode is not TrackerMode.CONST_VEL:   # constvel registers nothing
            cloud = self.front_end.cloud(t, normal_image)

        im2im = None
        if (self.mode in (TrackerMode.IMAGE_TO_IMAGE, TrackerMode.PATCH_GRAPH)
                and cloud is not None and self.prev_cloud is not None):
            # Initialize at the measured relative sensor motion.  Directions
            # the contact geometry cannot observe (e.g. sliding on a sphere)
            # then stay at an unbiased, graph-independent estimate instead of
            # being pulled toward zero motion (steady drift) or toward the
            # graph's own prediction (self-confirming feedback).
            init = geometry.compose(geometry.inverse(self.prev_eff_measurement),
                                    eff_measurement)
            im2im = self._register("im2im", cloud, self.prev_cloud, init,
                                   GATE_IM2IM, diag)
            if im2im is not None:
                self.graph.add(Im2ImFactor(t, im2im,
                                           NoiseModel.isotropic(*SIGMA_IM2IM)))

        if (self.mode is TrackerMode.PATCH_GRAPH and cloud is not None
                and self.keyframes):
            self._register_keyframe(cloud, im2im, diag)

        if cloud is not None and self.mode is TrackerMode.GROUNDTRUTH_PATCH:
            self._ensure_gt_target(cloud)
            if len(self.gt_target) > 0:
                diag["im2patch_init"] = "graph"
                measured = self._register("im2patch", cloud, self.gt_target,
                                          self._object_from_sensor(t),
                                          GATE_IM2PC, diag)
                if measured is not None:
                    self.graph.add(Im2PatchFactor(
                        t, measured, NoiseModel.isotropic(*SIGMA_IM2GT)))

        self.values, stats = factors.optimize(self.graph, self.values,
                                              self.step_optimizer)
        diag["optimizer"] = dataclasses.asdict(stats)

        if (self.mode is TrackerMode.PATCH_GRAPH and cloud is not None
                and (t - 1) % KEYFRAME_INTERVAL == 0):
            self.keyframes.append((t, cloud))
            diag["keyframe"] = True

        self.prev_cloud = cloud
        self.prev_eff_measurement = eff_measurement
        self.diagnostics.append(diag)
        return PoseEstimate(object_pose=self.values[obj_key(t)],
                            eff_pose=self.values[eff_key(t)],
                            diagnostics=diag)

    def finalize(self, gt_object_poses: list) -> EpisodeResult:
        """Converge the smoother, then the final-step tracking errors, the
        serialized trajectory and the patch, all at the converged poses."""
        if self.t < 1:
            raise RuntimeError("finalize requires at least one processed step")
        self.values, stats = factors.optimize(self.graph, self.values,
                                              self.config.optimizer)
        rot_err, trans_err = pose_errors(self.values[obj_key(self.t)],
                                         gt_object_poses[self.t - 1])
        steps = range(1, self.t + 1)
        obj_traj = geometry.to_quat_trans(
            Pose.stack([self.values[obj_key(t)] for t in steps]))
        eff_traj = geometry.to_quat_trans(
            Pose.stack([self.values[eff_key(t)] for t in steps]))
        # The patch is an output, fused once at the final poses.
        patch = PatchMap()
        if self.keyframes:
            patch = patchmap.fuse_keyframe(
                patch, [(cloud, self._object_from_sensor(k))
                        for k, cloud in self.keyframes])
        return EpisodeResult(object_trajectory=obj_traj, eff_trajectory=eff_traj,
                             final_rotation_error=rot_err,
                             final_translation_error=trans_err,
                             diagnostics=self.diagnostics, patch=patch,
                             warnings=self.warnings,
                             final_optimizer=dataclasses.asdict(stats))


# Episode -> the FrontEnd every mode tracking it shares, dropped with the
# episode.
_FRONT_ENDS = weakref.WeakKeyDictionary()


def track_episode(episode, mode: TrackerMode, config: TrackerConfig = None) -> EpisodeResult:
    """Run the tracker over a generated episode and score it against the
    stored ground truth.

    Every call on the same episode object shares one `FrontEnd`, so each
    frame is reconstructed once per episode however many modes track it.
    The episode is therefore read-only once tracked: a changed frame is not
    seen again."""
    config = config or TrackerConfig()
    shape = episode.shape if TrackerMode(mode) is TrackerMode.GROUNDTRUTH_PATCH else None
    front_end = _FRONT_ENDS.get(episode)
    if front_end is None:
        front_end = _FRONT_ENDS[episode] = FrontEnd(episode.gel)
    tracker = Tracker(mode, config, episode.vision_prior,
                      episode.frames[0].eff_measured, episode.gel, shape=shape,
                      front_end=front_end)
    for frame in episode.frames:
        tracker.step(frame.normals, frame.eff_measured)
    return tracker.finalize([f.object_pose for f in episode.frames])

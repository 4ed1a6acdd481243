"""Contact episode generation and on-disk persistence.

An episode keeps the object fixed at the world origin and slides the sensor
along a parametric trajectory while staying in contact.  Ground-truth poses,
noisy end-effector measurements, a noisy start-of-episode vision prior and
perturbed normal images are produced deterministically from a seed.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import geometry, imageio
from .config import ConfigError, from_mapping, require, require_pose
from .geometry import Pose
from .render import (DepthImage, GelConfig, NormalImage, contact_touches_border,
                     depth_to_normals, perturb_normals, render_depth)
from .shapes import ShapeSDF, shape_from_descriptor


MAX_CONTACT_BREAKS = 2   # consecutive out-of-contact steps an episode survives
# The version of save_episode's files, part of each cached episode's key:
# 2 stacks every frame's image of a kind into one file.
EPISODE_LAYOUT = 2
# The poses each frame of episode.json holds, in the order it lists them.
POSE_KINDS = ("object_pose", "eff_pose", "eff_measured")


class EpisodeGenerationError(RuntimeError):
    pass


@dataclass
class TrajectorySpec:
    """Sensor motion over the object: linear / arc slide, in-place rotation,
    or a composite slide-plus-spin.  Every number is finite, or ConfigError."""

    kind: str = "linear"           # linear | arc | rotation | composite
    steps: int = 12                # >= 3
    indent: float = 1.0            # target max indentation at the start pose (mm), > 0
    length: float = 3.0            # slide length (mm), linear/composite, >= 0
    direction_deg: float | None = 0.0   # slide direction in the gel plane; None = seeded random
    arc_radius: float = 5.0        # arc variant (mm), > 0
    arc_angle_deg: float = 40.0
    spin_deg: float = 0.0          # rotation about the contact axis (rotation/composite)
    dt: float = 0.1                # > 0

    def __post_init__(self):
        if self.kind not in ("linear", "arc", "rotation", "composite"):
            raise ConfigError(f"unknown trajectory kind {self.kind!r}")
        require(self.steps, "trajectory steps", 3, integer=True)
        for name in ("indent", "arc_radius", "dt"):
            require(getattr(self, name), f"trajectory {name}", 0, strict=True)
        require(self.length, "trajectory length", 0)
        for name in ("arc_angle_deg", "spin_deg"):
            require(getattr(self, name), f"trajectory {name}")
        if self.direction_deg is not None:
            require(self.direction_deg, "trajectory direction_deg")


@dataclass
class NoiseSpec:
    """Noise magnitudes: per-axis sigmas for pose noise (rad, mm) and the
    angular sigma of the normal-image perturbation (rad), each finite and
    >= 0, or ConfigError."""

    normal_sigma: float = 0.03
    eff_sigma_rot: float = 0.01
    eff_sigma_trans: float = 1.0
    vis_sigma_rot: float = 0.05
    vis_sigma_trans: float = 2.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            require(getattr(self, f.name), f"noise {f.name}", 0)


@dataclass
class Frame:
    timestamp: float
    object_pose: Pose
    eff_pose: Pose
    eff_measured: Pose
    normals: NormalImage
    depth_gt: DepthImage | None = None


@dataclass
class Episode:
    """A generated or loaded episode."""

    frames: list
    vision_prior: Pose
    noise: NoiseSpec
    shape_descriptor: dict
    gel: GelConfig
    seed: int
    dropped_steps: list = field(default_factory=list)

    @property
    def shape(self) -> ShapeSDF:
        return shape_from_descriptor(self.shape_descriptor)


def _sample_pose_noise(rng, rot, trans) -> np.ndarray:
    return rng.normal(0.0, 1.0, size=6) * np.repeat([rot, trans], 3)


def _rotation_about_point(axis_angle: np.ndarray, center: np.ndarray) -> Pose:
    rot = geometry.exp(np.concatenate([axis_angle, np.zeros(3)])).rotation
    return Pose(rot, center - rot @ center)


def _lowest_hit(shape: ShapeSDF, xs, ys, z_start: float, z_range: float,
                tol: float = 1e-5, max_iters: int = 200):
    """(row-major ray index, z) of the lowest surface hit of rays cast along
    +z from (x, y, z_start) in the object frame, or None if no ray hits.

    Each ray steps by its distance until d <= tol, and is evaluated once
    more after its travel reaches z_range, where
    render._trace_lower_envelope retires it unevaluated.  The ray that
    starts closest to the surface marches first, and its hit bounds the
    lowest one from above.  Every ray whose next height z_start + t + d is
    above the lowest hit so far then retires: t only grows, so it can
    neither beat that hit nor tie it.  Among equal heights the first ray in
    row-major order wins.
    """
    start = np.column_stack([xs.ravel(), ys.ravel(), np.full(xs.size, z_start)])
    start_d = shape.sdf(start)

    def march(live, best_k, best_z):
        pts, d, t = start[live], start_d[live], np.zeros(live.size)
        for it in range(max_iters + 1):
            if it:
                t += d
                pts[:, 2] += d
                d = shape.sdf(pts)
            hit = d <= tol
            if hit.any():
                z = z_start + t[hit]
                m = np.argmin(z)   # the first of equal minima: live is in row-major order
                k = live[hit][m]
                if z[m] < best_z or (z[m] == best_z and k < best_k):
                    best_k, best_z = k, z[m]
            keep = np.flatnonzero(
                ~hit & (t < z_range) & (z_start + (t + d) <= best_z))
            live, d, t = live.take(keep), d.take(keep), t.take(keep)
            pts = pts.take(keep, axis=0)
            if not live.size:
                break
        return best_k, best_z

    first = int(np.argmin(start_d))
    best = march(np.array([first]), -1, np.inf)
    best = march(np.flatnonzero(np.arange(xs.size) != first), *best)
    return None if best[0] < 0 else best


def find_contact_base(shape: ShapeSDF, gel: GelConfig, indent: float) -> Pose:
    """Sensor pose (identity rotation) placing the gel plane `indent` mm above
    the object's lowest surface point, laterally centred on that point."""
    xs = np.linspace(-gel.extent_x / 2, gel.extent_x / 2, 129)
    ys = np.linspace(-gel.extent_y / 2, gel.extent_y / 2, 129)
    gx, gy = np.meshgrid(xs, ys)
    lowest = _lowest_hit(shape, gx, gy, z_start=-60.0, z_range=120.0)
    if lowest is None:
        raise EpisodeGenerationError("object has no surface above the search window")
    k, z_low = lowest
    i, j = np.unravel_index(k, gx.shape)
    return Pose(np.eye(3), np.array([gx[i, j], gy[i, j], z_low + indent]))


def _trajectory_delta(traj: TrajectorySpec, frac: float, direction: float,
                      contact_center: np.ndarray) -> Pose:
    """World-frame motion applied on top of the base sensor pose."""
    d = np.array([np.cos(direction), np.sin(direction), 0.0])
    if traj.kind == "linear":
        return Pose(np.eye(3), frac * traj.length * d)
    if traj.kind == "arc":
        psi = np.deg2rad(traj.arc_angle_deg) * frac
        side = np.array([-d[1], d[0], 0.0])
        offs = traj.arc_radius * (np.sin(psi) * d + (1.0 - np.cos(psi)) * side)
        return Pose(np.eye(3), offs)
    if traj.kind == "rotation":
        angle = np.deg2rad(traj.spin_deg) * frac
        return _rotation_about_point(np.array([0.0, 0.0, angle]), contact_center)
    if traj.kind == "composite":
        angle = np.deg2rad(traj.spin_deg) * frac
        spin = _rotation_about_point(np.array([0.0, 0.0, angle]), contact_center)
        slide = Pose(np.eye(3), frac * traj.length * d)
        return geometry.compose(slide, spin)
    raise EpisodeGenerationError(f"unknown trajectory kind {traj.kind!r}")


@dataclass(frozen=True)
class Slide:
    """The noise-free part of an episode: what its shape, gel, trajectory,
    contact base and slide direction fix, before any seed draws.  `kept`
    and `dropped` are step indices; `effs`, `depths` and `normals` are the
    kept steps' sensor poses, rendered depths and exact normals, stacked.
    Every array is read-only, so that one slide can serve many episodes."""

    kept: tuple
    dropped: tuple
    effs: Pose
    depths: DepthImage
    normals: NormalImage


def render_slide(shape: ShapeSDF, trajectory: TrajectorySpec, gel: GelConfig,
                 base: Pose, direction: float) -> Slide:
    """Render `trajectory` from the contact base `base` along `direction`
    (rad): every step's sensor pose in one `render_depth` call, then the
    kept frames' normals as one stack.  Frames whose contact region touches
    the image border are dropped, as the Poisson boundary condition cannot
    handle them.  EpisodeGenerationError after more than MAX_CONTACT_BREAKS
    consecutive out-of-contact steps, or for fewer than 3 kept frames."""
    contact_center = base.translation - np.array([0.0, 0.0, trajectory.indent])
    effs = []
    for k in range(trajectory.steps):
        frac = k / max(trajectory.steps - 1, 1)
        delta = _trajectory_delta(trajectory, frac, direction, contact_center)
        effs.append(geometry.compose(delta, base))
    effs = Pose.stack(effs)
    depths = render_depth(shape, Pose.identity(), effs, gel)

    kept, dropped = [], []
    consecutive_breaks = 0
    for k, mask in enumerate(depths.mask):
        if not mask.any():
            consecutive_breaks += 1
            if consecutive_breaks > MAX_CONTACT_BREAKS:
                raise EpisodeGenerationError(
                    f"contact lost for more than {MAX_CONTACT_BREAKS} "
                    f"consecutive steps at step {k}")
        else:
            consecutive_breaks = 0
        (dropped if contact_touches_border(mask) else kept).append(k)
    if len(kept) < 3:
        raise EpisodeGenerationError(
            f"only {len(kept)} usable frames after border filtering")
    if dropped:
        depths = DepthImage(values=depths.values[kept], mask=depths.mask[kept])
        effs = effs[kept]
    normals = depth_to_normals(depths, gel)
    for array in (effs.rotation, effs.translation, depths.values, depths.mask,
                  normals.values, normals.mask):
        array.setflags(write=False)
    return Slide(kept=tuple(kept), dropped=tuple(dropped), effs=effs,
                 depths=depths, normals=normals)


def generate_episode(shape: ShapeSDF, trajectory: TrajectorySpec, gel: GelConfig,
                     noise: NoiseSpec, seed: int, *,
                     slide: Callable[[float], Slide] | None = None) -> Episode:
    """Simulate one contact episode; deterministic for a fixed seed.

    The generator draws the slide direction when the trajectory leaves it
    open, then gets the noise-free `Slide` for that direction from
    `slide(direction)`: by default `render_slide` from
    `find_contact_base(shape, gel, trajectory.indent)`, found here.  A
    caller that generates many episodes of one fixed-direction trajectory
    passes a memo of it instead, which changes no byte.  Per kept frame the
    generator then draws a normal-noise seed and the end-effector noise,
    and last the vision prior.  The frames' arrays are copies the episode
    owns, its normals perturbed as one stack.
    """
    rng = np.random.default_rng(seed)
    direction = (np.deg2rad(trajectory.direction_deg)
                 if trajectory.direction_deg is not None
                 else rng.uniform(0.0, 2.0 * np.pi))
    if slide is None:
        slide = functools.partial(render_slide, shape, trajectory, gel,
                                  find_contact_base(shape, gel,
                                                    trajectory.indent))
    slide = slide(direction)

    seeds, eff_noise = [], []
    for _ in slide.kept:
        seeds.append(int(rng.integers(0, 2**31 - 1)))
        eff_noise.append(_sample_pose_noise(
            rng, noise.eff_sigma_rot, noise.eff_sigma_trans))
    effs = Pose(slide.effs.rotation.copy(), slide.effs.translation.copy())
    depths = DepthImage(slide.depths.values.copy(), slide.depths.mask.copy())
    normals = perturb_normals(
        NormalImage(slide.normals.values.copy(), slide.normals.mask.copy()),
        noise.normal_sigma, seeds)
    eff_measured = geometry.oplus(effs, np.array(eff_noise))
    object_pose = Pose.identity()
    frames = [Frame(timestamp=k * trajectory.dt, object_pose=object_pose,
                    eff_pose=effs[i], eff_measured=eff_measured[i],
                    normals=NormalImage(normals.values[i], normals.mask[i]),
                    depth_gt=DepthImage(depths.values[i], depths.mask[i]))
              for i, k in enumerate(slide.kept)]
    vision_prior = geometry.oplus(object_pose, _sample_pose_noise(
        rng, noise.vis_sigma_rot, noise.vis_sigma_trans))
    return Episode(frames=frames, vision_prior=vision_prior, noise=noise,
                   shape_descriptor=shape.descriptor(), gel=gel, seed=seed,
                   dropped_steps=list(slide.dropped))


def save_episode(episode: Episode, directory) -> None:
    """Write `episode` to `directory`: `episode.json` plus one stacked image
    per kind, `normals.pfm` ((F*H)xWx3), `mask.pgm` ((F*H)xW) and, when
    every frame has its depth, `depth.pfm` ((F*H)xW), frame i in rows
    i*H .. (i+1)*H - 1 read top to bottom."""
    has_depth = [fr.depth_gt is not None for fr in episode.frames]
    if any(has_depth) != all(has_depth):
        raise ValueError("save_episode needs a depth for every frame or none")
    os.makedirs(directory, exist_ok=True)
    meta = {
        "seed": episode.seed,
        "shape": episode.shape_descriptor,
        "gel": dataclasses.asdict(episode.gel),
        "noise": dataclasses.asdict(episode.noise),
        "vision_prior": geometry.to_quat_trans(episode.vision_prior),
        "dropped_steps": episode.dropped_steps,
        "frames": [{"timestamp": fr.timestamp} for fr in episode.frames],
    }
    for kind in POSE_KINDS:
        poses = geometry.to_quat_trans(Pose.stack(
            [getattr(fr, kind) for fr in episode.frames]))
        for frame, pose in zip(meta["frames"], poses):
            frame[kind] = pose
    imageio.write_pfm(os.path.join(directory, "normals.pfm"),
                      [fr.normals.values for fr in episode.frames])
    imageio.write_pgm_mask(os.path.join(directory, "mask.pgm"),
                           [fr.normals.mask for fr in episode.frames])
    if all(has_depth):
        imageio.write_pfm(os.path.join(directory, "depth.pfm"),
                          [fr.depth_gt.values for fr in episode.frames])
    imageio.write_json(os.path.join(directory, "episode.json"), meta)


def load_episode(directory) -> Episode:
    """Read an episode written by `save_episode`.  ConfigError naming the
    field for a missing key, an episode or frame that is not a mapping,
    frames that are not a list of one or more, an unknown or bad gel or
    noise setting, a seed that is not an int >= 0, dropped steps that are
    not a list of ints >= 0, a timestamp that is not a finite number, or a
    pose that is not 7 finite numbers with a nonzero quaternion; ValueError
    naming the file for an `episode.json` that is not JSON, a truncated
    image, or one whose shape is not the stack of F gel-sized frames,
    (F*height) x width (x 3 for normals).
    Each stack is read once and its frames are row slices of it; images
    keep the float32 values of their files.  Each pose kind is parsed in
    one call, and frames hold rows of the stacked poses."""
    meta = imageio.read_json(os.path.join(directory, "episode.json"))

    def get(mapping, key, where="episode"):
        if not isinstance(mapping, dict):
            raise ConfigError(f"{where} must be a mapping, got {mapping!r}")
        if key not in mapping:
            raise ConfigError(f"{where} has no {key!r}")
        return mapping[key]

    gel = from_mapping(GelConfig, get(meta, "gel"))
    if not isinstance(get(meta, "frames"), list) or not meta["frames"]:
        raise ConfigError(f"episode 'frames' must be a list of one frame or "
                          f"more, got {meta['frames']!r}")
    count, h = len(meta["frames"]), gel.height

    def read(name, reader, channels=()):
        path = os.path.join(directory, name)
        data = reader(path)
        shape = (count * h, gel.width) + channels
        if data.shape != shape:
            raise ValueError(f"{path} has shape {data.shape}, but {count} "
                             f"frames of the {h}x{gel.width} gel need {shape}")
        return data

    normals = read("normals.pfm", imageio.read_pfm, (3,))
    mask = read("mask.pgm", imageio.read_pgm_mask)
    depth = None
    if os.path.exists(os.path.join(directory, "depth.pfm")):
        depth = read("depth.pfm", imageio.read_pfm)
    timestamps = [require(get(fr, "timestamp", f"episode frame {i}"),
                          f"episode frame {i} timestamp")
                  for i, fr in enumerate(meta["frames"])]

    def poses(kind):
        values = [get(fr, kind, f"episode frame {i}")
                  for i, fr in enumerate(meta["frames"])]
        try:
            stacked = geometry.from_quat_trans(values)
        except (TypeError, ValueError):
            stacked = None
        # The stack is F poses exactly when every frame holds one.
        if stacked is None or stacked.translation.shape != (len(values), 3):
            for i, value in enumerate(values):   # name the first bad frame
                require_pose(value, f"episode frame {i} {kind}")
        return stacked

    object_pose, eff_pose, eff_measured = (poses(kind) for kind in POSE_KINDS)
    frames = []
    for i, timestamp in enumerate(timestamps):
        rows = slice(i * h, (i + 1) * h)
        frames.append(Frame(
            timestamp=timestamp, object_pose=object_pose[i],
            eff_pose=eff_pose[i], eff_measured=eff_measured[i],
            normals=NormalImage(values=normals[rows], mask=mask[rows]),
            depth_gt=None if depth is None else DepthImage(
                values=depth[rows], mask=mask[rows].copy())))
    dropped = meta.get("dropped_steps", [])
    if not isinstance(dropped, list):
        raise ConfigError(f"episode dropped_steps must be a list of ints "
                          f">= 0, got {dropped!r}")
    return Episode(frames=frames,
                   vision_prior=require_pose(get(meta, "vision_prior"),
                                             "episode vision_prior"),
                   noise=from_mapping(NoiseSpec, get(meta, "noise")),
                   shape_descriptor=get(meta, "shape"), gel=gel,
                   seed=require(get(meta, "seed"), "episode seed", 0,
                                integer=True),
                   dropped_steps=[require(step, "episode dropped_steps", 0,
                                          integer=True) for step in dropped])

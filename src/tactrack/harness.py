"""Suite-scale dataset generation, tracking runs, and evaluation aggregation."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

from . import geometry, imageio
from .geometry import Pose
from .episodes import (Episode, EpisodeGenerationError, NoiseSpec,
                       TrajectorySpec, generate_episode, load_episode,
                       save_episode)
from .render import GelConfig
from .shapes import shape_from_descriptor
from .tracker import (REGISTRATION_FATES, REGISTRATION_KINDS, ConfigError,
                      TrackerConfig, TrackerMode, from_mapping,
                      read_yaml_mapping, track_episode)


@dataclass
class SuiteObject:
    name: str
    shape: dict   # shape descriptor

    def __post_init__(self):
        # The name becomes a directory under the output directory.
        if not (isinstance(self.name, str) and self.name not in ("", ".", "..")
                and os.path.basename(self.name) == self.name):
            raise ConfigError(f"object name {self.name!r} must be one "
                              "non-empty path component")
        try:
            shape_from_descriptor(self.shape)
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"object {self.name!r} has a bad shape "
                              f"{self.shape!r}: {err}") from err


@dataclass
class SuiteConfig:
    objects: list[SuiteObject] = field(default_factory=list)
    episodes_per_object: int = 20
    trajectories: list[TrajectorySpec] = field(default_factory=list)
    gel: GelConfig = field(default_factory=GelConfig)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    modes: list = field(default_factory=lambda: [m.value for m in TrackerMode])
    master_seed: int = 0
    tracker: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.episodes_per_object < 1:
            raise ConfigError("episodes_per_object must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, "
                              f"got {self.master_seed}")
        if not self.trajectories:
            self.trajectories = [TrajectorySpec()]
        names = [obj.name for obj in self.objects]
        if len(set(names)) != len(names):
            raise ConfigError(f"object names must be unique, got {names}")
        if not self.modes:
            raise ConfigError("modes lists no tracker mode")
        modes = []
        for mode in self.modes:
            try:
                modes.append(TrackerMode(mode))
            except ValueError as err:
                raise ConfigError(f"unknown tracker mode {mode!r}") from err
        if len(set(modes)) != len(modes):
            raise ConfigError(f"modes must be unique, got {self.modes!r}")
        TrackerConfig.from_dict(self.tracker)   # reject bad overrides at load

    def to_dict(self):
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "SuiteConfig":
        """Inverse of to_dict; see tracker.from_mapping."""
        return from_mapping(SuiteConfig, d)

    @staticmethod
    def from_yaml(path) -> "SuiteConfig":
        return SuiteConfig.from_dict(read_yaml_mapping(path))

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def tracker_config(self) -> TrackerConfig:
        return TrackerConfig.from_dict(self.tracker)


def default_suite_config(master_seed: int = 0,
                         episodes_per_object: int = 20) -> SuiteConfig:
    """The benchmark suite: sphere, cube, and pyramid under default noise.

    The cube is tilted onto a corner: a face-on or edge-on press gives a
    flat or prismatic imprint whose registration is rank deficient, while a
    corner imprint constrains all six degrees of freedom.
    """
    tilt = geometry.rot_y(np.arctan(1.0 / np.sqrt(2.0)) + 0.15) \
        @ geometry.rot_x(np.pi / 4.0 + 0.1)
    cube = {"type": "box", "half_extents": [9.0, 9.0, 9.0],
            "offset": geometry.to_quat_trans(Pose(tilt, np.zeros(3)))}
    return SuiteConfig(
        objects=[
            SuiteObject("sphere", {"type": "sphere", "radius": 6.35}),
            SuiteObject("cube", cube),
            SuiteObject("pyramid", {"type": "pyramid",
                                    "base_half_length": 22.225,
                                    "height": 12.7}),
        ],
        episodes_per_object=episodes_per_object,
        trajectories=[TrajectorySpec(kind="linear", steps=12,
                                     indent=1.25, length=2.0)],
        master_seed=master_seed,
    )


def episode_seed(config: SuiteConfig, object_index: int, episode_index: int) -> int:
    return config.master_seed * 100003 + object_index * 1009 + episode_index


def boxplot_stats(errors) -> dict:
    """min/q1/median/q3/max with linearly interpolated (inclusive) quartiles."""
    errors = np.asarray(list(errors), dtype=float)
    if errors.size == 0:
        raise ValueError("boxplot_stats needs a nonempty list")
    q = np.percentile(errors, [0, 25, 50, 75, 100], method="linear")
    return {"min": float(q[0]), "q1": float(q[1]), "median": float(q[2]),
            "q3": float(q[3]), "max": float(q[4])}


def generate_suite_episodes(config: SuiteConfig, out_dir) -> dict:
    """Generate (or reuse cached) episodes for every object.

    Returns a map object name -> list of entries, each either an episode
    directory or an {"error": message} record for episodes whose generation
    failed (the suite continues past them).  ConfigError, before anything
    is written, if the config lists no objects."""
    if not config.objects:
        raise ConfigError("suite config lists no objects")
    episodes = {}
    for oi, obj in enumerate(config.objects):
        shape = shape_from_descriptor(obj.shape)
        entries = []
        for ei in range(config.episodes_per_object):
            seed = episode_seed(config, oi, ei)
            traj = config.trajectories[ei % len(config.trajectories)]
            directory = os.path.join(out_dir, obj.name, f"ep{ei:04d}")
            cache_key = hashlib.sha256(json.dumps(
                {"shape": obj.shape, "traj": dataclasses.asdict(traj),
                 "gel": dataclasses.asdict(config.gel),
                 "noise": dataclasses.asdict(config.noise),
                 "seed": seed}, sort_keys=True).encode()).hexdigest()
            marker = os.path.join(directory, "cache_key.txt")
            if not (os.path.exists(marker)
                    and pathlib.Path(marker).read_text().strip() == cache_key):
                try:
                    episode = generate_episode(shape, traj, config.gel,
                                               config.noise, seed)
                except EpisodeGenerationError as err:
                    entries.append({"error": str(err), "seed": seed})
                    continue
                save_episode(episode, directory)
                with open(marker, "w") as f:
                    f.write(cache_key + "\n")
            entries.append(directory)
        episodes[obj.name] = entries
    return episodes


def relative_motion_error(trajectory: dict) -> float:
    """Translation error (mm) of the first-to-last object-from-sensor motion
    (o_1^-1 e_1)^-1 (o_T^-1 e_T), which is what touch observes, from the
    quaternion-translation lists of a trajectory record."""
    def motion(objects, effs):
        first, last = (geometry.compose(
            geometry.inverse(geometry.from_quat_trans(objects[i])),
            geometry.from_quat_trans(effs[i])) for i in (0, -1))
        return geometry.compose(geometry.inverse(first), last)
    estimate = motion(trajectory["object_estimates"], trajectory["eff_estimates"])
    truth = motion(trajectory["object_groundtruth"], trajectory["eff_groundtruth"])
    return float(np.linalg.norm(
        geometry.compose(geometry.inverse(estimate), truth).translation))


def run_tracking(episode: Episode, mode, tracker_config: TrackerConfig,
                 out_dir) -> dict:
    """Track one episode in one mode, persist the artifacts, and return the
    metrics record."""
    os.makedirs(out_dir, exist_ok=True)
    result = track_episode(episode, mode, tracker_config)
    trajectory = {
        "mode": TrackerMode(mode).value,
        "episode_seed": episode.seed,
        "object_estimates": result.object_trajectory,
        "eff_estimates": result.eff_trajectory,
        "object_groundtruth": geometry.to_quat_trans(
            Pose.stack([f.object_pose for f in episode.frames])),
        "eff_groundtruth": geometry.to_quat_trans(
            Pose.stack([f.eff_pose for f in episode.frames])),
    }
    metrics = {
        "mode": TrackerMode(mode).value,
        "episode_seed": episode.seed,
        "steps": len(episode.frames),
        "final_rotation_error_rad": result.final_rotation_error,
        "final_translation_error_mm": result.final_translation_error,
        "final_rel_translation_error_mm": relative_motion_error(trajectory),
        "warnings": result.warnings,
        "diagnostics": result.diagnostics,
        "final_optimizer": result.final_optimizer,
    }
    with open(os.path.join(out_dir, "trajectory.json"), "w") as f:
        json.dump(trajectory, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)
        f.write("\n")
    if not result.patch.is_empty():
        imageio.write_ply(os.path.join(out_dir, "patch.ply"),
                          result.patch.cloud.points, result.patch.cloud.normals)
    return metrics


@dataclass
class SuiteReport:
    config_hash: str
    episodes_per_object: int
    results: dict   # object -> mode -> record

    def to_dict(self):
        return {"config_hash": self.config_hash,
                "episodes_per_object": self.episodes_per_object,
                "results": self.results}

    def median_translation(self, object_name: str, mode: str) -> float:
        return self.results[object_name][mode]["translation_stats"]["median"]

    def median_rotation(self, object_name: str, mode: str) -> float:
        return self.results[object_name][mode]["rotation_stats"]["median"]


def _registration_fates(entries) -> dict:
    """kind -> fate -> count over the registration calls recorded in the
    step diagnostics of `entries`, for each kind that made a call.  Records
    written before calls had a fate are not counted."""
    fates = {}
    for entry in entries:
        for diag in entry.get("diagnostics", ()):
            for kind in REGISTRATION_KINDS:
                fate = (diag.get(f"icp_{kind}") or {}).get("fate")
                if fate is not None:
                    fates.setdefault(kind, dict.fromkeys(REGISTRATION_FATES,
                                                         0))[fate] += 1
    return fates


def _aggregate(records: dict, config_hash: str, episodes_per_object: int) -> SuiteReport:
    results = {}
    for obj, by_mode in records.items():
        results[obj] = {}
        for mode, entries in by_mode.items():
            record = {"failures": [e["error"] for e in entries
                                   if e.get("status") == "failed"]}
            for name, key in (("rotation", "final_rotation_error_rad"),
                              ("translation", "final_translation_error_mm"),
                              ("rel_translation",
                               "final_rel_translation_error_mm")):
                errors = [e.get(key) for e in entries]
                record[f"{name}_errors"] = errors
                if any(err is not None for err in errors):
                    record[f"{name}_stats"] = boxplot_stats(
                        err for err in errors if err is not None)
            record["registration_fates"] = _registration_fates(entries)
            results[obj][mode] = record
    return SuiteReport(config_hash=config_hash,
                       episodes_per_object=episodes_per_object, results=results)


def run_suite(config: SuiteConfig, out_dir) -> SuiteReport:
    """Generate episodes, run every requested mode on each one, aggregate.

    Per-episode failures are recorded and the suite continues; the report is
    deterministic for a fixed master seed.
    """
    episode_dirs = generate_suite_episodes(config, os.path.join(out_dir, "episodes"))
    os.makedirs(out_dir, exist_ok=True)
    tracker_config = config.tracker_config()
    records = {}
    for obj in config.objects:
        records[obj.name] = {TrackerMode(m).value: [] for m in config.modes}
        for ei, entry in enumerate(episode_dirs[obj.name]):
            if isinstance(entry, dict):
                for mode in config.modes:
                    mode = TrackerMode(mode).value
                    metrics = {"status": "failed", "error": entry["error"],
                               "episode_seed": entry["seed"], "mode": mode}
                    records[obj.name][mode].append(metrics)
                continue
            episode = load_episode(entry)
            for mode in config.modes:
                mode = TrackerMode(mode).value
                run_dir = os.path.join(out_dir, "runs", obj.name,
                                       f"ep{ei:04d}", mode)
                try:
                    metrics = run_tracking(episode, mode, tracker_config, run_dir)
                    metrics["status"] = "ok"
                except Exception as err:  # recorded, suite continues
                    metrics = {"status": "failed", "error": str(err),
                               "episode_seed": episode.seed, "mode": mode}
                records[obj.name][mode].append(metrics)
    report = _aggregate(records, config.config_hash(), config.episodes_per_object)
    write_report(report, os.path.join(out_dir, "report.json"),
                 os.path.join(out_dir, "report.csv"))
    return report


def write_report(report: SuiteReport, json_path, csv_path=None) -> None:
    with open(json_path, "w") as f:
        json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    if csv_path is None:
        return
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["object", "mode", "episode",
                         "rotation_error_rad", "translation_error_mm"])
        for obj in sorted(report.results):
            for mode in sorted(report.results[obj]):
                rec = report.results[obj][mode]
                for ei, (r, t) in enumerate(zip(rec["rotation_errors"],
                                                rec["translation_errors"])):
                    writer.writerow([obj, mode, ei,
                                     "" if r is None else repr(float(r)),
                                     "" if t is None else repr(float(t))])


def collect_runs(runs_dir) -> dict:
    """Rebuild the per-(object, episode, mode) records from metrics.json files
    written by `track` runs laid out as <runs>/<object>/ep####/<mode>/."""
    records = {}
    for obj in sorted(os.listdir(runs_dir)):
        obj_dir = os.path.join(runs_dir, obj)
        if not os.path.isdir(obj_dir):
            continue
        by_mode = {}
        for ep in sorted(os.listdir(obj_dir)):
            ep_dir = os.path.join(obj_dir, ep)
            if not os.path.isdir(ep_dir):
                continue
            for mode in sorted(os.listdir(ep_dir)):
                path = os.path.join(ep_dir, mode, "metrics.json")
                if not os.path.exists(path):
                    continue
                with open(path) as f:
                    metrics = json.load(f)
                metrics.setdefault("status", "ok")
                by_mode.setdefault(mode, []).append(metrics)
        if by_mode:
            records[obj] = by_mode
    return records


def evaluate_runs(runs_dir, json_path, csv_path=None) -> SuiteReport:
    records = collect_runs(runs_dir)
    if not records:
        raise ConfigError(f"no metrics found under {runs_dir}")
    count = max(len(v) for by_mode in records.values() for v in by_mode.values())
    report = _aggregate(records, config_hash="", episodes_per_object=count)
    write_report(report, json_path, csv_path)
    return report

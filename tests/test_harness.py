"""Suite orchestration: config parsing, aggregation, reports, determinism."""

import collections
import dataclasses
import gc
import hashlib
import importlib.resources as resources
import json
import os
import pathlib
import warnings

import jsonschema
import numpy as np
import pytest

from tactrack import episodes, geometry, harness, imageio
from tactrack.episodes import (NoiseSpec, TrajectorySpec, find_contact_base,
                               generate_episode, load_episode, save_episode)
from tactrack.geometry import Pose
from tactrack.harness import (ConfigError, SuiteConfig, SuiteObject,
                              boxplot_stats, default_suite_config,
                              episode_seed, evaluate_runs,
                              generate_suite_episodes, pose_errors, run_suite,
                              run_tracking, tracking_errors, write_report)
from tactrack.render import GelConfig
from tactrack.shapes import Sphere
from tactrack.tracker import TrackerConfig, TrackerMode, track_episode

from .conftest import read_ply, rot_z

SPHERE = {"type": "sphere", "radius": 6.35}


def tiny_config(**overrides):
    base = dict(
        objects=[SuiteObject("sphere", SPHERE)],
        episodes_per_object=2,
        trajectories=[TrajectorySpec(steps=4, indent=1.0, length=0.5)],
        noise=NoiseSpec(),
        modes=["constvel"],
        master_seed=7,
    )
    base.update(overrides)
    return SuiteConfig(**base)


def relative_motion_error(trajectory: dict) -> float:
    """Reference for `tracking_errors`' rel error: the translation error
    (mm) of the first-to-last object-from-sensor motion, parsed back from
    the quaternion-translation lists of a `trajectory.json` record."""
    def motion(objects, effs):
        first, last = (geometry.compose(
            geometry.inverse(geometry.from_quat_trans(objects[i])),
            geometry.from_quat_trans(effs[i])) for i in (0, -1))
        return geometry.compose(geometry.inverse(first), last)
    estimate = motion(trajectory["object_estimates"], trajectory["eff_estimates"])
    truth = motion(trajectory["object_groundtruth"], trajectory["eff_groundtruth"])
    return float(np.linalg.norm(
        geometry.compose(geometry.inverse(estimate), truth).translation))


def translations(*xs):
    """Stacked poses without rotation, translated by x mm along x."""
    return Pose.stack([Pose(np.eye(3), np.array([x, 0.0, 0.0])) for x in xs])


class TestPoseErrors:
    def test_exact_estimate(self):
        p = Pose.identity()
        assert pose_errors(p, p) == (0.0, 0.0)

    def test_translation_offset(self):
        est = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        rot, trans = pose_errors(est, Pose.identity())
        assert abs(rot) < 1e-12 and abs(trans - 1.0) < 1e-12

    def test_rotation_offset(self):
        est = Pose(rot_z(0.1), np.zeros(3))
        rot, trans = pose_errors(est, Pose.identity())
        assert abs(rot - 0.1) < 1e-9 and trans < 1e-12


class TestRelativeMotionError:
    def test_error_of_first_to_last_sensor_motion(self):
        # The object is still and the sensor truly moves 2 mm along x; the
        # estimate has the object 1 mm off throughout (unobservable by
        # touch, so no error) and the sensor's last pose 0.5 mm short.
        errors = tracking_errors(translations(1.0, 1.0), translations(1.0, 2.5),
                                 translations(0.0, 0.0), translations(0.0, 2.0))
        assert errors["final_rel_translation_error_mm"] == pytest.approx(0.5)
        assert errors["final_translation_error_mm"] == pytest.approx(1.0)
        assert errors["final_rotation_error_rad"] == 0.0


class TestBoxplotStats:
    def test_single_value(self):
        stats = boxplot_stats([5.0])
        assert all(v == 5.0 for v in stats.values())

    def test_inclusive_interpolation(self):
        stats = boxplot_stats([1, 2, 3, 4])
        assert stats["q1"] == 1.75
        assert stats["median"] == 2.5
        assert stats["q3"] == 3.25

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        data = list(rng.normal(size=17))
        shuffled = list(data)
        rng.shuffle(shuffled)
        assert boxplot_stats(data) == boxplot_stats(shuffled)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            boxplot_stats([])


class TestSuiteConfig:
    def test_yaml_roundtrip(self, tmp_path):
        import yaml

        cfg = tiny_config()
        path = tmp_path / "suite.yaml"
        path.write_text(yaml.safe_dump(cfg.to_dict()))
        clone = SuiteConfig.from_yaml(path)
        assert clone.to_dict() == cfg.to_dict()
        assert clone.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize("name, value", [
        ("episodes_per_object", 2.5), ("master_seed", 1.5),
        ("episodes_per_object", True)])
    def test_mistyped_count_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            tiny_config(**{name: value})

    @pytest.mark.parametrize("data", [
        {"gel": {"extent_x": True}}, {"noise": {"normal_sigma": True}},
        {"gel": {"width": 64.5}}, {"trajectories": [{"steps": 3.5}]}])
    def test_mistyped_nested_value_rejected(self, data):
        with pytest.raises(ConfigError):
            SuiteConfig.from_dict(data)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(modes=["kalman"])

    def test_bad_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError):
            SuiteConfig.from_yaml(path)

    def test_episode_seeds_distinct(self):
        cfg = tiny_config()
        seeds = {episode_seed(cfg, oi, ei)
                 for oi in range(3) for ei in range(20)}
        assert len(seeds) == 60

    def test_default_suite_shape(self):
        cfg = default_suite_config()
        assert [o.name for o in cfg.objects] == ["sphere", "cube", "pyramid"]
        assert cfg.episodes_per_object == 20
        assert set(cfg.modes) == {"constvel", "im2im", "patchgraph", "gtpatch"}


@pytest.fixture(scope="module")
def short_episode():
    return generate_episode(Sphere(radius=6.35),
                            TrajectorySpec(steps=4, indent=1.0, length=0.5),
                            GelConfig(), NoiseSpec(), seed=7)


class TestPatchPly:
    def test_patchgraph_patch_round_trips(self, short_episode, tmp_path):
        run_tracking(short_episode, "patchgraph", TrackerConfig(), tmp_path)
        points, normals = read_ply(tmp_path / "patch.ply")
        patch = track_episode(short_episode, "patchgraph").patch.cloud
        assert len(patch) > 0
        # The file keeps 6 decimals: half a unit of the last one, plus the
        # parse back to double.
        tol = 0.5e-6 + 1e-12
        np.testing.assert_allclose(points, patch.points, rtol=0, atol=tol)
        np.testing.assert_allclose(normals, patch.normals, rtol=0, atol=tol)

    def test_patchgraph_patch_byte_identical(self, short_episode, tmp_path):
        written = []
        for name in ("a", "b"):
            run_tracking(short_episode, "patchgraph", TrackerConfig(),
                         tmp_path / name)
            written.append((tmp_path / name / "patch.ply").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("mode", ["constvel", "im2im", "gtpatch"])
    def test_other_modes_write_no_patch(self, short_episode, mode, tmp_path):
        run_tracking(short_episode, mode, TrackerConfig(), tmp_path)
        assert (tmp_path / "metrics.json").exists()
        assert not (tmp_path / "patch.ply").exists()


class TestRunTracking:
    def test_metrics_record_final_optimizer(self, short_episode, tmp_path):
        # Finalize's converging solve is written with the step records.
        metrics = run_tracking(short_episode, "patchgraph", TrackerConfig(),
                               tmp_path)
        with open(tmp_path / "metrics.json") as f:
            written = json.load(f)
        assert written["final_optimizer"] == metrics["final_optimizer"]
        assert set(written["final_optimizer"]) == {
            "iterations", "initial_cost", "final_cost", "linearizations",
            "predicted_decrease"}
        assert (written["final_optimizer"]["initial_cost"]
                == written["diagnostics"][-1]["optimizer"]["final_cost"])


class TestRunSuite:
    def test_zero_noise_stationary_single_entry(self, tmp_path):
        cfg = tiny_config(
            episodes_per_object=1,
            trajectories=[TrajectorySpec(steps=3, indent=1.0, length=0.0)],
            noise=NoiseSpec(normal_sigma=0.0, eff_sigma_rot=0.0,
                            eff_sigma_trans=0.0, vis_sigma_rot=0.0,
                            vis_sigma_trans=0.0))
        report = run_suite(cfg, tmp_path / "suite")
        rec = report["results"]["sphere"]["constvel"]
        assert len(rec["translation_errors"]) == 1
        assert rec["translation_errors"][0] < 1e-6
        assert rec["rotation_errors"][0] < 1e-6
        assert rec["rel_translation_errors"][0] < 1e-6

    def test_rel_error_in_metrics_and_report(self, tmp_path):
        cfg = tiny_config(modes=["constvel", "im2im"])
        report = run_suite(cfg, tmp_path / "suite")
        for mode in ("constvel", "im2im"):
            rel = []
            for ep in range(cfg.episodes_per_object):
                run = tmp_path / "suite" / "runs" / "sphere" / f"ep{ep:04d}" / mode
                metrics = json.loads((run / "metrics.json").read_text())
                trajectory = json.loads((run / "trajectory.json").read_text())
                # Scored from the poses in memory, the reference from
                # their serialization.
                assert metrics["final_rel_translation_error_mm"] == \
                    pytest.approx(relative_motion_error(trajectory),
                                  rel=0, abs=1e-12)
                rel.append(metrics["final_rel_translation_error_mm"])
            rec = report["results"]["sphere"][mode]
            assert rec["rel_translation_errors"] == rel
            assert rec["rel_translation_stats"] == boxplot_stats(rel)

    def test_entry_counts(self, tmp_path):
        cfg = tiny_config(modes=["constvel", "im2im"])
        report = run_suite(cfg, tmp_path / "suite")
        for mode in ("constvel", "im2im"):
            rec = report["results"]["sphere"][mode]
            assert len(rec["translation_errors"]) == cfg.episodes_per_object

    def test_deterministic_reports(self, tmp_path):
        cfg = tiny_config()
        run_suite(cfg, tmp_path / "a")
        run_suite(cfg, tmp_path / "b")
        ja = (tmp_path / "a" / "report.json").read_bytes()
        jb = (tmp_path / "b" / "report.json").read_bytes()
        assert ja == jb

    @staticmethod
    def _schema():
        return json.loads(resources.files("tactrack")
                          .joinpath("schemas/suite_report.schema.json")
                          .read_text())

    def test_returned_report_is_what_is_written(self, tmp_path):
        # run_suite and evaluate_runs return the mapping they write, and
        # evaluating the suite's runs gives back its results.
        cfg = tiny_config(modes=["constvel", "im2im"])
        report = run_suite(cfg, tmp_path / "suite")
        assert report == json.loads(
            (tmp_path / "suite" / "report.json").read_text())
        evaluated = evaluate_runs(tmp_path / "suite" / "runs",
                                  tmp_path / "eval.json")
        assert evaluated == json.loads((tmp_path / "eval.json").read_text())
        assert evaluated["results"] == report["results"]

    def test_metrics_hold_no_warnings(self, tmp_path):
        # What became of each frame and call is in its step diagnostics.
        run_suite(tiny_config(modes=["constvel", "im2im"]), tmp_path / "suite")
        paths = sorted((tmp_path / "suite" / "runs").glob("*/*/*/metrics.json"))
        assert len(paths) == 4
        for path in paths:
            metrics = json.loads(path.read_text())
            assert "warnings" not in metrics
            assert {d["skipped_registration"] for d in metrics["diagnostics"]} \
                <= {None, "empty_mask", "touches_border"}

    def test_report_validates_against_schema(self, tmp_path):
        cfg = tiny_config()
        run_suite(cfg, tmp_path / "suite")
        report = json.loads((tmp_path / "suite" / "report.json").read_text())
        jsonschema.validate(report, self._schema())

    def test_fate_counts_per_cell(self, tmp_path):
        # The default suite's first cube episode has calls of every fate.
        cfg = default_suite_config(episodes_per_object=1)
        report = run_suite(cfg, tmp_path / "suite")
        expected = {}
        for path in sorted((tmp_path / "suite" / "runs").glob(
                "cube/*/*/metrics.json")):
            metrics = json.loads(path.read_text())
            counts = collections.Counter(
                (kind, diag[f"icp_{kind}"]["fate"])
                for diag in metrics["diagnostics"]
                for kind in ("im2im", "keyframe", "im2patch")
                if diag[f"icp_{kind}"] is not None)
            expected[metrics["mode"]] = {
                kind: {fate: counts[kind, fate] for fate in
                       ("added", "gated", "degenerate", "no_overlap")}
                for kind in sorted({kind for kind, _ in counts})}
        cells = report["results"]["cube"]
        assert {mode: cells[mode]["registration_fates"] for mode in cells} \
            == expected
        assert expected["constvel"] == {}
        assert set(expected["patchgraph"]) == {"im2im", "keyframe"}
        assert expected["im2im"]["im2im"] == expected["patchgraph"]["im2im"]
        assert {fate for by_kind in expected.values()
                for counts in by_kind.values()
                for fate, n in counts.items() if n} \
            == {"added", "gated", "degenerate", "no_overlap"}
        evaluated = evaluate_runs(tmp_path / "suite" / "runs",
                                  tmp_path / "eval.json")
        assert {obj: {mode: cell["registration_fates"]
                      for mode, cell in cells.items()}
                for obj, cells in evaluated["results"].items()} \
            == {obj: {mode: cell["registration_fates"]
                      for mode, cell in cells.items()}
                for obj, cells in report["results"].items()}
        for path in (tmp_path / "suite" / "report.json",
                     tmp_path / "eval.json"):
            jsonschema.validate(json.loads(path.read_text()), self._schema())

    def test_csv_matches_json(self, tmp_path):
        import csv

        cfg = tiny_config()
        report = run_suite(cfg, tmp_path / "suite")
        with open(tmp_path / "suite" / "report.csv") as f:
            rows = list(csv.DictReader(f))
        rec = report["results"]["sphere"]["constvel"]
        assert len(rows) == len(rec["translation_errors"])
        for row, trans, rot in zip(rows, rec["translation_errors"],
                                   rec["rotation_errors"]):
            assert float(row["translation_error_mm"]) == trans
            assert float(row["rotation_error_rad"]) == rot

    def test_episode_cache_reused(self, tmp_path):
        cfg = tiny_config()
        run_suite(cfg, tmp_path / "suite")
        marker = (tmp_path / "suite" / "episodes" / "sphere" / "ep0000"
                  / "cache_key.txt")
        stamp = marker.stat().st_mtime_ns
        run_suite(cfg, tmp_path / "suite")
        assert marker.stat().st_mtime_ns == stamp

    def test_per_frame_layout_cache_regenerated(self, tmp_path):
        # A directory left by the earlier layout, one image file per frame
        # and kind, carries a marker whose key lacks the layout: it is
        # replaced whole by the stacked layout, which then loads.
        cfg = tiny_config(episodes_per_object=1)
        traj, seed = cfg.trajectories[0], episode_seed(cfg, 0, 0)
        old = tmp_path / "episodes" / "sphere" / "ep0000"
        old.mkdir(parents=True)
        ep = generate_episode(Sphere(radius=6.35), traj, cfg.gel, cfg.noise,
                              seed)
        frames = []
        for i, fr in enumerate(ep.frames):
            names = {"normals": f"normals_{i:04d}.pfm",
                     "mask": f"mask_{i:04d}.pgm", "depth": f"depth_{i:04d}.pfm"}
            imageio.write_pfm(old / names["normals"], fr.normals.values)
            imageio.write_pgm_mask(old / names["mask"], fr.normals.mask)
            imageio.write_pfm(old / names["depth"], fr.depth_gt.values)
            frames.append({"timestamp": fr.timestamp, **names, **{
                key: geometry.to_quat_trans(getattr(fr, key))
                for key in ("object_pose", "eff_pose", "eff_measured")}})
        imageio.write_json(old / "episode.json", {
            "seed": seed, "shape": SPHERE,
            "gel": dataclasses.asdict(cfg.gel),
            "noise": dataclasses.asdict(cfg.noise),
            "vision_prior": geometry.to_quat_trans(ep.vision_prior),
            "dropped_steps": ep.dropped_steps, "frames": frames})
        old_key = hashlib.sha256(json.dumps(
            {"shape": SPHERE, "traj": dataclasses.asdict(traj),
             "gel": dataclasses.asdict(cfg.gel),
             "noise": dataclasses.asdict(cfg.noise), "seed": seed},
            sort_keys=True).encode()).hexdigest()
        (old / "cache_key.txt").write_text(old_key + "\n")

        entries = generate_suite_episodes(cfg, tmp_path / "episodes")
        assert entries == {"sphere": [str(old)]}
        assert sorted(os.listdir(old)) == ["cache_key.txt", "depth.pfm",
                                           "episode.json", "mask.pgm",
                                           "normals.pfm"]
        assert (old / "cache_key.txt").read_text().strip() != old_key
        loaded = load_episode(old)
        assert len(loaded.frames) == len(ep.frames)
        for got, want in zip(loaded.frames, ep.frames):
            assert got.normals.values.tobytes() == \
                want.normals.values.astype(np.float32).tobytes()

    def test_cached_generation_closes_files(self, tmp_path):
        cfg = tiny_config(episodes_per_object=1)
        generate_suite_episodes(cfg, tmp_path / "episodes")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            generate_suite_episodes(cfg, tmp_path / "episodes")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_contact_base_found_once_per_object_and_indent(self, tmp_path,
                                                          monkeypatch):
        # Two trajectories of different indents: 2 searches per object in
        # each call that generates, none when every episode is cached, and
        # each call searches afresh.
        cfg = tiny_config(
            objects=[SuiteObject("sphere", SPHERE),
                     SuiteObject("small", {"type": "sphere", "radius": 5.0})],
            episodes_per_object=5,
            trajectories=[TrajectorySpec(steps=4, indent=1.0, length=0.5),
                          TrajectorySpec(steps=4, indent=1.25, length=0.5),
                          TrajectorySpec(steps=4, indent=1.0, length=1.0)])
        calls = []

        def counted(shape, gel, indent):
            calls.append((shape.descriptor()["radius"], indent))
            return find_contact_base(shape, gel, indent)

        monkeypatch.setattr(harness, "find_contact_base", counted)
        monkeypatch.setattr(episodes, "find_contact_base", counted)
        generate_suite_episodes(cfg, tmp_path / "a")
        assert sorted(calls) == [(5.0, 1.0), (5.0, 1.25), (6.35, 1.0),
                                 (6.35, 1.25)]
        calls.clear()
        generate_suite_episodes(cfg, tmp_path / "a")
        assert calls == []
        generate_suite_episodes(cfg, tmp_path / "b")
        assert len(calls) == 4

    def test_slide_rendered_once_per_object_and_fixed_trajectory(
            self, tmp_path, monkeypatch):
        # Two fixed-direction trajectories and one that draws its direction,
        # told apart by their step counts: each object renders each fixed
        # one once and the drawn one once per episode, in each call that
        # generates; none when every episode is cached.
        cfg = tiny_config(
            objects=[SuiteObject("sphere", SPHERE),
                     SuiteObject("small", {"type": "sphere", "radius": 5.0})],
            episodes_per_object=6,
            trajectories=[TrajectorySpec(steps=4, indent=1.0, length=0.5),
                          TrajectorySpec(steps=5, indent=1.25, length=0.5),
                          TrajectorySpec(steps=6, indent=1.0, length=0.5,
                                         direction_deg=None)])
        calls = collections.Counter()
        render_depth = episodes.render_depth

        def counted(shape, object_pose, sensor_pose, gel):
            calls[shape.descriptor()["radius"], len(sensor_pose.rotation)] += 1
            return render_depth(shape, object_pose, sensor_pose, gel)

        monkeypatch.setattr(episodes, "render_depth", counted)
        want = {(radius, steps): 2 if steps == 6 else 1
                for radius in (6.35, 5.0) for steps in (4, 5, 6)}
        generate_suite_episodes(cfg, tmp_path / "a")
        assert calls == want
        calls.clear()
        generate_suite_episodes(cfg, tmp_path / "a")
        assert calls == {}
        generate_suite_episodes(cfg, tmp_path / "b")
        assert calls == want

    def test_failed_slide_renders_again_per_episode(self, tmp_path,
                                                    monkeypatch):
        # A slide clean off the gel fails; the failure is not kept, so each
        # episode renders again and records the same message.
        cfg = tiny_config(trajectories=[TrajectorySpec(steps=8, indent=0.5,
                                                       length=30.0)])
        calls = []
        render_depth = episodes.render_depth

        def counted(*args):
            calls.append(args)
            return render_depth(*args)

        monkeypatch.setattr(episodes, "render_depth", counted)
        entries = generate_suite_episodes(cfg, tmp_path / "suite")["sphere"]
        assert len(calls) == 2
        assert [set(e) for e in entries] == [{"error", "seed"}] * 2
        assert entries[0]["error"] == entries[1]["error"]
        assert "contact lost" in entries[0]["error"]

    def test_written_episode_is_saved_generate_episode(self, tmp_path,
                                                        monkeypatch):
        # Finding the base and rendering the slide once per suite change no
        # byte: each episode directory holds what save_episode writes for
        # generate_episode alone.  Three episodes share the fixed slide and
        # perturb its normals with noise, yet no two episodes share memory.
        cfg = tiny_config(
            episodes_per_object=5,
            trajectories=[TrajectorySpec(steps=5, indent=1.0, length=0.5),
                          TrajectorySpec(kind="arc", steps=4, indent=1.25,
                                         direction_deg=None)])
        assert cfg.noise.normal_sigma > 0
        generated = []
        generate = harness.generate_episode

        def kept(*args, **kwargs):
            generated.append(generate(*args, **kwargs))
            return generated[-1]

        monkeypatch.setattr(harness, "generate_episode", kept)
        entries = generate_suite_episodes(cfg, tmp_path / "suite")
        assert len(generated) == 5

        def arrays(ep):
            for fr in ep.frames:
                yield from (fr.normals.values, fr.normals.mask,
                            fr.depth_gt.values, fr.depth_gt.mask,
                            fr.eff_pose.rotation, fr.eff_pose.translation,
                            fr.eff_measured.rotation,
                            fr.eff_measured.translation)

        for i, a in enumerate(generated):
            for b in generated[i + 1:]:
                assert not any(np.shares_memory(x, y) for x in arrays(a)
                               for y in arrays(b))
        for ei, directory in enumerate(entries["sphere"]):
            ep = generate_episode(Sphere(radius=6.35),
                                  cfg.trajectories[ei % 2], cfg.gel,
                                  cfg.noise, episode_seed(cfg, 0, ei))
            save_episode(ep, tmp_path / "alone" / str(ei))
            names = sorted(os.listdir(tmp_path / "alone" / str(ei)))
            assert names == ["depth.pfm", "episode.json", "mask.pgm",
                             "normals.pfm"]
            for name in names:
                assert (tmp_path / "alone" / str(ei) / name).read_bytes() \
                    == (pathlib.Path(directory) / name).read_bytes(), name

    def test_no_objects_rejected(self, tmp_path):
        cfg = tiny_config()
        cfg.objects = []
        with pytest.raises(ConfigError):
            run_suite(cfg, tmp_path / "suite")
        assert not (tmp_path / "suite").exists()

    def test_failures_recorded_not_raised(self, tmp_path):
        # The second trajectory slides clean off the gel, so that episode's
        # generation fails; the suite records the failure, still tracks the
        # good episode, and still writes a report.
        cfg = tiny_config(
            episodes_per_object=2,
            trajectories=[TrajectorySpec(steps=4, indent=1.0, length=0.5),
                          TrajectorySpec(steps=8, indent=0.5, length=30.0)])
        report = run_suite(cfg, tmp_path / "suite")
        rec = report["results"]["sphere"]["constvel"]
        assert len(rec["failures"]) == 1
        assert sum(t is not None for t in rec["translation_errors"]) == 1
        assert (tmp_path / "suite" / "report.json").exists()

    def test_evaluated_runs_keep_failed_runs(self, tmp_path, monkeypatch):
        # Episode 1's generation fails (it slides off the gel) and episode
        # 2's im2im tracking raises: evaluating runs/ gives back every run
        # in its place, failures included.
        cfg = tiny_config(
            episodes_per_object=3, modes=["constvel", "im2im"],
            trajectories=[TrajectorySpec(steps=4, indent=1.0, length=0.5),
                          TrajectorySpec(steps=8, indent=0.5, length=30.0)])
        track = harness.track_episode

        def failing(episode, mode, config=None):
            if (episode.seed == episode_seed(cfg, 0, 2)
                    and TrackerMode(mode) is TrackerMode.IMAGE_TO_IMAGE):
                raise RuntimeError("tracking failed")
            return track(episode, mode, config)

        monkeypatch.setattr(harness, "track_episode", failing)
        report = run_suite(cfg, tmp_path / "suite")
        cells = report["results"]["sphere"]
        assert [t is None for t in cells["constvel"]["translation_errors"]] \
            == [False, True, False]
        assert [t is None for t in cells["im2im"]["translation_errors"]] \
            == [False, True, True]
        assert cells["im2im"]["failures"][1] == "tracking failed"
        evaluated = evaluate_runs(tmp_path / "suite" / "runs",
                                  tmp_path / "eval.json", tmp_path / "eval.csv")
        assert evaluated["results"] == report["results"]
        assert evaluated["episodes_per_object"] == cfg.episodes_per_object
        assert (tmp_path / "eval.csv").read_bytes() == \
            (tmp_path / "suite" / "report.csv").read_bytes()

"""Suite orchestration: config parsing, aggregation, reports, determinism."""

import collections
import gc
import importlib.resources as resources
import json
import warnings

import jsonschema
import numpy as np
import pytest

from tactrack import imageio
from tactrack.episodes import NoiseSpec, TrajectorySpec, generate_episode
from tactrack.harness import (ConfigError, SuiteConfig, SuiteObject,
                              boxplot_stats, default_suite_config,
                              episode_seed, evaluate_runs,
                              generate_suite_episodes, relative_motion_error,
                              run_suite, run_tracking, write_report)
from tactrack.render import GelConfig
from tactrack.shapes import Sphere
from tactrack.tracker import TrackerConfig, track_episode

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


class TestRelativeMotionError:
    def test_error_of_first_to_last_sensor_motion(self):
        # The object is still and the sensor truly moves 2 mm along x; the
        # estimate has the object 1 mm off throughout (unobservable by
        # touch, so no error) and the sensor's last pose 0.5 mm short.
        still = [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]] * 2
        shifted = [[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]] * 2
        trajectory = {
            "object_groundtruth": still,
            "eff_groundtruth": [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                                [1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0]],
            "object_estimates": shifted,
            "eff_estimates": [[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                              [1.0, 0.0, 0.0, 0.0, 2.5, 0.0, 0.0]],
        }
        assert relative_motion_error(trajectory) == pytest.approx(0.5)


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
        points, normals = imageio.read_ply(tmp_path / "patch.ply")
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
        rec = report.results["sphere"]["constvel"]
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
                assert metrics["final_rel_translation_error_mm"] == \
                    relative_motion_error(trajectory)
                rel.append(metrics["final_rel_translation_error_mm"])
            rec = report.results["sphere"][mode]
            assert rec["rel_translation_errors"] == rel
            assert rec["rel_translation_stats"] == boxplot_stats(rel)

    def test_entry_counts(self, tmp_path):
        cfg = tiny_config(modes=["constvel", "im2im"])
        report = run_suite(cfg, tmp_path / "suite")
        for mode in ("constvel", "im2im"):
            rec = report.results["sphere"][mode]
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
        cells = report.results["cube"]
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
                for obj, cells in evaluated.results.items()} \
            == {obj: {mode: cell["registration_fates"]
                      for mode, cell in cells.items()}
                for obj, cells in report.results.items()}
        for path in (tmp_path / "suite" / "report.json",
                     tmp_path / "eval.json"):
            jsonschema.validate(json.loads(path.read_text()), self._schema())

    def test_csv_matches_json(self, tmp_path):
        import csv

        cfg = tiny_config()
        report = run_suite(cfg, tmp_path / "suite")
        with open(tmp_path / "suite" / "report.csv") as f:
            rows = list(csv.DictReader(f))
        rec = report.results["sphere"]["constvel"]
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

    def test_cached_generation_closes_files(self, tmp_path):
        cfg = tiny_config(episodes_per_object=1)
        generate_suite_episodes(cfg, tmp_path / "episodes")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            generate_suite_episodes(cfg, tmp_path / "episodes")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

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
        rec = report.results["sphere"]["constvel"]
        assert len(rec["failures"]) == 1
        assert sum(t is not None for t in rec["translation_errors"]) == 1
        assert (tmp_path / "suite" / "report.json").exists()

"""Command line interface: simulate -> track -> eval pipeline and exit codes."""

import json

import numpy as np
import pytest
import yaml

from tactrack.cli import main
from tactrack.episodes import NoiseSpec, TrajectorySpec, load_episode
from tactrack.harness import SuiteConfig, SuiteObject, run_tracking
from tactrack.tracker import TrackerConfig

from .conftest import read_ply


SPHERE = {"type": "sphere", "radius": 6.35}


@pytest.fixture()
def suite_yaml(tmp_path):
    cfg = SuiteConfig(
        objects=[SuiteObject("sphere", {"type": "sphere", "radius": 6.35})],
        episodes_per_object=1,
        trajectories=[TrajectorySpec(steps=4, indent=1.0, length=0.5)],
        noise=NoiseSpec(),
        modes=["constvel"],
        master_seed=11,
    )
    path = tmp_path / "suite.yaml"
    path.write_text(yaml.safe_dump(cfg.to_dict()))
    return path


class TestSimulate:
    def test_writes_episodes_and_manifest(self, suite_yaml, tmp_path):
        out = tmp_path / "episodes"
        assert main(["simulate", "--config", str(suite_yaml),
                     "--out", str(out)]) == 0
        ep = out / "sphere" / "ep0000"
        assert sorted(p.name for p in ep.iterdir()) == [
            "cache_key.txt", "depth.pfm", "episode.json", "mask.pgm",
            "normals.pfm"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["objects"] == {"sphere": 1}

    def test_seed_override_changes_hash(self, suite_yaml, tmp_path):
        main(["simulate", "--config", str(suite_yaml),
              "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["simulate", "--config", str(suite_yaml),
              "--out", str(tmp_path / "b"), "--seed", "2"])
        ha = json.loads((tmp_path / "a" / "manifest.json").read_text())
        hb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert ha["config_hash"] != hb["config_hash"]

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- not\n- a mapping\n")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("tracker", {"fixd_lag": 4}),
        ("gel", {"camera": "clip"}),
        ("episodes_per_objekt", 1),
        ("objects", [{"name": "sphere", "shape": {"type": "sphere",
                                                  "radius": 6.35}},
                     {"name": "cone", "shape": {"type": "cone"}}]),
        ("trajectories", [{"kind": "zigzag", "steps": 4}]),
        ("episodes_per_object", 2.5),
        ("tracker", {"optimizer": {"max_iterations": 2.5}}),
        ("tracker", {"sigma_eff": [-1, 1]}),
        ("noise", {"normal_sigma": -0.1}),
        ("noise", {"eff_sigma_trans": -1}),
        ("gel", {"max_indent": 0}),
        ("objects", [{"name": "a", "shape": SPHERE}, {"name": "a", "shape": SPHERE}]),
        ("objects", [{"name": "", "shape": SPHERE}]),
        ("objects", [{"name": "..", "shape": SPHERE}]),
        ("objects", [{"name": "a/b", "shape": SPHERE}]),
        ("modes", []),
        ("modes", ["constvel", "im2im", "constvel"]),
        ("trajectories", [{"steps": 1, "indent": 1.0, "length": 0.5}]),
        ("trajectories", [{"steps": 4, "indent": -1.0, "length": 0.5}]),
        ("trajectories", [{"steps": 4, "indent": 1.0, "length": float("nan")}]),
        ("trajectories", [{"steps": 4, "indent": 1.0, "dt": 0.0}]),
        ("trajectories", [{"kind": "arc", "steps": 4, "arc_radius": 0.0}]),
        ("trajectories", [{"steps": 4, "direction_deg": float("inf")}]),
        ("trajectories", [{"kind": "rotation", "steps": 4,
                           "spin_deg": float("nan")}]),
        ("gel", {"extent_x": float("nan")}),
        ("gel", {"extent_y": float("inf")}),
        ("objects", [{"name": "s", "shape": {"type": "sphere",
                                             "radius": -1.0}}]),
        ("objects", [{"name": "s", "shape": {"type": "sphere",
                                             "radius": float("nan")}}]),
        ("objects", [{"name": "b", "shape": {"type": "box",
                                             "half_extents": [1, 0, 1]}}]),
        ("objects", [{"name": "p", "shape": {"type": "pyramid",
                                             "base_half_length": 10.0,
                                             "height": float("inf")}}]),
        ("objects", []),
        ("master_seed", -1),
        ("tracker", {"optimizer": {"cost_tolerance": float("inf")}}),
        ("tracker", {"optimizer": {"cost_tolerance": True}}),
        ("gel", {"width": 64.5}),
        ("gel", {"extent_x": True}),
        ("noise", {"normal_sigma": True}),
        ("trajectories", [{"steps": 3.5}]),
        ("master_seed", 1.5),
        ("objects", [{"name": "s", "shape": {"type": "sphere",
                                             "radius": True}}]),
        ("objects", [{"name": "b", "shape": {"type": "box",
                                             "half_extents": [1, "1", 1]}}]),
        ("objects", [{"name": "p", "shape": {"type": "pyramid",
                                             "base_half_length": "10.0",
                                             "height": 5.0}}]),
        ("objects", [{"name": "p", "shape": {"type": "pyramid",
                                             "base_half_length": 10.0,
                                             "height": True}}]),
        ("objects", [{"name": "s", "shape": {**SPHERE, "offset": [0] * 7}}]),
        ("objects", [{"name": "s", "shape": {**SPHERE, "offset": [
            1, 0, 0, 0, float("inf"), 0, 0]}}]),
        ("objects", [{"name": "s", "shape": "sphere"}]),
        ("objects", [{"name": "s", "shape": [1, 2]}]),
        ("gel", {"width": 3, "height": 3}),   # the Poisson solve needs 4x4
        ("gel", {"extent_x": 10**400}),       # no float holds it
    ])
    def test_unknown_key_exit_2_before_generating(self, suite_yaml, tmp_path,
                                                  key, value):
        data = yaml.safe_load(suite_yaml.read_text())
        data[key] = value
        suite_yaml.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(suite_yaml),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_seed_override_exit_2_before_generating(self, suite_yaml,
                                                              tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(suite_yaml),
                     "--out", str(out), "--seed", "-1"]) == 2
        assert not out.exists()


class TestPipeline:
    def test_simulate_track_eval(self, suite_yaml, tmp_path):
        episodes = tmp_path / "episodes"
        assert main(["simulate", "--config", str(suite_yaml),
                     "--out", str(episodes)]) == 0
        ep = episodes / "sphere" / "ep0000"
        run = tmp_path / "runs" / "sphere" / "ep0000" / "constvel"
        assert main(["track", "--episode", str(ep), "--mode", "constvel",
                     "--out", str(run)]) == 0
        metrics = json.loads((run / "metrics.json").read_text())
        assert np.isfinite(metrics["final_translation_error_mm"])

        report = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        assert main(["eval", "--runs", str(tmp_path / "runs"),
                     "--out", str(report), "--csv", str(csv_path)]) == 0
        payload = json.loads(report.read_text())
        rec = payload["results"]["sphere"]["constvel"]
        assert rec["translation_errors"] == [
            metrics["final_translation_error_mm"]]
        assert csv_path.exists()

    @pytest.mark.parametrize("data", [
        {"tracker": {"sigma_vel": [0.01, 0.2]}}, {"sigma_vel": [0.01, 0.2]}],
        ids=["nested", "bare"])
    def test_track_with_tracker_yaml(self, suite_yaml, tmp_path, data):
        # Either form writes what the same TrackerConfig does, which is not
        # what the default writes.
        episodes = tmp_path / "episodes"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        tracker_yaml = tmp_path / "tracker.yaml"
        tracker_yaml.write_text(yaml.safe_dump(data))
        run = tmp_path / "run"
        assert main(["track",
                     "--episode", str(episodes / "sphere" / "ep0000"),
                     "--mode", "im2im", "--config", str(tracker_yaml),
                     "--out", str(run)]) == 0
        episode = load_episode(episodes / "sphere" / "ep0000")
        for config, out, same in [
                (TrackerConfig(sigma_vel=(0.01, 0.2)), tmp_path / "same", True),
                (TrackerConfig(), tmp_path / "default", False)]:
            run_tracking(episode, "im2im", config, out)
            for name in ("metrics.json", "trajectory.json"):
                assert ((run / name).read_bytes()
                        == (out / name).read_bytes()) is same

    def test_track_mistyped_key_exit_2(self, suite_yaml, tmp_path):
        episodes = tmp_path / "episodes"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        tracker_yaml = tmp_path / "tracker.yaml"
        run = tmp_path / "run"
        for data in ({"tracker": {"fixd_lag": 4}},
                     {"tracker": {"sigma_vel": [0.01, 0.2]}, "fixd_lag": 4},
                     {"tracker": {"fixed_lag": 4}},
                     {"tracker": {"keyframe_interval": 2}}):
            tracker_yaml.write_text(yaml.safe_dump(data))
            assert main(["track",
                         "--episode", str(episodes / "sphere" / "ep0000"),
                         "--mode", "constvel", "--config", str(tracker_yaml),
                         "--out", str(run)]) == 2
            assert not run.exists()

    def test_track_bad_optimizer_exit_2(self, suite_yaml, tmp_path):
        episodes = tmp_path / "episodes"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        tracker_yaml = tmp_path / "tracker.yaml"
        tracker_yaml.write_text(yaml.safe_dump(
            {"tracker": {"optimizer": {"cost_tolerance": -1}}}))
        run = tmp_path / "run"
        assert main(["track",
                     "--episode", str(episodes / "sphere" / "ep0000"),
                     "--mode", "constvel", "--config", str(tracker_yaml),
                     "--out", str(run)]) == 2
        assert not run.exists()

    @pytest.mark.parametrize("tolerance", [float("inf"), True],
                             ids=["inf", "bool"])
    def test_track_bad_cost_tolerance_exit_2(self, suite_yaml, tmp_path,
                                             tolerance):
        episodes = tmp_path / "episodes"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        tracker_yaml = tmp_path / "tracker.yaml"
        tracker_yaml.write_text(yaml.safe_dump(
            {"tracker": {"optimizer": {"cost_tolerance": tolerance}}}))
        run = tmp_path / "run"
        assert main(["track",
                     "--episode", str(episodes / "sphere" / "ep0000"),
                     "--mode", "constvel", "--config", str(tracker_yaml),
                     "--out", str(run)]) == 2
        assert not run.exists()

    @pytest.mark.parametrize("key, field, mode", [
        ("gel", "max_indent", "constvel"), ("noise", "normal_sigma", "constvel"),
        ("shape", "radius", "gtpatch")])
    def test_track_bad_episode_value_exit_2(self, suite_yaml, tmp_path, key,
                                            field, mode):
        # The same value exits 2 from a saved episode as from a suite YAML.
        episodes = tmp_path / "episodes"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        ep = episodes / "sphere" / "ep0000"
        meta = json.loads((ep / "episode.json").read_text())
        meta[key][field] = -1.0
        (ep / "episode.json").write_text(json.dumps(meta))
        assert main(["track", "--episode", str(ep), "--mode", mode,
                     "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("field, edit", [
        ("offset", lambda shape: shape.update(offset=[0] * 7)),
        ("radius", lambda shape: shape.pop("radius")),
        ("type", lambda shape: shape.pop("type"))],
        ids=["zero_offset", "no_radius", "no_type"])
    def test_track_bad_episode_shape_exit_2(self, suite_yaml, tmp_path, capsys,
                                            field, edit):
        # gtpatch reads the shape from the saved episode; a bad one exits 2,
        # as it does from a suite YAML, with the field named.
        episodes = tmp_path / "episodes"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        ep = episodes / "sphere" / "ep0000"
        meta = json.loads((ep / "episode.json").read_text())
        edit(meta["shape"])
        (ep / "episode.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["track", "--episode", str(ep), "--mode", "gtpatch",
                     "--out", str(tmp_path / "run")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("vision_prior", lambda meta: meta.update(vision_prior=[0] * 7)),
        ("object_pose", lambda meta: meta["frames"][0].update(
            object_pose=[1, 0, 0])),
        ("eff_pose", lambda meta: meta["frames"][1].update(eff_pose=[0] * 7)),
        ("eff_measured", lambda meta: meta["frames"][1].update(
            eff_measured=[0] * 7)),
        ("gel", lambda meta: meta.pop("gel")),
        ("eff_measured", lambda meta: meta["frames"][0].pop("eff_measured")),
        ("bogus", lambda meta: meta["gel"].update(bogus=1)),
        ("bogus", lambda meta: meta["noise"].update(bogus=1)),
        ("frames", lambda meta: meta.update(frames=[])),
        ("frames", lambda meta: meta.update(frames=5)),
        ("seed", lambda meta: meta.update(seed="abc")),
        ("seed", lambda meta: meta.update(seed=-1)),
        ("seed", lambda meta: meta.update(seed=1.0)),
        ("timestamp", lambda meta: meta["frames"][1].update(timestamp="x")),
        ("timestamp", lambda meta: meta["frames"][0].update(
            timestamp=float("nan"))),
        ("dropped_steps", lambda meta: meta.update(dropped_steps="abc")),
        ("frame 0 must be a mapping",
         lambda meta: meta["frames"].__setitem__(0, 1)),
        ("frame 1 must be a mapping",
         lambda meta: meta["frames"].__setitem__(1, None))],
        ids=["zero_vision_prior", "short_object_pose", "zero_eff_pose",
             "zero_eff_measured", "no_gel", "no_eff_measured",
             "unknown_gel_key", "unknown_noise_key", "no_frames",
             "int_frames", "text_seed", "negative_seed", "float_seed",
             "text_timestamp", "nan_timestamp", "text_dropped_steps",
             "int_frame", "null_frame"])
    def test_track_malformed_episode_exit_2(self, suite_yaml, tmp_path, capsys,
                                            field, edit):
        # A malformed pose, seed, timestamp or dropped-step list, a missing
        # key, an unknown setting, frames that are not a list of one or
        # more or a frame that is not a mapping in a saved episode exits 2,
        # as a bad value does, with the field named and before anything is
        # written.
        episodes = tmp_path / "episodes"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        ep = episodes / "sphere" / "ep0000"
        meta = json.loads((ep / "episode.json").read_text())
        edit(meta)
        (ep / "episode.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["track", "--episode", str(ep), "--mode", "constvel",
                     "--out", str(tmp_path / "run")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_track_truncated_image_exit_1(self, suite_yaml, tmp_path, capsys):
        # A truncated image is a bad file, not a bad setting: exit 1, with
        # the file named.
        episodes = tmp_path / "episodes"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        image = episodes / "sphere" / "ep0000" / "normals.pfm"
        image.write_bytes(image.read_bytes()[:-100])
        capsys.readouterr()
        assert main(["track", "--episode", str(image.parent),
                     "--mode", "constvel", "--out", str(tmp_path / "run")]) == 1
        assert str(image) in capsys.readouterr().err

    def test_track_unparsable_episode_json_exit_1(self, suite_yaml,
                                                  tmp_path, capsys):
        # episode.json that is not JSON is a bad file, as a truncated image
        # is: exit 1, with the file named.
        episodes = tmp_path / "episodes"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        meta = episodes / "sphere" / "ep0000" / "episode.json"
        meta.write_text("{bad")
        capsys.readouterr()
        assert main(["track", "--episode", str(meta.parent),
                     "--mode", "constvel", "--out", str(tmp_path / "run")]) == 1
        assert str(meta) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, code", [
        (lambda text: "{bad", 1),
        (lambda text: "[]", 2),
        (lambda text: json.dumps(dict(json.loads(text), diagnostics=[
            {"icp_im2im": {"fate": "bogus"}}])), 2),
        (lambda text: json.dumps(dict(json.loads(text), diagnostics=5)), 2),
        (lambda text: json.dumps(dict(json.loads(text), diagnostics=[5])), 2),
        (lambda text: json.dumps(dict(json.loads(text), diagnostics=[
            {"icp_im2im": 5}])), 2),
        (lambda text: json.dumps(dict(json.loads(text),
                                      final_rotation_error_rad="x")), 2)],
        ids=["not_json", "not_a_mapping", "unknown_fate", "int_diagnostics",
             "int_diagnostic", "int_call", "text_error"])
    def test_eval_malformed_metrics(self, suite_yaml, tmp_path, capsys,
                                    edit, code):
        # A metrics.json that is not JSON exits 1; one that is not a mapping,
        # holds diagnostics that are not a list of mappings, a registration
        # call that is not a mapping or a tracking error that is not a
        # number, or records an unknown registration fate is a bad value,
        # exit 2.  Each names the file.
        episodes, runs = tmp_path / "episodes", tmp_path / "runs"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        run = runs / "sphere" / "ep0000" / "constvel"
        main(["track", "--episode", str(episodes / "sphere" / "ep0000"),
              "--mode", "constvel", "--out", str(run)])
        metrics = run / "metrics.json"
        metrics.write_text(edit(metrics.read_text()))
        capsys.readouterr()
        assert main(["eval", "--runs", str(runs),
                     "--out", str(tmp_path / "report.json")]) == code
        assert str(metrics) in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_eval_empty_runs_exit_2(self, tmp_path):
        (tmp_path / "runs").mkdir()
        assert main(["eval", "--runs", str(tmp_path / "runs"),
                     "--out", str(tmp_path / "report.json")]) == 2

    def test_byte_identical_reruns(self, suite_yaml, tmp_path):
        outputs = []
        for name in ("a", "b"):
            episodes = tmp_path / name / "episodes"
            main(["simulate", "--config", str(suite_yaml),
                  "--out", str(episodes)])
            run = tmp_path / name / "run"
            main(["track", "--episode", str(episodes / "sphere" / "ep0000"),
                  "--mode", "constvel", "--out", str(run)])
            outputs.append((
                (episodes / "sphere" / "ep0000" / "normals.pfm").read_bytes(),
                (run / "trajectory.json").read_bytes(),
                (run / "metrics.json").read_bytes()))
        assert outputs[0] == outputs[1]


class TestReconstruct:
    def test_reconstruct_episode_frame(self, suite_yaml, tmp_path):
        # --episode takes the gel from episode.json: the depth is that of
        # reconstructing the loaded frame with the episode's own gel.
        from tactrack.imageio import read_pfm, write_pfm
        from tactrack.reconstruct import reconstruct_cloud

        episodes = tmp_path / "episodes"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        ep = episodes / "sphere" / "ep0000"
        loaded = load_episode(ep)
        for frame in (0, len(loaded.frames) - 1):
            depth_out = tmp_path / f"depth{frame}.pfm"
            cloud_out = tmp_path / f"cloud{frame}.ply"
            assert main(["reconstruct", "--episode", str(ep),
                         "--frame", str(frame),
                         "--out-depth", str(depth_out),
                         "--out-cloud", str(cloud_out)]) == 0
            depth, _ = reconstruct_cloud(loaded.frames[frame].normals,
                                         loaded.gel)
            write_pfm(tmp_path / "want.pfm", depth.values)
            assert depth_out.read_bytes() == \
                (tmp_path / "want.pfm").read_bytes()
            assert read_pfm(depth_out).shape == (loaded.gel.height,
                                                 loaded.gel.width)
            points, normals = read_ply(cloud_out)
            assert len(points) == len(normals) > 0

    @pytest.mark.parametrize("extra", [
        pytest.param(["--frame", "4"], id="frame_past_end"),
        pytest.param(["--frame", "-1"], id="negative_frame"),
        pytest.param([], id="no_frame"),
        pytest.param(["--frame", "0", "--extent-x", "20"], id="extent_x"),
        pytest.param(["--frame", "0", "--extent-y", "20"], id="extent_y"),
        pytest.param(["--frame", "0", "--normals", "n.pfm"], id="normals"),
        pytest.param(["--frame", "0", "--mask", "m.pgm"], id="mask"),
    ])
    def test_reconstruct_episode_misuse_exit_2(self, suite_yaml, tmp_path,
                                               capsys, extra):
        # The 4-step episode keeps frames 0..3.  Each misuse exits 2 with
        # its option named, before anything is written.
        episodes = tmp_path / "episodes"
        main(["simulate", "--config", str(suite_yaml), "--out", str(episodes)])
        assert len(load_episode(episodes / "sphere" / "ep0000").frames) == 4
        capsys.readouterr()
        assert main(["reconstruct",
                     "--episode", str(episodes / "sphere" / "ep0000"),
                     "--out-depth", str(tmp_path / "d.pfm"),
                     "--out-cloud", str(tmp_path / "c.ply")] + extra) == 2
        err = capsys.readouterr().err
        assert (extra[-2] if extra else "--frame") in err
        assert not (tmp_path / "d.pfm").exists()
        assert not (tmp_path / "c.ply").exists()

    def test_reconstruct_frame_without_episode_exit_2(self, tmp_path):
        from tactrack.imageio import write_pfm, write_pgm_mask

        write_pfm(tmp_path / "n.pfm", np.zeros((4, 4, 3), dtype=np.float32))
        write_pgm_mask(tmp_path / "m.pgm", np.zeros((4, 4), dtype=bool))
        for args in (["--normals", str(tmp_path / "n.pfm"), "--mask",
                      str(tmp_path / "m.pgm"), "--frame", "0"],
                     ["--normals", str(tmp_path / "n.pfm")]):
            assert main(["reconstruct", *args,
                         "--out-depth", str(tmp_path / "d.pfm"),
                         "--out-cloud", str(tmp_path / "c.ply")]) == 2
            assert not (tmp_path / "d.pfm").exists()

    @pytest.mark.parametrize("extent", [["--extent-x", "-1"],
                                        ["--extent-y", "0"]])
    def test_nonpositive_extent_exit_2(self, tmp_path, extent):
        from tactrack.imageio import write_pfm, write_pgm_mask

        write_pfm(tmp_path / "n.pfm", np.zeros((4, 4, 3), dtype=np.float32))
        write_pgm_mask(tmp_path / "m.pgm", np.zeros((4, 4), dtype=bool))
        assert main(["reconstruct", "--normals", str(tmp_path / "n.pfm"),
                     "--mask", str(tmp_path / "m.pgm"),
                     "--out-depth", str(tmp_path / "d.pfm"),
                     "--out-cloud", str(tmp_path / "c.ply")] + extent) == 2
        assert not (tmp_path / "d.pfm").exists()

    def test_mismatched_mask_exit_2(self, tmp_path):
        from tactrack.imageio import write_pfm, write_pgm_mask

        write_pfm(tmp_path / "n.pfm", np.zeros((4, 4, 3), dtype=np.float32))
        write_pgm_mask(tmp_path / "m.pgm", np.zeros((3, 3), dtype=bool))
        assert main(["reconstruct", "--normals", str(tmp_path / "n.pfm"),
                     "--mask", str(tmp_path / "m.pgm"),
                     "--out-depth", str(tmp_path / "d.pfm"),
                     "--out-cloud", str(tmp_path / "c.ply")]) == 2

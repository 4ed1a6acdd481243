"""What a run holds in memory: scipy.linalg, scipy.spatial and PyYAML load
on first use, and loaded images keep the float32 values of their files."""

import os
import subprocess
import sys
import textwrap

import numpy as np

import tactrack
from tactrack.episodes import (NoiseSpec, TrajectorySpec, generate_episode,
                               load_episode, save_episode)
from tactrack.reconstruct import reconstruct_cloud
from tactrack.render import GelConfig, NormalImage
from tactrack.shapes import Sphere


def three_frame_episode():
    return generate_episode(Sphere(radius=6.35),
                            TrajectorySpec(steps=3, indent=1.0, length=0.5),
                            GelConfig(), NoiseSpec(), seed=7)


# Runs in a fresh interpreter, since this one has loaded every module.
FIRST_USE = textwrap.dedent("""
    import sys
    import tempfile

    import tactrack, tactrack.cli, tactrack.harness
    from tactrack import factors, reconstruct, registration
    from tactrack.episodes import load_episode, save_episode
    from tactrack.reconstruct import reconstruct_cloud
    from tactrack.tracker import Tracker, TrackerConfig
    from test_memory import three_frame_episode

    def loaded():
        return [m for m in ("scipy.linalg", "scipy.spatial", "yaml")
                if m in sys.modules]

    with tempfile.TemporaryDirectory() as directory:
        save_episode(three_frame_episode(), directory)
        episode = load_episode(directory)
    for frame in episode.frames:
        reconstruct_cloud(frame.normals, episode.gel)
    assert loaded() == [], loaded()

    # The second step is the first to register and solve.
    tracker = Tracker("im2im", TrackerConfig(), episode.vision_prior,
                      episode.gel)
    for frame in episode.frames[:2]:
        tracker.step(frame.normals, frame.eff_measured)
    assert loaded() == ["scipy.linalg", "scipy.spatial"], loaded()
""")

# The CLI commands that never register or solve load none of the three;
# `gtpatch` loads exactly the two scipy modules.
CLI_FIRST_USE = textwrap.dedent("""
    import os
    import sys
    import tempfile

    from tactrack.cli import main
    from tactrack.episodes import save_episode
    from test_memory import three_frame_episode

    def loaded():
        return [m for m in ("scipy.linalg", "scipy.spatial", "yaml")
                if m in sys.modules]

    with tempfile.TemporaryDirectory() as directory:
        episode = os.path.join(directory, "episode")
        save_episode(three_frame_episode(), episode)
        runs = os.path.join(directory, "runs", "sphere", "ep0000")
        assert main(["reconstruct", "--episode", episode, "--frame", "1",
                     "--out-depth", os.path.join(directory, "depth.pfm"),
                     "--out-cloud", os.path.join(directory, "cloud.ply")]) == 0
        assert main(["track", "--episode", episode, "--mode", "constvel",
                     "--out", os.path.join(runs, "constvel")]) == 0
        assert main(["eval", "--runs", os.path.join(directory, "runs"),
                     "--out", os.path.join(directory, "report.json")]) == 0
        assert loaded() == [], loaded()
        assert main(["track", "--episode", episode, "--mode", "gtpatch",
                     "--out", os.path.join(runs, "gtpatch")]) == 0
        assert loaded() == ["scipy.linalg", "scipy.spatial"], loaded()
""")


def _run_fresh(script):
    paths = [os.path.dirname(os.path.dirname(tactrack.__file__)),
             os.path.dirname(__file__), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_heavy_modules_load_on_first_use():
    _run_fresh(FIRST_USE)


def test_cli_commands_load_heavy_modules_on_first_use():
    _run_fresh(CLI_FIRST_USE)


def test_loaded_images_stay_float32_and_reconstruct_exactly(tmp_path):
    save_episode(three_frame_episode(), tmp_path)
    episode = load_episode(tmp_path)
    for frame in episode.frames:
        assert frame.normals.values.dtype == np.float32
        assert frame.depth_gt.values.dtype == np.float32
        wide = NormalImage(values=frame.normals.values.astype(float),
                           mask=frame.normals.mask)
        depth, cloud = reconstruct_cloud(frame.normals, episode.gel)
        depth64, cloud64 = reconstruct_cloud(wide, episode.gel)
        assert len(cloud) > 0
        for got, want in [(depth.values, depth64.values),
                          (cloud.points, cloud64.points),
                          (cloud.normals, cloud64.normals)]:
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()

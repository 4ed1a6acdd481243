"""Command line interface: simulate, track, eval, reconstruct.

Exit codes: 0 success, 1 total failure, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import harness, imageio
from .config import ConfigError, read_yaml_mapping
from .episodes import load_episode
from .harness import SuiteConfig
from .reconstruct import reconstruct_cloud
from .render import GelConfig, NormalImage
from .tracker import TrackerConfig, TrackerMode


def _load_tracker_config(path) -> TrackerConfig:
    if path is None:
        return TrackerConfig()
    data = read_yaml_mapping(path)
    if set(data) == {"tracker"}:   # overrides may be nested under `tracker:`
        data = data["tracker"]
    return TrackerConfig.from_dict(data)


def cmd_simulate(args) -> int:
    config = SuiteConfig.from_yaml(args.config)
    if args.seed is not None:   # checked like the config's own seed
        config = dataclasses.replace(config, master_seed=args.seed)
    total = len(config.objects) * config.episodes_per_object
    entries = harness.generate_suite_episodes(config, args.out)
    failed = {name: [e["error"] for e in lst if isinstance(e, dict)]
              for name, lst in entries.items()}
    failures = sum(len(v) for v in failed.values())
    for name, errors in failed.items():
        for message in errors:
            print(f"episode generation failed ({name}): {message}",
                  file=sys.stderr)
    if failures == total:
        return 1
    manifest = {"config_hash": config.config_hash(),
                "master_seed": config.master_seed,
                "objects": {o.name: config.episodes_per_object
                            for o in config.objects},
                "generation_failures": failed}
    imageio.write_json(os.path.join(args.out, "manifest.json"), manifest)
    print(f"generated {total - failures}/{total} episodes under {args.out}")
    return 0


def cmd_track(args) -> int:
    tracker_config = _load_tracker_config(args.config)
    episode = load_episode(args.episode)
    metrics = harness.run_tracking(episode, TrackerMode(args.mode),
                                   tracker_config, args.out)
    print(f"mode={args.mode} rotation_error={metrics['final_rotation_error_rad']:.6f}rad "
          f"translation_error={metrics['final_translation_error_mm']:.6f}mm")
    return 0


def cmd_eval(args) -> int:
    harness.evaluate_runs(args.runs, args.out, args.csv)
    print(f"wrote {args.out}" + (f" and {args.csv}" if args.csv else ""))
    return 0


def cmd_reconstruct(args) -> int:
    images = (args.normals, args.mask)
    extents = {name: getattr(args, name) for name in ("extent_x", "extent_y")
               if getattr(args, name) is not None}
    if args.episode is None:
        if None in images or args.frame is not None:
            raise ConfigError("reconstruct takes --normals and --mask, or "
                              "--episode and --frame")
        normals = imageio.read_pfm(args.normals)
        mask = imageio.read_pgm_mask(args.mask)
        if normals.ndim != 3 or normals.shape[:2] != mask.shape:
            raise ConfigError("normal image and mask dimensions disagree")
        gel = GelConfig(width=mask.shape[1], height=mask.shape[0], **extents)
        image = NormalImage(values=normals, mask=mask)
    else:
        if images != (None, None) or args.frame is None:
            raise ConfigError("--episode takes --frame, and neither "
                              "--normals nor --mask")
        if extents:
            raise ConfigError("--episode takes the gel's extents from its "
                              "episode.json, not --extent-x or --extent-y")
        episode = load_episode(args.episode)
        if not 0 <= args.frame < len(episode.frames):
            raise ConfigError(f"--frame {args.frame} is not in "
                              f"0..{len(episode.frames) - 1}")
        gel, image = episode.gel, episode.frames[args.frame].normals
    depth, cloud = reconstruct_cloud(image, gel)
    imageio.write_pfm(args.out_depth, depth.values)
    imageio.write_ply(args.out_cloud, cloud.points, cloud.normals)
    print(f"reconstructed {len(cloud)} points -> {args.out_cloud}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tactrack",
        description="Tactile 6-DOF object tracking from surface-normal images")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate contact episodes for a suite")
    p.add_argument("--config", required=True, help="suite YAML config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config master seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="track one episode in one mode")
    p.add_argument("--episode", required=True, help="episode directory")
    p.add_argument("--mode", required=True,
                   choices=[m.value for m in TrackerMode])
    p.add_argument("--config", default=None, help="tracker YAML config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="aggregate tracking runs into a report")
    p.add_argument("--runs", required=True, help="directory of track outputs")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--csv", default=None, help="report CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reconstruct",
                       help="normal image -> depth map and point cloud")
    p.add_argument("--normals", help="PFM normal image")
    p.add_argument("--mask", help="P5 PGM contact mask")
    p.add_argument("--episode", help="episode directory, instead of "
                   "--normals and --mask")
    p.add_argument("--frame", type=int, help="frame index in --episode")
    p.add_argument("--out-depth", required=True, help="output depth PFM")
    p.add_argument("--out-cloud", required=True, help="output ASCII PLY")
    p.add_argument("--extent-x", type=float,
                   help="gel width in mm with --normals (default 20)")
    p.add_argument("--extent-y", type=float,
                   help="gel height in mm with --normals (default 20)")
    p.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"bad configuration: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

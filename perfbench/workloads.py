"""The benchmark's workloads: what each runs, how it is timed and checked.

Every workload is a closed loop with one client: episodes run one after
another and the frames of an episode run in order, as an online tracker
sees them.  The program is driven only through its public functions, and
the per-layer numbers come from wrappers installed around those functions
(see spans.py), never from code inside tactrack.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tactrack import (episodes, factors, geometry, harness, imageio, patchmap,
                      reconstruct, registration, tracker)
from tactrack.factors import Factor, FactorGraph
from tactrack.tracker import Tracker

from spans import (NameTotals, Tracer, latency_summary, patched, percentile,
                   self_by_layer, totals_by_name)

SETUP_REPEATS = 5

# Typical time of one reference_work() call on a 2-vCPU Xeon VM at
# 2.1 GHz, where the benchmark was defined.  A shared host flips between a
# fast state and one about 1.75 times slower, many times a second, and the
# share of time spent slow drifts from run to run.  Set-up and the timed
# loop therefore run reference_work() right after each measured call, for
# REFERENCE_DUTY of its time (see HostProbe), and setup_s and the *_norm
# metrics scale each timing by the host's speed over the same moments
# relative to REFERENCE_S.
REFERENCE_S = 0.0003
REFERENCE_DUTY = 0.05
# The mode that cells_worse_than_constvel compares the tactile modes with.
BASELINE_MODE = "constvel"


@dataclass(frozen=True)
class TrackingWorkload:
    """Track episodes of the default suite's objects with linear slides."""

    name: str
    modes: tuple
    steps: int
    length: float               # slide length, mm
    episodes_per_object: int    # generated in set-up; one round runs them all


@dataclass(frozen=True)
class SimulateWorkload:
    """Generate, save, reload and reconstruct the default suite's episodes."""

    name: str
    episodes_per_object: int    # per timed iteration
    warmup_episodes_per_object: int   # per set-up repeat


# Why each workload exists is in BENCHMARK.json and README.md.  A round of
# either tracking workload tracks 144 frames, enough for a p90 step latency
# with ten samples beyond it, and fits the run budget on a slow host.
SUITE12 = TrackingWorkload("suite12", ("constvel", "im2im", "patchgraph", "gtpatch"),
                           steps=12, length=2.0, episodes_per_object=1)
LONG24 = TrackingWorkload("long24", ("patchgraph",), steps=24, length=4.0,
                          episodes_per_object=2)
SIMULATE = SimulateWorkload("simulate", episodes_per_object=5,
                            warmup_episodes_per_object=1)
WORKLOADS = {w.name: w for w in (SUITE12, LONG24, SIMULATE)}


def suite_config(seed: int, steps: int, length: float,
                 episodes_per_object: int) -> harness.SuiteConfig:
    """The default suite with its slide pinned to `steps` and `length`."""
    config = harness.default_suite_config(master_seed=seed,
                                          episodes_per_object=episodes_per_object)
    config.trajectories = [dataclasses.replace(config.trajectories[0],
                                               steps=steps, length=length)]
    return config


# -- wrappers ----------------------------------------------------------------

def layer_wrappers(tracer: Tracer) -> list:
    """(owner, attribute, wrapper) for every public call into a layer.

    Each name is wrapped where the program looks it up: tracker imports
    reconstruct_cloud by name, episodes imports render_depth by name and
    harness imports the episode and tracking functions by name; factors.optimize
    reaches linearize through its module global; the rest are module
    attributes or methods.
    """
    wrap, counter = tracer.wrap, tracer.counter

    def cloud_points(result, args, kwargs):
        tracer.count("reconstruct.points", len(result[1]))

    def icp_result(result, args, kwargs):
        tracer.count("registration.iters", result.iterations)
        if not result.converged:
            tracer.count("registration.not_converged")

    def fused(result, args, kwargs):
        tracer.gauge("patchmap.points_final", len(result.cloud))

    def optimized(result, args, kwargs):
        tracer.count("factors.lm_iters", result[1].iterations)
        tracer.gauge("factors.graph_factors", len(args[0]))

    def wrote(result, args, kwargs):
        tracer.count("imageio.bytes_written", os.path.getsize(args[0]))

    def stepped(result, args, kwargs):
        if result.diagnostics["skipped_registration"]:
            tracer.count("tracker.skipped_registration")

    def write(fn):
        return wrap("imageio.write", fn, wrote)

    def read(fn):
        return wrap("imageio.read", fn)

    return [
        (harness, "generate_suite_episodes",
         wrap("harness.generate_suite_episodes", harness.generate_suite_episodes)),
        (harness, "run_tracking", wrap("harness.run_tracking", harness.run_tracking)),
        (harness, "generate_episode", wrap("episodes.generate", harness.generate_episode)),
        (harness, "save_episode", wrap("episodes.save", harness.save_episode)),
        (harness, "load_episode", wrap("episodes.load", harness.load_episode)),
        (harness, "track_episode", wrap("tracker.track_episode", harness.track_episode)),
        (episodes, "load_episode", wrap("episodes.load", episodes.load_episode)),
        (episodes, "render_depth", wrap("render.render_depth", episodes.render_depth)),
        (imageio, "write_pfm", write(imageio.write_pfm)),
        (imageio, "write_pgm_mask", write(imageio.write_pgm_mask)),
        (imageio, "write_ply", write(imageio.write_ply)),
        (imageio, "read_pfm", read(imageio.read_pfm)),
        (imageio, "read_pgm_mask", read(imageio.read_pgm_mask)),
        (tracker, "reconstruct_cloud",
         wrap("reconstruct.reconstruct_cloud", tracker.reconstruct_cloud, cloud_points)),
        (reconstruct, "reconstruct_cloud",
         wrap("reconstruct.reconstruct_cloud", reconstruct.reconstruct_cloud, cloud_points)),
        (Tracker, "step", wrap("tracker.step", Tracker.step, stepped)),
        (registration, "icp_register",
         wrap("registration.icp_register", registration.icp_register, icp_result)),
        (patchmap, "fuse_keyframe",
         wrap("patchmap.fuse_keyframe", patchmap.fuse_keyframe, fused)),
        (factors, "optimize", wrap("factors.optimize", factors.optimize, optimized)),
        (factors, "linearize", wrap("factors.linearize", factors.linearize)),
        (FactorGraph, "cost", wrap("factors.cost", FactorGraph.cost)),
        (FactorGraph, "add", counter("factors.added", FactorGraph.add,
                                     key=lambda graph, factor: factor.name)),
        (Factor, "residual", counter("factors.residual_evals", Factor.residual)),
    ]


def latency_wrappers(tracer: Tracer, host: HostProbe) -> list:
    """The few spans the plain run needs for its latency percentiles, with
    the host probe after each call that is not inside another one."""
    return [
        (Tracker, "step", host.probed(tracer.wrap("tracker.step", Tracker.step))),
        (harness, "generate_episode", host.probed(
            tracer.wrap("episodes.generate", harness.generate_episode))),
        (harness, "save_episode",
         host.probed(tracer.wrap("episodes.save", harness.save_episode))),
    ]


# -- host speed ----------------------------------------------------------------

def reference_work() -> float:
    """Fixed Python and small-array work, like the tracker's inner loops but
    independent of tactrack, so no change to the program moves it.  It is
    short, so that the probe can run often in small slices."""
    a = np.arange(9.0).reshape(3, 3) / 10.0 + np.eye(3)
    v = np.arange(3.0)
    acc = 0.0
    for i in range(100):
        acc += float(np.sqrt((a @ a.T)[0] @ v)) + len(str(i))
    return acc


@dataclass
class HostProbe:
    """reference_work() calls spread through one phase, and their summed time.

    The probe runs right after each measured call, for `duty` of that call's
    time on average, so it samples the host's state in the same moments as
    the work it normalizes.  Probing once per unit instead, in one burst,
    sampled a different mix of fast and slow moments and left the
    normalized timings as noisy as the raw ones.  `clock()` leaves the
    probe's own time out of every measurement.
    """

    duty: float = REFERENCE_DUTY
    durations: list = field(default_factory=list)   # of each call
    seconds: float = 0.0
    owed: float = 0.0

    def pay(self, measured_s: float) -> None:
        """Run reference_work() until `duty` of `measured_s` is repaid."""
        self.owed += self.duty * measured_s
        while self.owed > 0.0:
            t0 = perf_counter()
            reference_work()
            spent = perf_counter() - t0
            self.durations.append(spent)
            self.seconds += spent
            self.owed -= spent

    def probed(self, fn):
        """`fn`, with the probe paying for each call's time after it."""
        @functools.wraps(fn)
        def call(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.pay(perf_counter() - t0)

        return call

    def clock(self) -> float:
        """perf_counter() less the time spent probing so far."""
        return perf_counter() - self.seconds

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def speed(self) -> float:
        """Host speed relative to REFERENCE_S over the whole phase; above 1
        is faster."""
        return REFERENCE_S * self.calls / self.seconds

    def speed_at(self, q: float) -> float:
        """Host speed from the q-th percentile of single calls: the speed
        of the host's slow moments when q is high."""
        return REFERENCE_S / percentile(self.durations, q)


# -- results -----------------------------------------------------------------

@dataclass
class Phase:
    """What one timed loop measured."""

    wall_s: float = 0.0
    frames: int = 0
    step_s: list = field(default_factory=list)
    episode_s: list = field(default_factory=list)
    runs: list = field(default_factory=list)   # tracking: one dict per run
    unit_s: list = field(default_factory=list)  # measured seconds per unit
    depth_sq_err: float = 0.0                  # simulate: summed over pixels
    depth_pixels: int = 0


@dataclass
class Outcome:
    kind: str                      # "tracking" or "simulate"
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    plain: Phase = None
    traced: Phase = None
    tracer: Tracer = None
    traced_wall_s: float = 0.0     # traced set-up plus traced loop
    setup_host: HostProbe = field(default_factory=HostProbe)   # plain set-up
    host: HostProbe = field(default_factory=HostProbe)         # plain loop
    digest: str = ""
    digest_runs: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


@dataclass
class Side:
    """One way of running the same units: plain (latency spans and the host
    probe) or traced (every layer, no probe), with its own tracer, probe,
    results and directory."""

    tracer: Tracer
    wrappers: list
    host: HostProbe
    root: str
    phase: Phase = field(default_factory=Phase)
    loaded: dict = field(default_factory=dict)   # episodes of the current pass


def _side(trace: bool, tracer: Tracer, host: HostProbe, root: str) -> Side:
    if trace:
        return Side(tracer, layer_wrappers(tracer), HostProbe(duty=0.0), root)
    return Side(tracer, latency_wrappers(tracer, host), host, root)


def _sides(workdir: str, trace: bool, full: Tracer, host: HostProbe) -> list:
    sides = [_side(False, Tracer(), host, _fresh(workdir, "plain-"))]
    if trace:
        sides.append(_side(True, full, host, _fresh(workdir, "traced-")))
    return sides


def _run_units(sides: list, seconds: float, stride: int, unit) -> None:
    """Call `unit(k, side)` for k = 0, 1, ... on every side until `seconds`
    have passed, stopping only after a whole number of `stride` units.
    `unit` returns the seconds it spent on measured work, which add up to
    the side's wall time.

    With two sides, each unit runs on both back to back, in alternating
    order, so that a drift in machine speed or a warm-up cost falls on both
    alike and their wall times compare.
    """
    start = perf_counter()
    for k in itertools.count():
        if k > 0 and k % stride == 0 and perf_counter() - start >= seconds:
            return
        for side in (sides if k % 2 == 0 else sides[::-1]):
            with patched(side.wrappers):
                measured = unit(k, side)
            side.phase.wall_s += measured
            side.phase.unit_s.append(measured)


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _episode_digest(entries: dict) -> str:
    """Digest of every file of every generated episode, in a fixed order."""
    paths = []
    for obj in sorted(entries):
        for entry in entries[obj]:
            if isinstance(entry, str):
                paths += [os.path.join(entry, n) for n in sorted(os.listdir(entry))]
    return _digest_files(paths)


def _fresh(workdir: str, prefix: str) -> str:
    return tempfile.mkdtemp(prefix=prefix, dir=workdir)


def _count_generation(out: Outcome, config, entries: dict) -> None:
    """Episodes generated must equal episodes attempted."""
    expected = len(config.objects) * config.episodes_per_object
    out.attempted += expected
    generated = 0
    for obj, entry_list in entries.items():
        for entry in entry_list:
            if isinstance(entry, str):
                generated += 1
            else:
                out.fail(f"{obj}: episode seed {entry['seed']} not generated: "
                         f"{entry['error']}")
                expected -= 1
    for _ in range(expected - generated):
        out.fail("an episode is missing from generate_suite_episodes' result")


# -- tracking workloads --------------------------------------------------------

def _round(objects: list, w: TrackingWorkload) -> list:
    """(object, mode, episode index) runs of one round.

    A round is `episodes_per_object` passes, and a pass runs every object x
    mode once, spread so that any prefix mixes objects and modes: with 3
    objects and 1 or 4 modes (coprime counts), j mod 3 and j mod 4 visit
    every pair once.
    """
    pairs = [(objects[j % len(objects)], w.modes[j % len(w.modes)])
             for j in range(len(objects) * len(w.modes))]
    if len(set(pairs)) != len(pairs):
        raise ValueError("object and mode counts must be coprime")
    return [(obj, mode, ei) for ei in range(w.episodes_per_object)
            for obj, mode in pairs]


def _track_unit(w: TrackingWorkload, config, entries: dict):
    """unit(k, side): the k-th run of the repeated round.

    Episodes are loaded once per pass, as run_suite loads each once for all
    its modes.
    """
    order = _round([o.name for o in config.objects], w)
    per_pass = len(config.objects) * len(w.modes)
    tracker_config = config.tracker_config()

    def unit(k: int, side: Side) -> float:
        start = side.host.clock()
        obj, mode, ei = order[k % len(order)]
        if k % per_pass == 0:
            side.loaded.clear()
        entry = entries[obj][ei]
        if not isinstance(entry, str):
            return 0.0   # counted as a failure in set-up
        if obj not in side.loaded:
            side.loaded[obj] = episodes.load_episode(entry)
        episode = side.loaded[obj]
        run_id = f"{obj}/ep{ei:04d}/{mode}"
        run_dir = os.path.join(side.root, f"{k:05d}")
        tracer, phase = side.tracer, side.phase
        # Spans and counts of one execution share an id; repeats differ.
        trace_id = f"{run_id}#{k}"
        tracer.run = trace_id
        steps_before = len(tracer.spans)
        t0 = side.host.clock()
        try:
            harness.run_tracking(episode, mode, tracker_config, run_dir)
            error = None
        except Exception as err:   # recorded as a failed run; the loop goes on
            error = f"{type(err).__name__}: {err}"
        elapsed = side.host.clock() - t0
        tracer.run = None
        phase.runs.append({"run": run_id, "trace_id": trace_id,
                           "object": obj, "mode": mode, "dir": run_dir,
                           "error": error, "frames": len(episode.frames)})
        if error is None:
            phase.frames += len(episode.frames)
            phase.episode_s.append(elapsed)
            phase.step_s += [s.duration for s in tracer.spans[steps_before:]
                             if s.name == "tracker.step"]
        return side.host.clock() - start

    return unit


def _relative_motion_error(traj: dict) -> float:
    """Translation error (mm) of the first-to-last object-from-sensor motion,
    which is what touch observes."""
    def motion(objects, effs):
        first = geometry.compose(geometry.inverse(geometry.from_quat_trans(objects[0])),
                                 geometry.from_quat_trans(effs[0]))
        last = geometry.compose(geometry.inverse(geometry.from_quat_trans(objects[-1])),
                                geometry.from_quat_trans(effs[-1]))
        return geometry.compose(geometry.inverse(first), last)
    est = motion(traj["object_estimates"], traj["eff_estimates"])
    gt = motion(traj["object_groundtruth"], traj["eff_groundtruth"])
    return float(np.linalg.norm(geometry.compose(geometry.inverse(est), gt).translation))


def _check_runs(out: Outcome, phase: Phase) -> dict:
    """Finite poses, identical bytes for repeats of a run; returns the first
    occurrence's record per run id, with its errors and digest."""
    first = {}
    for r in phase.runs:
        out.attempted += 1
        if r["error"] is not None:
            out.fail(f"{r['run']}: {r['error']}")
            continue
        paths = [os.path.join(r["dir"], n) for n in ("trajectory.json", "metrics.json")]
        r["digest"] = _digest_files(paths)
        with open(paths[0]) as f:
            traj = json.load(f)
        with open(paths[1]) as f:
            metrics = json.load(f)
        poses = traj["object_estimates"] + traj["eff_estimates"]
        if len(traj["object_estimates"]) != r["frames"] or not all(
                math.isfinite(x) for pose in poses for x in pose):
            out.fail(f"{r['run']}: missing or non-finite pose")
            continue
        r["trans_err_mm"] = metrics["final_translation_error_mm"]
        r["rot_err_rad"] = metrics["final_rotation_error_rad"]
        r["rel_trans_err_mm"] = _relative_motion_error(traj)
        if r["run"] not in first:
            first[r["run"]] = r
        elif first[r["run"]]["digest"] != r["digest"]:
            out.fail(f"{r['run']}: outputs differ between repeats")
    return first


def run_tracking_workload(w: TrackingWorkload, seed: int, seconds: float,
                          trace: bool, workdir: str) -> Outcome:
    out = Outcome("tracking")
    config = suite_config(seed, w.steps, w.length, w.episodes_per_object)
    full = Tracer()

    # Set-up: generate the episodes SETUP_REPEATS times into fresh
    # directories, so generate_suite_episodes never reuses a cached one.
    digests = []
    entries = None
    setup = _side(trace, full if trace else Tracer(), out.setup_host, workdir)
    for _ in range(SETUP_REPEATS):
        directory = _fresh(workdir, "episodes-")
        with patched(setup.wrappers):
            t0 = setup.host.clock()
            rep = harness.generate_suite_episodes(config, directory)
            out.setup_s.append(setup.host.clock() - t0)
        _count_generation(out, config, rep)
        digests.append(_episode_digest(rep))
        if entries is None:
            entries = rep
        else:
            shutil.rmtree(directory)
    if len(set(digests)) != 1:
        out.fail("set-up repeats generated different episode bytes")

    # A plain run measures whole rounds, repeating the same inputs.  A traced
    # run alternates plain and traced copies of each run, in whole passes.
    per_pass = len(config.objects) * len(w.modes)
    sides = _sides(workdir, trace, full, out.host)
    _run_units(sides, seconds, per_pass if trace else per_pass * w.episodes_per_object,
               _track_unit(w, config, entries))
    out.plain = sides[0].phase
    first = _check_runs(out, out.plain)
    # The digest covers the first pass, which every run completes.
    pass_ids = [r["run"] for r in out.plain.runs[:per_pass]]
    out.digest_runs = sum(i in first for i in pass_ids)
    out.digest = hashlib.sha256("".join(
        first[i]["digest"] for i in pass_ids if i in first).encode()).hexdigest()
    out.plain.runs = list(first.values())

    if trace:
        out.traced = sides[1].phase
        traced_first = _check_runs(out, out.traced)
        for run_id, r in traced_first.items():
            if run_id in first and first[run_id]["digest"] != r["digest"]:
                out.fail(f"{run_id}: traced outputs differ from plain ones")
        # Whole passes repeat every cell equally, so the table keeps them all.
        out.traced.runs = [r for r in out.traced.runs if "trans_err_mm" in r]
        out.tracer = full
        out.traced_wall_s = sum(out.setup_s) + out.traced.wall_s
    return out


# -- simulate ----------------------------------------------------------------

# Reconstruction of a noisy normal image stays within this RMSE of the
# rendered penetration depth: the worst of 126 default-suite episodes (cube
# corners) reads 0.069 mm, so a larger error means a broken pipeline.
DEPTH_RMSE_LIMIT_MM = 0.25


def _simulate_iteration(config, directory: str, side: Side, phase: Phase,
                        out: Outcome) -> dict:
    """Generate the suite into `directory`, then reload and reconstruct every
    frame; adds timings to `phase` and depth failures to `out` and returns
    generate_suite_episodes' entries.  Runs inside `side`'s wrappers."""
    tracer, host = side.tracer, side.host
    spans_before = len(tracer.spans)
    entries = harness.generate_suite_episodes(config, directory)
    load = host.probed(episodes.load_episode)
    read_s = []
    for obj in entries:
        for entry in entries[obj]:
            if not isinstance(entry, str):
                continue
            r0 = host.clock()
            episode = load(entry)
            sq_err, pixels = 0.0, 0
            for i, frame in enumerate(episode.frames):
                s0 = perf_counter()
                depth, _ = reconstruct.reconstruct_cloud(frame.normals, episode.gel,
                                                         step=i)
                phase.step_s.append(perf_counter() - s0)
                host.pay(phase.step_s[-1])
                mask = frame.depth_gt.mask
                diff = depth.values[mask] - frame.depth_gt.values[mask]
                sq_err += float(diff @ diff)
                pixels += int(mask.sum())
            read_s.append(host.clock() - r0)
            phase.frames += len(episode.frames)
            phase.depth_sq_err += sq_err
            phase.depth_pixels += pixels
            rmse = math.sqrt(sq_err / max(pixels, 1))
            if not rmse <= DEPTH_RMSE_LIMIT_MM:
                out.fail(f"{entry}: depth RMSE {rmse:.4f} mm")
    new = tracer.spans[spans_before:]
    gens = [s.duration for s in new if s.name == "episodes.generate" and s.error is None]
    saves = [s.duration for s in new if s.name == "episodes.save"]
    phase.episode_s += [g + s + r for g, s, r in zip(gens, saves, read_s)]
    return entries


def _checked_iteration(config, side: Side, out: Outcome) -> float:
    """One iteration in a fresh directory; returns its time, which leaves
    out the checks, the digest, the clean-up and the host probe."""
    directory = _fresh(side.root, "iteration-")
    t0 = side.host.clock()
    entries = _simulate_iteration(config, directory, side, side.phase, out)
    elapsed = side.host.clock() - t0
    _count_generation(out, config, entries)
    digest = _episode_digest(entries)
    if not out.digest:
        out.digest = digest
        out.digest_runs = len(config.objects) * config.episodes_per_object
    elif digest != out.digest:
        out.fail("simulate iterations wrote different episode bytes")
    shutil.rmtree(directory)
    return elapsed


def run_simulate_workload(w: SimulateWorkload, seed: int, seconds: float,
                          trace: bool, workdir: str) -> Outcome:
    out = Outcome("simulate")
    full = Tracer()
    # Set-up: warm-up iterations on one episode per object, so lazy imports
    # and FFT plans are ready before timing.  Their failures count; their
    # frames do not.
    warmup = suite_config(seed, SUITE12.steps, SUITE12.length,
                          w.warmup_episodes_per_object)
    setup = _side(trace, full if trace else Tracer(), out.setup_host, workdir)
    for _ in range(SETUP_REPEATS):
        directory = _fresh(workdir, "warmup-")
        with patched(setup.wrappers):
            t0 = setup.host.clock()
            entries = _simulate_iteration(warmup, directory, setup, Phase(), out)
            out.setup_s.append(setup.host.clock() - t0)
        _count_generation(out, warmup, entries)
        shutil.rmtree(directory)

    config = suite_config(seed, SUITE12.steps, SUITE12.length, w.episodes_per_object)
    sides = _sides(workdir, trace, full, out.host)
    _run_units(sides, seconds, 1, lambda k, side: _checked_iteration(config, side, out))
    out.plain = sides[0].phase
    if trace:
        out.traced = sides[1].phase
        out.tracer = full
        out.traced_wall_s = sum(out.setup_s) + out.traced.wall_s
    return out


def run_workload(w, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    if isinstance(w, TrackingWorkload):
        return run_tracking_workload(w, seed, seconds, trace, workdir)
    return run_simulate_workload(w, seed, seconds, trace, workdir)


# -- metrics -----------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _cells_worse_than_baseline(runs: list) -> int | None:
    """Object x tactile-mode cells whose median translation error exceeds the
    constvel median on the same object; None without constvel runs."""
    by_cell = {}
    for r in runs:
        by_cell.setdefault((r["object"], r["mode"]), []).append(r["trans_err_mm"])
    worse = None
    for (obj, mode), errs in sorted(by_cell.items()):
        base = by_cell.get((obj, BASELINE_MODE))
        if mode == BASELINE_MODE or base is None:
            continue
        worse = (worse or 0) + (_median(errs) > _median(base))
    return worse


def end_to_end(out: Outcome, peak_rss_mb: float) -> dict:
    """name -> {"value", "unit", "n"?, "beyond_p90"?} from the plain run."""
    p = out.plain
    speed = out.host.speed
    # A traced set-up runs under every wrapper and is not probed; its
    # set-up time is scaled by the loop's speed instead.
    setup_speed = out.setup_host.speed if out.setup_host.calls else speed
    # A reconstruct_cloud call in simulate is as short as one probe call, so
    # each sees a single host state, fast or slow, and its p90 falls in the
    # slow moments: it is scaled by the speed at the probe calls' own p90.
    # A tracker step spans many state flips and is scaled by the mean speed.
    step_speed = speed if out.kind == "tracking" else out.host.speed_at(90)
    m = {"setup_s": {"value": _median(out.setup_s) * setup_speed, "unit": "s",
                     "n": len(out.setup_s)},
         "setup_raw_s": {"value": _median(out.setup_s), "unit": "s"},
         "frames_per_s": {"value": p.frames / p.wall_s, "unit": "1/s",
                          "n": p.frames}}
    for name, samples in (("step_ms", p.step_s), ("episode_ms", p.episode_s)):
        lat = latency_summary([1000.0 * s for s in samples])
        m[f"{name}_p50"] = {"value": lat["p50"], "unit": "ms", "n": lat["n"]}
        m[f"{name}_p90"] = {"value": lat["p90"], "unit": "ms", "n": lat["n"],
                            "beyond_p90": lat["beyond_p90"]}
    m["host_speed"] = {"value": speed, "unit": "ratio", "n": out.host.calls}
    m["setup_host_speed"] = {"value": setup_speed, "unit": "ratio",
                             "n": out.setup_host.calls}
    m["frames_per_s_norm"] = {"value": m["frames_per_s"]["value"] / speed, "unit": "1/s"}
    m["step_ms_p90_norm"] = {"value": m["step_ms_p90"]["value"] * step_speed,
                             "unit": "ms"}
    if out.kind == "tracking":
        for name, key, unit in (("trans_err_mm_p50", "trans_err_mm", "mm"),
                                ("rot_err_rad_p50", "rot_err_rad", "rad"),
                                ("rel_trans_err_mm_p50", "rel_trans_err_mm", "mm")):
            m[name] = {"value": _median([r[key] for r in p.runs]), "unit": unit,
                       "n": len(p.runs)}
        worse = _cells_worse_than_baseline(p.runs)
        if worse is not None:
            m["cells_worse_than_constvel"] = {"value": worse, "unit": "count"}
    else:
        m["depth_rmse_mm"] = {"value": math.sqrt(p.depth_sq_err / max(p.depth_pixels, 1)),
                              "unit": "mm", "n": p.depth_pixels}
    m["failed_frac"] = {"value": out.failed / max(out.attempted, 1), "unit": "frac",
                        "n": out.attempted}
    m["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return m


def per_layer(out: Outcome) -> dict:
    """name -> {"value", "unit"} from the traced set-up and traced loop."""
    tracer = out.tracer
    by_name = totals_by_name(tracer.spans)
    layers = self_by_layer(tracer.spans)

    def span(name) -> NameTotals:
        return by_name.get(name, NameTotals())

    def errors(name, kind) -> int:
        return span(name).errors.get(kind, 0)

    icp = span("registration.icp_register")
    added = _added_by_type(tracer)
    useful = added.get("im2im", 0) + added.get("im2patch", 0)
    m = {
        "factors.optimize_calls": (span("factors.optimize").calls, "count"),
        "factors.optimize_s": (span("factors.optimize").total_s, "s"),
        "factors.optimize_self_s": (span("factors.optimize").self_s, "s"),
        "factors.lm_iters": (tracer.total("factors.lm_iters"), "count"),
        "factors.linearize_calls": (span("factors.linearize").calls, "count"),
        "factors.linearize_s": (span("factors.linearize").total_s, "s"),
        "factors.residual_evals": (tracer.total("factors.residual_evals"), "count"),
        "factors.cost_calls": (span("factors.cost").calls, "count"),
        "factors.cost_s": (span("factors.cost").total_s, "s"),
        "factors.graph_factors": (tracer.run_mean("factors.graph_factors"), "count"),
    }
    for kind in FACTOR_TYPES:
        m[f"factors.added.{kind}"] = (added.get(kind, 0), "count")
    m.update({
        "registration.calls": (icp.calls, "count"),
        "registration.s": (icp.total_s, "s"),
        "registration.iters": (tracer.total("registration.iters"), "count"),
        "registration.not_converged": (tracer.total("registration.not_converged"),
                                       "count"),
        "registration.degenerate": (errors("registration.icp_register",
                                           "DegenerateGeometryError"), "count"),
        "registration.no_overlap": (errors("registration.icp_register",
                                           "InsufficientOverlapError"), "count"),
        "registration.useful_frac": (useful / icp.calls if icp.calls else 0.0, "frac"),
        "patchmap.fuse_calls": (span("patchmap.fuse_keyframe").calls, "count"),
        "patchmap.fuse_s": (span("patchmap.fuse_keyframe").total_s, "s"),
        "patchmap.points_final": (tracer.run_mean("patchmap.points_final"), "count"),
        "reconstruct.calls": (span("reconstruct.reconstruct_cloud").calls, "count"),
        "reconstruct.s": (span("reconstruct.reconstruct_cloud").total_s, "s"),
        "reconstruct.points": (tracer.total("reconstruct.points"), "count"),
        "render.calls": (span("render.render_depth").calls, "count"),
        "render.s": (span("render.render_depth").total_s, "s"),
        "episodes.generate_s": (span("episodes.generate").total_s, "s"),
        "episodes.failed": (sum(span("episodes.generate").errors.values()), "count"),
        "imageio.write_s": (span("imageio.write").total_s, "s"),
        "imageio.read_s": (span("imageio.read").total_s, "s"),
        "imageio.bytes_written": (tracer.total("imageio.bytes_written"), "B"),
        "tracker.steps": (span("tracker.step").calls, "count"),
        "tracker.step_s": (span("tracker.step").total_s, "s"),
        "tracker.self_s": (layers.get("tracker", 0.0), "s"),
        "tracker.skipped_registration": (tracer.total("tracker.skipped_registration"),
                                         "count"),
        "harness.run_tracking_s": (span("harness.run_tracking").total_s, "s"),
        "harness.self_s": (layers.get("harness", 0.0), "s"),
        "trace.wall_s": (out.traced_wall_s, "s"),
        "trace.coverage_frac": (sum(layers.values()) / out.traced_wall_s, "frac"),
        "trace.overhead_frac": (statistics.median(
            t / p for t, p in zip(out.traced.unit_s, out.plain.unit_s) if p > 0) - 1.0,
            "frac"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


FACTOR_TYPES = ("vis_prior", "eff_prior", "motion_prior", "const_vel", "im2im",
                "im2patch")


def _added_by_type(tracer: Tracer, run=None) -> dict:
    prefix = "factors.added."
    out = {}
    for (r, name), v in tracer.counts.items():
        if name.startswith(prefix) and (run is None or r == run):
            kind = name[len(prefix):]
            out[kind] = out.get(kind, 0) + v
    return out


def layer_self_times(out: Outcome) -> dict:
    """layer -> self seconds in the traced run, largest first."""
    layers = self_by_layer(out.tracer.spans)
    return dict(sorted(layers.items(), key=lambda kv: -kv[1]))


def cell_table(out: Outcome) -> list:
    """One row per object x mode of the traced loop: median errors and the
    fate of every registration (added, gated, degenerate, no overlap; not
    converged counts returned registrations that hit the iteration cap)."""
    tracer = out.tracer
    icp_by_run = {}
    for s in tracer.spans:
        if s.name == "registration.icp_register":
            icp_by_run.setdefault(s.run, []).append(s.error)
    cells = {}
    for r in out.traced.runs:
        cells.setdefault((r["object"], r["mode"]), []).append(r)
    rows = []
    for (obj, mode), runs in cells.items():
        fates = {"icp": 0, "added": 0, "gated": 0, "degenerate": 0,
                 "no_overlap": 0, "not_converged": 0}
        for r in runs:
            errs = icp_by_run.get(r["trace_id"], [])
            added = _added_by_type(tracer, r["trace_id"])
            fates["icp"] += len(errs)
            fates["degenerate"] += errs.count("DegenerateGeometryError")
            fates["no_overlap"] += errs.count("InsufficientOverlapError")
            fates["added"] += added.get("im2im", 0) + added.get("im2patch", 0)
            fates["not_converged"] += tracer.counts.get((r["trace_id"],
                                                         "registration.not_converged"), 0)
        fates["gated"] = (fates["icp"] - fates["degenerate"] - fates["no_overlap"]
                          - fates["added"])
        rows.append({"object": obj, "mode": mode, "runs": len(runs),
                     "trans_err_mm_p50": _median([r["trans_err_mm"] for r in runs]),
                     "rot_err_rad_p50": _median([r["rot_err_rad"] for r in runs]),
                     "rel_trans_err_mm_p50": _median([r["rel_trans_err_mm"] for r in runs]),
                     **fates})
    return rows

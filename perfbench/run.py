"""tactrack benchmark: one run of one workload, plain or traced.

Run from the repository root:

    python3 perfbench/run.py --workload suite12 --seed 0 --seconds 8 --trace 0

It prints a report, then as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics named
in BENCHMARK.json with `--trace 0`, the per-layer ones with `--trace 1`.
The full record (and, traced, every span) goes to .perfbench/ under the root.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Run BLAS on one thread; must run before numpy is imported.

    The benchmark is one client on one core.  The solver's matrices are too
    small for a second BLAS thread to cut wall time, and its spinning makes
    timings swing with other load on a shared machine.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_threads_in_effect() -> dict:
    """Thread count reported by each OpenBLAS library loaded in-process."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for base, _, names in os.walk(os.path.join(ROOT, "src", "tactrack")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as f:
                    total += sum(1 for _ in f)
    return total


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads_in_effect(),
            "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "src_tactrack_lines": src_lines()}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(args, info: dict, e2e: dict, layers: dict, out, extra: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"{'traced' if args.trace else 'plain'}")
    print("machine " + "  ".join(f"{k}={_fmt(v)}" for k, v in info.items()))
    print(f"outputs digest {out.digest} over {out.digest_runs} "
          f"{'runs' if out.kind == 'tracking' else 'episodes'}")
    print(f"attempted {out.attempted}  failed {out.failed}")
    for message in out.failures[:20]:
        print(f"  FAILED {message}")
    print("end-to-end" + (" (plain copies of the traced runs)" if args.trace else ""))
    for name, m in e2e.items():
        count = ""
        if "n" in m:
            count = f"n={m['n']}"
        if "beyond_p90" in m:
            thin = "" if m["beyond_p90"] >= 10 else " (fewer than 10 beyond p90)"
            count += f" beyond_p90={m['beyond_p90']}{thin}"
        print(f"  {name:<28} {_fmt(m['value']):>14} {m['unit']:<6} {count}")
    if not layers:
        return
    print("per-layer (traced)")
    for name, m in layers.items():
        print(f"  {name:<32} {_fmt(m['value']):>14} {m['unit']}")
    print("self time by layer (s)")
    for layer, seconds in extra["layer_self_s"].items():
        print(f"  {layer:<14} {seconds:10.4f}")
    if extra["cells"]:
        print("object x mode (traced loop): median errors and registration fates")
        cols = ("runs", "trans_err_mm_p50", "rot_err_rad_p50", "rel_trans_err_mm_p50",
                "icp", "added", "gated", "degenerate", "no_overlap", "not_converged")
        print(f"  {'object':<8} {'mode':<11} " + " ".join(f"{c:>10.10}" for c in cols))
        for row in extra["cells"]:
            print(f"  {row['object']:<8} {row['mode']:<11} "
                  + " ".join(f"{_fmt(row[c]):>10}" for c in cols))


def spans_json(tracer) -> list:
    return [[s.name, s.start, s.end, s.parent, s.run, s.error] for s in tracer.spans]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    pin_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as err:
        print(f"cannot import tactrack from {ROOT}/src: {err}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        out = workloads.run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                     args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = machine()
    e2e = workloads.end_to_end(out, peak_rss_mb)
    layers, extra = {}, {}
    if args.trace:
        layers = workloads.per_layer(out)
        extra = {"layer_self_s": workloads.layer_self_times(out),
                 "cells": workloads.cell_table(out) if out.kind == "tracking" else []}
    print_report(args, info, e2e, layers, out, extra)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "end_to_end": e2e,
              "per_layer": layers, "attempted": out.attempted, "failed": out.failed,
              "failures": out.failures, "digest": out.digest, **extra}
    if args.trace:
        record["spans"] = spans_json(out.tracer)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)
    print(json.dumps({"correct": out.failed == 0 and out.attempted > 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tiny runs of every workload, and the command-line contract."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import workloads
from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

TINY = {
    "suite12": dict(steps=4, length=0.6, episodes_per_object=1),
    "long24": dict(steps=5, length=0.8, episodes_per_object=1),
    "simulate": dict(episodes_per_object=1),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run(name, tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    out = workloads.run_workload(w, seed=0, seconds=0.0, trace=True,
                                 workdir=str(tmp_path))
    assert out.failed == 0, out.failures
    assert out.attempted > 0 and out.digest
    e2e = workloads.end_to_end(out, peak_rss_mb=1.0)
    layers = workloads.per_layer(out)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    assert {m["name"] for m in SPEC["per_layer"]} == set(layers)
    assert e2e["failed_frac"]["value"] == 0.0
    assert len(out.traced.unit_s) == len(out.plain.unit_s)
    if name == "simulate":
        assert "depth_rmse_mm" in e2e
        assert all(layers[k]["value"] == 0 for k in layers
                   if k.startswith(("factors.", "registration.")))
    else:
        assert layers["tracker.steps"]["value"] == out.traced.frames
        rows = workloads.cell_table(out)
        assert {(r["object"], r["mode"]) for r in rows} == {
            (o, m) for o in ("sphere", "cube", "pyramid") for m in w.modes}
        for r in rows:
            assert r["gated"] >= 0
            assert r["icp"] == (r["added"] + r["gated"] + r["degenerate"]
                                + r["no_overlap"])
    assert 0.9 <= layers["trace.coverage_frac"]["value"] <= 1.0


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


def test_cli_prints_contract_line():
    proc = run_cli(ROOT, "--workload", "simulate", "--seed", "1", "--seconds", "0.2",
                   "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", "suite12", "--seed", "0", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_probe_pays_its_share_outside_the_clock():
    probe = workloads.HostProbe()
    probe.pay(0.0)
    assert probe.calls == 0
    start = probe.clock()
    assert probe.probed(time.sleep)(0.2) is None
    assert probe.calls >= 1
    assert probe.seconds >= workloads.REFERENCE_DUTY * 0.2
    assert 0.2 <= probe.clock() - start < 0.2 + probe.seconds
    assert probe.speed == pytest.approx(
        workloads.REFERENCE_S * probe.calls / probe.seconds)
    assert probe.speed_at(100) == pytest.approx(
        workloads.REFERENCE_S / max(probe.durations))
    idle = workloads.HostProbe(duty=0.0)
    idle.pay(1.0)
    assert idle.calls == 0

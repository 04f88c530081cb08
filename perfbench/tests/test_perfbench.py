"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import collections
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_unit_and_count(trace, section):
    proc = run_bench("--workload", "grid", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(ln.startswith(f"  {name} = ") and f" {unit} (n=" in ln for ln in lines), name
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_dropped_root_is_a_failure():
    cfg = workloads.kernel.SolitonConfig.make(1, 5, "minus")
    snap = workloads.Snapshot(cfg, "F", 0.0, ((1j, 4), (-1j, 4)))
    poly = workloads.exppoly.build_F_poly(cfg)
    roots = workloads.exppoly.roots_at_time(poly, 0.0)
    assert workloads.check_snapshot(snap, poly, roots) == []
    dropped = dataclasses.replace(roots, roots=roots.roots[1:])
    problems = workloads.check_snapshot(snap, poly, dropped)
    assert problems and not any(p.known for p in problems)


def test_corrupted_line_value_is_a_failure():
    line = workloads.Line(workloads.kernel.SolitonConfig.make(1, 2, "plus"), 0.4, 0.3)
    values = [workloads.kernel.eval_u(line.cfg, x, line.t) for x in line.xs()]
    refs = workloads.sumform_line(line)
    assert workloads.check_line(line, values, refs) == []
    values[2000] *= 1 + 1e-9
    assert workloads.check_line(line, values, refs)


@pytest.fixture(scope="module")
def track():
    return workloads.build("track", 7)


def test_track_baseline_shows_the_known_merges(track):
    m = worker.Measurement()
    worker.run_pass(track, m)
    assert m.attempted == 36
    assert m.failed == 6  # 2 of 12 curves for (1,5)-, 4 of 18 for (2,7)+
    assert m.unexpected == 0
    # A second pass re-times the same ops: the counts must not depend on
    # how many passes fit in a run.
    worker.run_pass(track, m)
    assert (len(m.pass_s), m.attempted, m.failed, m.unexpected) == (2, 36, 6, 0)


def test_run_phase_times_every_op_and_restores_the_cpus(track):
    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    m = worker.run_phase(track, 1.5)
    # The last pass may stop part-way: every op is timed once per whole pass,
    # plus at most once more.
    counts = collections.Counter(m.op_index)
    assert set(counts) == set(range(len(track.ops)))
    assert max(counts.values()) - min(counts.values()) <= 1
    assert (m.attempted, m.failed, m.unexpected) == (36, 6, 0)
    if before is not None:
        assert os.sched_getaffinity(0) == before


def test_perturbed_endpoint_raises_fail_frac(track):
    baseline = worker.Measurement()
    worker.run_pass(track, baseline)
    idx = next(i for i, op in enumerate(track.ops) if op.label == "c12p")
    original = track.ops[idx].run

    def perturbed():
        curve = original()
        t, x = curve.samples[-1]
        curve.samples[-1] = (t, x + 1e-6)
        return curve

    corrupted = dataclasses.replace(track, ops=list(track.ops))
    corrupted.ops[idx] = dataclasses.replace(track.ops[idx], run=perturbed)
    m = worker.Measurement()
    worker.run_pass(corrupted, m)
    assert m.failed / m.attempted > baseline.failed / baseline.attempted
    assert m.unexpected == 1


def test_extra_merge_beyond_the_known_ones_is_unexpected(track):
    outputs = [op.run() for op in track.ops]
    baseline = track.check_pass(outputs)
    c15m = [i for i, op in enumerate(track.ops) if op.label == "c15m" and i not in baseline]
    first, second = c15m[:2]
    outputs[second] = dataclasses.replace(outputs[second], samples=list(outputs[first].samples))
    problems = track.check_pass(outputs)
    flagged = [p for i, items in problems.items() if track.ops[i].label == "c15m" for p in items]
    assert len(flagged) == 3
    assert sum(not p.known for p in flagged) == 1


def test_traced_spans_nest():
    wl = workloads.build("grid", 5)
    tr = tracer.Tracer()
    tr.install()
    try:
        # Wrapped where defined and where imported by another module.
        assert hasattr(workloads.kernel.eval_u, "__wrapped__")
        assert hasattr(workloads.blowup.track_curve, "__wrapped__")
        tr.on = True
        m = worker.Measurement()
        worker.run_pass(wl, m, tr)
        tr.on = False
    finally:
        tr.uninstall()
    assert not hasattr(workloads.kernel.eval_u, "__wrapped__")
    a = tr.arrays()
    parent, dur = a["span_parent"], a["span_end"] - a["span_start"]
    assert (parent < np.arange(len(parent))).all()
    assert (dur >= 0).all()
    assert tracer.self_times(parent, dur).min() >= -1e-12
    top = parent < 0
    assert dur[top].sum() <= sum(m.pass_s)
    names = a["names"][a["span_name"]]
    assert set(names[top]) == {"op.grid"}
    # eval_u's calls to F_scaled, bound in kernel's own namespace, nest under it.
    f_parents = names[parent[(names == "kernel.F_scaled") & (parent >= 0)]]
    assert "kernel.eval_u" in set(f_parents)
    layers = tracer.layer_metrics(tr, len(m.pass_s), workloads.exppoly.MAX_ITER)
    assert {name for name, _ in tracer.LAYER_METRICS} == set(layers)
    assert layers["kernel.self_s"][0] > 0 and layers["blowup.evals_per_profile"][0] > 0

"""Self-test of the benchmark: ``python3 -m pytest perfbench``.

Runs every workload briefly in both modes and checks that each metric named
in BENCHMARK.json is printed with its unit and that no op fails; shows that
a result nudged by 1e-9 is caught; and that the benchmark refuses to run
without the library sources.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE)]

import worker  # noqa: E402

worker.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
import coarse_bounds.acts as acts  # noqa: E402
import coarse_bounds.engine as engine  # noqa: E402
import coarse_bounds.preferences as preferences  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_no_failures(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert list(final["metrics"]) == [s["name"] for s in specs]
    for s in specs:
        assert final["metrics"][s["name"]]["unit"] == s["unit"]
        pattern = rf"^{re.escape(s['name'])} = \S+ {re.escape(s['unit'])}(\s|$)"
        assert any(re.match(pattern, line) for line in lines), s["name"]
    assert final["failed"] == 0 and final["correct"], [l for l in lines if l.startswith("FAILED")]
    assert final["attempted"] >= 1
    if not trace:
        assert any(re.match(r"^fail_ratio = 0 1 ", line) for line in lines)
    else:
        assert final["metrics"]["learning.resample_cache_hit_ratio"]["value"] == 0
        if workload == "bootstrap":
            assert final["metrics"]["engine.calls"]["value"] == 0


def _nudged(fn):
    def bound(*args, **kwargs):
        res = fn(*args, **kwargs)
        return dataclasses.replace(res, value=res.value + 1e-9)

    return bound


@pytest.mark.parametrize("workload", ["large-ladders", "small-exact"])
def test_nudged_bound_value_is_caught(workload):
    ops = workloads.WORKLOADS[workload](3).cycle(workloads.TIMED, 0)[:6]
    clean = worker.Runner()
    clean.run(ops)
    assert clean.failures == []

    ops = workloads.WORKLOADS[workload](3).cycle(workloads.TIMED, 0)[:6]
    patcher = tracing.Patcher()
    patcher.replace_function(engine.bound, _nudged(engine.bound))
    try:
        corrupted = worker.Runner()
        corrupted.run(ops)
    finally:
        patcher.restore()
    assert len(corrupted.failures) / len(corrupted.records) > 0


def test_op_times_scale_with_the_probes_around_them():
    ref = worker.PROBE_REF_S
    scaled = worker.normalised([0.01] * 40, [ref] * 20 + [4 * ref] * 20, 0.5)
    assert scaled[0] == pytest.approx(0.01) and scaled[-1] == pytest.approx(0.005)


def test_trace_wrappers_patch_every_binding_and_keep_classes():
    original_bound = engine.bound
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert preferences.bound is engine.bound is not original_bound
        tracer.begin_op(0)
        ladder = acts.ValueLadder([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        res = engine.bound(ladder, 2, "lower")
        tracer.end_op(0.0, 1.0)
        assert isinstance(ladder, acts.ValueLadder)
        assert res.value == original_bound(ladder, 2, "lower").value
    finally:
        tracer.uninstall()
    assert engine.bound is original_bound and preferences.bound is original_bound
    names = [tracer.names[i] for i in tracer.arrays()["name"]]
    assert names == ["acts.ValueLadder", "engine.bound", "engine._dp_solve", "engine.blocks_from_cuts"]
    stats = tracing.analyse(tracer, [None])
    assert stats["engine.bound.calls.lt40"] == 1 and stats["engine.levels_solved"] == 3
    assert stats["acts.ladders_built"] == 1


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "bootstrap", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

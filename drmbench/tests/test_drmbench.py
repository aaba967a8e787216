"""Tests of the benchmark itself: generator determinism, the output checks,
the span arithmetic, and agreement of every printed metric with BENCHMARK.json.

Run from the repository root: ``python3 -m pytest -q drmbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

# drmbench.run pins the BLAS threads of its own process on import; benchmark
# runs started from here get the environment as it was before.
ENV = dict(os.environ)
ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from drmbench import bundlefmt, checks, tracing  # noqa: E402
from drmbench.run import END_TO_END_UNITS, PER_LAYER_UNITS, tail_percentile  # noqa: E402
from drmbench.workloads import WORKLOADS, Inputs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture()
def work():
    path = ROOT / ".drmbench" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _file_bytes(inputs: Inputs) -> list[bytes]:
    return [p.read_bytes() for p in inputs.files()]


@pytest.mark.parametrize("name", ["drmh-block", "drmv-lora"])
def test_generator_is_deterministic_in_its_seed(work, name):
    wl = WORKLOADS[name]
    first = _file_bytes(wl.generate(3, work / "a"))
    assert first == _file_bytes(wl.generate(3, work / "b"))
    assert first != _file_bytes(wl.generate(4, work / "c"))


def test_bundle_format_round_trips(work):
    tensors = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(3)}
    bundlefmt.write(work / "x.drmb", tensors, {"k": "v"})
    back, meta = bundlefmt.read(work / "x.drmb")
    assert meta == {"k": "v"} and list(back) == ["w", "b"]
    assert all(np.array_equal(back[k], v) and back[k].dtype == v.dtype
               for k, v in tensors.items())


@pytest.fixture()
def tiny_merge(work):
    """A small drm-h merge through the real CLI, with its Inputs and summary."""
    from drm import cli

    rng = np.random.default_rng(5)
    base = {"w": rng.standard_normal((12, 10)), "b": rng.standard_normal(12)}
    tasks = [{k: v + 0.1 * rng.standard_normal(v.shape) for k, v in base.items()}
             for _ in range(3)]
    base_path = work / "base.drmb"
    bundlefmt.write(base_path, base)
    task_paths = []
    for t, task in enumerate(tasks):
        task_paths.append(work / f"t{t}.drmb")
        bundlefmt.write(task_paths[-1], task)
    out = work / "merged.drmb"
    argv = ["merge", "--method", "drm-h", "--base", str(base_path), "--out", str(out)]
    for p in task_paths:
        argv += ["--task", str(p)]
    inputs = Inputs(argv, out, base_path, task_paths, expect={"rank": {"w": 12}})
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return inputs, buf.getvalue()


def _check(inputs, stdout, reference=None):
    return checks.check_merge(inputs, stdout, "drm-h", "tiny", checks.DEFAULT_SEED, reference)


def test_check_accepts_the_real_output(tiny_merge):
    inputs, stdout = tiny_merge
    errors, prints = _check(inputs, stdout)
    assert errors == []
    assert _check(inputs, stdout, {"tiny": prints})[0] == []


def test_check_rejects_one_perturbed_tensor(tiny_merge):
    inputs, stdout = tiny_merge
    _, prints = _check(inputs, stdout)
    merged, meta = bundlefmt.read(inputs.out)
    tensors = {k: np.array(v) for k, v in merged.items()}
    tensors["w"][3, 4] += 1e-3
    bundlefmt.write(inputs.out, tensors, meta)
    errors, _ = _check(inputs, stdout, {"tiny": prints})
    assert errors and all(e.startswith("w:") for e in errors)


def test_check_rejects_a_perturbed_bias_at_any_seed(tiny_merge):
    inputs, stdout = tiny_merge
    merged, meta = bundlefmt.read(inputs.out)
    tensors = {k: np.array(v) for k, v in merged.items()}
    tensors["b"][0] += 1e-9
    bundlefmt.write(inputs.out, tensors, meta)
    errors, _ = checks.check_merge(inputs, stdout, "drm-h", "tiny", 12345, None)
    assert errors == ["b: bias is not base + mean task delta"]


def test_check_rejects_a_wrong_rank_in_the_summary(tiny_merge):
    inputs, stdout = tiny_merge
    assert "rank=12" in stdout
    errors, _ = _check(inputs, stdout.replace("rank=12", "rank=11"))
    assert errors == ["w: summary rank=11, expected 12"]


def test_check_rejects_a_wrong_kept_count(tiny_merge):
    inputs, stdout = tiny_merge
    row = checks.parse_summary(stdout)["w"]
    kept, total = (int(x) for x in row["kept"].split("/"))
    errors, _ = _check(inputs, stdout.replace(f"kept={kept}/", f"kept={kept + 1}/"))
    assert errors == [f"w: kept={kept + 1}/{total} is not ceil(0.2*total)"]


def test_dare_check_rejects_an_entry_outside_the_task_deltas():
    rng = np.random.default_rng(1)
    task_deltas = rng.standard_normal((4, 64, 64))
    keep = rng.random(task_deltas.shape) >= 0.8
    dropped = np.where(keep, task_deltas / 0.2, 0.0)
    signs = np.where(dropped.sum(axis=0) < 0, -1.0, 1.0)
    agree = np.where(dropped * signs > 0, dropped, 0.0)
    counts = (agree != 0).sum(axis=0)
    delta = np.divide(agree.sum(axis=0), counts, out=np.zeros((64, 64)), where=counts > 0)
    ulp = np.spacing(np.abs(delta))
    assert checks._check_dare("w", delta, task_deltas, 0.8, ulp) == []
    delta[0, 0] = 10 * np.abs(task_deltas[:, 0, 0]).max() / 0.2
    assert "1 entries outside" in checks._check_dare("w", delta, task_deltas, 0.8, ulp)[0]


def _span(sid, name, start, end, parent, thread=1, **extra):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, **extra}


def test_self_time_subtracts_covered_time_once():
    spans = [
        _span(0, tracing.ROOT, 0.0, 10.0, None),
        _span(1, "engine.merge_bundle", 1.0, 9.0, 0, alloc_bytes=0),
        _span(2, tracing.LAYER, 2.0, 6.0, 1, thread=2),
        _span(3, tracing.LAYER, 3.0, 8.0, 1, thread=3),
    ]
    tree = tracing.SpanTree(spans)
    assert tree.self_time(spans[1]) == pytest.approx(2.0)  # 8 s minus the union 2..8
    assert tree.blocking_path_s() == pytest.approx(10.0)
    metrics = tracing.summarize(spans)
    assert metrics["engine.layer_busy_s"] == pytest.approx(9.0)
    assert metrics["engine.layer_concurrency"] == pytest.approx(9.0 / 8.0)
    assert metrics["linalg.svd_calls"] == 0


def test_blocking_path_exposes_a_child_outside_its_parent():
    spans = [_span(0, tracing.ROOT, 0.0, 10.0, None),
             _span(1, "bundle.read", 1.0, 4.0, 0),
             _span(2, "bundle.write", 3.0, 5.0, 0)]
    assert tracing.SpanTree(spans).blocking_path_s() != pytest.approx(10.0)


def test_missing_target_is_none_not_zero():
    spans = [_span(0, tracing.ROOT, 0.0, 1.0, None)]
    metrics = tracing.blank_missing(tracing.summarize(spans), ["drm.engine.thin_svd"])
    assert metrics["linalg.svd_calls"] is None and metrics["engine.decompose_self_s"] is None
    assert metrics["bundle.read_s"] == 0


def test_tracer_reports_a_vanished_target(monkeypatch):
    import tracemalloc

    import drm.engine

    monkeypatch.setattr(tracing, "TARGETS", (("drm.engine", "no_such_kernel", "engine.prune"),
                                             ("drm.engine", "elect_signs", "engine.elect")))
    # Registered first, so teardown puts the unwrapped function back.
    monkeypatch.setattr(drm.engine, "elect_signs", drm.engine.elect_signs)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == ["drm.engine.no_such_kernel"]
        drm.engine.elect_signs([np.ones((2, 2))])
        assert [s["name"] for s in tracer.spans] == ["engine.elect"]
    finally:
        tracemalloc.stop()


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([1.0] * 10) is None
    p, _ = tail_percentile(list(range(20)))
    assert p == 50
    p, _ = tail_percentile(list(range(1000)))
    assert p == 99


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    from_spans = set(tracing.summarize([_span(0, tracing.ROOT, 0.0, 1.0, None)]))
    extra = {"engine.serial_run_s", "proc.cpu_s", "proc.cpu_util", "trace.overhead_s"}
    assert from_spans | extra == set(PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, "drmbench/run.py", "--workload", "tune-grid", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table}
    if trace:
        assert result["metrics"]["linalg.svd_calls"]["value"] == 80
        assert result["metrics"]["harness.grid_points"]["value"] == 80

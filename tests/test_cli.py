import ast
import importlib
import importlib.util
import json
import os
import resource
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import drm.bundle
import drm.cli
import drm.harness
from drm.bundle import TensorBundle, read_bundle, write_bundle
from drm.cli import MAX_GRID_POINTS, _parse_grid, main
from drm.engine import MergeConfig


@pytest.fixture()
def family(tmp_path):
    rng = np.random.default_rng(101)
    shapes = {"enc.w": (6, 5), "dec.w": (4, 6), "enc.b": (6,)}
    base = TensorBundle()
    for name, shape in shapes.items():
        base.add(name, rng.standard_normal(shape))
    base_path = tmp_path / "base.drmb"
    write_bundle(base, base_path)
    task_paths = []
    for t in range(3):
        task = TensorBundle()
        for name, shape in shapes.items():
            task.add(name, base[name] + 0.1 * rng.standard_normal(shape))
        path = tmp_path / f"task{t}.drmb"
        write_bundle(task, path)
        task_paths.append(str(path))
    return str(base_path), task_paths, tmp_path


def run_merge(base, tasks, out, *extra):
    argv = ["merge", "--base", base, "--out", str(out)]
    for t in tasks:
        argv += ["--task", t]
    return main(argv + list(extra))


class TestMerge:
    def test_drm_h_defaults_recorded(self, family, capsys):
        base, tasks, tmp = family
        out = tmp / "merged.drmb"
        assert run_merge(base, tasks, out, "--method", "drm-h") == 0
        merged = read_bundle(out)
        cfg = json.loads(merged.metadata["merge.config"])
        assert cfg["retain"] == 0.2
        assert json.loads(merged.metadata["merge.lambdas"]) == [1.0, 1.0, 1.0]
        assert merged.metadata["merge.method"] == "drm_h"
        stdout = capsys.readouterr().out
        assert "enc.w" in stdout and "rank=" in stdout

    @pytest.mark.parametrize("name", sorted(drm.cli._CLI_METHODS))
    def test_bare_merge_parses_to_the_default_config(self, name):
        args = drm.cli.build_parser().parse_args(
            ["merge", "--method", name, "--base", "b", "--task", "t", "--out", "o"]
        )
        method = drm.cli._CLI_METHODS[name]
        assert drm.cli._config_from_args(args, 1) == MergeConfig(method=method)

    def test_ta_default_lambda(self, family):
        base, tasks, tmp = family
        out = tmp / "ta.drmb"
        assert run_merge(base, tasks, out, "--method", "ta") == 0
        merged = read_bundle(out)
        assert json.loads(merged.metadata["merge.config"])["method"] == "task_arithmetic"
        assert json.loads(merged.metadata["merge.lambdas"]) == [0.4, 0.4, 0.4]

    def test_identity_pipeline_single_task(self, family):
        base, tasks, tmp = family
        out = tmp / "solo.drmb"
        code = run_merge(
            base, tasks[:1], out, "--method", "drm-h",
            "--no-prune", "--no-sign-elect", "--retain", "1.0", "--lambda", "1.0",
        )
        assert code == 0
        merged = read_bundle(out)
        task = read_bundle(tasks[0])
        for name in task.names():
            np.testing.assert_allclose(merged[name], task[name], atol=1e-8)

    def test_missing_base_file_is_io_error(self, family):
        _, tasks, tmp = family
        assert run_merge(str(tmp / "nope.drmb"), tasks, tmp / "x.drmb",
                         "--method", "avg") == 3

    def test_overlapping_tensor_spans_is_io_error(self, family, capsys):
        _, tasks, tmp = family
        header = json.dumps({"tensors": [
            {"name": "a.w", "dtype": "f64", "shape": [2, 2], "offset": 0, "nbytes": 32},
            {"name": "b.w", "dtype": "f64", "shape": [2, 2], "offset": 0, "nbytes": 32},
        ]}).encode("utf-8")
        base = tmp / "overlap.drmb"
        base.write_bytes(b"DRMB" + struct.pack("<IQ", 1, len(header)) + header + bytes(32))
        assert run_merge(str(base), tasks, tmp / "out.drmb", "--method", "avg") == 3
        assert "overlap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["merge", "analyze"])
    def test_boolean_shape_entry_is_io_error(self, tmp_path, capsys, command):
        header = json.dumps({"tensors": [
            {"name": "a.w", "dtype": "f64", "shape": [True, 2], "offset": 0, "nbytes": 16},
        ]}).encode("utf-8")
        base = tmp_path / "bool.drmb"
        base.write_bytes(b"DRMB" + struct.pack("<IQ", 1, len(header)) + header + bytes(16))
        out = tmp_path / "out"
        # The file is its own task, so the inputs agree and only a read of
        # the tensor would find the bad shape.
        if command == "merge":
            code = run_merge(str(base), [str(base)], out, "--method", "avg")
        else:
            code = main(["analyze", "spectrum", "--base", str(base), "--task", str(base),
                         "--out", str(out)])
        assert code == 3
        assert "'a.w'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_non_finite_task_tensor_is_io_error(self, tmp_path, capsys, monkeypatch, threads):
        # The NaN sits in the last matrix layer of the second task, so the
        # merge must reject it however far it has got.
        monkeypatch.setenv("DRM_THREADS", threads)
        rng = np.random.default_rng(17)
        shapes = {"L0.w": (5, 4), "L0.b": (5,), "L1.w": (4, 5), "L2.w": (3, 4)}
        base = TensorBundle({name: rng.standard_normal(s) for name, s in shapes.items()})
        write_bundle(base, tmp_path / "base.drmb")
        task = TensorBundle({name: arr + 0.1 for name, arr in base.items()})
        write_bundle(task, tmp_path / "good.drmb")

        # Assembled by hand: TensorBundle refuses to hold a NaN.
        records, data = [], b""
        for name, arr in task.items():
            values = arr.copy()
            if name == "L2.w":
                values[-1, -1] = np.nan
            records.append({"name": name, "dtype": "f64", "shape": list(values.shape),
                            "offset": len(data), "nbytes": values.nbytes})
            data += values.astype("<f8").tobytes()
        header = json.dumps({"tensors": records, "metadata": {}}).encode("utf-8")
        bad = tmp_path / "bad.drmb"
        bad.write_bytes(b"DRMB" + struct.pack("<IQ", 1, len(header)) + header + data)

        before = sorted(p.name for p in tmp_path.iterdir())
        out = tmp_path / "merged.drmb"
        code = run_merge(str(tmp_path / "base.drmb"), [str(tmp_path / "good.drmb"), str(bad)],
                         out, "--method", "ties")
        assert code == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "'L2.w'" in err and "NaN" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_bad_retain_is_argument_error(self, family):
        base, tasks, tmp = family
        assert run_merge(base, tasks, tmp / "x.drmb", "--method", "ties",
                         "--retain", "1.5") == 2

    def test_unknown_method_rejected_by_parser(self, family):
        base, tasks, tmp = family
        assert run_merge(base, tasks, tmp / "x.drmb", "--method", "fisher") == 2

    def test_per_task_lambda_list(self, family):
        base, tasks, tmp = family
        out = tmp / "per.drmb"
        assert run_merge(base, tasks, out, "--method", "ta",
                         "--lambda", "0.1,0.2,0.3") == 0
        cfg = json.loads(read_bundle(out).metadata["merge.config"])
        assert cfg["lambdas"] == [0.1, 0.2, 0.3]

    def test_lambda_count_mismatch(self, family):
        base, tasks, tmp = family
        assert run_merge(base, tasks, tmp / "x.drmb", "--method", "ta",
                         "--lambda", "0.1,0.2") == 2

    @pytest.mark.parametrize("threads", ["abc", "-1", "1.5"])
    def test_malformed_drm_threads_is_argument_error(self, family, capsys, monkeypatch,
                                                     threads):
        monkeypatch.setenv("DRM_THREADS", threads)
        base, tasks, tmp = family
        out = tmp / "x.drmb"
        assert run_merge(base, tasks, out, "--method", "ties") == 2
        assert f"DRM_THREADS must be a non-negative integer, got {threads!r}" in (
            capsys.readouterr().err
        )
        assert not out.exists()
        # drm analyze walks its layers through the same pool.
        report = tmp / "r.json"
        argv = ["analyze", "spectrum", "--base", base, "--out", str(report)]
        assert main(argv + [arg for t in tasks for arg in ("--task", t)]) == 2
        assert f"got {threads!r}" in capsys.readouterr().err
        assert not report.exists()

    def test_zero_drm_threads_merges_on_every_core(self, family, monkeypatch):
        base, tasks, tmp = family
        monkeypatch.setenv("DRM_THREADS", "1")
        assert run_merge(base, tasks, tmp / "serial.drmb", "--method", "ties") == 0
        monkeypatch.setenv("DRM_THREADS", "0")
        assert run_merge(base, tasks, tmp / "auto.drmb", "--method", "ties") == 0
        assert (tmp / "auto.drmb").read_bytes() == (tmp / "serial.drmb").read_bytes()

    def test_dare_seeded_reproducible(self, family):
        base, tasks, tmp = family
        out1, out2 = tmp / "d1.drmb", tmp / "d2.drmb"
        run_merge(base, tasks, out1, "--method", "dare-ties", "--seed", "11")
        run_merge(base, tasks, out2, "--method", "dare-ties", "--seed", "11")
        assert (tmp / "d1.drmb").read_bytes() == (tmp / "d2.drmb").read_bytes()

    def test_float32_cast_overflow_is_numeric_error(self, tmp_path, capsys):
        # Two tasks at 3e38 sum past float32's largest finite value.
        shape = (4, 3)
        base = TensorBundle({"w": np.zeros(shape, dtype=np.float32)})
        write_bundle(base, tmp_path / "base.drmb")
        tasks = []
        for t in range(2):
            path = tmp_path / f"task{t}.drmb"
            write_bundle(TensorBundle({"w": np.full(shape, 3e38, dtype=np.float32)}), path)
            tasks.append(str(path))
        out = tmp_path / "merged.drmb"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_merge(str(tmp_path / "base.drmb"), tasks, out,
                             "--method", "ta", "--lambda", "1")
        assert code == 4
        err = capsys.readouterr().err
        assert "'w'" in err and "float32" in err
        assert not out.exists()

    def test_failed_write_keeps_previous_out(self, family, monkeypatch):
        base, tasks, tmp = family
        out = tmp / "merged.drmb"
        out.write_bytes(b"previous contents")
        fail_nth_write(monkeypatch, 3)
        before = sorted(p.name for p in tmp.iterdir())
        assert run_merge(base, tasks, out, "--method", "avg") == 3
        assert out.read_bytes() == b"previous contents"
        assert sorted(p.name for p in tmp.iterdir()) == before


def fail_nth_write(monkeypatch, n):
    """Make the ``n``-th write to a file that ``drm.bundle`` opens for
    writing put down half its bytes and then fail as a full disk would."""
    real_open = open

    class FailMidway:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes == n:
                data = bytes(data)
                self.fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    def open_failing_writes(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return fh if "r" in mode else FailMidway(fh)

    monkeypatch.setattr(drm.bundle, "open", open_failing_writes, raising=False)


@pytest.mark.parametrize("command", ["analyze", "tune"])
def test_failed_json_write_keeps_previous_out(family, monkeypatch, capsys, command):
    # --out is replaced only by a complete report: a write that fails
    # midway exits 3 and leaves the previous file and no temporary behind.
    base, tasks, tmp = family
    if command == "analyze":
        argv = ["analyze", "svd-bound", "--base", base]
        for task in tasks:
            argv += ["--task", task]
    else:
        argv = ["tune", "--method", "ties", "--grid-retain", "0.5", "--grid-lambda", "1.0",
                "--tasks", "2", "--dim", "5,4", "--samples", "40"]
    out = tmp / "report.json"
    previous = b'{"previous":true}\n'
    out.write_bytes(previous)
    fail_nth_write(monkeypatch, 1)
    before = sorted(p.name for p in tmp.iterdir())
    assert main(argv + ["--out", str(out)]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == previous
    assert sorted(p.name for p in tmp.iterdir()) == before


class TestMergeInputs:
    def test_out_may_name_the_base(self, family):
        # --out replaces the base file only after every input was read.
        base, tasks, tmp = family
        fresh = tmp / "fresh.drmb"
        assert run_merge(base, tasks, fresh, "--method", "drm-h") == 0
        assert run_merge(base, tasks, base, "--method", "drm-h") == 0
        assert (tmp / "base.drmb").read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("method", ["drm-h", "ties", "dare-ties"])
    def test_inputs_are_read_per_layer(self, tmp_path, monkeypatch, capsys, method):
        # Holding the 5 input files would alone cost 40 units (one layer's
        # float64 deltas), whatever the worker count; a drm-h layer in
        # flight takes up to about 7.5.
        n_layers, n_tasks, shape, workers = 64, 4, (64, 48), 2
        rng = np.random.default_rng(23)
        base = TensorBundle({
            f"L{i}.w": rng.standard_normal(shape).astype(np.float32) for i in range(n_layers)
        })
        write_bundle(base, tmp_path / "base.drmb")
        task_paths = []
        for t in range(n_tasks):
            task = TensorBundle({
                name: arr + 0.01 * rng.standard_normal(shape).astype(np.float32)
                for name, arr in base.items()
            })
            task_paths.append(str(tmp_path / f"task{t}.drmb"))
            write_bundle(task, task_paths[-1])
        del base, task

        unit = n_tasks * shape[0] * shape[1] * 8  # one layer's float64 deltas
        monkeypatch.setenv("DRM_THREADS", str(workers))
        out = tmp_path / "merged.drmb"
        tracemalloc.start()
        try:
            code = run_merge(str(tmp_path / "base.drmb"), task_paths, out, "--method", method)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        capsys.readouterr()
        output = sum(arr.nbytes for _, arr in read_bundle(out).items())
        assert peak - output < workers * 12 * unit


class TestAnalyze:
    def test_sign_agreement_one_task_exit_2(self, family, capsys):
        base, tasks, tmp = family
        code = main([
            "analyze", "sign-agreement", "--base", base, "--task", tasks[0],
            "--out", str(tmp / "r.json"),
        ])
        assert code == 2
        # Raised inside the first matrix layer's analysis, which it names.
        assert "layer 'enc.w': sign agreement needs at least two tasks" in capsys.readouterr().err

    @pytest.mark.parametrize("space", ["original", "decomposed-v"])
    @pytest.mark.parametrize("kind", ["prune-density", "sign-agreement", "svd-bound", "spectrum"])
    def test_bytes_do_not_depend_on_threads(self, family, capsys, monkeypatch, kind, space):
        # DRM_THREADS=2 analyzes the family's two matrix layers in a pool
        # of two workers; the report and the tables keep their bytes.
        base, tasks, tmp = family
        argv = ["analyze", kind, "--base", base, "--space", space]
        for t in tasks:
            argv += ["--task", t]
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda self: started.append(self.name) or real_start(self)
        )
        outputs = {}
        for threads in ["1", "2"]:
            monkeypatch.setenv("DRM_THREADS", threads)
            assert main(argv + ["--out", str(tmp / f"r{threads}.json")]) == 0
            outputs[threads] = (tmp / f"r{threads}.json").read_bytes(), capsys.readouterr().out
            assert bool(started) == (threads == "2")
        assert outputs["1"][0] == outputs["2"][0]
        assert outputs["1"][1].replace("r1.json", "r2.json") == outputs["2"][1]

    @pytest.mark.parametrize("kind,bound", [
        ("prune-density", 2.75), ("spectrum", 2.75), ("svd-bound", 2.75), ("sign-agreement", 3.0),
    ])
    def test_layer_peak_in_stacks(self, tmp_path, capsys, kind, bound):
        # One 512 x 512 float32 layer, N=4, in units of its float64 stack.
        # The stack is owned and laid out for its SVD, so the SVD input is
        # a view of it, and the stack is dropped once that is factored.
        n_tasks, shape = 4, (512, 512)
        rng = np.random.default_rng(37)
        base = TensorBundle({"w": rng.standard_normal(shape).astype(np.float32)})
        write_bundle(base, tmp_path / "base.drmb")
        argv = ["analyze", kind, "--base", str(tmp_path / "base.drmb"),
                "--space", "decomposed-h", "--out", str(tmp_path / "report.json")]
        for t in range(n_tasks):
            delta = 0.01 * rng.standard_normal(shape).astype(np.float32)
            write_bundle(TensorBundle({"w": base["w"] + delta}), tmp_path / f"task{t}.drmb")
            argv += ["--task", str(tmp_path / f"task{t}.drmb")]
        del base, delta

        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        capsys.readouterr()
        assert peak <= bound * n_tasks * shape[0] * shape[1] * 8

    def test_only_rank_1_tensors_exit_2(self, tmp_path, capsys):
        bias = TensorBundle({"b": np.ones(3)})
        write_bundle(bias, tmp_path / "base.drmb")
        write_bundle(bias, tmp_path / "task.drmb")
        out = tmp_path / "r.json"
        code = main([
            "analyze", "spectrum", "--base", str(tmp_path / "base.drmb"),
            "--task", str(tmp_path / "task.drmb"), "--out", str(out),
        ])
        assert code == 2
        assert "no rank-2 tensors" in capsys.readouterr().err
        assert not out.exists()

    def test_svd_bound_identical_tasks_zero_lhs(self, family):
        base, _, tmp = family
        out = tmp / "bound.json"
        code = main([
            "analyze", "svd-bound", "--base", base, "--task", base, "--task", base,
            "--out", str(out),
        ])
        assert code == 0
        reports = json.loads(out.read_text())
        assert reports, "expected one report per layer per task"
        for rep in reports:
            for entry in rep["entries"]:
                assert entry["lhs"] <= 1e-9
                assert entry["holds"]

    def test_prune_density_deterministic_bytes(self, family):
        base, tasks, tmp = family
        out1, out2 = tmp / "pd1.json", tmp / "pd2.json"
        argv = ["analyze", "prune-density", "--base", base, "--retain", "0.5"]
        for t in tasks:
            argv += ["--task", t]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_renorm_flag(self, family):
        base, tasks, tmp = family
        out = tmp / "pd.json"
        argv = ["analyze", "prune-density", "--base", base, "--no-renorm",
                "--out", str(out)]
        for t in tasks:
            argv += ["--task", t]
        assert main(argv) == 0
        assert all(not rep["renormalized"] for rep in json.loads(out.read_text()))

    def test_spectrum_vertical(self, family):
        base, tasks, tmp = family
        out = tmp / "spec.json"
        argv = ["analyze", "spectrum", "--base", base, "--space", "decomposed-v",
                "--out", str(out)]
        for t in tasks:
            argv += ["--task", t]
        assert main(argv) == 0
        assert all(rep["orientation"] == "vertical" for rep in json.loads(out.read_text()))

    @pytest.mark.parametrize("kind,bound", [
        ("prune-density", 60), ("sign-agreement", 60), ("spectrum", 60), ("svd-bound", 125),
    ])
    def test_inputs_are_read_per_layer(self, tmp_path, capsys, kind, bound):
        # In units of one layer's float64 deltas, holding every layer's at
        # once would alone cost 64. The rest of the bound is the reports and
        # their JSON, which grow with the layer count: svd-bound keeps one
        # entry per singular value per task.
        n_layers, n_tasks, shape = 64, 4, (64, 48)
        rng = np.random.default_rng(29)
        base = TensorBundle({
            f"L{i}.w": rng.standard_normal(shape).astype(np.float32) for i in range(n_layers)
        })
        write_bundle(base, tmp_path / "base.drmb")
        argv = ["analyze", kind, "--base", str(tmp_path / "base.drmb"),
                "--out", str(tmp_path / "report.json")]
        for t in range(n_tasks):
            task = TensorBundle({
                name: arr + 0.01 * rng.standard_normal(shape).astype(np.float32)
                for name, arr in base.items()
            })
            write_bundle(task, tmp_path / f"task{t}.drmb")
            argv += ["--task", str(tmp_path / f"task{t}.drmb")]
        del base, task

        unit = n_tasks * shape[0] * shape[1] * 8
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        capsys.readouterr()
        assert len(json.loads((tmp_path / "report.json").read_text())) >= n_layers
        assert peak < bound * unit

    def test_non_finite_last_layer_is_io_error(self, tmp_path, capsys):
        # Layers are read one at a time, so the NaN in the second task's
        # last matrix layer is found only after every other report is made.
        rng = np.random.default_rng(31)
        shapes = {"L0.w": (5, 4), "L0.b": (5,), "L1.w": (4, 5), "L2.w": (3, 4)}
        base = TensorBundle({name: rng.standard_normal(s) for name, s in shapes.items()})
        write_bundle(base, tmp_path / "base.drmb")
        task = TensorBundle({name: arr + 0.1 for name, arr in base.items()})
        write_bundle(task, tmp_path / "good.drmb")
        bad = tmp_path / "bad.drmb"
        write_bundle(task, bad)
        # TensorBundle refuses to hold a NaN, so it goes into the file: the
        # last 8 bytes are the last entry of the last tensor, L2.w.
        with open(bad, "r+b") as fh:
            fh.seek(-8, os.SEEK_END)
            fh.write(struct.pack("<d", np.nan))

        before = sorted(p.name for p in tmp_path.iterdir())
        out = tmp_path / "report.json"
        code = main(["analyze", "spectrum", "--base", str(tmp_path / "base.drmb"),
                     "--task", str(tmp_path / "good.drmb"), "--task", str(bad),
                     "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert str(bad) in captured.err and "'L2.w'" in captured.err and "NaN" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestBenchTune:
    def test_bench_identical_within_tenth_percent(self, capsys):
        assert main(["bench", "synthetic", "--seed", "3", "--tasks", "3",
                     "--dim", "8,6", "--samples", "60", "--identical"]) == 0
        table = capsys.readouterr().out
        lines = [l for l in table.splitlines() if l and not l.startswith("method")]
        scores = {}
        for line in lines:
            parts = line.split("\t")
            scores[parts[0].strip()] = float(parts[1])
        ft = scores.pop("finetuned")
        for method, score in scores.items():
            assert abs(score - ft) <= 1e-3 * max(1.0, abs(ft)), method

    def test_tune_single_point_grid(self, capsys):
        assert main(["tune", "--method", "ties", "--grid-retain", "0.5",
                     "--grid-lambda", "1.0", "--tasks", "2", "--dim", "5,4",
                     "--samples", "40"]) == 0
        out = capsys.readouterr().out
        grid_rows = [l for l in out.splitlines() if l.startswith("0.50")]
        assert len(grid_rows) == 1

    def test_tune_default_grid_size_for_drm(self, tmp_path, capsys):
        out = tmp_path / "tune.json"
        assert main(["tune", "--method", "drm-h", "--tasks", "2", "--dim", "5,4",
                     "--samples", "40", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["grid"]) == 80  # 10 retain x 8 lambda
        capsys.readouterr()

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_tune_without_training_samples_exit_2(self, tmp_path, capsys, samples):
        # 1 sample goes to validation, which leaves no training sample.
        out = tmp_path / "t.json"
        assert main(["tune", "--method", "drm-h", "--samples", samples, "--ridge", "1",
                     "--out", str(out)]) == 2
        assert "no samples" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_without_samples_exit_2(self, capsys):
        assert main(["bench", "synthetic", "--samples", "0", "--ridge", "1"]) == 2
        captured = capsys.readouterr()
        assert "no samples" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--noise", "--ridge"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_noise_or_ridge_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "t.json"
        assert main(["tune", "--method", "ties", "--tasks", "2", "--dim", "5,4",
                     "--samples", "40", f"{flag}={value}", "--out", str(out)]) == 2
        assert f"{flag[2:]} must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists()
        assert main(["bench", "synthetic", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert f"{flag[2:]} must be finite and non-negative" in captured.err
        assert captured.out == ""

    def test_bad_dim_exit_2(self, capsys):
        for dim, message in (("7", "expected M,N"), ("0,3", "extents must be positive")):
            assert main(["bench", "synthetic", "--dim", dim]) == 2
            assert message in capsys.readouterr().err

    def test_bad_grid_exit_2(self, capsys):
        for spec, message in (
            ("0.5:0.1:0.1", "need step > 0"),
            ("abc", "expected a:b:step"),
            ("0.1:0.5", "expected a:b:step"),
        ):
            assert main(["tune", "--method", "ties", "--grid-retain", spec]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--grid-retain", "--grid-lambda"])
    def test_bad_grid_reported_before_the_suite_is_built(self, monkeypatch, capsys, flag):
        built = []

        def no_suite(*args, **kwargs):
            built.append(args)
            raise AssertionError("synth_suite called")

        monkeypatch.setattr(drm.cli.harness, "synth_stream", no_suite)
        assert main(["tune", "--method", "ties", flag, "abc"]) == 2
        assert "bad grid spec 'abc'" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("flag,value,message", [
        ("--tasks", "0", "n_tasks must be at least 1, got 0"),
        ("--tasks", "-1", "n_tasks must be at least 1, got -1"),
        ("--samples", "-5", "samples must be non-negative, got -5"),
    ])
    def test_bad_tasks_or_samples_exit_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "t.json"
        assert main(["tune", "--method", "ties", "--dim", "5,4", f"{flag}={value}",
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert main(["bench", "synthetic", "--dim", "5,4", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_tune_holds_one_task_of_samples(self, monkeypatch, capsys):
        # Samples dominate this suite: each task draws 2000 x (64 + 4)
        # float64 values, 1.09 MB, against 200 x 68 validation values.
        # Measured: 0.70 MB held when the grid starts and a 2.76 MB peak
        # before it (the previous task beside the next task's draw, or a
        # task beside its 90% training copy); drawing every task up front
        # held 5.09 MB and peaked at 6.02 MB.
        import numpy.random  # noqa: F401  (its module objects are not the tune's)

        task_bytes = 8 * 2000 * (64 + 4)
        seen = []
        real_grid = drm.harness.merge_delta_set_grid

        def recording_grid(*args, **kwargs):
            seen.append(tracemalloc.get_traced_memory())
            return real_grid(*args, **kwargs)

        monkeypatch.setattr(drm.harness, "merge_delta_set_grid", recording_grid)
        tracemalloc.start()
        try:
            assert main(["tune", "--method", "ta", "--tasks", "4", "--dim", "4,64",
                         "--samples", "2000"]) == 0
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        (held, peak), = seen
        assert held < task_bytes, (held, task_bytes)
        assert peak < 3 * task_bytes, (peak, task_bytes)

    @pytest.mark.parametrize("flag,spec", [
        ("--grid-retain", "0.1:inf:0.1"),
        ("--grid-retain", "0.1:0.5:nan"),
        ("--grid-lambda", "-inf:1:0.1"),
        ("--grid-lambda", "nan"),
    ])
    def test_non_finite_grid_exit_2(self, flag, spec):
        proc = run_capped_tune(flag, spec)
        assert proc.returncode == 2, proc.stderr
        assert "finite" in proc.stderr

    @pytest.mark.parametrize("flag,spec", [
        ("--grid-retain", "0.1:1:1e-9"),
        ("--grid-lambda", "0:1:1e-300"),
        ("--grid-lambda", "-1e308:1e308:1"),
    ])
    def test_oversized_grid_exit_2(self, flag, spec):
        proc = run_capped_tune(flag, spec)
        assert proc.returncode == 2, proc.stderr
        assert f"more than {MAX_GRID_POINTS} points" in proc.stderr

    def test_grid_point_cap_is_inclusive(self):
        assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="points"):
            _parse_grid(f"0:{MAX_GRID_POINTS}:1")


def run_capped_tune(flag, spec):
    """Run ``drm tune`` with one grid spec in a child with a deadline and a
    capped address space, so an unbounded grid loop fails the test instead
    of hanging it or filling memory."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "drm", "tune", "--method", "ties", f"{flag}={spec}"],
        capture_output=True, text=True, timeout=10, preexec_fn=cap_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )


def test_module_entrypoint_smoke(tmp_path):
    base = TensorBundle({"w": np.eye(3)})
    write_bundle(base, tmp_path / "base.drmb")
    write_bundle(base, tmp_path / "task.drmb")
    proc = subprocess.run(
        [sys.executable, "-m", "drm", "merge", "--method", "avg",
         "--base", str(tmp_path / "base.drmb"), "--task", str(tmp_path / "task.drmb"),
         "--out", str(tmp_path / "out.drmb")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.drmb").exists()


def test_missing_subcommand_exit_2():
    assert main([]) == 2


def load_tracing():
    """The benchmark's tracer module. It uses only the standard library, so
    it is loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "drmbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("drmbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # The benchmark's tracer replaces these attributes by name, and a
    # missing one blanks its per-layer metrics without an error.
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if getattr(importlib.import_module(module), attr, None) is None
    ]
    assert missing == []


def test_every_import_is_used_or_traced():
    # An import that its module never uses may stay only while the
    # benchmark's tracer wraps it there by name; once the tracer no longer
    # does, this names the import to delete.
    tracing = load_tracing()
    unused = []
    for path in sorted(Path(drm.cli.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"drm.{path.stem}"
        traced = {attr for name, attr, _ in tracing.TARGETS if name == module}
        unused += [f"{module}.{name}" for name in sorted(imported - used - traced)]
    assert unused == []


def test_traced_gesdd_merge_reports_its_input(tmp_path, monkeypatch, gesdd_calls):
    # drm-v factors a merge's own rank-deficient stack in place, as its
    # tall transpose. The tracer reads the SVD input's shape once the call
    # returns, which must still be the input's, and tracing must leave the
    # merged bytes alone.
    tracing = load_tracing()
    monkeypatch.delenv("DRM_THREADS", raising=False)
    rng = np.random.default_rng(7)
    n_tasks, rank, (m, n) = 3, 2, (40, 24)
    base = TensorBundle({"lr.w": rng.standard_normal((m, n))})
    write_bundle(base, tmp_path / "base.drmb")
    tasks = []
    for t in range(n_tasks):
        delta = drm.bundle.materialize_low_rank(
            rng.standard_normal((rank, n)), rng.standard_normal((m, rank)), 0.5
        )
        write_bundle(TensorBundle({"lr.w": base["lr.w"] + delta}), tmp_path / f"task{t}.drmb")
        tasks.append(str(tmp_path / f"task{t}.drmb"))
    base_path = str(tmp_path / "base.drmb")
    assert run_merge(base_path, tasks, tmp_path / "untraced.drmb", "--method", "drm-v") == 0

    for module_name, attr, _ in tracing.TARGETS:  # undo the tracer's wrappers afterwards
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = run_merge(base_path, tasks, tmp_path / "traced.drmb", "--method", "drm-v")
    finally:
        tracer.finish(start, time.perf_counter(), tmp_path / "spans.jsonl")
    assert code == 0
    spans, missing = tracing.read_spans(tmp_path / "spans.jsonl")
    assert missing == []
    [svd] = [span for span in spans if span["name"] == "linalg.thin_svd"]
    assert (svd["m"], svd["n"], svd["rank"]) == (n, n_tasks * m, n_tasks * rank)
    assert gesdd_calls == [(n_tasks * m, n)] * 2
    assert (tmp_path / "traced.drmb").read_bytes() == (tmp_path / "untraced.drmb").read_bytes()


def test_traced_layer_pool_keeps_every_span_on_its_layer_thread(tmp_path, monkeypatch):
    # DRM_THREADS=2 merges two drm-h layers in a pool of two layer workers.
    # The benchmark's traced pass still needs every span on the thread that
    # opened its layer span, and the blocking path to add up to the root
    # span. With DRM_THREADS=1 no thread starts at all.
    tracing = load_tracing()
    rng = np.random.default_rng(8)
    n_tasks, rank, shapes = 3, 2, {"a.w": (40, 24), "b.w": (32, 48)}
    base = TensorBundle({name: rng.standard_normal(shape) for name, shape in shapes.items()})
    write_bundle(base, tmp_path / "base.drmb")
    tasks = []
    for t in range(n_tasks):
        task = TensorBundle({
            name: value + drm.bundle.materialize_low_rank(
                rng.standard_normal((rank, value.shape[1])),
                rng.standard_normal((value.shape[0], rank)),
                0.5,
            )
            for name, value in base.items()
        })
        write_bundle(task, tmp_path / f"task{t}.drmb")
        tasks.append(str(tmp_path / f"task{t}.drmb"))
    base_path = str(tmp_path / "base.drmb")
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(
        threading.Thread, "start", lambda self: started.append(self.name) or real_start(self)
    )

    for module_name, attr, _ in tracing.TARGETS:  # undo the tracer's wrappers afterwards
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setenv("DRM_THREADS", "2")
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = run_merge(base_path, tasks, tmp_path / "pooled.drmb", "--method", "drm-h")
    finally:
        tracer.finish(start, time.perf_counter(), tmp_path / "spans.jsonl")
    assert code == 0
    assert started
    spans, missing = tracing.read_spans(tmp_path / "spans.jsonl")
    assert missing == []
    by_id = {span["id"]: span for span in spans}
    layers = [span for span in spans if span["name"] == tracing.LAYER]
    assert len(layers) == 2
    root_thread = tracing.SpanTree(spans).root["thread"]
    assert all(layer["thread"] != root_thread for layer in layers)
    layer_spans = 0
    for span in spans:
        layer = span
        while layer is not None and layer["name"] != tracing.LAYER:
            layer = by_id.get(layer["parent"])
        if layer is not None:
            layer_spans += 1
            assert span["thread"] == layer["thread"], span["name"]
    assert layer_spans > 2
    tree = tracing.SpanTree(spans)
    assert abs(tree.blocking_path_s() - tree.duration(tree.root)) <= 1e-6

    started.clear()
    monkeypatch.setenv("DRM_THREADS", "1")
    assert run_merge(base_path, tasks, tmp_path / "serial.drmb", "--method", "drm-h") == 0
    assert started == []
    assert (tmp_path / "serial.drmb").read_bytes() == (tmp_path / "pooled.drmb").read_bytes()

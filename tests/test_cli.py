import json
import os
import resource
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import drm.bundle
from drm.bundle import TensorBundle, read_bundle, write_bundle
from drm.cli import MAX_GRID_POINTS, _parse_grid, main


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
        real_open = open

        class FailMidway:
            """File wrapper whose third write fails as a full disk would."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
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
        before = sorted(p.name for p in tmp.iterdir())
        assert run_merge(base, tasks, out, "--method", "avg") == 3
        assert out.read_bytes() == b"previous contents"
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
        assert "two tasks" in capsys.readouterr().err

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

    def test_bad_dim_exit_2(self):
        assert main(["bench", "synthetic", "--dim", "7"]) == 2

    def test_bad_grid_exit_2(self):
        assert main(["tune", "--method", "ties", "--grid-retain", "0.5:0.1:0.1"]) == 2

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

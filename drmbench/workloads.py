"""The four benchmark workloads: seeded input generation and the drm command.

Every workload draws its inputs from ``numpy.random.default_rng([salt, seed])``
so the same seed always gives the same bytes, and the program only sees the
files written here (or, for ``tune-grid``, the seed on its command line).
Why each workload exists is documented in ``drmbench/README.md`` and
``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bundlefmt


@dataclass
class Inputs:
    """What one run of a workload needs: the drm argv, the output path, and
    the facts the output check uses (``expect``)."""

    argv: list[str]
    out: Path
    base_path: Path | None = None
    task_paths: list[Path] = field(default_factory=list)
    expect: dict = field(default_factory=dict)

    def files(self) -> list[Path]:
        return ([self.base_path] if self.base_path else []) + self.task_paths


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    salt: int
    # Bytes of the largest stacked-delta matrix one decomposition factors
    # (float64), or of one layer's N float64 deltas where nothing is stacked.
    working_set_bytes: int

    def generate(self, seed: int, work: Path) -> Inputs:
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.salt, seed])
        return _GENERATORS[self.name](self, rng, seed, work)


def _merge_argv(method: str, base: Path, tasks: list[Path], out: Path) -> list[str]:
    argv = ["merge", "--method", method, "--base", str(base), "--out", str(out)]
    for t in tasks:
        argv += ["--task", str(t)]
    return argv


def _write_family(work: Path, base: dict, tasks: list[dict]) -> tuple[Path, list[Path]]:
    base_path = work / "base.drmb"
    bundlefmt.write(base_path, base, {"family": "drmbench"})
    task_paths = []
    for t, task in enumerate(tasks):
        path = work / f"task{t}.drmb"
        bundlefmt.write(path, task)
        task_paths.append(path)
    return base_path, task_paths


def _normal(rng, shape, scale, dtype):
    return (rng.standard_normal(shape, dtype=np.float64) * scale).astype(dtype)


def _dense_family(rng, shapes: dict, n_tasks: int, delta_scale: float, dtype):
    """Base weights plus dense, full-rank task deltas of mixed strength.

    Task t's delta is a shared direction plus a task-specific one, scaled by
    a per-task factor, so sign conflicts and heterogeneous scales both occur.
    """
    base = {name: _normal(rng, shape, 1.0 / np.sqrt(shape[-1]), dtype)
            for name, shape in shapes.items()}
    shared = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    strengths = np.linspace(0.5, 1.5, n_tasks)
    tasks = []
    for t in range(n_tasks):
        task = {}
        for name, shape in shapes.items():
            own = rng.standard_normal(shape)
            delta = strengths[t] * delta_scale / np.sqrt(shape[-1]) * (0.5 * shared[name] + own)
            task[name] = (base[name].astype(np.float64) + delta).astype(dtype)
        tasks.append(task)
    return base, tasks


def _gen_drmh_block(wl: Workload, rng, seed: int, work: Path) -> Inputs:
    d = 768
    shapes = {"block.attn.weight": (d, d), "block.attn.bias": (d,),
              "block.mlp.weight": (d, 4 * d), "block.mlp.bias": (d,)}
    base, tasks = _dense_family(rng, shapes, 4, 0.05, np.float32)
    base_path, task_paths = _write_family(work, base, tasks)
    out = work / "merged.drmb"
    return Inputs(_merge_argv(wl.method, base_path, task_paths, out), out, base_path, task_paths,
                  expect={"rank": {"block.attn.weight": d, "block.mlp.weight": d}})


def _gen_drmv_lora(wl: Workload, rng, seed: int, work: Path) -> Inputs:
    m, n, r, n_tasks = 2048, 512, 16, 8
    base = {"proj.weight": rng.standard_normal((m, n)) / np.sqrt(n)}
    tasks, downs = [], []
    for _ in range(n_tasks):
        down = rng.standard_normal((r, n)) / np.sqrt(n)
        up = rng.standard_normal((m, r)) / np.sqrt(r)
        # The dense delta a rank-r adapter contributes (scale * up @ down).
        tasks.append({"proj.weight": base["proj.weight"] + 0.5 * (up @ down)})
        downs.append(down)
    # Orthonormal basis of the adapters' joint row space: drm-v can only
    # place merged rows inside it.
    row_basis, _ = np.linalg.qr(np.concatenate(downs).T)
    base_path, task_paths = _write_family(work, base, tasks)
    out = work / "merged.drmb"
    return Inputs(_merge_argv(wl.method, base_path, task_paths, out), out, base_path, task_paths,
                  expect={"rank": {"proj.weight": n_tasks * r},
                          "row_basis": {"proj.weight": row_basis}})


def _gen_dare_deep(wl: Workload, rng, seed: int, work: Path) -> Inputs:
    shapes = {}
    for i in range(48):
        shapes[f"layers.{i:02d}.weight"] = (512, 512)
        shapes[f"layers.{i:02d}.bias"] = (512,)
    base, tasks = _dense_family(rng, shapes, 4, 0.05, np.float32)
    base_path, task_paths = _write_family(work, base, tasks)
    out = work / "merged.drmb"
    return Inputs(_merge_argv(wl.method, base_path, task_paths, out), out, base_path, task_paths,
                  expect={"dare_drop": 0.8})


def _gen_tune_grid(wl: Workload, rng, seed: int, work: Path) -> Inputs:
    out = work / "tune.json"
    argv = ["tune", "--method", wl.method, "--tasks", "4", "--dim", "128,96",
            "--samples", "400", "--noise", "0.02", "--seed", str(seed), "--out", str(out)]
    return Inputs(argv, out, expect={"grid_points": 80, "tasks": 4})


_GENERATORS = {
    "drmh-block": _gen_drmh_block,
    "drmv-lora": _gen_drmv_lora,
    "dare-deep": _gen_dare_deep,
    "tune-grid": _gen_tune_grid,
}

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("drmh-block", "drm-h", 11, 8 * 768 * 4 * 3072),
        Workload("drmv-lora", "drm-v", 12, 8 * 512 * 8 * 2048),
        Workload("dare-deep", "dare-ties", 13, 8 * 4 * 512 * 512),
        Workload("tune-grid", "drm-h", 14, 8 * 128 * 4 * 96),
    )
}

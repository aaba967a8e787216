"""Reference merging methods operating directly in parameter space."""

from __future__ import annotations

import hashlib

import numpy as np

from .bundle import DeltaSet
from .engine import (
    MergeConfig,
    agreeing_entries,
    disjoint_average,
    elect_signs,
    kept_counts,
    prune_topk,
    survivor_filter,
)
from .errors import ShapeMismatch


def simple_average(weights: list[np.ndarray]) -> np.ndarray:
    """Element-wise mean of the full task weights."""
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    shape = weights[0].shape
    for i, w in enumerate(weights):
        if w.shape != shape:
            raise ShapeMismatch(f"weight {i} has shape {w.shape}, expected {shape}")
    return np.mean(weights, axis=0)


def task_arithmetic(ds: DeltaSet, lambdas) -> np.ndarray:
    """Coefficient-weighted sum of the deltas (no averaging, no pruning)."""
    lams = np.asarray(lambdas, dtype=np.float64).reshape(-1)
    if lams.size == 1:
        lams = np.full(ds.n_tasks, lams[0])
    if lams.size != ds.n_tasks:
        raise ShapeMismatch(f"got {lams.size} lambdas for {ds.n_tasks} tasks")
    out = np.zeros(ds.base_shape)
    for lam, delta in zip(lams, ds.deltas):
        out += lam * delta
    return out


def ties_merge(ds: DeltaSet, cfg: MergeConfig) -> np.ndarray:
    """Per-task magnitude pruning, sign election, and disjoint averaging,
    applied to the raw deltas with no decomposition."""
    merged, _ = ties_merge_with_stats(ds, cfg)
    return merged


def ties_merge_with_stats(ds: DeltaSet, cfg: MergeConfig) -> tuple[np.ndarray, dict]:
    stack = np.array(ds.deltas)  # one N x m x n copy, pruned in place
    masks = prune_topk(stack, cfg.retain, "individual") if cfg.enable_prune else None
    if masks is not None:
        stack[~masks] = 0.0
    merged = _elect_and_average(stack, cfg, ds.n_tasks)
    return merged, kept_counts(masks, stack)


def _elect_and_average(stack: np.ndarray, cfg: MergeConfig, n_tasks: int) -> np.ndarray:
    """The TIES tail shared with DARE-TIES: sign election over the already
    pruned (or dropped) stack, then the disjoint average."""
    signs = elect_signs(stack) if cfg.enable_sign_elect else None
    survivors, gamma = survivor_filter(agreeing_entries(stack, signs), None, cfg.enable_disjoint)
    return disjoint_average(stack, survivors, gamma, cfg.task_lambdas(n_tasks))


def _dare_generator(seed: int, layer_name: str, task_index: int) -> np.random.Generator:
    # Counter-based stream keyed on (seed, layer, task): layer-parallel and
    # serial runs draw identical masks.
    digest = hashlib.sha256(
        f"{seed}\x00{layer_name}\x00{task_index}".encode("utf-8")
    ).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def dare_ties_merge(
    ds: DeltaSet, cfg: MergeConfig, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Random drop-and-rescale in place of magnitude pruning, then the TIES
    election and disjoint averaging.

    Each entry is zeroed independently with probability ``cfg.dare_drop``
    and survivors are scaled by 1/(1 - p), which keeps the per-entry
    expectation at the original delta. Pass ``rng`` to override the
    deterministic per-(seed, layer, task) streams.
    """
    p = cfg.dare_drop
    scale = 1.0 / (1.0 - p)
    dropped = np.empty((ds.n_tasks, *ds.base_shape))
    for t, delta in enumerate(ds.deltas):
        gen = rng if rng is not None else _dare_generator(cfg.seed, ds.layer_name, t)
        np.multiply(delta, scale, out=dropped[t])
        dropped[t][gen.random(delta.shape) < p] = 0.0
    return _elect_and_average(dropped, cfg, ds.n_tasks)

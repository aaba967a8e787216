"""Reference merging methods operating directly in parameter space."""

from __future__ import annotations

import hashlib

import numpy as np

from .bundle import DeltaSet
from .engine import (
    MergeConfig,
    _per_task,
    agreeing_entries,
    disjoint_average,
    elect_signs,
    kept_counts,
    prune_topk,
    survivor_filter,
)


def task_arithmetic(ds: DeltaSet, lambdas) -> np.ndarray:
    """Coefficient-weighted sum of the deltas (no averaging, no pruning)."""
    out = np.zeros(ds.base_shape)
    for lam, delta in zip(_per_task(lambdas, ds.n_tasks), ds.deltas):
        out += lam * delta
    return out


def ties_merge(ds: DeltaSet, cfg: MergeConfig) -> np.ndarray:
    """Per-task magnitude pruning, sign election, and disjoint averaging,
    applied to the raw deltas with no decomposition."""
    merged, _ = ties_merge_with_stats(ds, cfg)
    return merged


def ties_merge_with_stats(ds: DeltaSet, cfg: MergeConfig) -> tuple[np.ndarray, dict]:
    stack = ds.deltas if ds._owned else ds.deltas.copy()  # pruned in place
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


def dare_ties_merge(ds: DeltaSet, cfg: MergeConfig) -> np.ndarray:
    """Random drop-and-rescale in place of magnitude pruning, then the TIES
    election and disjoint averaging.

    Each entry is zeroed independently with probability ``cfg.dare_drop``
    and survivors are scaled by 1/(1 - p), which keeps the per-entry
    expectation at the original delta. Task t's drops come from a
    deterministic stream keyed on (``cfg.seed``, layer name, t).
    """
    scale = 1.0 / (1.0 - cfg.dare_drop)
    if ds._owned:
        dropped = ds.deltas  # scaled and dropped in place
        dropped *= scale
    else:
        dropped = ds.deltas * scale
    for t in range(ds.n_tasks):
        gen = _dare_generator(cfg.seed, ds.layer_name, t)
        dropped[t][gen.random(ds.base_shape) < cfg.dare_drop] = 0.0
    return _elect_and_average(dropped, cfg, ds.n_tasks)

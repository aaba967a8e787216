"""Reference merging methods operating directly in parameter space."""

from __future__ import annotations

import hashlib

import numpy as np

from .bundle import DeltaSet
# disjoint_average is not called here: the benchmark's tracer wraps it,
# like elect_signs and prune_topk, under this module's name.
from .engine import (
    MergeConfig,
    _per_task,
    _reciprocal_counts,
    disjoint_average,
    elect_signs,
    kept_counts,
    prune_topk,
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
        stack *= masks
    merged = _elect_and_average(stack, cfg, ds.n_tasks)
    return merged, kept_counts(masks, stack)


def _elect_and_average(stack: np.ndarray, cfg: MergeConfig, n_tasks: int) -> np.ndarray:
    """The TIES tail shared with DARE-TIES: sign election over the already
    pruned (or dropped) stack, then the disjoint average.

    The same floating-point operations as ``disjoint_average(stack,
    *survivor_filter(agreeing_entries(stack, signs), None, disjoint), lambdas)``,
    run one task plane at a time on ``stack``, which must be the merge's
    own: each plane is overwritten with its weighted survivors.
    """
    neg = elect_signs(stack) < 0.0 if cfg.enable_sign_elect else None
    plane = stack.shape[1:]
    weighted = np.zeros(plane)
    counts = np.zeros(plane, dtype=np.min_scalar_type(n_tasks))
    keep = np.empty(plane, dtype=bool)
    below = np.empty(plane, dtype=bool)
    for block, lam in zip(stack, cfg.task_lambdas(n_tasks)):
        np.not_equal(block, 0.0, out=keep)
        if neg is not None:
            np.less(block, 0.0, out=below)
            keep &= np.equal(below, neg, out=below)
        counts += keep
        # block * keep is the block or a signed zero; a zero term leaves
        # the sum's bytes as they are.
        block *= keep
        block *= lam
        weighted += block
    weighted *= _reciprocal_counts(counts) if cfg.enable_disjoint else 1.0 / n_tasks
    return weighted


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
    draw = np.empty(ds.base_shape)
    kept = np.empty(ds.base_shape, dtype=bool)
    for t, block in enumerate(dropped):
        _dare_generator(cfg.seed, ds.layer_name, t).random(out=draw)
        np.greater_equal(draw, cfg.dare_drop, out=kept)
        block *= kept
    del draw, kept
    return _elect_and_average(dropped, cfg, ds.n_tasks)

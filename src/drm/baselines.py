"""Reference merging methods operating directly in parameter space."""

from __future__ import annotations

import math

import numpy as np

from .bundle import DeltaSet
# elect_signs is not called here: the benchmark's tracer wraps it, like
# prune_topk and disjoint_average, under this module's name.
from .engine import MergeConfig, _per_task, disjoint_average, elect_signs, kept_counts, prune_topk


def task_arithmetic(ds: DeltaSet, lambdas) -> np.ndarray:
    """Coefficient-weighted sum of the deltas (no averaging, no pruning)."""
    out = np.zeros(ds.base_shape)
    for lam, delta in zip(_per_task(lambdas, ds.n_tasks), ds.deltas):
        out += lam * delta
    return out


def ties_merge(ds: DeltaSet, cfg: MergeConfig) -> tuple[np.ndarray, dict]:
    """Per-task magnitude pruning, sign election, and disjoint averaging,
    applied to the raw deltas with no decomposition: the merged delta and
    the prune's ``kept``/``total`` counts."""
    stack = ds.deltas if ds._owned else ds.deltas.copy()  # pruned in place
    masks = prune_topk(stack, cfg.retain, "individual")

    def prune(t, rows, block, spare):
        block *= masks[t, rows]

    merged = disjoint_average(stack, cfg, prune, in_place=True)
    return merged, kept_counts(masks)


def _dare_generator(seed: int, layer_name: str, task_index: int) -> np.random.Generator:
    """Task ``task_index``'s drop stream in layer ``layer_name``: Philox
    keyed on the SHA-256 of (seed, layer, task), so layer-parallel and
    serial runs draw identical masks. ``hashlib`` loads here, on the first
    DARE-TIES layer, not with the package."""
    import hashlib

    digest = hashlib.sha256(
        f"{seed}\x00{layer_name}\x00{task_index}".encode("utf-8")
    ).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _keep_threshold(p: float) -> np.uint64:
    """The raw 64-bit draw at or above which DARE keeps an entry dropped
    with probability ``p`` (0 <= p < 1). ``Generator.random()`` is
    ``(raw >> 11) * 2**-53`` of the stream's raw integers, so ``random() >=
    p`` exactly where ``raw >= ceil(p * 2**53) << 11``: the same masks from
    the same draws, with no conversion to float."""
    return np.uint64(math.ceil(p * 2**53) << 11)


def dare_ties_merge(ds: DeltaSet, cfg: MergeConfig) -> np.ndarray:
    """Random drop-and-rescale in place of magnitude pruning, then the TIES
    election and disjoint averaging.

    Each entry is zeroed independently with probability ``cfg.dare_drop``
    and survivors are scaled by 1/(1 - p), which keeps the per-entry
    expectation at the original delta. Task t's drops come from a
    deterministic stream keyed on (``cfg.seed``, layer name, t), one draw
    per entry in row-major order, taken one row chunk at a time.
    """
    scale = 1.0 / (1.0 - cfg.dare_drop)
    threshold = _keep_threshold(cfg.dare_drop)
    streams = [
        _dare_generator(cfg.seed, ds.layer_name, t).bit_generator for t in range(ds.n_tasks)
    ]

    def drop(t, rows, block, spare):
        block *= scale
        raw = streams[t].random_raw(block.size).reshape(block.shape)
        block *= np.greater_equal(raw, threshold, out=spare)

    # Scaled and dropped in place.
    stack = ds.deltas if ds._owned else ds.deltas.copy()
    return disjoint_average(stack, cfg, drop, in_place=True)

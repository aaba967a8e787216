"""Joint-decomposition merging engine.

The pipeline for one layer: stack the task deltas, take a thin SVD, split
the non-shared factor into per-task blocks, renormalize each block row to
unit length while moving its norm into a per-task scale, then prune by
magnitude, elect dominant signs, disjoint-average, and project back to
parameter space. The vertical variant runs the same pipeline on transposed
deltas and transposes the result.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .bundle import (
    BundleFile,
    DeltaSet,
    TensorBundle,
    canonical_json,
    check_aligned,
    layer_delta_set,
)
from .bundle import extract_deltas  # noqa: F401 -- drmbench wraps drm.engine.extract_deltas
from .errors import ArgumentError, CastOverflow, DrmError, NonFiniteValue, ShapeMismatch
from .linalg import in_place_order, nonzero_sigma_mask, thin_svd

METHODS = ("drm_h", "drm_v", "simple_avg", "task_arithmetic", "ties", "dare_ties")
ORIENTATIONS = ("horizontal", "vertical")
# The orientation in which each drm method decomposes its stack.
DRM_ORIENTATIONS = {"drm_h": "horizontal", "drm_v": "vertical"}
PRUNE_MODES = ("joint", "individual")

# A block row with 2-norm at or below this is rank-deficient noise; it
# renormalizes to the zero vector with zero scale.
ZERO_ROW_NORM = 1e-300


@dataclass(frozen=True)
class MergeConfig:
    """Method selector plus every knob the merging pipeline reads.

    ``lambdas`` may be a single shared coefficient, one per task, or None
    for the per-method default (0.4 for task arithmetic, 1.0 otherwise).
    ``retain`` is the fraction of largest-magnitude entries kept by
    pruning; ``dare_drop`` the random drop rate; ``rank_drop`` the fraction
    of nonzero spectrum discarded before merging. Simple averaging ignores
    the coefficients entirely.
    """

    method: str = "drm_h"
    retain: float = 0.2
    lambdas: float | tuple[float, ...] | None = None
    dare_drop: float = 0.8
    rank_drop: float = 0.0
    prune_mode: str = "joint"
    enable_prune: bool = True
    enable_sign_elect: bool = True
    enable_disjoint: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not (0.0 < self.retain <= 1.0):
            raise ValueError(f"retain must lie in (0, 1], got {self.retain}")
        if not (0.0 <= self.dare_drop < 1.0):
            raise ValueError(f"dare_drop must lie in [0, 1), got {self.dare_drop}")
        if not (0.0 <= self.rank_drop < 1.0):
            raise ValueError(f"rank_drop must lie in [0, 1), got {self.rank_drop}")
        if self.prune_mode not in PRUNE_MODES:
            raise ValueError(f"prune_mode must be one of {PRUNE_MODES}")
        if self.lambdas is not None:
            lams = (self.lambdas,) if np.isscalar(self.lambdas) else tuple(self.lambdas)
            if not all(np.isfinite(l) for l in lams):
                raise ValueError("lambdas must be finite")
            object.__setattr__(
                self, "lambdas", float(lams[0]) if np.isscalar(self.lambdas) else tuple(map(float, lams))
            )

    def task_lambdas(self, n_tasks: int) -> np.ndarray:
        """Resolve the coefficient setting to one float per task."""
        if self.lambdas is None:
            shared = 0.4 if self.method == "task_arithmetic" else 1.0
            return np.full(n_tasks, shared)
        if np.isscalar(self.lambdas):
            return np.full(n_tasks, float(self.lambdas))
        lams = np.asarray(self.lambdas, dtype=np.float64)
        if lams.shape != (n_tasks,):
            raise ValueError(f"got {lams.size} lambdas for {n_tasks} tasks")
        return lams

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if isinstance(d["lambdas"], tuple):
            d["lambdas"] = list(d["lambdas"])
        return d


@dataclass
class JointDecomposition:
    """Shared basis and per-task blocks of one stacked-delta SVD.

    ``renorm_blocks`` is one N x r x dim array, a view of the SVD's right
    factor (so not C-ordered): block t holds the rows of task t's slice of
    the non-shared factor, each scaled to unit length.
    ``row_norms[t, i]`` is the 2-norm that row i of task t had before; the
    squared norms of any active row sum to one across tasks (the unit budget
    of a partitioned orthonormal factor). For the horizontal orientation
    ``U @ diag(task_sigmas[t]) @ renorm_blocks[t]`` reconstructs task t's
    delta; vertically the same product reconstructs the transposed delta
    (blocks are stored transposed so both orientations expose r x dim
    blocks).
    """

    U: np.ndarray
    sigma: np.ndarray
    row_norms: np.ndarray
    renorm_blocks: np.ndarray

    @property
    def n_tasks(self) -> int:
        return self.renorm_blocks.shape[0]

    @property
    def task_sigmas(self) -> np.ndarray:
        """``task_sigmas[t, i] = sigma[i] * row_norms[t, i]``, the magnitude
        the renormalization moved out of each block row."""
        return self.sigma[None, :] * self.row_norms

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.active_mask()))

    def active_mask(self) -> np.ndarray:
        """Components whose shared singular value counts as nonzero."""
        return nonzero_sigma_mask(self.sigma)


def decompose_joint(
    ds: DeltaSet,
    orientation: str = "horizontal",
    rank_drop: float = 0.0,
) -> JointDecomposition:
    """Decompose the stacked deltas and renormalize the per-task blocks.

    The vertical orientation decomposes the transposed deltas. The SVD
    reads :meth:`DeltaSet.side_by_side`, a view of a stack laid out for it
    (see :func:`_stack_order`) and a copy otherwise. An owned stack is
    released once that matrix exists. The SVD may overwrite that matrix
    unless it is a view of a caller's stack, so an owned stack laid out for
    its SVD, and the copy of any other stack, are factored where they lie.

    ``rank_drop`` keeps the top ceil((1 - rank_drop) * rank) components,
    ranked by the shared singular values, before renormalization could
    reorder them; the rest are zeroed in ``U``, ``sigma``, the renormalized
    rows and the row norms. ``rank_drop = 0`` zeroes nothing.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    if not (0.0 <= rank_drop < 1.0):
        raise ValueError(f"rank_drop must lie in [0, 1), got {rank_drop}")
    n_tasks = ds.n_tasks
    if orientation == "vertical":
        n_cols = ds.base_shape[0]
        stacked = ds.transposed().side_by_side()
    else:
        n_cols = ds.base_shape[1]
        stacked = ds.side_by_side()
    overwrite = ds._owned or not np.may_share_memory(stacked, ds.deltas)
    if ds._owned:
        ds.deltas = None
    svd = thin_svd(stacked, overwrite_a=overwrite)
    del stacked
    r = svd.sigma.size
    keep = _keep_count(1.0 - rank_drop, svd.rank) if rank_drop > 0.0 else r
    dead = np.arange(r) >= keep  # sigma is sorted, so the tail goes
    svd.U[:, dead] = 0.0
    svd.sigma[dead] = 0.0
    row_norms = np.empty((n_tasks, r))
    # Task t's block is columns t*n .. (t+1)*n of the right factor, which
    # is the SVD's own: the blocks are renormalized where they lie.
    renorm_blocks = svd.Vt.reshape(r, n_tasks, n_cols).transpose(1, 0, 2)
    # np.linalg.norm costs more per call than the other stages' steps, so
    # this one takes chunks four times as large.
    for part in _chunks(r, n_cols, 4 * _CHUNK):
        for t in range(n_tasks):
            block = renorm_blocks[t, part]
            norms = np.linalg.norm(block, axis=1)
            zero = (norms <= ZERO_ROW_NORM) | dead[part]
            np.divide(block, np.where(zero, 1.0, norms)[:, None], out=block)
            block[zero] = 0.0
            norms[zero] = 0.0
            row_norms[t, part] = norms
    return JointDecomposition(
        U=svd.U, sigma=svd.sigma, row_norms=row_norms, renorm_blocks=renorm_blocks
    )


def _keep_count(retain: float, total: int) -> int:
    # ceil with a guard against float dust (0.2 * 15 == 3.0000000000000004).
    if total == 0:
        return 0
    return min(total, max(0, math.ceil(retain * total - 1e-9)))


# Entries a stage kernel takes at a time (512 KiB of float64), so that its
# temporaries and the partial results it revisits stay in cache.
_CHUNK = 1 << 16
# Magnitudes sampled to bracket a prune pool's cutoff. A pool of at most
# 4 * _SAMPLE entries is partitioned outright.
_SAMPLE = 1 << 14


def _stack_shape(shape: tuple[int, ...]) -> tuple[int, int, int]:
    """A stack's ``shape`` as N x rows x cols: a 2-D stack's positions form
    one row, a 1-D stack's one entry."""
    if len(shape) < 2:
        return (*shape, 1, 1)
    return shape[0], math.prod(shape[1:-1]), shape[-1]


def _as_stack(stack) -> np.ndarray:
    """``stack`` as a float64 array of :func:`_stack_shape` (a view where
    it can be)."""
    stack = np.asarray(stack, dtype=np.float64)
    return stack.reshape(_stack_shape(stack.shape))


def _chunks(n_rows: int, n_cols: int, size: int | None = None) -> list[slice]:
    """Row ranges that cut an n_rows x n_cols plane into pieces of about
    ``size`` entries (default :data:`_CHUNK`). Each piece has at least two
    rows where the plane has, because numpy may sum a row reduction over a
    one-row piece of a strided array (the Gram route's right factor) in
    another order than over more rows, so the bytes would depend on the
    chunk size."""
    size = _CHUNK if size is None else size
    count = max(1, n_rows // max(2, size // max(n_cols, 1)))
    bounds = [n_rows * i // count for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _scratch(parts: list[slice], n_cols: int, dtype=np.float64) -> np.ndarray:
    """Room for the largest of the row ranges ``parts`` of a plane."""
    return np.empty((max(part.stop - part.start for part in parts), n_cols), dtype=dtype)


def _task_sum(blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sum over the first axis of the N x r x n ``blocks``, added into
    ``out`` in task order: the sum whose sign :func:`elect_signs` elects."""
    np.copyto(out, blocks[0])
    for block in blocks[1:]:
        out += block
    return out


def _partition_cutoff(x: np.ndarray, keep: int) -> float:
    """The ``keep``-th largest magnitude of ``x``, by a partition of a
    copy of every magnitude."""
    mags = np.abs(x).reshape(-1)
    cut = mags.size - keep
    mags.partition(cut)
    return float(mags[cut])


def _bracket_mask(x: np.ndarray, keep: int, mask: np.ndarray) -> bool:
    """Write into the C-ordered ``mask`` the ``keep`` largest |x| of the
    N x r x n pool ``x`` (0 < keep < x.size), as :func:`_pool_mask` does,
    without a copy of its magnitudes; return False, with ``mask`` half
    written, where a sample misleads it.

    Sorted magnitudes of an evenly strided sample bracket the cutoff's
    rank by four standard deviations either side, as ``lo < cutoff < hi``
    or ``cutoff <= lo``. One pass sets every magnitude above ``hi`` (and
    equal to it, unless ``lo == hi``) and gathers the positions and
    magnitudes of the few strictly between, of which the cutoff is the
    right one. A cutoff at ``lo`` or at ``hi`` takes a second, whole-array
    pass (:func:`_threshold_mask`), so runs of equal magnitudes there
    (structural zeros, integer values) are never gathered; a cutoff above
    ``hi`` or under ``lo`` is a miss.
    """
    total = x.size
    n_tasks, n_rows, n_cols = x.shape
    step = max(1, total // _SAMPLE)
    while math.gcd(step, n_cols) > 1:  # so that the sample visits every column
        step += 1
    sample = np.abs(x[np.unravel_index(np.arange(0, total, step), x.shape)])
    sample.sort()
    below = (total - keep) / total  # the share of magnitudes under the cutoff
    at = below * sample.size
    margin = 4.0 * math.sqrt(sample.size * below * (1.0 - below)) + 2.0
    low, high = math.floor(at - margin), math.ceil(at + margin)
    lo = float(sample[max(low, 0)])
    hi = float(sample[high]) if high < sample.size else math.inf
    keep_hi = np.greater if lo == hi else np.greater_equal

    above, where, values = 0, [np.empty(0, dtype=np.int64)], [np.empty(0)]
    parts = _chunks(n_rows, n_cols)
    buf = _scratch(parts, n_cols)
    inside = np.empty(buf.shape, dtype=bool)
    for t in range(n_tasks):
        for part in parts:
            mags = np.abs(x[t, part], out=buf[: part.stop - part.start])
            kept, between = mask[t, part], inside[: mags.shape[0]]
            keep_hi(mags, hi, out=kept)
            above += np.count_nonzero(kept)
            # Above lo and not kept: strictly between lo and hi.
            np.not_equal(np.greater(mags, lo, out=between), kept, out=between)
            index = np.flatnonzero(between)
            # In flattened order, as the sweep goes task by task, row by row.
            where.append(index + (t * n_rows + part.start) * n_cols)
            values.append(mags.reshape(-1)[index])
    where, values = np.concatenate(where), np.concatenate(values)
    if keep <= above:  # a cutoff at hi, or a miss
        return _threshold_mask(x, keep, hi, mask)
    if keep > above + values.size:
        return _threshold_mask(x, keep, lo, mask)
    cut = values.size - (keep - above)
    cutoff = np.partition(values, cut)[cut]
    np.put(mask, where[values > cutoff], True)
    ties = where[values == cutoff]
    np.put(mask, ties[: keep - above - np.count_nonzero(values > cutoff)], True)
    return True


def _threshold_mask(x: np.ndarray, keep: int, cutoff: float, mask: np.ndarray) -> bool:
    """Write into the C-ordered ``mask`` every entry of ``x`` whose
    magnitude is above ``cutoff``, then the first entries (in flattened
    order) equal to it until ``keep`` are set; return False, with ``mask``
    half written, where that cannot make ``keep``."""
    np.greater(x, cutoff, out=mask)
    mask |= x < -cutoff
    ties = np.flatnonzero((x == cutoff) | (x == -cutoff))
    slots = keep - np.count_nonzero(mask)
    if not 0 <= slots <= ties.size:
        return False
    np.put(mask, ties[:slots], True)
    return True


def _pool_mask(x: np.ndarray, keep: int, mask: np.ndarray) -> None:
    """Write into the C-ordered ``mask`` the ``keep`` largest |x| of the
    N x r x n pool ``x``, ties at the cutoff going to the smaller flattened
    (task, row, col) index: everything above the cutoff, then the first
    entries equal to it until ``keep`` are set. A pool of more than
    4 * ``_SAMPLE`` entries goes through :func:`_bracket_mask`; a smaller
    one, or one whose sample misleads it, takes its cutoff from a partition
    of a copy of the magnitudes."""
    if keep in (0, x.size):
        mask[...] = keep > 0
    elif not (x.size > 4 * _SAMPLE and _bracket_mask(x, keep, mask)):
        _threshold_mask(x, keep, _partition_cutoff(x, keep), mask)


def prune_topk(stack: np.ndarray, retain: float, mode: str = "joint") -> np.ndarray:
    """Boolean keep-mask, shaped like ``stack``, for the top-``retain``
    fraction by magnitude of an N x rows x cols stack of blocks.

    Joint mode pools every entry of every block before ranking; individual
    mode ranks inside each block. Exactly ceil(retain * pool_size) entries
    are kept per pool; ties at the cutoff keep the smaller
    (task, row, col) index. Structural zeros compete and lose. The stack
    must be finite; it may have any memory layout, and the mask is
    C-ordered. A pool of more than 4 * ``_SAMPLE`` entries is pruned
    without a copy of its magnitudes unless a sample misleads the pass (see
    :func:`_bracket_mask`).
    """
    if not (0.0 < retain <= 1.0):
        raise ValueError(f"retain must lie in (0, 1], got {retain}")
    if mode not in PRUNE_MODES:
        raise ValueError(f"mode must be one of {PRUNE_MODES}")
    x = _as_stack(stack)
    mask = np.empty(x.shape, dtype=bool)
    pools = [slice(None)] if mode == "joint" else [slice(t, t + 1) for t in range(len(x))]
    for tasks in pools:
        keep = _keep_count(retain, x[tasks].size)
        _pool_mask(x[tasks], keep, mask[tasks])
    return mask.reshape(np.shape(stack))


def kept_counts(mask: np.ndarray | None, stack: np.ndarray) -> dict:
    """``kept``/``total`` entry counts of a prune; ``mask=None`` keeps all."""
    total = int(np.size(stack))
    kept = total if mask is None else int(np.count_nonzero(mask))
    return {"kept": kept, "total": total}


def elect_signs(stack: np.ndarray) -> np.ndarray:
    """Dominant sign per position of the sum over the stack's first axis;
    zero sums elect +1."""
    x = _as_stack(stack)
    signs = np.empty(x.shape[1:])
    for part in _chunks(*signs.shape):
        total = _task_sum(x[:, part], signs[part])
        # -2 * (total < 0) + 1: exactly -1.0 below zero, +1.0 otherwise.
        np.multiply(total < 0.0, -2.0, out=total)
        total += 1.0
    return signs.reshape(np.shape(stack)[1:])


def agreeing_entries(stack: np.ndarray, signs: np.ndarray | None) -> np.ndarray:
    """Bool mask of the stack's nonzero entries whose sign is the elected
    one; ``signs=None`` skips the sign test."""
    x = _as_stack(stack)
    agree = np.empty(x.shape, dtype=bool)
    if signs is not None:
        negative = np.broadcast_to(signs, np.shape(stack)[1:]).reshape(x.shape[1:]) < 0.0
    for part in _chunks(*x.shape[1:]):
        block, out = x[:, part], agree[:, part]
        np.not_equal(block, 0.0, out=out)
        if signs is not None:
            out &= (block < 0.0) == negative[part]
    return agree.reshape(np.shape(stack))


def survivor_filter(
    agree: np.ndarray,
    mask: np.ndarray | None,
    disjoint: bool = True,
) -> tuple[np.ndarray, np.ndarray | float]:
    """The entries that enter the average and the per-position scale gamma.

    Survivors are the ``agree`` entries (see :func:`agreeing_entries`) that
    also pass ``mask`` (``None`` passes all). gamma is the reciprocal
    survivor count per position (zero where nobody survives), or the
    constant 1/N with ``disjoint=False``.
    """
    shape = np.shape(agree)
    agree = np.asarray(agree).reshape(_stack_shape(shape))
    if mask is not None:
        mask = np.asarray(mask).reshape(agree.shape)
    survivors = agree if mask is None else np.empty(agree.shape, dtype=bool)
    gamma = np.empty(agree.shape[1:]) if disjoint else 1.0 / agree.shape[0]

    # The narrowest integer type that holds N makes the count a fast add.
    count_type = np.min_scalar_type(agree.shape[0])
    for part in _chunks(*agree.shape[1:]):
        if mask is not None:
            np.logical_and(agree[:, part], mask[:, part], out=survivors[:, part])
        if disjoint:
            counts = survivors[:, part].sum(axis=0, dtype=count_type)
            _reciprocal_counts(counts, out=gamma[part])
    if disjoint:
        gamma = gamma.reshape(shape[1:])
    return survivors.reshape(shape), gamma


def _reciprocal_counts(counts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-position survivor counts to the disjoint scale gamma: 1/count,
    or 0 where nobody survives."""
    # (count != 0) / max(count, 1) is 1.0 / count, or 0 / 1: no division by
    # zero to mend with a masked store, which cost three times the division.
    return np.divide(counts != 0, np.maximum(counts, 1), out=out)


def _per_task(lambdas, n_tasks: int) -> np.ndarray:
    """One float64 coefficient per task from one shared value or a list."""
    lams = np.asarray(lambdas, dtype=np.float64).reshape(-1)
    if lams.size == 1:
        return np.full(n_tasks, lams[0])
    if lams.size != n_tasks:
        raise ShapeMismatch(f"got {lams.size} lambdas for {n_tasks} tasks")
    return lams


def disjoint_average(
    stack: np.ndarray,
    survivors: np.ndarray,
    gamma: np.ndarray | float,
    lambdas,
) -> np.ndarray:
    """gamma times the coefficient-weighted sum over tasks of the surviving
    entries; see :func:`survivor_filter`."""
    x = _as_stack(stack)
    lams = _per_task(lambdas, x.shape[0])
    if np.shape(survivors) != np.shape(stack):
        raise ShapeMismatch("the stack and its survivor mask must share one shape")
    survivors = np.asarray(survivors).reshape(x.shape)
    weighted = np.zeros(x.shape[1:])
    gamma = np.asarray(gamma)
    if gamma.shape != weighted.shape:
        gamma = np.broadcast_to(gamma, np.shape(stack)[1:]).reshape(weighted.shape)
    parts = _chunks(*weighted.shape)
    term = _scratch(parts, weighted.shape[1])
    for part in parts:
        total = weighted[part]
        scratch = term[: total.shape[0]]
        for block, keep, lam in zip(x[:, part], survivors[:, part], lams):
            # block * keep is the block or a signed zero; a zero term leaves
            # the sum's bytes as they are.
            np.multiply(block, keep, out=scratch)
            scratch *= lam
            total += scratch
        total *= gamma[part]
    return weighted.reshape(np.shape(stack)[1:])


def merge_drm(ds: DeltaSet, cfg: MergeConfig) -> np.ndarray:
    """Run the full joint-space pipeline and return the merged delta."""
    merged, _ = merge_drm_with_stats(ds, cfg)
    return merged


def merge_drm_with_stats(ds: DeltaSet, cfg: MergeConfig) -> tuple[np.ndarray, dict]:
    """The merged delta and its ``rank``/``kept``/``total`` stats: the 1x1
    case of :func:`_drm_grid`."""
    if cfg.method not in ("drm_h", "drm_v"):
        raise ValueError(f"merge_drm handles drm_h/drm_v, not {cfg.method!r}")
    return next(_drm_grid(ds, cfg, [[cfg]]))


def _drm_grid(ds: DeltaSet, cfg: MergeConfig, points: list[list[MergeConfig]]):
    """Yield ``(merged delta, stats)`` for each point config, row by row.

    Point configs differ from ``cfg`` only in ``retain`` and ``lambdas``,
    and the configs of one row share ``retain``. The layer lives in one
    N x r x dim float64 stack, rewritten in place: the renormalized blocks
    are pruned once per row, then scaled by ``task_sigmas`` into the blocks
    that elect signs and are averaged. The decomposition, election and sign
    agreement run once, the survivor filter once per row, and only the
    weighted sum and projection once per point. The vertical variant is the
    horizontal pipeline on transposed deltas, transposed back (exact
    duality).
    """
    orientation = DRM_ORIENTATIONS[cfg.method]
    n_tasks = ds.n_tasks
    jd = decompose_joint(ds, orientation, cfg.rank_drop)
    stack = jd.renorm_blocks
    masks = [
        prune_topk(stack, row[0].retain, cfg.prune_mode) if cfg.enable_prune else None
        for row in points
    ]
    # Scaled in place: jd.renorm_blocks is not used again.
    np.multiply(stack, jd.task_sigmas[:, :, None], out=stack)
    signs = elect_signs(stack) if cfg.enable_sign_elect else None
    agree = agreeing_entries(stack, signs)
    del signs
    for row, mask in zip(points, masks):
        stats = {"rank": jd.rank, **kept_counts(mask, stack)}
        survivors, gamma = survivor_filter(agree, mask, cfg.enable_disjoint)
        for point in row:
            merged_block = disjoint_average(stack, survivors, gamma, point.task_lambdas(n_tasks))
            merged = jd.U @ merged_block
            yield (merged.T if orientation == "vertical" else merged), dict(stats)


def merge_biases(base: np.ndarray, task_values: list[np.ndarray], lambdas) -> np.ndarray:
    """Weighted-average path for rank-1 tensors: base + mean of scaled deltas."""
    base = np.asarray(base, dtype=np.float64)
    lams = _per_task(lambdas, len(task_values))
    acc = np.zeros_like(base)
    for value, lam in zip(task_values, lams):
        value = np.asarray(value, dtype=np.float64)
        if value.shape != base.shape:
            raise ShapeMismatch(f"bias shape {value.shape} != base shape {base.shape}")
        acc += lam * (value - base)
    return base + acc / len(task_values)


def merge_delta_set(ds: DeltaSet, cfg: MergeConfig) -> np.ndarray:
    """Dispatch one layer's DeltaSet to the configured method; returns the merged delta."""
    merged, _ = _merge_delta_set_with_stats(ds, cfg)
    return merged


def _merge_delta_set_with_stats(ds: DeltaSet, cfg: MergeConfig) -> tuple[np.ndarray, dict]:
    from . import baselines  # local import: baselines builds on this module's ops

    if cfg.method in ("drm_h", "drm_v"):
        return merge_drm_with_stats(ds, cfg)
    if cfg.method == "simple_avg":
        # Averaging the full weights equals base + the mean delta.
        return np.mean(ds.deltas, axis=0), {}
    if cfg.method == "task_arithmetic":
        return baselines.task_arithmetic(ds, cfg.task_lambdas(ds.n_tasks)), {}
    if cfg.method == "ties":
        return baselines.ties_merge_with_stats(ds, cfg)
    if cfg.method == "dare_ties":
        return baselines.dare_ties_merge(ds, cfg), {}
    raise ValueError(f"unknown method {cfg.method!r}")


def merge_delta_set_grid(ds: DeltaSet, cfg: MergeConfig, retain_grid, lambda_grid):
    """Merge one layer at every (retain, lambdas) point of a grid.

    Yields ``(merged delta, stats)`` with ``retain`` in the outer loop and
    ``lambdas`` in the inner one. Each point equals
    ``_merge_delta_set_with_stats(ds, cfg)`` with that ``retain`` and
    ``lambdas`` swapped in, byte for byte. drm-h and drm-v share their
    grid-independent stages across the grid (see :func:`_drm_grid`); every
    other method merges each point from scratch. Every point config is
    validated before the first merge.
    """
    points = [
        [dataclasses.replace(cfg, retain=retain, lambdas=lam) for lam in lambda_grid]
        for retain in retain_grid
    ]
    if cfg.method in ("drm_h", "drm_v"):
        yield from _drm_grid(ds, cfg, points)
        return
    for row in points:
        for point in row:
            yield _merge_delta_set_with_stats(ds, point)


@dataclass
class LayerStats:
    """Per-layer summary of one merge run, for reporting."""

    name: str
    shape: tuple[int, ...]
    rank: int | None = None
    kept: int | None = None
    total: int | None = None


def _threads_setting() -> int:
    """``DRM_THREADS`` as an integer, 0 where it is unset or empty.
    Anything but a non-negative integer is an :class:`ArgumentError`."""
    raw = os.environ.get("DRM_THREADS") or "0"
    if not raw.isdecimal():
        raise ArgumentError(f"DRM_THREADS must be a non-negative integer, got {raw!r}")
    return int(raw)


def _thread_count(n_items: int, method: str) -> int:
    """Layer workers, at most one per layer. An explicit ``DRM_THREADS``
    caps every method. Unset, empty or 0 means one layer at a time for
    drm-h/drm-v, whose stacked SVD BLAS already spreads over every core (a
    layer pool on top only oversubscribes the cores), and one worker per
    core for the other methods, whose single-threaded kernels and reads the
    pool overlaps."""
    cap = _threads_setting() or (1 if method in DRM_ORIENTATIONS else os.cpu_count() or 1)
    return max(1, min(cap, n_items))


def _stack_order(method: str, shape: tuple[int, int], n_tasks: int) -> str:
    """The :func:`~drm.bundle.layer_delta_set` buffer order for a layer of
    ``shape`` merged with ``method``. drm-h's and drm-v's SVD input is a
    rows x N*cols matrix (m x N*n, or n x N*m for the transposed deltas).
    Where ``thin_svd`` factors that input in place only when it is
    C-ordered (see :func:`~drm.linalg.in_place_order`), the stack is laid
    out rows x N x cols, whose side-by-side matrix is a C-ordered view, so
    an owned stack is factored where it lies. Every other stack is
    task-major: drm-v's input is then a Fortran-ordered view, factored in
    place too, and a tall or square drm-h input is copied."""
    orientation = DRM_ORIENTATIONS.get(method)
    if orientation is None:
        return "tij"
    rows, cols = "ij" if orientation == "horizontal" else "ji"
    height, width = shape if orientation == "horizontal" else shape[::-1]
    if in_place_order((height, n_tasks * width)) == "C":
        return rows + "t" + cols
    return "tij"


def merge_bundle(
    base: TensorBundle | BundleFile,
    tasks: list[TensorBundle | BundleFile],
    cfg: MergeConfig,
    task_names: list[str] | None = None,
) -> TensorBundle:
    """Merge task checkpoints onto the base; see :func:`merge_bundle_with_stats`."""
    merged, _ = merge_bundle_with_stats(base, tasks, cfg, task_names)
    return merged


def merge_bundle_with_stats(
    base: TensorBundle | BundleFile,
    tasks: list[TensorBundle | BundleFile],
    cfg: MergeConfig,
    task_names: list[str] | None = None,
) -> tuple[TensorBundle, list[LayerStats]]:
    """Merge whole checkpoints: matrices via the configured method, biases
    via weighted averaging. Output dtypes follow the base bundle per tensor
    and the metadata records the configuration. Layers are independent, so
    other methods merge them in a pool of one worker per core, while
    drm-h/drm-v merge one layer at a time and leave the cores to BLAS. An
    explicit ``DRM_THREADS`` caps the layer pool for every method (unset,
    empty or 0 chooses as above); merged bytes do not depend on it.

    Names and shapes are checked up front. Each layer worker then reads
    that layer's input tensors (from disk, for a :class:`BundleFile`), and
    takes them from float64 deltas to the output dtype, so input tensors and
    float64 copies exist only for the layers in flight.
    """
    task_names = check_aligned(base, tasks, task_names)
    n_tasks = len(tasks)
    bias_lams = (
        np.ones(n_tasks) if cfg.method == "simple_avg" else cfg.task_lambdas(n_tasks)
    )

    def one_layer(name: str) -> tuple[np.ndarray, dict]:
        arr = base.read(name)
        if arr.ndim != 2:
            merged = merge_biases(arr, [task.read(name) for task in tasks], bias_lams)
            with np.errstate(over="ignore"):
                return merged.astype(arr.dtype, copy=False), {}
        order = _stack_order(cfg.method, arr.shape, n_tasks)
        ds = layer_delta_set(name, arr, tasks, task_names, order)
        ds._owned = True  # built here for this merge alone, which consumes it
        try:
            delta, info = _merge_delta_set_with_stats(ds, cfg)
        except (DrmError, ValueError) as exc:
            raise type(exc)(f"layer {name!r}: {exc}") from exc
        del ds
        cast = np.empty(arr.shape, dtype=arr.dtype)
        # The sum in float64, rounded once to the output dtype.
        with np.errstate(over="ignore"):
            np.add(arr, delta, out=cast, dtype=np.float64, casting="unsafe")
        return cast, info

    layer_names = base.names()
    workers = _thread_count(
        sum(len(base.shape(name)) == 2 for name in layer_names), cfg.method
    )
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_layer, layer_names))
    else:
        results = [one_layer(name) for name in layer_names]

    meta = dict(base.metadata)
    meta["merge.method"] = cfg.method
    meta["merge.config"] = canonical_json(cfg.as_dict())
    meta["merge.lambdas"] = canonical_json([float(l) for l in bias_lams])
    meta["merge.tasks"] = canonical_json(task_names)
    out = TensorBundle(metadata=meta)
    stats: list[LayerStats] = []
    for name, (cast, info) in zip(layer_names, results):
        stats.append(
            LayerStats(
                name,
                cast.shape,
                rank=info.get("rank"),
                kept=info.get("kept"),
                total=info.get("total"),
            )
        )
        try:
            out.add(name, cast)
        except NonFiniteValue as exc:
            raise CastOverflow(f"layer {name!r}: merged values overflow {cast.dtype}") from exc
    return out, stats

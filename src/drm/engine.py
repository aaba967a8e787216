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
from .linalg import nonzero_sigma_mask, thin_svd

METHODS = ("drm_h", "drm_v", "simple_avg", "task_arithmetic", "ties", "dare_ties")
ORIENTATIONS = ("horizontal", "vertical")
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

    ``renorm_blocks`` is one N x r x dim array: block t holds the rows of
    task t's slice of the non-shared factor, each scaled to unit length.
    ``row_norms[t, i]`` is the 2-norm that row i of task t had before; the
    squared norms of any active row sum to one across tasks (the unit budget
    of a partitioned orthonormal factor). For the horizontal orientation
    ``U @ diag(task_sigmas[t]) @ renorm_blocks[t]`` reconstructs task t's
    delta; vertically the same product reconstructs the transposed delta
    (blocks are stored transposed so both orientations expose r x dim
    blocks).
    """

    orientation: str
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


def decompose_joint(ds: DeltaSet, orientation: str = "horizontal") -> JointDecomposition:
    """Decompose the stacked deltas and renormalize the per-task blocks.

    The vertical orientation decomposes the transposed deltas. The SVD
    reads :meth:`DeltaSet.side_by_side`: for a task-major stack that is a
    copy horizontally and a view of the stack vertically. An owned stack
    is released once that matrix exists, so drm-h's stack is freed before
    the SVD, and the SVD may overwrite that matrix: drm-v's stack, which
    the view keeps alive, is factored where it lies and then holds the
    right factor.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    n_tasks = ds.n_tasks
    if orientation == "vertical":
        n_cols = ds.base_shape[0]
        stacked = ds.transposed().side_by_side()
    else:
        n_cols = ds.base_shape[1]
        stacked = ds.side_by_side()
    owned = ds._owned
    if owned:
        ds.deltas = None
    svd = thin_svd(stacked, overwrite_a=owned)
    del stacked
    r = svd.sigma.size
    row_norms = np.empty((n_tasks, r))
    renorm_blocks = np.empty((n_tasks, r, n_cols))
    for t in range(n_tasks):
        block = svd.Vt[:, t * n_cols : (t + 1) * n_cols]
        norms = np.linalg.norm(block, axis=1)
        row_norms[t] = norms
        safe = np.where(norms > ZERO_ROW_NORM, norms, 1.0)
        np.divide(block, safe[:, None], out=renorm_blocks[t])
        renorm_blocks[t, norms <= ZERO_ROW_NORM] = 0.0
    row_norms[row_norms <= ZERO_ROW_NORM] = 0.0
    return JointDecomposition(
        orientation=orientation,
        U=svd.U,
        sigma=svd.sigma.copy(),
        row_norms=row_norms,
        renorm_blocks=renorm_blocks,
    )


def _keep_count(retain: float, total: int) -> int:
    # ceil with a guard against float dust (0.2 * 15 == 3.0000000000000004).
    if total == 0:
        return 0
    return min(total, max(0, math.ceil(retain * total - 1e-9)))


def truncate_rank(jd: JointDecomposition, rank_drop: float) -> JointDecomposition:
    """Zero all but the top ceil((1 - rank_drop) * rank) components.

    Ranking uses the shared singular values, before any renormalized
    per-task rescaling could reorder them. rank_drop = 0 is the identity.
    """
    if not (0.0 <= rank_drop < 1.0):
        raise ValueError(f"rank_drop must lie in [0, 1), got {rank_drop}")
    if rank_drop == 0.0:
        return jd
    keep = _keep_count(1.0 - rank_drop, jd.rank)
    dead = np.arange(jd.sigma.size) >= keep  # sigma is sorted, so the tail goes
    U = jd.U.copy()
    U[:, dead] = 0.0
    row_norms = jd.row_norms.copy()
    row_norms[:, dead] = 0.0
    renorm = jd.renorm_blocks.copy()
    renorm[:, dead] = 0.0
    return JointDecomposition(
        orientation=jd.orientation,
        U=U,
        sigma=np.where(dead, 0.0, jd.sigma),
        row_norms=row_norms,
        renorm_blocks=renorm,
    )


def _topk_mask(x: np.ndarray, keep: int) -> np.ndarray:
    """Bool mask of the ``keep`` largest |x|, ties at the cutoff going to
    the smaller flattened index."""
    if keep == 0:
        return np.zeros(x.shape, dtype=bool)
    # Selection, not a sort: everything above the keep-th largest magnitude
    # survives, and the remaining slots go to entries equal to it in
    # flattened order -- the same mask a stable sort on -|x| gives.
    mags = np.abs(x).reshape(-1)
    cut = mags.size - keep
    mags.partition(cut)
    cutoff = mags[cut]
    del mags
    mask = x > cutoff
    mask |= x < -cutoff
    ties = np.flatnonzero((x == cutoff) | (x == -cutoff))
    mask.reshape(-1)[ties[: keep - np.count_nonzero(mask)]] = True
    return mask


def prune_topk(stack: np.ndarray, retain: float, mode: str = "joint") -> np.ndarray:
    """Boolean keep-mask, shaped like ``stack``, for the top-``retain``
    fraction by magnitude of an N x rows x cols stack of blocks.

    Joint mode pools every entry of every block before ranking; individual
    mode ranks inside each block. Exactly ceil(retain * pool_size) entries
    are kept per pool; ties at the cutoff keep the smaller
    (task, row, col) index. Structural zeros compete and lose.
    """
    if not (0.0 < retain <= 1.0):
        raise ValueError(f"retain must lie in (0, 1], got {retain}")
    if mode not in PRUNE_MODES:
        raise ValueError(f"mode must be one of {PRUNE_MODES}")
    stack = np.asarray(stack, dtype=np.float64)
    if mode == "joint":
        return _topk_mask(stack, _keep_count(retain, stack.size))
    mask = np.empty(stack.shape, dtype=bool)
    for t, block in enumerate(stack):
        mask[t] = _topk_mask(block, _keep_count(retain, block.size))
    return mask


def kept_counts(mask: np.ndarray | None, stack: np.ndarray) -> dict:
    """``kept``/``total`` entry counts of a prune; ``mask=None`` keeps all."""
    total = int(np.size(stack))
    kept = total if mask is None else int(np.count_nonzero(mask))
    return {"kept": kept, "total": total}


def elect_signs(stack: np.ndarray) -> np.ndarray:
    """Dominant sign per position of the sum over the stack's first axis;
    zero sums elect +1."""
    stack = np.asarray(stack, dtype=np.float64)
    total = stack[0].copy()
    for block in stack[1:]:
        total += block
    return np.where(total < 0.0, -1.0, 1.0)


def agreeing_entries(stack: np.ndarray, signs: np.ndarray | None) -> np.ndarray:
    """Bool mask of the stack's nonzero entries whose sign is the elected
    one; ``signs=None`` skips the sign test."""
    stack = np.asarray(stack, dtype=np.float64)
    agree = stack != 0.0
    if signs is not None:
        agree &= (stack < 0.0) == (signs < 0.0)
    return agree


def survivor_filter(
    agree: np.ndarray, mask: np.ndarray | None, disjoint: bool = True
) -> tuple[np.ndarray, np.ndarray | float]:
    """The entries that enter the average and the per-position scale gamma.

    Survivors are the ``agree`` entries (see :func:`agreeing_entries`) that
    also pass ``mask`` (``None`` passes all). gamma is the reciprocal
    survivor count per position (zero where nobody survives), or the
    constant 1/N with ``disjoint=False``.
    """
    survivors = agree if mask is None else agree & mask
    if not disjoint:
        return survivors, 1.0 / survivors.shape[0]
    # The narrowest integer type that holds N makes the count a fast add.
    counts = survivors.sum(axis=0, dtype=np.min_scalar_type(survivors.shape[0]))
    with np.errstate(divide="ignore"):
        gamma = 1.0 / counts
    gamma[counts == 0] = 0.0
    return survivors, gamma


def _per_task(lambdas, n_tasks: int) -> np.ndarray:
    """One float64 coefficient per task from one shared value or a list."""
    lams = np.asarray(lambdas, dtype=np.float64).reshape(-1)
    if lams.size == 1:
        return np.full(n_tasks, lams[0])
    if lams.size != n_tasks:
        raise ShapeMismatch(f"got {lams.size} lambdas for {n_tasks} tasks")
    return lams


def disjoint_average(
    stack: np.ndarray, survivors: np.ndarray, gamma: np.ndarray | float, lambdas
) -> np.ndarray:
    """gamma times the coefficient-weighted sum over tasks of the surviving
    entries; see :func:`survivor_filter`."""
    stack = np.asarray(stack, dtype=np.float64)
    lams = _per_task(lambdas, stack.shape[0])
    if survivors.shape != stack.shape:
        raise ShapeMismatch("the stack and its survivor mask must share one shape")
    weighted = np.zeros(stack.shape[1:])
    term = np.empty_like(weighted)
    for block, keep, lam in zip(stack, survivors, lams):
        # block * keep is the block or a signed zero; a zero term leaves
        # the sum's bytes as they are.
        np.multiply(block, keep, out=term)
        term *= lam
        weighted += term
    weighted *= gamma
    return weighted


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
    orientation = "vertical" if cfg.method == "drm_v" else "horizontal"
    n_tasks = ds.n_tasks
    jd = truncate_rank(decompose_joint(ds, orientation), cfg.rank_drop)
    stack = jd.renorm_blocks
    masks = [
        prune_topk(stack, row[0].retain, cfg.prune_mode) if cfg.enable_prune else None
        for row in points
    ]
    stack *= jd.task_sigmas[:, :, None]  # jd.renorm_blocks is not used again
    agree = agreeing_entries(stack, elect_signs(stack) if cfg.enable_sign_elect else None)
    for row, mask in zip(points, masks):
        stats = {"rank": jd.rank, **kept_counts(mask, stack)}
        survivors, gamma = survivor_filter(agree, mask, cfg.enable_disjoint)
        for point in row:
            merged_block = disjoint_average(
                stack, survivors, gamma, point.task_lambdas(n_tasks)
            )
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


def _thread_count(n_items: int, method: str) -> int:
    """Layer workers, at most one per layer. An explicit ``DRM_THREADS``
    caps every method. Unset, empty or 0 means one layer at a time for
    drm-h/drm-v, whose stacked SVD BLAS already spreads over every core (a
    layer pool on top only oversubscribes the cores), and one worker per
    core for the other methods, whose single-threaded kernels and reads the
    pool overlaps. Anything but a non-negative integer is an
    :class:`ArgumentError`."""
    raw = os.environ.get("DRM_THREADS") or "0"
    if not raw.isdecimal():
        raise ArgumentError(f"DRM_THREADS must be a non-negative integer, got {raw!r}")
    cap = int(raw) or (1 if method in ("drm_h", "drm_v") else os.cpu_count() or 1)
    return max(1, min(cap, n_items))


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
    explicit ``DRM_THREADS`` caps the pool for every method (unset, empty or
    0 chooses as above); merged bytes do not depend on it.

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
        if arr.ndim == 2:
            ds = layer_delta_set(name, arr, tasks, task_names)
            ds._owned = True  # built here for this merge alone, which consumes it
            try:
                delta, info = _merge_delta_set_with_stats(ds, cfg)
            except (DrmError, ValueError) as exc:
                raise type(exc)(f"layer {name!r}: {exc}") from exc
            del ds
            merged = arr.astype(np.float64)
            merged += delta
        else:
            merged = merge_biases(arr, [task.read(name) for task in tasks], bias_lams)
            info = {}
        with np.errstate(over="ignore"):
            return merged.astype(arr.dtype, copy=False), info

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

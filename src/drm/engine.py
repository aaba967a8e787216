"""Joint-decomposition merging engine.

The pipeline for one layer: stack the task deltas, take a thin SVD, split
the non-shared factor into per-task blocks, renormalize each block row to
unit length while moving its norm into a per-task scale, then prune by
magnitude, elect dominant signs, disjoint-average, and project back to
parameter space. The vertical variant runs the same pipeline on transposed
deltas and transposes the result.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .bundle import BundleFile, DeltaSet, TensorBundle, canonical_json, check_aligned
from .errors import ArgumentError, CastOverflow, DrmError, NonFiniteValue, ShapeMismatch
from .linalg import in_place_order, nonzero_sigma_mask, thin_svd

# The orientation in which each drm method decomposes its stack.
DRM_ORIENTATIONS = {"drm_h": "horizontal", "drm_v": "vertical"}
ORIENTATIONS = tuple(DRM_ORIENTATIONS.values())
# The spaces in which drm.analysis tallies sign agreement; a -h/-v suffix
# names the orientation.
SPACES = ("original", "decomposed-h", "decomposed-v", "backprojected-h", "backprojected-v")
METHODS = (*DRM_ORIENTATIONS, "simple_avg", "task_arithmetic", "ties", "dare_ties")
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
    pruning (1.0 keeps every entry); ``dare_drop`` the random drop rate;
    ``rank_drop`` the fraction of nonzero spectrum discarded before
    merging. Simple averaging ignores the coefficients: :meth:`task_lambdas`
    resolves them to ones. Fields are checked on their own, a list's length
    in :meth:`task_lambdas`.
    """

    method: str = "drm_h"
    retain: float = 0.2
    lambdas: float | tuple[float, ...] | None = None
    dare_drop: float = 0.8
    rank_drop: float = 0.0
    prune_mode: str = "joint"
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
            lams = float(self.lambdas) if np.ndim(self.lambdas) == 0 else tuple(map(float, self.lambdas))
            if not np.all(np.isfinite(lams)):
                raise ValueError("lambdas must be finite")
            object.__setattr__(self, "lambdas", lams)

    def task_lambdas(self, n_tasks: int) -> np.ndarray:
        """The setting, or the method's default, per task (see :func:`_per_task`)."""
        if self.lambdas is None or self.method == "simple_avg":
            return _per_task(0.4 if self.method == "task_arithmetic" else 1.0, n_tasks)
        return _per_task(self.lambdas, n_tasks)


def _per_task(lambdas, n_tasks: int) -> np.ndarray:
    """One float64 coefficient per task, the only resolver of a setting: a
    scalar is shared, a sequence must hold exactly one value per task, and
    anything else raises ``ValueError``."""
    if np.ndim(lambdas) == 0:
        return np.full(n_tasks, float(lambdas))
    lams = np.asarray(lambdas, dtype=np.float64)
    if lams.shape != (n_tasks,):
        raise ValueError(f"got {lams.size} lambdas for {n_tasks} tasks")
    return lams


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
    reads :meth:`DeltaSet.side_by_side`, a view of a stack that
    :func:`extract_deltas` laid out for the orientation's drm method, and a
    copy otherwise. An owned stack is released once that matrix exists. The
    SVD may overwrite that matrix unless it is a view of a caller's stack,
    so an owned stack laid out for its SVD, and the copy of any other
    stack, are factored where they lie.

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
    # Task t's block is columns t*n .. (t+1)*n of the right factor, which
    # is the SVD's own: the blocks are renormalized where they lie.
    renorm_blocks = svd.Vt.reshape(r, n_tasks, n_cols).transpose(1, 0, 2)
    row_norms = np.empty((n_tasks, r))
    for t, block in enumerate(renorm_blocks):  # one block's temporary at a time
        row_norms[t] = np.linalg.norm(block, axis=1)
    zero = (row_norms <= ZERO_ROW_NORM) | dead
    np.divide(renorm_blocks, np.where(zero, 1.0, row_norms)[:, :, None], out=renorm_blocks)
    renorm_blocks[zero] = 0.0
    row_norms[zero] = 0.0
    return JointDecomposition(
        U=svd.U, sigma=svd.sigma, row_norms=row_norms, renorm_blocks=renorm_blocks
    )


def _keep_count(retain: float, total: int) -> int:
    # ceil with a guard against float dust (0.2 * 15 == 3.0000000000000004);
    # a positive share of a non-empty pool keeps at least one.
    return min(total, max(1, math.ceil(retain * total - 1e-9)))


# Entries a chunked pass (extraction into a strided stack, the prune sweep,
# the tail) takes at a time (512 KiB of float64), so that its temporaries
# and the partial results it revisits stay in cache.
_CHUNK = 1 << 16
# Magnitudes sampled to bracket a prune pool's cutoff. A pool of at most
# 4 * _SAMPLE entries is partitioned outright.
_SAMPLE = 1 << 14


def _as_stack(stack) -> np.ndarray:
    """The N x rows x cols ``stack`` (or list of equal-shape blocks) as a
    float64 array (a view where it can be)."""
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ShapeMismatch(f"expected an N x rows x cols stack, got shape {stack.shape}")
    return stack


def _chunks(n_rows: int, n_cols: int) -> list[slice]:
    """Row ranges that cut an n_rows x n_cols plane into pieces of about
    :data:`_CHUNK` entries, and of at least one row."""
    count = max(1, n_rows // max(1, _CHUNK // max(n_cols, 1)))
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
    if keep == x.size:  # every entry; _keep_count keeps at least one of a non-empty pool
        mask[...] = True
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
    return mask


def kept_counts(mask: np.ndarray) -> dict:
    """``kept``/``total`` entry counts of a prune's keep-mask."""
    return {"kept": int(np.count_nonzero(mask)), "total": int(mask.size)}


def elect_signs(stack: np.ndarray) -> np.ndarray:
    """Dominant sign per position of the sum over the stack's first axis;
    zero sums elect +1."""
    x = _as_stack(stack)
    total = _task_sum(x, np.empty(x.shape[1:]))
    return np.where(total < 0.0, -1.0, 1.0)


def _reciprocal_counts(counts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-position survivor counts to the disjoint scale gamma: 1/count,
    or 0 where nobody survives."""
    # (count != 0) / max(count, 1) is 1.0 / count, or 0 / 1: no division by
    # zero to mend with a masked store, which cost three times the division.
    return np.divide(counts != 0, np.maximum(counts, 1), out=out)


def disjoint_average(
    stack: np.ndarray,
    cfg: MergeConfig,
    prepare=None,
    mask: np.ndarray | None = None,
    in_place: bool = False,
) -> np.ndarray:
    """The disjoint-merge tail of drm-h, drm-v, TIES and DARE-TIES: the
    merged plane of the N x m x n ``stack`` at ``cfg``'s coefficients.

    Where ``cfg.enable_sign_elect``, the sign of the task sum is elected
    (see :func:`elect_signs`) and only entries of that sign survive;
    survivors are the nonzero entries that also pass ``mask`` where given.
    The plane is gamma times the coefficient-weighted sum of the survivors,
    gamma being 1/count per position (0 where nobody survives), or 1/N
    without ``cfg.enable_disjoint``.

    The pass runs over row chunks of the stack (see :func:`_chunks`), so
    that each chunk's preparation, election, survivor test and sums happen
    while it is in cache. ``prepare(t, rows, block, spare)``, where given,
    first prunes or drops task t's ``block`` of those ``rows`` in place
    (``spare`` is a bool buffer of its shape); the stack then must be the
    merge's own. ``mask`` joins the survivor test after the election.
    ``in_place``, for the stack's last use, overwrites each chunk with its
    survivors instead of writing them to a chunk-sized buffer.
    """
    stack = _as_stack(stack)
    n_tasks, n_rows, n_cols = stack.shape
    lambdas = cfg.task_lambdas(n_tasks)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.shape != stack.shape:
            raise ShapeMismatch("the stack and its survivor mask must share one shape")
    plane = np.zeros((n_rows, n_cols))
    parts = _chunks(n_rows, n_cols)
    counts = _scratch(parts, n_cols, np.min_scalar_type(n_tasks))
    keep, below, negative = (_scratch(parts, n_cols, bool) for _ in range(3))
    terms = None if in_place else _scratch(parts, n_cols)
    for part in parts:
        size = part.stop - part.start
        blocks, total = stack[:, part], plane[part]
        count, kept, under = counts[:size], keep[:size], below[:size]
        if prepare is not None:
            for t in range(n_tasks):
                prepare(t, part, blocks[t], kept)
        neg = None
        if cfg.enable_sign_elect:
            # elect_signs' sum, held in this chunk of the plane; -1 is
            # elected where it is negative. Calling elect_signs per chunk
            # would add its +-1 array and the passes that write it, and its
            # per-call work, to every chunk.
            neg = np.less(_task_sum(blocks, total), 0.0, out=negative[:size])
            total.fill(0.0)
        count.fill(0)
        for t, block in enumerate(blocks):
            np.not_equal(block, 0.0, out=kept)
            if neg is not None:
                np.less(block, 0.0, out=under)
                kept &= np.equal(under, neg, out=under)
            if mask is not None:
                kept &= mask[t, part]
            count += kept
            # block * kept is the block or a signed zero; a zero term leaves
            # the sum's bytes as they are. Multiplying by a coefficient of 1
            # changes no byte, so that multiply is skipped, and any other
            # scales the term where it lies.
            term = np.multiply(block, kept, out=block if in_place else terms[:size])
            if lambdas[t] != 1.0:
                term *= lambdas[t]
            total += term
        # The chunk's terms are spent: the last one's buffer holds gamma.
        total *= _reciprocal_counts(count, out=term) if cfg.enable_disjoint else 1.0 / n_tasks
    return plane


def merge_drm(ds: DeltaSet, cfg: MergeConfig) -> tuple[np.ndarray, dict]:
    """Run the full joint-space pipeline: the merged delta and its
    ``rank``/``kept``/``total`` stats, the one-``retain`` case of
    :func:`_drm_grid`."""
    if cfg.method not in DRM_ORIENTATIONS:
        raise ValueError(f"merge_drm handles drm_h/drm_v, not {cfg.method!r}")
    return next(_drm_grid(ds, cfg, [cfg.retain]))


def _drm_grid(ds: DeltaSet, cfg: MergeConfig, retains: list[float]):
    """Yield ``(merged delta, stats)`` for each ``retain`` in ``retains``,
    the rest of the settings, the coefficients among them, taken from
    ``cfg``.

    The layer lives in one N x r x dim float64 stack, rewritten in place:
    the renormalized blocks are pruned once per ``retain``, then scaled by
    ``task_sigmas`` into the blocks that elect signs and are averaged, by
    one :func:`disjoint_average` pass per ``retain`` that takes its prune
    mask at the survivor test and writes that ``retain``'s one plane. A
    wrong coefficient count raises before the decomposition, which runs
    once for the whole grid; each plane is projected once. The vertical
    variant is the horizontal pipeline on transposed deltas, transposed
    back (exact duality).
    """
    cfg.task_lambdas(ds.n_tasks)  # raises on a wrong count before the SVD
    orientation = DRM_ORIENTATIONS[cfg.method]
    jd = decompose_joint(ds, orientation, cfg.rank_drop)
    stack = jd.renorm_blocks
    masks = [prune_topk(stack, retain, cfg.prune_mode) for retain in retains]
    # Scaled in place: jd.renorm_blocks is not used again.
    np.multiply(stack, jd.task_sigmas[:, :, None], out=stack)
    for i, mask in enumerate(masks):
        stats = {"rank": jd.rank, **kept_counts(mask)}
        last = i == len(masks) - 1
        merged = jd.U @ disjoint_average(stack, cfg, mask=mask, in_place=last)
        yield (merged.T if orientation == "vertical" else merged), stats


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


def merge_delta_set(ds: DeltaSet, cfg: MergeConfig) -> tuple[np.ndarray, dict]:
    """Dispatch one layer's DeltaSet to the configured method: the merged
    delta and its stats (empty for averaging, TA and DARE-TIES)."""
    from . import baselines  # local import: baselines builds on this module's ops

    if cfg.method in DRM_ORIENTATIONS:
        return merge_drm_with_stats(ds, cfg)
    if cfg.method == "simple_avg":
        # Averaging the full weights equals base + the mean delta.
        return np.mean(ds.deltas, axis=0), {}
    if cfg.method == "task_arithmetic":
        return baselines.task_arithmetic(ds, cfg.task_lambdas(ds.n_tasks)), {}
    if cfg.method == "ties":
        return baselines.ties_merge(ds, cfg)
    return baselines.dare_ties_merge(ds, cfg), {}


# drmbench's tracer wraps these names, which this module calls; in-package spans retire them.
merge_drm_with_stats = merge_drm
_merge_delta_set_with_stats = merge_delta_set


def merge_delta_set_grid(ds: DeltaSet, cfg: MergeConfig, retain_grid):
    """Merge one layer at every ``retain`` of ``retain_grid``.

    Yields ``(merged delta, stats)`` in grid order. Each equals
    ``merge_delta_set(ds, cfg)`` with that ``retain`` swapped
    in, byte for byte, at ``cfg``'s own coefficients. drm-h and drm-v share
    their retain-independent stages across the grid (see
    :func:`_drm_grid`); every other method merges each ``retain`` from
    scratch. Every ``retain`` is checked, by a config of its own, and the
    coefficient count, before the first merge.
    """
    configs = [dataclasses.replace(cfg, retain=retain) for retain in retain_grid]
    if cfg.method in DRM_ORIENTATIONS:
        yield from _drm_grid(ds, cfg, retain_grid)
        return
    cfg.task_lambdas(ds.n_tasks)  # raises on a wrong count before any merge
    for point in configs:
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
    usable core (by the process's CPU affinity, where the platform has one)
    for the other methods, whose single-threaded kernels and reads the pool
    overlaps."""
    cap = _threads_setting()
    if not cap and method not in DRM_ORIENTATIONS:
        cap = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cap or 1, n_items))


def extract_deltas(
    name: str,
    base: np.ndarray,
    tasks: list[TensorBundle | BundleFile],
    task_names: list[str],
    method: str | None = None,
) -> DeltaSet:
    """One rank-2 tensor's task - base deltas as one float64 stack, given the
    base bundle's tensor ``name``, for bundles that passed
    :func:`check_aligned`. Each task tensor is read here and dropped once
    its slice of the stack is filled, so a caller going layer by layer
    holds one layer's float64 data at a time.

    The stack is laid out for ``method``'s SVD input, the rows x N*cols
    matrix :meth:`DeltaSet.side_by_side` (m x N*n for drm-h, n x N*m for
    drm-v's transposed deltas). Where ``thin_svd`` factors that input in
    place only when it is C-ordered (a wide one; see
    :func:`~drm.linalg.in_place_order`), the stack is a view of a rows x N
    x cols buffer, whose side-by-side matrix is a C-ordered view, so an
    owned stack is factored where it lies. Every other stack, ``method=None``
    included, is task-major: drm-v's input is then a Fortran-ordered view,
    factored in place too, and a tall or square drm-h input is copied. The
    values never depend on ``method``.
    """
    (m, n), n_tasks = base.shape, len(tasks)
    orientation = DRM_ORIENTATIONS.get(method)
    rows, cols = (m, n) if orientation == "horizontal" else (n, m)
    if orientation is not None and in_place_order((rows, n_tasks * cols)) == "C":
        axes = (1, 0, 2) if orientation == "horizontal" else (1, 2, 0)
        stack = np.empty((rows, n_tasks, cols)).transpose(axes)
    else:
        stack = np.empty((n_tasks, m, n))
    for task, out in zip(tasks, stack):
        _subtract_into(task.read(name), base, out)
    return DeltaSet(name, base.shape, stack, list(task_names))


def _subtract_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = a - b`` in float64 for m x n matrices. Where ``out``'s
    rows are not contiguous (a wide drm-v stack's), each row chunk (see
    :func:`_chunks`) is subtracted into a scratch buffer that stays in cache
    while it is written out column by column."""
    if out.strides[1] == out.itemsize:
        np.subtract(a, b, out=out, dtype=np.float64)
        return
    parts = _chunks(*out.shape)
    tile = _scratch(parts, out.shape[1])
    for part in parts:
        out[part] = np.subtract(a[part], b[part], out=tile[: part.stop - part.start],
                                dtype=np.float64)


def map_layers(base, tasks, task_names: list[str], method: str, on_matrix, on_vector=None):
    """``{name: result}`` over the tensors of bundles that passed
    :func:`check_aligned`, in base order. A rank-2 tensor's result is
    ``on_matrix(base value, ds)``, where ``ds`` is its task deltas in an
    owned stack laid out for ``method`` (see :func:`extract_deltas`), which
    that call may consume; a :class:`DrmError` or ``ValueError`` it raises
    is raised again with the layer named. A rank-1 tensor's result is
    ``on_vector(base value, task values)``; without ``on_vector`` rank-1
    tensors are neither read nor listed.

    Each call reads its layer's tensors (from disk, for a
    :class:`BundleFile`), so input tensors and float64 stacks exist only for
    the layers in flight. Layers run in a pool of :func:`_thread_count`
    workers; results do not depend on the pool's size. With one worker the
    layers run in this thread, and ``concurrent.futures`` (which loads
    ``logging``) is not imported.
    """

    def one_layer(name: str):
        value = base.read(name)
        if value.ndim != 2:
            return on_vector(value, [task.read(name) for task in tasks])
        ds = extract_deltas(name, value, tasks, task_names, method)
        ds._owned = True
        try:
            return on_matrix(value, ds)
        except (DrmError, ValueError) as exc:
            raise type(exc)(f"layer {name!r}: {exc}") from exc

    names = [name for name in base.names() if on_vector is not None or len(base.shape(name)) == 2]
    workers = _thread_count(sum(len(base.shape(name)) == 2 for name in names), method)
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return dict(zip(names, pool.map(one_layer, names)))
    return {name: one_layer(name) for name in names}


def merge_bundle(
    base: TensorBundle | BundleFile,
    tasks: list[TensorBundle | BundleFile],
    cfg: MergeConfig,
    task_names: list[str] | None = None,
) -> tuple[TensorBundle, list[LayerStats]]:
    """Merge whole checkpoints: matrices via the configured method, biases
    via weighted averaging. Returns the merged bundle and one
    :class:`LayerStats` per tensor. Output dtypes follow the base bundle
    per tensor and the metadata records the configuration.

    Names and shapes are checked up front; :func:`map_layers` then walks
    the layers. Other methods merge them in a pool of one worker per core,
    while drm-h/drm-v merge one layer at a time and leave the cores to BLAS.
    An explicit ``DRM_THREADS`` caps the layer pool for every method (unset,
    empty or 0 chooses as above); merged bytes do not depend on it. Each
    layer goes from float64 deltas to the output dtype in its own call, and
    its stack is freed before the cast.
    """
    task_names = check_aligned(base, tasks, task_names)
    bias_lams = cfg.task_lambdas(len(tasks))

    def merge_matrix(value: np.ndarray, ds: DeltaSet) -> tuple[np.ndarray, dict]:
        delta, info = _merge_delta_set_with_stats(ds, cfg)
        ds.deltas = None  # spent; map_layers still holds ds during the cast
        cast = np.empty(value.shape, dtype=value.dtype)
        # The sum in float64, rounded once to the output dtype.
        with np.errstate(over="ignore"):
            np.add(value, delta, out=cast, dtype=np.float64, casting="unsafe")
        return cast, info

    def merge_vector(value: np.ndarray, task_values: list[np.ndarray]) -> tuple[np.ndarray, dict]:
        merged = merge_biases(value, task_values, bias_lams)
        with np.errstate(over="ignore"):
            return merged.astype(value.dtype, copy=False), {}

    results = map_layers(base, tasks, task_names, cfg.method, merge_matrix, merge_vector)

    meta = dict(base.metadata)
    meta["merge.method"] = cfg.method
    meta["merge.config"] = canonical_json(dataclasses.asdict(cfg))
    meta["merge.lambdas"] = canonical_json([float(l) for l in bias_lams])
    meta["merge.tasks"] = canonical_json(task_names)
    out = TensorBundle(metadata=meta)
    stats: list[LayerStats] = []
    for name, (cast, info) in results.items():
        stats.append(LayerStats(name, cast.shape, **info))
        try:
            out.add(name, cast)
        except NonFiniteValue as exc:
            raise CastOverflow(f"layer {name!r}: merged values overflow {cast.dtype}") from exc
    return out, stats

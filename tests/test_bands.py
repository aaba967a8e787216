"""Row bands: each element-wise stage walks its stack in row chunks
(``drm.engine._chunks``), and its bytes do not depend on the chunk size; the
prune finds the exact cutoff without a copy of the stack; and a merge starts
only the layer workers DRM_THREADS allows."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drm
import drm.engine
from drm.bundle import DeltaSet, TensorBundle
from drm.engine import (
    MergeConfig,
    merge_bundle_with_stats,
    merge_delta_set_grid,
    prune_topk,
)


def partition_prune(stack, retain, mode):
    """The keep-mask from a partition of a copy of each pool's magnitudes,
    ties at the cutoff filled in flattened order."""
    stack = np.asarray(stack, dtype=np.float64)
    pools = [stack] if mode == "joint" else list(stack)
    masks = []
    for pool in pools:
        mags = np.abs(pool).ravel()
        keep = min(mags.size, max(0, math.ceil(retain * mags.size - 1e-9)))
        mask = np.zeros(mags.size, dtype=bool)
        if keep:
            cut = mags.size - keep
            cutoff = np.partition(mags, cut)[cut]
            mask = mags > cutoff
            ties = np.flatnonzero(mags == cutoff)
            mask[ties[: keep - np.count_nonzero(mask)]] = True
        masks.append(mask.reshape(pool.shape))
    return masks[0] if mode == "joint" else np.stack(masks)


# ---------------------------------------------------------------- prune


@pytest.mark.parametrize("mode, kept", [("individual", 102), ("joint", 101)])
def test_prune_keeps_the_ties_of_a_strided_stack(mode, kept):
    # A transposed DeltaSet's stack is not C-ordered; its tie slots were
    # once written into a copy of the mask and lost (72 kept).
    rng = np.random.default_rng(0)
    d = rng.standard_normal((3, 6, 8))
    d[:, :, 4:] = 0.0
    stack = DeltaSet("l", (6, 8), d, ["a", "b", "c"]).transposed().deltas
    assert not stack.flags.c_contiguous
    mask = prune_topk(stack, 0.7, mode)
    assert mask.flags.c_contiguous
    assert np.count_nonzero(mask) == kept
    assert mask.tobytes() == prune_topk(np.ascontiguousarray(stack), 0.7, mode).tobytes()
    assert mask.tobytes() == partition_prune(stack, 0.7, mode).tobytes()


def cutoff_inputs():
    rng = np.random.default_rng(5)
    shape = (3, 20, 30)
    signs = rng.choice([-1.0, 1.0], shape)
    zeros = rng.standard_normal(shape)
    zeros[:, 6:] = 0.0
    tiny = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2e-310, 1.0, -1.0], shape)
    return {
        "normal": rng.standard_normal(shape),
        "all_equal": 0.5 * signs,
        "heavy_ties": rng.integers(-3, 4, shape).astype(np.float64),
        "structural_zeros": zeros,
        "signed_zeros_and_subnormals": tiny,
    }


@pytest.fixture()
def small_sample(monkeypatch):
    # Brackets from a 64-entry sample, so a 1,800-entry stack takes the
    # bracket path and its misses are likely.
    monkeypatch.setattr(drm.engine, "_SAMPLE", 64)


@pytest.mark.parametrize("name", list(cutoff_inputs()))
def test_bracket_pass_keeps_the_partition_cutoff(name, small_sample, monkeypatch):
    x = cutoff_inputs()[name]
    total = x.size
    partitions = []
    real = drm.engine._partition_cutoff
    monkeypatch.setattr(
        drm.engine, "_partition_cutoff", lambda *a: partitions.append(a) or real(*a)
    )
    for keep in (1, 2, 17, total // 5, total // 2, total - 1, total):
        for mode in ("joint", "individual"):
            got = prune_topk(x, keep / total, mode)
            assert got.tobytes() == partition_prune(x, keep / total, mode).tobytes(), (keep, mode)
    # On continuous magnitudes, with or without a run of zeros under the
    # cutoff, the sample never misleads the pass unless the cutoff lies
    # below the smallest sampled magnitude.
    if name in ("normal", "structural_zeros"):
        partitions.clear()
        for keep in (1, 17, total // 5, total // 2):
            prune_topk(x, keep / total)
        assert partitions == []


def tie_run_inputs():
    rng = np.random.default_rng(8)
    shape = (3, 40, 60)
    signs = rng.choice([-1.0, 1.0], shape)
    half = 0.5 * signs
    half[rng.random(shape) < 0.4] = 0.0
    return {
        "integers": rng.integers(-3, 4, shape).astype(np.float64),
        "small_integers": rng.integers(-1, 2, shape).astype(np.float64),
        "equal_and_zeros": half,
        "all_equal": 0.5 * signs,
    }


@pytest.mark.parametrize("name", list(tie_run_inputs()))
def test_a_cutoff_in_a_tie_run_takes_no_partition(name, small_sample, monkeypatch):
    # Runs of equal magnitudes often put the cutoff on the bracket's upper
    # end. Its ties are then placed by a threshold pass at that value, not
    # by a partition of a copy of every magnitude: while a cutoff at the
    # upper end counted as a miss, 11, 28 and 29 of these prunes of the
    # first three stacks fell back to a partition.
    x = tie_run_inputs()[name]
    partitions = []
    real = drm.engine._partition_cutoff
    monkeypatch.setattr(
        drm.engine, "_partition_cutoff", lambda *a: partitions.append(a) or real(*a)
    )
    for retain in np.linspace(0.02, 0.98, 49):
        for mode in ("joint", "individual"):
            got = prune_topk(x, retain, mode)
            assert got.tobytes() == partition_prune(x, retain, mode).tobytes(), (retain, mode)
    assert partitions == []


def test_a_misleading_sample_falls_back_to_a_partition(small_sample, monkeypatch):
    # Every sampled position holds a large magnitude and every other entry
    # a small one, so the sample puts the 20% cutoff among the large values.
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, 1.0, (3, 20, 30))
    step = max(1, x.size // drm.engine._SAMPLE)
    while math.gcd(step, x.shape[2]) > 1:
        step += 1
    x.reshape(-1)[::step] = 100.0 + np.arange(x.reshape(-1)[::step].size)
    keep = drm.engine._keep_count(0.2, x.size)
    assert not drm.engine._bracket_mask(x, keep, np.empty(x.shape, dtype=bool))
    partitions = []
    real = drm.engine._partition_cutoff
    monkeypatch.setattr(
        drm.engine, "_partition_cutoff", lambda *a: partitions.append(a) or real(*a)
    )
    got = prune_topk(x, 0.2)
    assert len(partitions) == 1
    assert got.tobytes() == partition_prune(x, 0.2, "joint").tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, -0.0, 5e-324, 0.5, -0.5, 1.0, -1.0, 2.0]), min_size=3, max_size=3),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 1.0),
    st.sampled_from(["joint", "individual"]),
)
def test_tie_heavy_prune_matches_the_partition(values, seed, retain, mode):
    rng = np.random.default_rng(seed)
    x = rng.choice(values, (4, 18, 25))
    x[:, rng.integers(0, 18, 6)] = 0.0  # whole zero rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(drm.engine, "_SAMPLE", 32)
        got = prune_topk(x, retain, mode)
    assert got.tobytes() == partition_prune(x, retain, mode).tobytes()


# ------------------------------------------------- chunk independence

# Chunk sizes, in entries, that cut the stacks below into pieces of from
# two rows (the least :func:`drm.engine._chunks` makes) to a few dozen. At
# 4, the renormalization's chunks (four times as large) of the tall case's
# strided right factor are two rows high; one-row chunks there sum the row
# norms in another order, and this test fails.
CHUNKS = (4, 16, 64, 256)


def adapters(n_tasks, shape, rank, seed):
    rng = np.random.default_rng(seed)
    m, n = shape
    return [
        drm.materialize_low_rank(rng.standard_normal((rank, n)), rng.standard_normal((m, rank)), 1.0)
        for _ in range(n_tasks)
    ]


def band_cases():
    """(task deltas, rank_drop) per case."""
    rng = np.random.default_rng(12)
    return {
        # 13 rows: no chunk height divides them.
        "rows_not_divisible": ([rng.standard_normal((13, 40)) for _ in range(3)], 0.0),
        # 3 rows: fewer than two chunks of two rows.
        "fewer_rows_than_bands": ([rng.standard_normal((3, 40)) for _ in range(3)], 0.0),
        # The rank drop zeroes the last 7 of 14 rows of every block, so at
        # retain 0.6 the cutoff is 0 and its ties run across chunk boundaries.
        "zero_cutoff_ties": ([rng.standard_normal((14, 40)) for _ in range(3)], 0.5),
        # Rank 6 of 16: null components, on the gesdd route.
        "rank_deficient": (adapters(3, (16, 24), 2, 13), 0.0),
        "one_task": ([rng.standard_normal((12, 40))], 0.0),
        # A tall stack (120 x 36) takes the Gram route, whose right factor
        # is a strided view.
        "tall": ([rng.standard_normal((120, 12)) for _ in range(3)], 0.0),
        "m_by_0": ([np.zeros((5, 0)) for _ in range(3)], 0.0),
        "0_by_n": ([np.zeros((0, 5)) for _ in range(3)], 0.0),
    }


def grid_merges(case, method):
    deltas, rank_drop = band_cases()[case]
    ds = DeltaSet("l", deltas[0].shape, deltas, [f"t{i}" for i in range(len(deltas))])
    cfg = MergeConfig(method=method, rank_drop=rank_drop)
    return [
        (merged.tobytes(), stats)
        for merged, stats in merge_delta_set_grid(ds, cfg, [0.1, 0.6, 1.0], [0.5, 1.0])
    ]


@pytest.mark.parametrize("method", ["drm_h", "drm_v"])
@pytest.mark.parametrize("case", list(band_cases()))
def test_merge_bytes_do_not_depend_on_the_band_count(case, method, monkeypatch):
    # A drm tune grid: three prunes, six averages, one decomposition, at
    # the default chunk size and at chunks of a few rows.
    want = grid_merges(case, method)
    for chunk in CHUNKS:
        monkeypatch.setattr(drm.engine, "_CHUNK", chunk)
        assert grid_merges(case, method) == want, chunk


@pytest.mark.parametrize("sample", [None, 64], ids=["partition", "bracket"])
@pytest.mark.parametrize("values", ["integers", "normal"])
@pytest.mark.parametrize("mode", ["joint", "individual"])
def test_prune_bytes_do_not_depend_on_the_band_count(mode, values, sample, monkeypatch):
    if sample:
        monkeypatch.setattr(drm.engine, "_SAMPLE", sample)
    rng = np.random.default_rng(14)
    if values == "integers":
        stack = rng.integers(-2, 3, (3, 23, 117)).astype(np.float64)
    else:
        stack = rng.standard_normal((3, 23, 117))
    stack[:, 9:15] = 0.0
    retains = (0.05, 0.3, 0.6, 0.9)
    want = [prune_topk(stack, retain, mode).tobytes() for retain in retains]
    for chunk in CHUNKS:
        monkeypatch.setattr(drm.engine, "_CHUNK", chunk)
        assert [prune_topk(stack, retain, mode).tobytes() for retain in retains] == want, chunk


def test_bundle_merge_bytes_do_not_depend_on_threads(monkeypatch):
    rng = np.random.default_rng(15)
    base = TensorBundle({"a.w": rng.standard_normal((24, 36)).astype(np.float32),
                         "b.w": rng.standard_normal((30, 9)), "b.b": rng.standard_normal(30)})
    tasks = [
        TensorBundle({name: value + 0.1 * rng.standard_normal(value.shape).astype(value.dtype)
                      for name, value in base.items()})
        for _ in range(3)
    ]

    def merge(method):
        out, stats = merge_bundle_with_stats(base, tasks, MergeConfig(method=method))
        return [(name, value.tobytes()) for name, value in out.items()], stats

    for method in ("drm_h", "drm_v"):
        monkeypatch.delenv("DRM_THREADS", raising=False)
        want = merge(method)
        for threads in (1, 2, 4):
            monkeypatch.setenv("DRM_THREADS", str(threads))
            assert merge(method) == want, (method, threads)


# -------------------------------------------------------------- threads


@pytest.mark.parametrize("method", ["drm_h", "drm_v"])
def test_drm_merge_starts_no_thread_by_default(method, monkeypatch):
    # Unset DRM_THREADS runs drm-h/drm-v one layer at a time, every stage
    # on the calling thread: BLAS alone spreads over the cores. Each layer's
    # stack (3 x 256 x 768) is large enough that row bands once split it
    # over a second thread.
    monkeypatch.delenv("DRM_THREADS", raising=False)
    rng = np.random.default_rng(17)
    base = TensorBundle({"a.w": rng.standard_normal((256, 768)),
                         "b.w": rng.standard_normal((768, 256))})
    tasks = [
        TensorBundle({name: value + 0.1 * rng.standard_normal(value.shape)
                      for name, value in base.items()})
        for _ in range(3)
    ]
    started = []
    real = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or real(self))
    merge_bundle_with_stats(base, tasks, MergeConfig(method=method))
    assert started == []

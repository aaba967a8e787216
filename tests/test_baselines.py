import dataclasses
import itertools
import math

import numpy as np
import pytest

import drm.engine
from drm.baselines import (
    _dare_generator,
    _keep_threshold,
    dare_ties_merge,
    task_arithmetic,
    ties_merge,
)
from drm.bundle import DeltaSet, TensorBundle
from drm.engine import (
    DRM_ORIENTATIONS,
    MergeConfig,
    decompose_joint,
    disjoint_average,
    merge_bundle,
    merge_delta_set,
    merge_drm,
)
from drm.errors import ShapeMismatch
from oracles import dare_reference, make_ds, tail_reference, ties_oracle, ties_reference


def simple_average(deltas):
    """The ``simple_avg`` method's merged delta."""
    return merge_delta_set(make_ds(deltas), MergeConfig(method="simple_avg"))[0]


class TestSimpleAverage:
    def test_two_values(self):
        np.testing.assert_allclose(
            simple_average([np.array([[2.0]]), np.array([[4.0]])]), [[3.0]]
        )

    def test_identical_inputs(self):
        w = np.random.default_rng(0).standard_normal((3, 2))
        np.testing.assert_allclose(simple_average([w, w.copy(), w.copy()]), w)

    def test_against_loop(self):
        rng = np.random.default_rng(1)
        weights = [rng.standard_normal((3, 4)) for _ in range(3)]
        expected = np.zeros((3, 4))
        for i in range(3):
            for j in range(4):
                expected[i, j] = sum(w[i, j] for w in weights) / 3
        np.testing.assert_allclose(simple_average(weights), expected, atol=1e-12)

    def test_shape_mismatch(self):
        base = TensorBundle({"w": np.zeros((2, 2))})
        tasks = [TensorBundle({"w": np.zeros((2, 2))}), TensorBundle({"w": np.zeros((2, 3))})]
        with pytest.raises(ShapeMismatch):
            merge_bundle(base, tasks, MergeConfig(method="simple_avg"))


class TestTaskArithmetic:
    def test_shared_lambda(self):
        ds = make_ds([np.array([[1.0]]), np.array([[3.0]])])
        np.testing.assert_allclose(task_arithmetic(ds, 0.4), [[1.6]])

    def test_zero_deltas(self):
        ds = make_ds([np.zeros((2, 2)), np.zeros((2, 2))])
        np.testing.assert_array_equal(task_arithmetic(ds, 0.4), np.zeros((2, 2)))

    def test_against_loop(self):
        rng = np.random.default_rng(2)
        deltas = [rng.standard_normal((2, 3)) for _ in range(3)]
        lams = [0.2, 0.5, 1.1]
        expected = np.zeros((2, 3))
        for t in range(3):
            for i in range(2):
                for j in range(3):
                    expected[i, j] += lams[t] * deltas[t][i, j]
        np.testing.assert_allclose(task_arithmetic(make_ds(deltas), lams), expected, atol=1e-12)


class TestTiesMerge:
    def test_single_task_neutral(self):
        ds = make_ds([np.random.default_rng(3).standard_normal((3, 3))])
        cfg = MergeConfig(method="ties", retain=1.0, lambdas=1.0)
        np.testing.assert_allclose(ties_merge(ds, cfg)[0], ds.deltas[0], atol=1e-12)

    def test_sign_tie_keeps_positive(self):
        ds = make_ds([np.array([[5.0]]), np.array([[-5.0]])])
        cfg = MergeConfig(method="ties", retain=1.0, lambdas=1.0)
        np.testing.assert_allclose(ties_merge(ds, cfg)[0], [[5.0]])

    def test_against_positionwise_oracle(self):
        rng = np.random.default_rng(5)
        for retain in (0.25, 0.5, 1.0):
            deltas = [rng.standard_normal((4, 4)) for _ in range(3)]
            cfg = MergeConfig(method="ties", retain=retain, lambdas=1.0)
            got, _ = ties_merge(make_ds(deltas), cfg)
            want = ties_oracle(deltas, retain, [1.0] * 3)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sign_agreeing_inputs_reduce_to_weighted_mean(self):
        rng = np.random.default_rng(7)
        signs = np.sign(rng.standard_normal((3, 3)))
        signs[signs == 0] = 1.0
        deltas = [signs * rng.uniform(0.5, 2.0, (3, 3)) for _ in range(3)]
        lams = [0.9, 1.0, 1.3]
        cfg = MergeConfig(method="ties", retain=1.0, lambdas=tuple(lams))
        got, _ = ties_merge(make_ds(deltas), cfg)
        want = sum(l * d for l, d in zip(lams, deltas)) / 3
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestDareTies:
    def test_p_zero_reduces_to_unpruned_ties(self):
        rng = np.random.default_rng(11)
        deltas = [rng.standard_normal((4, 3)) for _ in range(3)]
        cfg = MergeConfig(method="dare_ties", dare_drop=0.0, lambdas=1.0)
        got = dare_ties_merge(make_ds(deltas), cfg)
        ties_cfg = MergeConfig(method="ties", retain=1.0, lambdas=1.0)
        want, _ = ties_merge(make_ds(deltas), ties_cfg)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_same_seed_is_deterministic(self):
        rng = np.random.default_rng(13)
        deltas = [rng.standard_normal((5, 5)) for _ in range(2)]
        cfg = MergeConfig(method="dare_ties", dare_drop=0.5, seed=42)
        a = dare_ties_merge(make_ds(deltas), cfg)
        b = dare_ties_merge(make_ds(deltas), cfg)
        np.testing.assert_array_equal(a, b)

    def test_different_layer_different_stream(self):
        rng = np.random.default_rng(17)
        deltas = [rng.standard_normal((6, 6))]
        cfg = MergeConfig(method="dare_ties", dare_drop=0.5, seed=0)
        a = dare_ties_merge(make_ds(deltas, name="layer.a"), cfg)
        b = dare_ties_merge(make_ds([deltas[0]], name="layer.b"), cfg)
        assert not np.array_equal(a, b)

    def test_unbiased_estimator(self):
        # 20k trials of a single 1.0 entry; full 100k run lives in the
        # acceptance suite
        trials = 20_000
        ds = make_ds([np.ones((trials, 1))])
        cfg = MergeConfig(method="dare_ties", dare_drop=0.8, seed=1)
        merged = dare_ties_merge(ds, cfg)
        # per-trial variance is p/(1-p); 3 sigma of the mean
        band = 3.0 * math.sqrt(0.8 / 0.2 / trials)
        assert abs(merged.mean() - 1.0) <= band

    def test_survivors_rescaled(self):
        ds = make_ds([np.ones((10, 10))])
        cfg = MergeConfig(method="dare_ties", dare_drop=0.75, seed=2)
        merged = dare_ties_merge(ds, cfg)
        values = set(np.round(np.unique(merged), 12))
        assert values <= {0.0, 4.0}


def tail_stack(seed, n_tasks, shape=(9, 7)):
    """A stack whose half-integer entries give exact zeros and positions
    whose task sum is exactly 0, with planted -0.0 and Gaussian entries."""
    rng = np.random.default_rng(seed)
    stack = rng.integers(-2, 3, (n_tasks, *shape)) * 0.5
    gauss = rng.random(stack.shape) < 0.3
    stack[gauss] = rng.standard_normal(np.count_nonzero(gauss))
    stack[rng.random(stack.shape) < 0.15] = -0.0
    stack[:, 0, 0] = -0.0
    if n_tasks > 1:
        stack[:, 0, 1] = 0.0
        stack[:2, 0, 1] = [1.5, -1.5]  # a sign tie: +1 is elected
    return stack


TAIL_LAMBDAS = [-0.7, 0.0, 1.3, 0.4, -2.0]


class TestElectAndAverage:
    @pytest.mark.parametrize("n_tasks", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("sign_elect", [True, False])
    @pytest.mark.parametrize("disjoint", [True, False])
    def test_matches_the_stage_functions_bytewise(self, n_tasks, sign_elect, disjoint, monkeypatch):
        # The chunked tail against the whole-array reference, including
        # -0.0 inputs, zero sums and zero or negative coefficients: with and
        # without a prune mask at the survivor test (drm's), for each of
        # several coefficient vectors and a vector of ones, written in place
        # (a stack's last use) or through scratch, in one chunk and in four.
        stack = tail_stack(n_tasks, n_tasks)
        if n_tasks > 1:
            assert (stack.sum(axis=0) == 0.0).any()
        mask = np.random.default_rng(n_tasks).random(stack.shape) < 0.6
        lambdas = [np.roll(TAIL_LAMBDAS, offset)[:n_tasks] for offset in range(len(TAIL_LAMBDAS))]
        lambdas.append(np.ones(n_tasks))
        cfg = MergeConfig(method="ties", enable_sign_elect=sign_elect, enable_disjoint=disjoint)
        for chunk in (drm.engine._CHUNK, 16):
            monkeypatch.setattr(drm.engine, "_CHUNK", chunk)
            for keep in (None, mask):
                for lams in lambdas:
                    at = dataclasses.replace(cfg, lambdas=lams)
                    want = tail_reference(stack, at, keep).tobytes()
                    for in_place in (True, False):
                        copy = stack.copy()
                        got = disjoint_average(copy, at, mask=keep, in_place=in_place)
                        assert got.tobytes() == want
                        if not in_place:
                            assert copy.tobytes() == stack.tobytes()


class TestBorrowedStacks:
    @pytest.mark.parametrize("merge,cfg", [
        (ties_merge, MergeConfig(method="ties", retain=0.3)),
        (dare_ties_merge, MergeConfig(method="dare_ties", dare_drop=0.8)),
    ], ids=["ties", "dare_ties"])
    def test_caller_deltas_keep_their_bytes(self, merge, cfg):
        # The tail overwrites the stack it is given, which for a caller's
        # DeltaSet must be a copy.
        ds = DeltaSet("layer", (9, 7), tail_stack(23, 4), ["a", "b", "c", "d"])
        stack = ds.deltas
        before = stack.tobytes()
        merge(ds, cfg)
        assert ds.deltas is stack
        assert stack.tobytes() == before

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.8, 0.95])
    def test_drop_mask_is_the_generator_draw(self, p):
        # All-positive deltas and a one-hot coefficient make task t's merged
        # entries nonzero exactly where its drop mask keeps them.
        n_tasks, shape = 3, (37, 23)
        ds = make_ds([np.full(shape, t + 1.0) for t in range(n_tasks)], name="blk.w")
        for t in range(n_tasks):
            lams = tuple(float(s == t) for s in range(n_tasks))
            cfg = MergeConfig(method="dare_ties", dare_drop=p, seed=5, lambdas=lams)
            merged = dare_ties_merge(ds, cfg)
            dropped = _dare_generator(5, "blk.w", t).random(shape) < p
            np.testing.assert_array_equal(merged != 0.0, ~dropped)


    @pytest.mark.parametrize("p", [0.0, 0.5, 0.8, 0.95, np.nextafter(1.0, 0.0)])
    def test_raw_threshold_drop_is_the_generator_draw(self, p, monkeypatch):
        # random() is (raw >> 11) * 2**-53: the integer threshold keeps the
        # raw draws random() keeps, on either side of it and in bulk.
        threshold = _keep_threshold(p)
        raws = [0, 2**64 - 1, *_dare_generator(3, "w", 0).bit_generator.random_raw(4096)]
        raws += [int(threshold) + d for d in (-2049, -2048, -1, 0, 1, 2047, 2048)]
        raws = np.array([r for r in raws if 0 <= r < 2**64], dtype=np.uint64)
        floats = (raws >> np.uint64(11)).astype(np.float64) * 2.0**-53
        np.testing.assert_array_equal(raws >= threshold, floats >= p)
        # The merge draws each task's plane one row chunk at a time, the
        # stream continuing across chunks; all-positive deltas and a one-hot
        # coefficient show its drop mask.
        monkeypatch.setattr(drm.engine, "_CHUNK", 64)
        n_tasks, shape = 3, (37, 23)
        ds = make_ds([np.full(shape, t + 1.0) for t in range(n_tasks)], name="blk.w")
        for t in range(n_tasks):
            lams = tuple(float(s == t) for s in range(n_tasks))
            cfg = MergeConfig(method="dare_ties", dare_drop=p, seed=5, lambdas=lams)
            merged = dare_ties_merge(ds, cfg)
            dropped = _dare_generator(5, "blk.w", t).random(shape) < p
            np.testing.assert_array_equal(merged != 0.0, ~dropped)


def layer_stack(n_tasks, shape, layout, seed=29):
    """A tail_stack of ``shape``, C-ordered, or Fortran-ordered for the
    ``strided`` layout."""
    if shape[0] * shape[1] == 0:
        return np.zeros((n_tasks, *shape))
    stack = tail_stack(seed, n_tasks, shape)
    if layout == "strided":
        stack = np.asfortranarray(stack)
        assert not stack.flags.c_contiguous
    return stack


class TestChunkedMerge:
    # Chunks of two rows: 9 rows make chunks of 2, 2, 2 and 3.
    @pytest.mark.parametrize("layout", ["owned", "borrowed", "strided"])
    @pytest.mark.parametrize("shape", [(9, 7), (9, 0), (0, 7)], ids=["9x7", "9x0", "0x7"])
    @pytest.mark.parametrize("n_tasks", [1, 4])
    @pytest.mark.parametrize("method", ["ties", "dare_ties"])
    def test_matches_the_stage_functions_bytewise(self, method, n_tasks, shape, layout, monkeypatch):
        monkeypatch.setattr(drm.engine, "_CHUNK", 16)
        assert len(drm.engine._chunks(*shape)) == (4 if shape == (9, 7) else 1)
        stack = layer_stack(n_tasks, shape, layout)
        before = stack.tobytes()
        per_task = tuple(np.roll([1.3, -0.4, 0.0, 1.0], n_tasks)[:n_tasks])
        for lambdas in (None, 0.0, -0.7, per_task):
            for retain, elect, disjoint in itertools.product([0.3, 1.0], *[[True, False]] * 2):
                cfg = MergeConfig(
                    method=method, retain=retain, dare_drop=0.5, seed=7, lambdas=lambdas,
                    enable_sign_elect=elect, enable_disjoint=disjoint,
                )
                if method == "ties":
                    want, want_stats = ties_reference(stack, cfg)
                else:
                    want, want_stats = dare_reference(stack, cfg, "blk.w")
                ds = DeltaSet("blk.w", shape, stack.copy() if layout == "owned" else stack,
                              [f"t{t}" for t in range(n_tasks)])
                ds._owned = layout == "owned"
                if method == "ties":
                    got, stats = ties_merge(ds, cfg)
                else:
                    got, stats = dare_ties_merge(ds, cfg), {}
                assert got.tobytes() == want.tobytes()
                assert stats == want_stats
        assert stack.tobytes() == before


def float32_layer_with_zeros(n_tasks=3, shape=(9, 7), seed=41):
    """Float32 task deltas with structural zeros: a row and a column no task
    changes, one task that leaves another row alone, and scattered entries
    that equal the base."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(shape).astype(np.float32)
    tasks = (base + 0.1 * rng.standard_normal((n_tasks, *shape))).astype(np.float32)
    unchanged = rng.random(tasks.shape) < 0.2
    unchanged[:, 2] = unchanged[:, :, 4] = unchanged[0, 6] = True
    tasks[unchanged] = np.broadcast_to(base, tasks.shape)[unchanged]
    deltas = tasks.astype(np.float64) - base
    return DeltaSet("blk.w", shape, deltas, [f"t{t}" for t in range(n_tasks)])


@pytest.mark.parametrize("method,mode", [
    ("drm_h", "joint"), ("drm_h", "individual"),
    ("drm_v", "joint"), ("drm_v", "individual"),
    ("ties", "joint"),
])
def test_retain_one_keeps_every_entry(method, mode, monkeypatch):
    # retain=1.0 is the no-prune ablation: it keeps every entry and gives
    # the bytes of the whole-array tail with no mask at all, over several
    # row chunks, with and without each of the other two ablations.
    monkeypatch.setattr(drm.engine, "_CHUNK", 16)
    ds = float32_layer_with_zeros()
    assert np.count_nonzero(ds.deltas == 0.0) > 0
    for elect, disjoint in itertools.product([True, False], repeat=2):
        cfg = MergeConfig(method=method, retain=1.0, lambdas=(1.3, -0.4, 1.0),
                          prune_mode=mode, enable_sign_elect=elect, enable_disjoint=disjoint)
        if method == "ties":
            got, stats = ties_merge(ds, cfg)
            want, total = tail_reference(ds.deltas, cfg), ds.deltas.size
        else:
            got, stats = merge_drm(ds, cfg)
            orientation = DRM_ORIENTATIONS[method]
            jd = decompose_joint(ds, orientation)
            want = jd.U @ tail_reference(jd.renorm_blocks * jd.task_sigmas[:, :, None], cfg)
            want, total = (want.T if orientation == "vertical" else want), jd.renorm_blocks.size
            assert stats.pop("rank") == jd.rank
        assert stats == {"kept": total, "total": total}
        assert got.tobytes() == want.tobytes()


class TestSingleTaskNeutrality:
    def test_all_baselines_reduce_to_delta(self):
        delta = np.random.default_rng(19).standard_normal((4, 4))
        ds = make_ds([delta])
        assert np.allclose(task_arithmetic(ds, 1.0), delta)
        cfg = MergeConfig(method="ties", retain=1.0, lambdas=1.0)
        assert np.allclose(ties_merge(ds, cfg)[0], delta)
        dare_cfg = MergeConfig(method="dare_ties", dare_drop=0.0, lambdas=1.0)
        assert np.allclose(dare_ties_merge(ds, dare_cfg), delta)
        assert np.allclose(simple_average([delta]), delta)

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drm.engine
import drm.linalg
from drm.bundle import DeltaSet, TensorBundle, extract_deltas
from drm.engine import (
    METHODS,
    MergeConfig,
    agreeing_entries,
    decompose_joint,
    disjoint_average,
    elect_signs,
    merge_biases,
    merge_bundle,
    merge_bundle_with_stats,
    merge_delta_set_grid,
    merge_drm,
    merge_drm_with_stats,
    prune_topk,
    renormalize_row,
    survivor_filter,
    truncate_rank,
)
from drm.errors import ShapeMismatch
from drm.linalg import hconcat, thin_svd


def random_delta_set(seed, n_tasks=3, m=6, n=4, name="layer"):
    rng = np.random.default_rng(seed)
    deltas = [rng.standard_normal((m, n)) for _ in range(n_tasks)]
    return DeltaSet(name, (m, n), deltas, [f"t{i}" for i in range(n_tasks)])


def planted_delta_set(seed, n_tasks=3, m=8, n=5):
    """Deltas sliced from a stack with a well-separated planted spectrum."""
    rng = np.random.default_rng(seed)
    r = min(m, n_tasks * n)
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n_tasks * n, n_tasks * n)))
    sigma = 10.0 * 0.7 ** np.arange(r)
    stack = U[:, :r] @ np.diag(sigma) @ V.T[:r]
    deltas = [stack[:, t * n : (t + 1) * n] for t in range(n_tasks)]
    return DeltaSet("planted", (m, n), deltas, [f"t{i}" for i in range(n_tasks)])


class TestRenormalizeRow:
    def test_already_unit(self):
        unit, norm = renormalize_row(np.array([0.6, 0.8]))
        np.testing.assert_allclose(unit, [0.6, 0.8], atol=1e-15)
        assert norm == pytest.approx(1.0)

    def test_three_four_five(self):
        unit, norm = renormalize_row(np.array([3.0, 4.0]))
        np.testing.assert_allclose(unit, [0.6, 0.8], atol=1e-15)
        assert norm == pytest.approx(5.0)

    def test_zero_vector(self):
        unit, norm = renormalize_row(np.zeros(4))
        np.testing.assert_array_equal(unit, np.zeros(4))
        assert norm == 0.0


def check_decomposition_invariants(ds, jd):
    active = jd.active_mask()
    # reconstruction per task
    deltas = ds.deltas if jd.orientation == "horizontal" else [d.T for d in ds.deltas]
    for t, delta in enumerate(deltas):
        recon = jd.U @ np.diag(jd.task_sigmas[t]) @ jd.renorm_blocks[t]
        assert np.linalg.norm(recon - delta) <= 1e-9 * max(1.0, np.linalg.norm(delta))
    # unit budget across tasks for active components
    budget = (jd.row_norms**2).sum(axis=0)
    np.testing.assert_allclose(budget[active], 1.0, atol=1e-10)
    # renormalized rows are unit or zero
    for block in jd.renorm_blocks:
        norms = np.linalg.norm(block, axis=1)
        assert np.all((np.abs(norms - 1.0) <= 1e-10) | (norms == 0.0))
    # scale bookkeeping is exact
    np.testing.assert_array_equal(jd.task_sigmas, jd.sigma[None, :] * jd.row_norms)


class TestDecomposeJoint:
    def test_single_task_is_plain_svd(self):
        ds = random_delta_set(0, n_tasks=1)
        jd = decompose_joint(ds)
        svd = thin_svd(ds.deltas[0])
        np.testing.assert_allclose(jd.row_norms[0], np.ones_like(jd.sigma), atol=1e-12)
        np.testing.assert_allclose(jd.renorm_blocks[0], svd.Vt, atol=1e-12)
        check_decomposition_invariants(ds, jd)

    def test_duplicated_task_splits_budget_evenly(self):
        rng = np.random.default_rng(5)
        delta = rng.standard_normal((5, 4))
        ds = DeltaSet("l", (5, 4), [delta, delta.copy()], ["a", "b"])
        jd = decompose_joint(ds)
        active = jd.active_mask()
        np.testing.assert_allclose(jd.row_norms[:, active], 1.0 / np.sqrt(2.0), atol=1e-10)
        check_decomposition_invariants(ds, jd)

    def test_random_three_task_invariants(self):
        ds = random_delta_set(7, n_tasks=3, m=6, n=4)
        check_decomposition_invariants(ds, decompose_joint(ds))

    def test_vertical_orientation(self):
        ds = random_delta_set(9, n_tasks=2, m=4, n=7)
        jd = decompose_joint(ds, "vertical")
        assert jd.orientation == "vertical"
        assert jd.U.shape[0] == 7  # shared factor lives on the transposed side
        check_decomposition_invariants(ds, jd)

    def test_rank_deficient_rows_stay_zero(self):
        # Two tasks whose stack has rank 2 inside a 3-row space: the thin
        # factor keeps an extra basis row which must renormalize cleanly.
        base = np.zeros((3, 2))
        base[0, 0] = 1.0
        other = np.zeros((3, 2))
        other[1, 1] = 2.0
        ds = DeltaSet("l", (3, 2), [base, other], ["a", "b"])
        jd = decompose_joint(ds)
        dead = ~jd.active_mask()
        for t in range(2):
            rows = np.linalg.norm(jd.renorm_blocks[t], axis=1)
            assert np.all((np.abs(rows - 1.0) <= 1e-10) | (rows == 0.0))
            assert np.all(jd.task_sigmas[t][dead] == 0.0)

    def test_bad_orientation(self):
        with pytest.raises(ValueError):
            decompose_joint(random_delta_set(1), "diagonal")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 9), st.integers(2, 7))
def test_norm_budget_property(seed, n_tasks, m, n):
    ds = random_delta_set(seed, n_tasks=n_tasks, m=m, n=n)
    jd = decompose_joint(ds)
    budget = (jd.row_norms**2).sum(axis=0)
    np.testing.assert_allclose(budget[jd.active_mask()], 1.0, atol=1e-10)


def test_scale_compensation_rowwise_exact():
    ds = random_delta_set(21)
    jd = decompose_joint(ds)
    vt = thin_svd(hconcat(ds.deltas)).Vt  # the raw blocks, side by side
    n = ds.base_shape[1]
    for t in range(ds.n_tasks):
        lhs = jd.task_sigmas[t][:, None] * jd.renorm_blocks[t]
        rhs = jd.sigma[:, None] * vt[:, t * n : (t + 1) * n]
        # magnitudes moved between factors, products agree to rounding
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestTruncateRank:
    def test_zero_drop_is_identity(self):
        jd = decompose_joint(random_delta_set(3))
        assert truncate_rank(jd, 0.0) is jd

    def test_keep_count(self):
        rng = np.random.default_rng(4)
        # rank-4 stack: 4 independent directions in a 4-row space
        ds = DeltaSet("l", (4, 3), [rng.standard_normal((4, 3)) for _ in range(2)], ["a", "b"])
        jd = decompose_joint(ds)
        assert jd.rank == 4
        cut = truncate_rank(jd, 0.5)
        assert cut.rank == 2
        assert np.count_nonzero(cut.sigma) == 2

    def test_tail_energy_matches_truncation_error(self):
        ds = random_delta_set(6, n_tasks=2, m=5, n=4)
        jd = decompose_joint(ds)
        cut = truncate_rank(jd, 0.5)
        keep = cut.rank
        stack = hconcat(ds.deltas)
        scaled = cut.task_sigmas[:, :, None] * cut.renorm_blocks
        recon = cut.U @ np.concatenate(scaled, axis=1)
        tail_energy = math.sqrt(float((jd.sigma[keep:] ** 2).sum()))
        assert np.linalg.norm(recon - stack) == pytest.approx(tail_energy, abs=1e-8)

    def test_truncated_fields_are_consistent(self):
        jd = decompose_joint(random_delta_set(8, n_tasks=3, m=6, n=4))
        cut = truncate_rank(jd, 0.4)
        dead = ~cut.active_mask()
        assert np.all(cut.U[:, dead] == 0.0)
        assert np.all(cut.row_norms[:, dead] == 0.0)
        for t in range(cut.n_tasks):
            assert np.all(cut.renorm_blocks[t][dead] == 0.0)
            assert np.all(cut.task_sigmas[t][dead] == 0.0)


def topk_oracle(blocks, retain, mode):
    """Enumerate, sort by (-|v|, task, row, col), keep the exact count."""
    entries = []
    for t, b in enumerate(blocks):
        for i in range(b.shape[0]):
            for j in range(b.shape[1]):
                entries.append((-abs(b[i, j]), t, i, j))
    masks = [np.zeros(b.shape, dtype=bool) for b in blocks]
    if mode == "joint":
        entries.sort()
        keep = math.ceil(retain * len(entries) - 1e-9)
        for _, t, i, j in entries[:keep]:
            masks[t][i, j] = True
    else:
        for t, b in enumerate(blocks):
            sub = sorted(e for e in entries if e[1] == t)
            keep = math.ceil(retain * b.size - 1e-9)
            for _, _, i, j in sub[:keep]:
                masks[t][i, j] = True
    return masks


class TestPruneTopk:
    def test_retain_all(self):
        blocks = [np.arange(4.0).reshape(2, 2), -np.ones((2, 2))]
        masks = prune_topk(blocks, 1.0)
        for m in masks:
            assert m.all()

    def test_single_block_top_half(self):
        masks = prune_topk([np.array([[1.0, -2.0], [3.0, -4.0]])], 0.5)
        np.testing.assert_array_equal(masks[0], [[False, False], [True, True]])

    def test_joint_mode_starves_small_block(self):
        rng = np.random.default_rng(2)
        small = rng.uniform(1.0, 2.0, (3, 3))
        big = 10.0 * rng.uniform(1.0, 2.0, (3, 3))
        masks = prune_topk([big, small], 0.5, "joint")
        assert masks[0].all()
        assert not masks[1].any()
        expected = topk_oracle([big, small], 0.5, "joint")
        np.testing.assert_array_equal(masks[0], expected[0])
        np.testing.assert_array_equal(masks[1], expected[1])

    def test_individual_mode_keeps_per_block_quota(self):
        rng = np.random.default_rng(3)
        blocks = [rng.standard_normal((3, 4)), 10 * rng.standard_normal((3, 4))]
        masks = prune_topk(blocks, 0.25, "individual")
        for m in masks:
            assert m.sum() == 3  # ceil(0.25 * 12)

    def test_exact_count_and_tie_break(self):
        # all magnitudes equal: the cutoff falls inside a tie; earlier
        # (task, row, col) indices win
        blocks = [np.ones((2, 2)), np.ones((2, 2))]
        masks = prune_topk(blocks, 0.5, "joint")
        assert masks[0].all()
        assert not masks[1].any()
        masks = prune_topk(blocks, 0.625, "joint")  # keep 5 of 8
        assert masks[0].all()
        np.testing.assert_array_equal(masks[1], [[True, False], [False, False]])

    def test_structural_zeros_lose(self):
        blocks = [np.array([[0.0, 0.5], [0.0, 0.25]])]
        masks = prune_topk(blocks, 0.5)
        np.testing.assert_array_equal(masks[0], [[False, True], [False, True]])

    def test_against_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            blocks = [rng.standard_normal((3, 3)) for _ in range(3)]
            retain = rng.choice([0.2, 0.5, 0.8])
            for mode in ("joint", "individual"):
                expected = topk_oracle(blocks, retain, mode)
                got = prune_topk(blocks, retain, mode)
                for e, g in zip(expected, got):
                    np.testing.assert_array_equal(g, e)


def prune_topk_full_sort(blocks, retain, mode="joint"):
    """The full stable-argsort prune that selection replaced; the reference
    that the selection-based masks must match bit for bit."""
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks]

    def pool_mask(flat_abs):
        keep = min(flat_abs.size, max(0, math.ceil(retain * flat_abs.size - 1e-9)))
        mask = np.zeros(flat_abs.size, dtype=bool)
        if keep:
            order = np.argsort(-flat_abs, kind="stable")
            mask[order[:keep]] = True
        return mask

    if mode == "individual":
        return [pool_mask(np.abs(b).ravel()).reshape(b.shape) for b in blocks]
    pooled = pool_mask(np.concatenate([np.abs(b).ravel() for b in blocks]))
    out, start = [], 0
    for b in blocks:
        out.append(pooled[start : start + b.size].reshape(b.shape))
        start += b.size
    return out


@st.composite
def tie_heavy_prune_case(draw):
    """A stack of blocks drawn from a few magnitudes, mostly zeros, with
    whole zero rows, plus a retain that often puts the cutoff inside a run
    of ties."""
    values = st.sampled_from([0.0, 0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
    blocks = []
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    for _ in range(draw(st.integers(1, 5))):
        flat = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
        block = np.array(flat).reshape(rows, cols)
        block[np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))] = 0.0
        blocks.append(block)
    total = sum(b.size for b in blocks)
    retain = draw(
        st.one_of(
            st.just(1.0),
            st.floats(1e-3, 1.0),
            st.integers(1, total).map(lambda k: k / total),
        )
    )
    return blocks, retain


@settings(max_examples=300, deadline=None)
@given(tie_heavy_prune_case(), st.sampled_from(["joint", "individual"]))
def test_prune_selection_matches_full_sort(case, mode):
    blocks, retain = case
    expected = prune_topk_full_sort(blocks, retain, mode)
    got = prune_topk(blocks, retain, mode)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == bool and g.shape == e.shape
        np.testing.assert_array_equal(g, e)


class TestElectSigns:
    def test_magnitude_weighted_sum(self):
        blocks = [np.array([[2.0]]), np.array([[-1.0]]), np.array([[-3.0]])]
        np.testing.assert_array_equal(elect_signs(blocks), [[-1.0]])

    def test_all_positive(self):
        blocks = [np.ones((2, 2)), 2 * np.ones((2, 2))]
        np.testing.assert_array_equal(elect_signs(blocks), np.ones((2, 2)))

    def test_zero_sum_elects_positive(self):
        blocks = [np.array([[1.0]]), np.array([[-1.0]])]
        np.testing.assert_array_equal(elect_signs(blocks), [[1.0]])


def disjoint_oracle(blocks, masks, signs, lambdas, disjoint=True):
    """Literal per-position transcription of the filtered reciprocal-count
    average."""
    n_tasks = len(blocks)
    out = np.zeros_like(blocks[0])
    rows, cols = out.shape
    for i in range(rows):
        for j in range(cols):
            kept = []
            for t in range(n_tasks):
                v = blocks[t][i, j] if masks[t][i, j] else 0.0
                if signs is not None and v * signs[i, j] <= 0.0:
                    v = 0.0
                kept.append(v)
            count = sum(1 for v in kept if v != 0.0)
            total = sum(lam * v for lam, v in zip(lambdas, kept))
            if disjoint:
                out[i, j] = total / count if count else 0.0
            else:
                out[i, j] = total / n_tasks
    return out


def filtered_average(blocks, masks, signs, lambdas, disjoint=True):
    """Survivor filter, then the weighted sum, as the merge paths run them."""
    stack = np.array(blocks, dtype=np.float64)
    survivors, gamma = survivor_filter(
        agreeing_entries(stack, signs), None if masks is None else np.array(masks), disjoint
    )
    return disjoint_average(stack, survivors, gamma, lambdas)


class TestDisjointAverage:
    def test_counts_only_nonzero(self):
        blocks = [np.array([[1.0]]), np.array([[0.0]]), np.array([[2.0]])]
        masks = [np.ones((1, 1), dtype=bool)] * 3
        signs = np.ones((1, 1))
        out = filtered_average(blocks, masks, signs, [1.0, 1.0, 1.0])
        assert out[0, 0] == pytest.approx(1.5)

    def test_identical_values_pass_through(self):
        v = 0.37
        blocks = [np.full((2, 3), v) for _ in range(4)]
        masks = [np.ones((2, 3), dtype=bool)] * 4
        out = filtered_average(blocks, masks, elect_signs(blocks), np.ones(4))
        np.testing.assert_allclose(out, v, atol=1e-15)

    def test_matches_positionwise_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            blocks = [rng.standard_normal((4, 4)) for _ in range(3)]
            masks = [rng.random((4, 4)) < 0.6 for _ in range(3)]
            signs = elect_signs([np.where(m, b, 0.0) for m, b in zip(masks, blocks)])
            lams = rng.uniform(0.5, 1.5, 3)
            for disjoint in (True, False):
                got = filtered_average(blocks, masks, signs, lams, disjoint)
                want = disjoint_oracle(blocks, masks, signs, lams, disjoint)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sign_filter_skipped_when_none(self):
        blocks = [np.array([[1.0, -1.0]]), np.array([[-3.0, 2.0]])]
        masks = [np.ones((1, 2), dtype=bool)] * 2
        out = filtered_average(blocks, masks, None, [1.0, 1.0])
        np.testing.assert_allclose(out, [[-1.0, 0.5]])

    def test_mask_filter_skipped_when_none(self):
        rng = np.random.default_rng(17)
        blocks = [rng.standard_normal((3, 5)) for _ in range(3)]
        blocks[1][0, 0] = -0.0
        all_true = [np.ones((3, 5), dtype=bool)] * 3
        for signs in (None, elect_signs(blocks)):
            for disjoint in (True, False):
                got = filtered_average(blocks, None, signs, [0.5, 1.0, 2.0], disjoint)
                want = filtered_average(blocks, all_true, signs, [0.5, 1.0, 2.0], disjoint)
                assert got.tobytes() == want.tobytes()

    def test_lambda_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            filtered_average([np.ones((1, 1))], [np.ones((1, 1), dtype=bool)], None, [1.0, 2.0])


class TestMergeDrm:
    def neutral(self, method="drm_h"):
        return MergeConfig(method=method, retain=1.0, lambdas=1.0)

    def test_identical_tasks_identity(self):
        rng = np.random.default_rng(17)
        delta = rng.standard_normal((5, 4))
        for n_tasks in (2, 3, 5):
            ds = DeltaSet("l", (5, 4), [delta.copy() for _ in range(n_tasks)],
                          [f"t{i}" for i in range(n_tasks)])
            for method in ("drm_h", "drm_v"):
                merged = merge_drm(ds, self.neutral(method))
                err = np.linalg.norm(merged - delta) / np.linalg.norm(delta)
                assert err <= 1e-8

    def test_single_task_identity(self):
        ds = random_delta_set(19, n_tasks=1)
        for method in ("drm_h", "drm_v"):
            merged = merge_drm(ds, self.neutral(method))
            err = np.linalg.norm(merged - ds.deltas[0]) / np.linalg.norm(ds.deltas[0])
            assert err <= 1e-8

    def test_vertical_equals_transposed_horizontal(self):
        ds = planted_delta_set(23, n_tasks=2, m=5, n=7)
        via_v = merge_drm(ds, MergeConfig(method="drm_v"))
        via_h = merge_drm(ds.transposed(), MergeConfig(method="drm_h")).T
        err = np.linalg.norm(via_v - via_h) / max(1.0, np.linalg.norm(via_h))
        assert err <= 1e-8

    def test_task_order_invariance(self):
        ds = planted_delta_set(29, n_tasks=3, m=8, n=5)
        perm = [2, 0, 1]
        permuted = DeltaSet(
            ds.layer_name,
            ds.base_shape,
            [ds.deltas[p] for p in perm],
            [ds.task_names[p] for p in perm],
        )
        for method in ("drm_h", "drm_v"):
            cfg = MergeConfig(method=method)
            ref = merge_drm(ds, cfg)
            out = merge_drm(permuted, cfg)
            assert np.linalg.norm(out - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))

    def test_ablation_switches(self):
        ds = random_delta_set(31)
        base_cfg = MergeConfig(method="drm_h", retain=0.5)
        merged = merge_drm(ds, base_cfg)
        no_prune = merge_drm(ds, dataclasses.replace(base_cfg, enable_prune=False))
        assert not np.allclose(merged, no_prune)
        # prune disabled + sign election disabled + plain averaging on a
        # single task leaves the delta untouched
        solo = random_delta_set(32, n_tasks=1)
        cfg = MergeConfig(
            method="drm_h", retain=0.3, enable_prune=False, enable_sign_elect=False
        )
        merged_solo = merge_drm(solo, cfg)
        err = np.linalg.norm(merged_solo - solo.deltas[0]) / np.linalg.norm(solo.deltas[0])
        assert err <= 1e-8

    def test_no_disjoint_divides_by_n(self):
        rng = np.random.default_rng(33)
        delta = rng.standard_normal((4, 4))
        ds = DeltaSet("l", (4, 4), [delta, delta.copy()], ["a", "b"])
        cfg = MergeConfig(method="drm_h", retain=1.0, lambdas=1.0, enable_disjoint=False)
        merged = merge_drm(ds, cfg)
        np.testing.assert_allclose(merged, delta, atol=1e-10)

    def test_rank_drop_changes_result(self):
        ds = random_delta_set(35, n_tasks=2, m=6, n=5)
        full = merge_drm(ds, MergeConfig(method="drm_h", retain=1.0))
        cut = merge_drm(ds, MergeConfig(method="drm_h", retain=1.0, rank_drop=0.5))
        assert not np.allclose(full, cut)

    def test_wrong_method_rejected(self):
        with pytest.raises(ValueError):
            merge_drm(random_delta_set(1), MergeConfig(method="ties"))


class TestMergeGrid:
    RETAINS = [0.3, 0.7, 1.0]
    LAMBDAS = [0.5, 1.0, 1.3]

    @pytest.mark.parametrize("cfg", [
        MergeConfig(method="drm_h"),
        MergeConfig(method="drm_v", seed=4),
        MergeConfig(method="drm_h", rank_drop=0.4, prune_mode="individual"),
        MergeConfig(method="drm_v", enable_prune=False, enable_disjoint=False),
        MergeConfig(method="drm_h", enable_sign_elect=False),
        MergeConfig(method="ties"),
        MergeConfig(method="dare_ties", seed=3),
        MergeConfig(method="task_arithmetic"),
        MergeConfig(method="simple_avg"),
    ], ids=repr)
    def test_every_point_matches_a_single_merge(self, cfg):
        ds = random_delta_set(37, n_tasks=3, m=7, n=5)
        grid = list(merge_delta_set_grid(ds, cfg, self.RETAINS, self.LAMBDAS))
        assert len(grid) == len(self.RETAINS) * len(self.LAMBDAS)
        points = [(r, l) for r in self.RETAINS for l in self.LAMBDAS]
        for (retain, lam), (merged, stats) in zip(points, grid):
            point = dataclasses.replace(cfg, retain=retain, lambdas=lam)
            want, want_stats = drm.engine._merge_delta_set_with_stats(ds, point)
            assert merged.shape == want.shape
            assert merged.tobytes() == want.tobytes()
            assert stats == want_stats

    def test_bad_point_rejected_before_any_decomposition(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("decomposed before validating the grid")

        monkeypatch.setattr(drm.engine, "thin_svd", no_svd)
        merges = merge_delta_set_grid(random_delta_set(38), MergeConfig(), [0.5, 1.5], [1.0])
        with pytest.raises(ValueError, match="retain"):
            next(merges)


class TestMergeBiases:
    def test_identical_tasks(self):
        base = np.array([1.0, 2.0])
        task = np.array([2.0, 0.0])
        out = merge_biases(base, [task, task.copy()], 1.0)
        np.testing.assert_allclose(out, task)

    def test_two_task_mean(self):
        out = merge_biases(np.zeros(1), [np.array([2.0]), np.array([4.0])], 1.0)
        np.testing.assert_allclose(out, [3.0])

    def test_lambda_scales_delta_part(self):
        base = np.array([1.0])
        tasks = [np.array([3.0]), np.array([5.0])]
        one = merge_biases(base, tasks, 1.0) - base
        two = merge_biases(base, tasks, 2.0) - base
        np.testing.assert_allclose(two, 2.0 * one)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            merge_biases(np.zeros(2), [np.zeros(3)], 1.0)


def build_family(seed, n_tasks=3, dtype=np.float64):
    rng = np.random.default_rng(seed)
    shapes = {"enc.w": (4, 3), "dec.w": (3, 5), "enc.b": (4,)}
    base = TensorBundle()
    for name, shape in shapes.items():
        base.add(name, rng.standard_normal(shape).astype(dtype))
    tasks = []
    for _ in range(n_tasks):
        t = TensorBundle()
        for name, shape in shapes.items():
            t.add(name, (base[name] + 0.1 * rng.standard_normal(shape)).astype(dtype))
        tasks.append(t)
    return base, tasks


class TestMergeBundle:
    def test_tasks_equal_base(self):
        base, _ = build_family(41)
        merged = merge_bundle(base, [base, base], MergeConfig(method="drm_h"))
        for name, arr in base.items():
            np.testing.assert_allclose(merged[name], arr, atol=1e-12)

    def test_single_task_identity(self):
        base, tasks = build_family(43, n_tasks=1)
        cfg = MergeConfig(method="drm_h", retain=1.0, lambdas=1.0)
        merged = merge_bundle(base, tasks, cfg)
        for name in base.names():
            np.testing.assert_allclose(merged[name], tasks[0][name], atol=1e-8)

    def test_composition_oracle(self):
        # straight-line script assembling the same merge out of the
        # individual operations
        base, tasks = build_family(47, n_tasks=3)
        cfg = MergeConfig(method="drm_h", retain=0.4, lambdas=1.0)
        merged = merge_bundle(base, tasks, cfg)

        delta_sets, bias_group = extract_deltas(base, tasks)
        by_layer = {ds.layer_name: ds for ds in delta_sets}
        for name, arr in base.items():
            if arr.ndim == 2:
                expected = arr.astype(np.float64) + merge_drm(by_layer[name], cfg)
            else:
                entry = next(e for e in bias_group if e.name == name)
                expected = merge_biases(entry.base, entry.task_values, cfg.task_lambdas(3))
            np.testing.assert_array_equal(merged[name], expected)

    def test_output_dtype_follows_base(self):
        base, tasks = build_family(53, dtype=np.float32)
        merged = merge_bundle(base, tasks, MergeConfig(method="ties"))
        for name in base.names():
            assert merged[name].dtype == np.float32

    def test_metadata_records_config(self):
        base, tasks = build_family(59)
        cfg = MergeConfig(method="drm_h", retain=0.25, seed=9)
        merged = merge_bundle(base, tasks, cfg, task_names=["x", "y", "z"])
        assert merged.metadata["merge.method"] == "drm_h"
        assert '"retain":0.25' in merged.metadata["merge.config"]
        assert merged.metadata["merge.tasks"] == '["x","y","z"]'

    def test_stats_shapes(self):
        base, tasks = build_family(61)
        _, stats = merge_bundle_with_stats(base, tasks, MergeConfig(method="drm_h"))
        by_name = {s.name: s for s in stats}
        assert by_name["enc.w"].rank is not None
        assert by_name["enc.w"].kept <= by_name["enc.w"].total
        assert by_name["enc.b"].rank is None

    def test_parallel_equals_serial(self, monkeypatch):
        base, tasks = build_family(67)
        cfg = MergeConfig(method="dare_ties", seed=3)
        monkeypatch.setenv("DRM_THREADS", "1")
        serial = merge_bundle(base, tasks, cfg)
        monkeypatch.setenv("DRM_THREADS", "4")
        parallel = merge_bundle(base, tasks, cfg)
        assert serial == parallel

    def test_lambda_count_checked_upfront(self):
        base, tasks = build_family(71)
        cfg = MergeConfig(method="drm_h", lambdas=(1.0, 1.0))  # 2 lambdas, 3 tasks
        with pytest.raises(ValueError, match="2 lambdas for 3 tasks"):
            merge_bundle(base, tasks, cfg)

    def test_layer_named_in_errors(self, monkeypatch):
        import drm.engine as engine_mod
        from drm.errors import ConvergenceFailure

        base, tasks = build_family(71)

        def boom(ds, cfg):
            raise ConvergenceFailure("backend did not converge")

        monkeypatch.setattr(engine_mod, "_merge_delta_set_with_stats", boom)
        monkeypatch.setenv("DRM_THREADS", "1")
        with pytest.raises(ConvergenceFailure, match="layer 'enc.w'"):
            merge_bundle(base, tasks, MergeConfig(method="drm_h"))


def deep_family(n_layers, n_tasks, shape, seed=83):
    """float32 bundles of ``n_layers`` rank-2 layers, tasks near the base."""
    rng = np.random.default_rng(seed)
    base, tasks = TensorBundle(), [TensorBundle() for _ in range(n_tasks)]
    for i in range(n_layers):
        w = rng.standard_normal(shape).astype(np.float32)
        base.add(f"l{i}.w", w)
        for task in tasks:
            task.add(f"l{i}.w", (w + 0.1 * rng.standard_normal(shape)).astype(np.float32))
    return base, tasks


@pytest.mark.parametrize("method", METHODS)
def test_merge_memory_bounded_by_layers_in_flight(method, monkeypatch):
    # Float64 data exists only for the layers the pool is working on, so
    # the traced peak, less the float32 output itself, stays within a fixed
    # multiple of one layer's N float64 deltas whatever the layer count.
    # Building every layer's deltas up front would alone cost n_layers units.
    n_layers, n_tasks, shape, workers = 16, 4, (128, 96), 2
    base, tasks = deep_family(n_layers, n_tasks, shape)
    unit = n_tasks * shape[0] * shape[1] * 8
    monkeypatch.setenv("DRM_THREADS", str(workers))
    tracemalloc.start()
    try:
        merged = merge_bundle(base, tasks, MergeConfig(method=method))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = sum(arr.nbytes for _, arr in merged.items())
    assert peak - output < workers * 8 * unit


class TestMergeConfig:
    def test_retain_bounds(self):
        with pytest.raises(ValueError):
            MergeConfig(retain=0.0)
        with pytest.raises(ValueError):
            MergeConfig(retain=1.2)

    def test_default_lambdas_by_method(self):
        assert MergeConfig(method="task_arithmetic").task_lambdas(2)[0] == pytest.approx(0.4)
        assert MergeConfig(method="ties").task_lambdas(2)[0] == pytest.approx(1.0)

    def test_per_task_lambdas(self):
        cfg = MergeConfig(lambdas=(0.5, 1.5))
        np.testing.assert_allclose(cfg.task_lambdas(2), [0.5, 1.5])
        with pytest.raises(ValueError):
            cfg.task_lambdas(3)

    def test_non_finite_lambda_rejected(self):
        with pytest.raises(ValueError):
            MergeConfig(lambdas=float("inf"))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            MergeConfig(method="fisher")


@pytest.mark.parametrize("method,shape", [("drm_h", (128, 512)), ("drm_v", (512, 128))])
def test_layer_merge_memory_bounded_by_its_stack(method, shape):
    # A drm layer lives in one N x r x n float64 stack rewritten in place,
    # plus bool masks and r x n temporaries. The peak is the SVD input next
    # to the right factor, or the stack next to the one magnitude copy the
    # prune partitions: about 2.4 stacks. Copying the stack at every stage
    # cost about 5.1. Both shapes stack to a wide matrix, so U is small.
    n_tasks = 4
    ds = random_delta_set(0, n_tasks, *shape)
    unit = n_tasks * shape[0] * shape[1] * 8
    tracemalloc.start()
    try:
        merge_drm_with_stats(ds, MergeConfig(method=method))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / unit < 3.5


# --- byte reference: the list-of-blocks pipeline the stack replaced ---


def reference_thin_svd(A):
    """thin_svd as written with copies: (U, sigma, Vt, route)."""
    wide = A.shape[0] <= A.shape[1]
    lam, W = np.linalg.eigh(A @ A.T if wide else A.T @ A)
    lam, W = lam[::-1], W[:, ::-1]
    if lam[0] > 0.0 and lam[-1] >= drm.linalg.GRAM_MIN_EIG_RATIO * lam[0]:
        sigma = np.sqrt(lam)
        if wide:
            U, Vt = W, (W.T @ A) / sigma[:, None]
        else:
            U, Vt = (A @ W) / sigma[None, :], W.T
        route = "gram"
    else:
        U, sigma, Vt = np.linalg.svd(A, full_matrices=False)
        route = "gesdd"
    flip = U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])] < 0
    U = np.where(flip[None, :], -U, U)
    Vt = np.where(flip[:, None], -Vt, Vt)
    return U, sigma, Vt, route


def reference_prune(blocks, retain, mode):
    """Per-pool concatenate, partition a copy, mark ties in flat order."""

    def pool_mask(flat_abs):
        keep = min(flat_abs.size, max(0, math.ceil(retain * flat_abs.size - 1e-9)))
        if keep == 0:
            return np.zeros(flat_abs.size, dtype=bool)
        cut = flat_abs.size - keep
        cutoff = np.partition(flat_abs, cut)[cut]
        mask = flat_abs > cutoff
        ties = np.flatnonzero(flat_abs == cutoff)
        mask[ties[: keep - np.count_nonzero(mask)]] = True
        return mask

    if mode == "individual":
        return [pool_mask(np.abs(b).ravel()).reshape(b.shape) for b in blocks]
    pooled = pool_mask(np.concatenate([np.abs(b).ravel() for b in blocks]))
    size = blocks[0].size
    return [pooled[t * size : (t + 1) * size].reshape(b.shape) for t, b in enumerate(blocks)]


def reference_merge_drm(ds, cfg):
    """(merged delta, stats, SVD route) with one array per task and stage."""
    if cfg.method == "drm_v":
        ds = ds.transposed()
    n_tasks, n = ds.n_tasks, ds.base_shape[1]
    U, sigma, Vt, route = reference_thin_svd(hconcat(ds.deltas))
    blocks = [Vt[:, t * n : (t + 1) * n] for t in range(n_tasks)]
    row_norms = np.empty((n_tasks, sigma.size))
    renorm_blocks = []
    for t, block in enumerate(blocks):
        norms = np.linalg.norm(block, axis=1)
        row_norms[t] = norms
        safe = np.where(norms > drm.engine.ZERO_ROW_NORM, norms, 1.0)
        renorm = block / safe[:, None]
        renorm[norms <= drm.engine.ZERO_ROW_NORM] = 0.0
        renorm_blocks.append(renorm)
    row_norms[row_norms <= drm.engine.ZERO_ROW_NORM] = 0.0
    task_sigmas = sigma[None, :] * row_norms
    scaled = [task_sigmas[t][:, None] * renorm_blocks[t] for t in range(n_tasks)]
    masks = reference_prune(renorm_blocks, cfg.retain, cfg.prune_mode)
    total = np.zeros_like(scaled[0])
    for b in scaled:
        total = total + b
    signs = np.where(total < 0.0, -1.0, 1.0)
    weighted = np.zeros(scaled[0].shape)
    counts = np.zeros(scaled[0].shape)
    for mask, block, lam in zip(masks, scaled, cfg.task_lambdas(n_tasks)):
        kept = np.where(mask, block, 0.0)
        kept = np.where(kept * signs > 0.0, kept, 0.0)
        weighted += lam * kept
        counts += kept != 0.0
    gamma = np.divide(1.0, counts, out=np.zeros(counts.shape), where=counts > 0)
    merged = U @ (gamma * weighted)
    rank = int(np.count_nonzero(drm.linalg.nonzero_sigma_mask(sigma)))
    stats = {"rank": rank, "kept": int(sum(m.sum() for m in masks)), "total": sum(b.size for b in renorm_blocks)}
    return (merged.T if cfg.method == "drm_v" else merged), stats, route


def realistic_delta_set(conditioning, seed=0, n_tasks=4, m=96, n=160):
    """Dense deltas (a well-conditioned stack) or rank-8 deltas (rank 32)."""
    rng = np.random.default_rng(seed)
    if conditioning == "dense":
        deltas = [rng.standard_normal((m, n)) for _ in range(n_tasks)]
    else:
        deltas = [rng.standard_normal((m, 8)) @ rng.standard_normal((8, n)) for _ in range(n_tasks)]
    return DeltaSet("l", (m, n), deltas, [f"t{i}" for i in range(n_tasks)])


@pytest.mark.parametrize("method", ["drm_h", "drm_v"])
@pytest.mark.parametrize("conditioning,route", [("dense", "gram"), ("rank_deficient", "gesdd")])
@pytest.mark.parametrize("knobs", [
    {},
    {"retain": 0.35, "prune_mode": "individual", "lambdas": (0.5, 1.0, -0.3, 1.2)},
])
def test_stack_pipeline_matches_reference_bytes(method, conditioning, route, knobs):
    # 96x160 blocks reach numpy's blocked (pairwise) reductions, which the
    # 12x8 golden fixture does not.
    ds = realistic_delta_set(conditioning)
    cfg = MergeConfig(method=method, **knobs)
    want, want_stats, want_route = reference_merge_drm(ds, cfg)
    assert want_route == route
    got, stats = merge_drm_with_stats(ds, cfg)
    assert got.tobytes() == want.tobytes()
    assert stats == want_stats


@pytest.mark.parametrize("mode", ["joint", "individual"])
@pytest.mark.parametrize("case", ["ties_at_cutoff", "zero_cutoff"])
def test_prune_stack_matches_list_and_reference(mode, case):
    rng = np.random.default_rng(41)
    stack = rng.integers(-3, 4, (4, 24, 40)).astype(np.float64)  # many ties
    retain = 0.3
    if case == "zero_cutoff":
        stack[:, 4:] = 0.0  # structural zero rows: keep exceeds the nonzeros
    for block in stack if mode == "individual" else [stack]:
        keep = math.ceil(retain * block.size)
        cutoff = np.sort(np.abs(block).ravel())[::-1][keep - 1]
        assert np.count_nonzero(np.abs(block) == cutoff) > 1
        assert (cutoff == 0.0) == (case == "zero_cutoff")
    got = prune_topk(stack, retain, mode)
    assert got.dtype == bool and got.shape == stack.shape
    assert got.tobytes() == prune_topk(list(stack), retain, mode).tobytes()
    assert got.tobytes() == np.array(reference_prune(list(stack), retain, mode)).tobytes()

import dataclasses
import functools
import math
import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drm
import drm.engine
import drm.errors
from conftest import traced_peak
from drm.baselines import dare_ties_merge, task_arithmetic, ties_merge
from drm.bundle import DeltaSet, TensorBundle, check_aligned
from drm.engine import (
    METHODS,
    MergeConfig,
    decompose_joint,
    disjoint_average,
    elect_signs,
    extract_deltas,
    merge_biases,
    merge_bundle,
    merge_delta_set,
    merge_delta_set_grid,
    merge_drm,
    prune_topk,
)
from drm.errors import ShapeMismatch
from drm.linalg import thin_svd
from oracles import (
    disjoint_oracle,
    prune_reference,
    reference_merge_drm,
    stack_strides,
    tail_reference,
    topk_oracle,
)


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
    """decompose_joint scales each block row to unit length and keeps the
    norm it had in ``row_norms``; a zero row stays zero, with norm 0."""

    def test_already_unit(self):
        # One task's block is the whole right factor, whose rows are unit.
        ds = random_delta_set(0, n_tasks=1)
        jd = decompose_joint(ds)
        np.testing.assert_allclose(jd.row_norms, np.ones((1, 4)), atol=1e-12)
        np.testing.assert_allclose(jd.renorm_blocks[0], thin_svd(ds.deltas[0]).Vt, atol=1e-12)

    def test_three_four_five(self):
        # [3I | 4I] has sigma 5 twice; in whatever basis the SVD picks, the
        # rows of task 0's block have norm 3/5 and those of task 1's 4/5.
        ds = DeltaSet("layer", (2, 2), [3.0 * np.eye(2), 4.0 * np.eye(2)], ["t0", "t1"])
        jd = decompose_joint(ds)
        np.testing.assert_allclose(jd.row_norms, [[0.6, 0.6], [0.8, 0.8]], atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(jd.renorm_blocks, axis=2), 1.0, atol=1e-12)
        np.testing.assert_allclose(jd.task_sigmas, [[3.0, 3.0], [4.0, 4.0]], atol=1e-12)

    def test_zero_vector(self):
        ds = DeltaSet("layer", (2, 2), [np.eye(2), np.zeros((2, 2))], ["t0", "t1"])
        jd = decompose_joint(ds)
        np.testing.assert_array_equal(jd.renorm_blocks[1], np.zeros((2, 2)))
        np.testing.assert_array_equal(jd.row_norms[1], [0.0, 0.0])


def check_decomposition_invariants(ds, jd, orientation="horizontal"):
    active = jd.active_mask()
    # reconstruction per task
    deltas = ds.deltas if orientation == "horizontal" else [d.T for d in ds.deltas]
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
        assert jd.U.shape[0] == 7  # shared factor lives on the transposed side
        check_decomposition_invariants(ds, jd, "vertical")

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

    @pytest.mark.parametrize("shape", [(4, 0), (0, 4), (0, 0)])
    def test_zero_extent_layer_has_no_components(self, shape):
        ds = DeltaSet("l", shape, [np.zeros(shape)] * 3, ["a", "b", "c"])
        for orientation, (rows, cols) in zip(drm.engine.ORIENTATIONS, [shape, shape[::-1]]):
            jd = decompose_joint(ds, orientation, rank_drop=0.5)
            assert jd.U.shape == (rows, 0)
            assert jd.renorm_blocks.shape == (3, 0, cols)
            assert jd.rank == 0
        for method in METHODS:
            assert merge_delta_set(ds, MergeConfig(method=method))[0].shape == shape


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
    vt = thin_svd(np.concatenate(ds.deltas, axis=1)).Vt  # the raw blocks, side by side
    n = ds.base_shape[1]
    for t in range(ds.n_tasks):
        lhs = jd.task_sigmas[t][:, None] * jd.renorm_blocks[t]
        rhs = jd.sigma[:, None] * vt[:, t * n : (t + 1) * n]
        # magnitudes moved between factors, products agree to rounding
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestTruncateRank:
    """``decompose_joint``'s ``rank_drop`` zeroes the tail of the spectrum
    in the renormalization pass."""

    def test_zero_drop_is_identity(self):
        ds = random_delta_set(3)
        jd, cut = decompose_joint(ds), decompose_joint(ds, rank_drop=0.0)
        for field in dataclasses.fields(jd):
            assert getattr(cut, field.name).tobytes() == getattr(jd, field.name).tobytes()

    def test_keep_count(self):
        rng = np.random.default_rng(4)
        # rank-4 stack: 4 independent directions in a 4-row space
        ds = DeltaSet("l", (4, 3), [rng.standard_normal((4, 3)) for _ in range(2)], ["a", "b"])
        jd = decompose_joint(ds)
        assert jd.rank == 4
        cut = decompose_joint(ds, rank_drop=0.5)
        assert cut.rank == 2
        assert np.count_nonzero(cut.sigma) == 2

    def test_positive_share_keeps_one_component(self):
        # ceil((1 - rank_drop) * rank) is at least one for any rank_drop < 1.
        ds = random_delta_set(3)
        jd, cut = decompose_joint(ds), decompose_joint(ds, rank_drop=1 - 1e-11)
        assert jd.rank == 6
        assert cut.rank == 1
        assert cut.sigma[0] == jd.sigma[0]

    def test_tail_energy_matches_truncation_error(self):
        ds = random_delta_set(6, n_tasks=2, m=5, n=4)
        jd = decompose_joint(ds)
        cut = decompose_joint(ds, rank_drop=0.5)
        keep = cut.rank
        stack = np.concatenate(ds.deltas, axis=1)
        scaled = cut.task_sigmas[:, :, None] * cut.renorm_blocks
        recon = cut.U @ np.concatenate(scaled, axis=1)
        tail_energy = math.sqrt(float((jd.sigma[keep:] ** 2).sum()))
        assert np.linalg.norm(recon - stack) == pytest.approx(tail_energy, abs=1e-8)

    def test_truncated_fields_are_consistent(self):
        cut = decompose_joint(random_delta_set(8, n_tasks=3, m=6, n=4), rank_drop=0.4)
        dead = ~cut.active_mask()
        assert np.all(cut.U[:, dead] == 0.0)
        assert np.all(cut.row_norms[:, dead] == 0.0)
        for t in range(cut.n_tasks):
            assert np.all(cut.renorm_blocks[t][dead] == 0.0)
            assert np.all(cut.task_sigmas[t][dead] == 0.0)

    @pytest.mark.parametrize("rank_drop", [-0.1, 1.0, float("nan")])
    def test_rank_drop_outside_unit_interval_rejected(self, rank_drop):
        with pytest.raises(ValueError, match="rank_drop"):
            decompose_joint(random_delta_set(3), rank_drop=rank_drop)


class TestPruneTopk:
    @pytest.mark.parametrize("retain,mode,match", [(0.0, "joint", "retain"), (0.5, "x", "mode")])
    def test_bad_setting_rejected(self, retain, mode, match):
        with pytest.raises(ValueError, match=match):
            prune_topk(np.ones((2, 2, 2)), retain, mode)

    def test_retain_all(self):
        blocks = [np.arange(4.0).reshape(2, 2), -np.ones((2, 2))]
        masks = prune_topk(blocks, 1.0)
        for m in masks:
            assert m.all()

    def test_positive_retain_keeps_one_entry(self):
        # ceil(retain * size) is at least one of a non-empty pool for any
        # retain > 0.
        for mode in ("joint", "individual"):
            mask = prune_topk(np.arange(1.0, 11.0).reshape(1, 1, 10), 1e-12, mode)
            np.testing.assert_array_equal(mask.ravel(), np.arange(10) == 9)

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
    expected = prune_reference(blocks, retain, mode)
    got = prune_topk(blocks, retain, mode)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == bool and g.shape == e.shape
        np.testing.assert_array_equal(g, e)


# The three stage kernels, each on one N x rows x cols stack or list of blocks.
STAGE_KERNELS = {
    "prune_topk": lambda stack: prune_topk(stack, 0.5),
    "elect_signs": elect_signs,
    "disjoint_average": lambda stack: disjoint_average(stack, MergeConfig(method="ties")),
}


@pytest.mark.parametrize("shape", [(3,), (3, 4), (2, 3, 4, 5)], ids=["1d", "2d", "4d"])
@pytest.mark.parametrize("kernel", list(STAGE_KERNELS))
def test_stage_kernels_reject_a_stack_that_is_not_three_dimensional(kernel, shape):
    with pytest.raises(ShapeMismatch, match="N x rows x cols"):
        STAGE_KERNELS[kernel](np.ones(shape))


@pytest.mark.parametrize("kernel", list(STAGE_KERNELS))
def test_stage_kernels_take_a_list_of_equal_shape_blocks(kernel):
    stack = np.random.default_rng(7).standard_normal((3, 4, 5))
    want = STAGE_KERNELS[kernel](stack)
    assert STAGE_KERNELS[kernel](list(stack)).tobytes() == want.tobytes()


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


def filtered_average(blocks, masks, lambdas, sign_elect=True, disjoint=True):
    """The tail at ``lambdas`` with ``masks`` at the survivor test, the
    order drm runs them in: the signs are elected on the unmasked blocks."""
    cfg = MergeConfig(method="ties", lambdas=lambdas, enable_sign_elect=sign_elect,
                      enable_disjoint=disjoint)
    return disjoint_average(blocks, cfg, mask=masks)


class TestDisjointAverage:
    def test_counts_only_nonzero(self):
        blocks = [np.array([[1.0]]), np.array([[0.0]]), np.array([[2.0]])]
        masks = [np.ones((1, 1), dtype=bool)] * 3
        out = filtered_average(blocks, masks, [1.0, 1.0, 1.0])
        assert out[0, 0] == pytest.approx(1.5)

    def test_identical_values_pass_through(self):
        v = 0.37
        blocks = [np.full((2, 3), v) for _ in range(4)]
        masks = [np.ones((2, 3), dtype=bool)] * 4
        out = filtered_average(blocks, masks, np.ones(4))
        np.testing.assert_allclose(out, v, atol=1e-15)

    def test_matches_positionwise_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            blocks = [rng.standard_normal((4, 4)) for _ in range(3)]
            masks = [rng.random((4, 4)) < 0.6 for _ in range(3)]
            pruned = [np.where(m, b, 0.0) for m, b in zip(masks, blocks)]
            lams = rng.uniform(0.5, 1.5, 3)
            for disjoint in (True, False):
                # drm's order, and TIES's: the signs elected on the
                # unpruned or on the pruned blocks.
                for stack, signs in ((blocks, elect_signs(blocks)), (pruned, elect_signs(pruned))):
                    got = filtered_average(stack, masks, lams, disjoint=disjoint)
                    want = disjoint_oracle(blocks, masks, signs, lams, disjoint)
                    np.testing.assert_allclose(got, want, atol=1e-12)
                    cfg = MergeConfig(method="ties", lambdas=lams, enable_disjoint=disjoint)
                    assert got.tobytes() == tail_reference(stack, cfg, masks).tobytes()

    def test_sign_filter_skipped_when_none(self):
        blocks = [np.array([[1.0, -1.0]]), np.array([[-3.0, 2.0]])]
        masks = [np.ones((1, 2), dtype=bool)] * 2
        out = filtered_average(blocks, masks, [1.0, 1.0], sign_elect=False)
        np.testing.assert_allclose(out, [[-1.0, 0.5]])

    def test_mask_filter_skipped_when_none(self):
        rng = np.random.default_rng(17)
        blocks = [rng.standard_normal((3, 5)) for _ in range(3)]
        blocks[1][0, 0] = -0.0
        all_true = [np.ones((3, 5), dtype=bool)] * 3
        for sign_elect in (False, True):
            for disjoint in (True, False):
                got = filtered_average(blocks, None, [0.5, 1.0, 2.0], sign_elect, disjoint)
                want = filtered_average(blocks, all_true, [0.5, 1.0, 2.0], sign_elect, disjoint)
                assert got.tobytes() == want.tobytes()

    def test_lambda_count_mismatch(self):
        with pytest.raises(ValueError, match="2 lambdas for 1 tasks"):
            filtered_average([np.ones((1, 1))], [np.ones((1, 1), dtype=bool)], [1.0, 2.0])

    def test_survivor_mask_shape_mismatch(self):
        with pytest.raises(ShapeMismatch, match="survivor mask"):
            disjoint_average(np.ones((2, 3, 4)), MergeConfig(method="ties"),
                             mask=np.ones((2, 4, 3), dtype=bool))


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
                merged, _ = merge_drm(ds, self.neutral(method))
                err = np.linalg.norm(merged - delta) / np.linalg.norm(delta)
                assert err <= 1e-8

    def test_single_task_identity(self):
        ds = random_delta_set(19, n_tasks=1)
        for method in ("drm_h", "drm_v"):
            merged, _ = merge_drm(ds, self.neutral(method))
            err = np.linalg.norm(merged - ds.deltas[0]) / np.linalg.norm(ds.deltas[0])
            assert err <= 1e-8

    def test_vertical_equals_transposed_horizontal(self):
        ds = planted_delta_set(23, n_tasks=2, m=5, n=7)
        via_v, _ = merge_drm(ds, MergeConfig(method="drm_v"))
        via_h = merge_drm(ds.transposed(), MergeConfig(method="drm_h"))[0].T
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
            ref, _ = merge_drm(ds, cfg)
            out, _ = merge_drm(permuted, cfg)
            assert np.linalg.norm(out - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))

    def test_ablation_switches(self):
        ds = random_delta_set(31)
        base_cfg = MergeConfig(method="drm_h", retain=0.5)
        merged, _ = merge_drm(ds, base_cfg)
        keep_all, _ = merge_drm(ds, dataclasses.replace(base_cfg, retain=1.0))
        assert not np.allclose(merged, keep_all)
        # every entry kept + sign election disabled on a single task leaves
        # the delta untouched
        solo = random_delta_set(32, n_tasks=1)
        cfg = MergeConfig(method="drm_h", retain=1.0, enable_sign_elect=False)
        merged_solo, _ = merge_drm(solo, cfg)
        err = np.linalg.norm(merged_solo - solo.deltas[0]) / np.linalg.norm(solo.deltas[0])
        assert err <= 1e-8

    def test_no_disjoint_divides_by_n(self):
        rng = np.random.default_rng(33)
        delta = rng.standard_normal((4, 4))
        ds = DeltaSet("l", (4, 4), [delta, delta.copy()], ["a", "b"])
        cfg = MergeConfig(method="drm_h", retain=1.0, lambdas=1.0, enable_disjoint=False)
        merged, _ = merge_drm(ds, cfg)
        np.testing.assert_allclose(merged, delta, atol=1e-10)

    def test_rank_drop_changes_result(self):
        ds = random_delta_set(35, n_tasks=2, m=6, n=5)
        full, _ = merge_drm(ds, MergeConfig(method="drm_h", retain=1.0))
        cut, _ = merge_drm(ds, MergeConfig(method="drm_h", retain=1.0, rank_drop=0.5))
        assert not np.allclose(full, cut)

    def test_wrong_method_rejected(self):
        with pytest.raises(ValueError):
            merge_drm(random_delta_set(1), MergeConfig(method="ties"))


class TestMergeGrid:
    RETAINS = [0.3, 0.7, 1.0]

    # Named, not repr'd: an ID that spelled out MergeConfig's fields would
    # change with each of them.
    @pytest.mark.parametrize("cfg", [
        pytest.param(MergeConfig(method="drm_h"), id="drm_h"),
        pytest.param(MergeConfig(method="drm_v", seed=4), id="drm_v-seed4"),
        pytest.param(MergeConfig(method="drm_h", rank_drop=0.4, prune_mode="individual"),
                     id="drm_h-rank-drop-individual"),
        pytest.param(MergeConfig(method="drm_v", enable_disjoint=False),
                     id="drm_v-no-disjoint"),
        pytest.param(MergeConfig(method="drm_h", enable_sign_elect=False),
                     id="drm_h-no-sign-elect"),
        pytest.param(MergeConfig(method="ties"), id="ties"),
        pytest.param(MergeConfig(method="dare_ties", seed=3), id="dare_ties-seed3"),
        pytest.param(MergeConfig(method="task_arithmetic"), id="task_arithmetic"),
        pytest.param(MergeConfig(method="simple_avg"), id="simple_avg"),
    ])
    def test_every_point_matches_a_single_merge(self, cfg):
        # drm's last retain, 1.0, keeps every entry and merges its stack in
        # place. Every point is merged at cfg's own coefficients: the
        # method's default (None; 0.4 for task arithmetic), a shared
        # scalar, or a per-task tuple with a zero and a negative value.
        # A single drm merge runs the grid's own code, so each setting must
        # also give other bytes than the rest, unless the method reads none.
        ds = random_delta_set(37, n_tasks=3, m=7, n=5)
        grids = set()
        for lambdas in (None, 1.3, (0.5, 0.0, -0.3)):
            at = dataclasses.replace(cfg, lambdas=lambdas)
            grid = list(merge_delta_set_grid(ds, at, self.RETAINS))
            assert len(grid) == len(self.RETAINS)
            for retain, (merged, stats) in zip(self.RETAINS, grid):
                point = dataclasses.replace(at, retain=retain)
                want, want_stats = merge_delta_set(ds, point)
                assert merged.shape == want.shape
                assert merged.tobytes() == want.tobytes()
                assert stats == want_stats
            grids.add(tuple(merged.tobytes() for merged, _ in grid))
        assert len(grids) == (1 if cfg.method == "simple_avg" else 3)

    def test_bad_point_rejected_before_any_decomposition(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("decomposed before validating the grid")

        monkeypatch.setattr(drm.engine, "thin_svd", no_svd)
        merges = merge_delta_set_grid(random_delta_set(38), MergeConfig(), [0.5, 1.5])
        with pytest.raises(ValueError, match="retain"):
            next(merges)

    # Simple averaging resolves any coefficients to ones.
    @pytest.mark.parametrize("method", [m for m in METHODS if m != "simple_avg"])
    def test_wrong_lambda_count_rejected_before_any_merge(self, method, monkeypatch):
        def no_merge(*args, **kwargs):
            raise AssertionError("merged before checking the coefficients")

        monkeypatch.setattr(drm.engine, "decompose_joint", no_merge)
        monkeypatch.setattr(drm.engine, "_merge_delta_set_with_stats", no_merge)
        cfg = MergeConfig(method=method, lambdas=(1.0, 2.0))
        merges = merge_delta_set_grid(random_delta_set(39), cfg, [0.5])
        with pytest.raises(ValueError, match="got 2 lambdas for 3 tasks"):
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
        merged, _ = merge_bundle(base, [base, base], MergeConfig(method="drm_h"))
        for name, arr in base.items():
            np.testing.assert_allclose(merged[name], arr, atol=1e-12)

    def test_single_task_identity(self):
        base, tasks = build_family(43, n_tasks=1)
        cfg = MergeConfig(method="drm_h", retain=1.0, lambdas=1.0)
        merged, _ = merge_bundle(base, tasks, cfg)
        for name in base.names():
            np.testing.assert_allclose(merged[name], tasks[0][name], atol=1e-8)

    def test_composition_oracle(self):
        # straight-line script assembling the same merge out of the
        # individual operations
        base, tasks = build_family(47, n_tasks=3)
        cfg = MergeConfig(method="drm_h", retain=0.4, lambdas=1.0)
        merged, _ = merge_bundle(base, tasks, cfg)

        names = check_aligned(base, tasks)
        for name, arr in base.items():
            if arr.ndim == 2:
                ds = extract_deltas(name, arr, tasks, names)
                expected = arr.astype(np.float64) + merge_drm(ds, cfg)[0]
            else:
                task_values = [task[name] for task in tasks]
                expected = merge_biases(arr, task_values, cfg.task_lambdas(3))
            np.testing.assert_array_equal(merged[name], expected)

    def test_output_dtype_follows_base(self):
        base, tasks = build_family(53, dtype=np.float32)
        merged, _ = merge_bundle(base, tasks, MergeConfig(method="ties"))
        for name in base.names():
            assert merged[name].dtype == np.float32

    def test_metadata_records_config(self):
        base, tasks = build_family(59)
        cfg = MergeConfig(method="drm_h", retain=0.25, seed=9)
        merged, _ = merge_bundle(base, tasks, cfg, task_names=["x", "y", "z"])
        assert merged.metadata["merge.method"] == "drm_h"
        assert '"retain":0.25' in merged.metadata["merge.config"]
        assert merged.metadata["merge.tasks"] == '["x","y","z"]'

    def test_stats_shapes(self):
        base, tasks = build_family(61)
        _, stats = merge_bundle(base, tasks, MergeConfig(method="drm_h"))
        by_name = {s.name: s for s in stats}
        assert by_name["enc.w"].rank is not None
        assert by_name["enc.w"].kept <= by_name["enc.w"].total
        assert by_name["enc.b"].rank is None

    def test_parallel_equals_serial(self, monkeypatch):
        base, tasks = build_family(67)
        cfg = MergeConfig(method="dare_ties", seed=3)
        monkeypatch.setenv("DRM_THREADS", "1")
        serial, _ = merge_bundle(base, tasks, cfg)
        monkeypatch.setenv("DRM_THREADS", "4")
        parallel, _ = merge_bundle(base, tasks, cfg)
        assert serial == parallel

    def test_duplicate_task_names_rejected_before_any_read(self, monkeypatch):
        base, tasks = build_family(73, n_tasks=2)

        def no_read(self, name):
            raise AssertionError(f"read {name!r} before the task names were checked")

        monkeypatch.setattr(TensorBundle, "read", no_read)
        with pytest.raises(ValueError, match="task names must be unique"):
            merge_bundle(base, tasks, MergeConfig(), task_names=["x", "x"])
        with pytest.raises(ValueError, match="task names must be unique"):
            check_aligned(base, tasks, ["x", "x"])

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


@pytest.mark.parametrize("method", ["drm_h", "drm_v", "ties"])
def test_map_layers_builds_owned_stacks_in_base_order_and_reads_no_bias(method, monkeypatch):
    # Without on_vector the rank-1 tensors are neither read nor listed;
    # each matrix arrives as an owned stack laid out for the method: enc.w
    # (4 x 3) and dec.w (3 x 5) give drm-h and drm-v wide SVD inputs.
    base, tasks = build_family(79)
    read = []
    real_read = TensorBundle.read
    monkeypatch.setattr(
        TensorBundle, "read", lambda self, name: read.append(name) or real_read(self, name)
    )
    names = check_aligned(base, tasks)

    def look(value, ds):
        np.testing.assert_array_equal(value, base[ds.layer_name])
        return ds.layer_name, ds._owned, ds.deltas.strides

    seen = drm.engine.map_layers(base, tasks, names, method, look)
    assert list(seen) == ["enc.w", "dec.w"]
    assert "enc.b" not in read
    order = {"drm_h": "itj", "drm_v": "jti", "ties": "tij"}[method]
    for name, (layer, owned, strides) in seen.items():
        assert (layer, owned) == (name, True)
        assert strides == stack_strides(order, len(tasks), base.shape(name))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("error", [ValueError, drm.errors.NeedTwoTasks])
def test_map_layers_names_the_layer_of_an_error(error, threads, monkeypatch):
    monkeypatch.setenv("DRM_THREADS", threads)
    base, tasks = build_family(83)

    def fail_on_dec(value, ds):
        if ds.layer_name == "dec.w":
            raise error("no good")
        return ds.layer_name

    with pytest.raises(error, match=r"^layer 'dec.w': no good$"):
        drm.engine.map_layers(base, tasks, check_aligned(base, tasks), "drm_h", fail_on_dec)


def deep_family(n_layers, n_tasks, shape, seed=83, dtype=np.float32):
    """float32 (or ``dtype``) bundles of ``n_layers`` rank-2 layers, tasks
    near the base."""
    rng = np.random.default_rng(seed)
    base, tasks = TensorBundle(), [TensorBundle() for _ in range(n_tasks)]
    for i in range(n_layers):
        w = rng.standard_normal(shape).astype(dtype)
        base.add(f"l{i}.w", w)
        for task in tasks:
            task.add(f"l{i}.w", (w + 0.1 * rng.standard_normal(shape)).astype(dtype))
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
    (merged, _), peak = traced_peak(merge_bundle, base, tasks, MergeConfig(method=method))
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

    def test_simple_avg_resolves_to_ones(self):
        cfg = MergeConfig(method="simple_avg", lambdas=(0.5, 2.0))
        np.testing.assert_array_equal(cfg.task_lambdas(3), [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("method", ["drm_h", "ties", "task_arithmetic", "simple_avg"])
    def test_fields_are_checked_on_their_own(self, method):
        # A tune grid is checked by one config per retain and one per
        # lambdas value (harness.grid_tune), not by its R x L point configs.
        cfg = MergeConfig(method=method)

        def raises(**fields) -> bool:
            try:
                dataclasses.replace(cfg, **fields)
            except ValueError:
                return True
            return False

        for retain in (0.0, -0.1, 1e-9, 0.5, 1.0, 1.5, math.nan, math.inf):
            for lam in (None, 0.0, -2.0, 1.0, math.nan, -math.inf, (0.5, 1.0), (1.0, math.nan)):
                both = raises(retain=retain, lambdas=lam)
                assert both == (raises(retain=retain) or raises(lambdas=lam)), (retain, lam)

    @pytest.mark.parametrize("name,value", [
        ("dare_drop", 1.0),
        ("rank_drop", 1.0),
        ("prune_mode", "x"),
    ])
    def test_setting_out_of_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            MergeConfig(**{name: value})

    def test_non_finite_lambda_rejected(self):
        with pytest.raises(ValueError):
            MergeConfig(lambdas=float("inf"))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            MergeConfig(method="fisher")


def lambda_entry_points(n_tasks=3) -> dict:
    """Each public function that takes a coefficient setting, on ``n_tasks``
    tasks, as a function of that setting alone."""
    ds = random_delta_set(29, n_tasks=n_tasks)
    base = np.arange(4.0)
    values = [base + 0.5 * (t + 1) for t in range(n_tasks)]
    return {
        "task_lambdas": lambda lams: MergeConfig(method="ties", lambdas=lams).task_lambdas(n_tasks),
        "task_arithmetic": lambda lams: task_arithmetic(ds, lams),
        "merge_biases": lambda lams: merge_biases(base, values, lams),
        "disjoint_average": lambda lams: disjoint_average(
            ds.deltas, MergeConfig(method="ties", lambdas=lams)
        ),
    }


class TestOneLambdaResolver:
    """``MergeConfig.task_lambdas``, ``task_arithmetic``, ``merge_biases``
    and ``disjoint_average`` read a coefficient setting one way: a scalar is
    shared, and a sequence holds exactly one value per task."""

    @pytest.mark.parametrize("entry", sorted(lambda_entry_points()))
    @pytest.mark.parametrize("setting,per_task", [
        (0.5, [0.5, 0.5, 0.5]),
        (np.float64(-1.25), [-1.25, -1.25, -1.25]),
        ([0.5, 1.0, 1.5], [0.5, 1.0, 1.5]),
        ((2.0, 0.0, -1.0), [2.0, 0.0, -1.0]),
    ], ids=["scalar", "numpy-scalar", "list", "tuple"])
    def test_a_setting_means_the_same_everywhere(self, entry, setting, per_task):
        run = lambda_entry_points()[entry]
        assert run(setting).tobytes() == run(np.array(per_task)).tobytes()
        if entry == "task_lambdas":
            assert run(setting).tolist() == per_task

    @pytest.mark.parametrize("entry", sorted(lambda_entry_points()))
    @pytest.mark.parametrize("setting,count", [
        ([0.5], 1), ((2.0,), 1), ([1.0, 2.0], 2), ([1.0, 2.0, 3.0, 4.0], 4),
    ], ids=["one-element-list", "one-element-tuple", "too-few", "too-many"])
    def test_a_wrong_count_is_a_value_error_everywhere(self, entry, setting, count):
        # A value error (exit 2 from the command line), never ShapeMismatch.
        with pytest.raises(ValueError, match=f"got {count} lambdas for 3 tasks"):
            lambda_entry_points()[entry](setting)

    def test_one_task_takes_a_one_element_list(self):
        for run in lambda_entry_points(n_tasks=1).values():
            assert run([0.75]).tobytes() == run(0.75).tobytes()


@pytest.mark.parametrize("method,shape", [("drm_h", (128, 512)), ("drm_v", (512, 128))])
def test_layer_merge_memory_bounded_by_its_stack(method, shape):
    # A drm layer lives in one N x r x n float64 stack rewritten in place,
    # plus bool masks and r x n temporaries. The peak is the right factor
    # next to the renormalized blocks (and drm-h's side-by-side copy), or
    # the stack next to the one magnitude copy the prune partitions: about
    # 2.4 stacks. Copying the stack at every stage cost about 5.1. Both
    # shapes stack to a wide matrix, so U is small.
    n_tasks = 4
    ds = random_delta_set(0, n_tasks, *shape)
    unit = n_tasks * shape[0] * shape[1] * 8
    _, peak = traced_peak(merge_drm, ds, MergeConfig(method=method))
    assert peak / unit < 3.5


@pytest.mark.parametrize("method,shape", [("drm_h", (256, 512)), ("drm_v", (512, 256))])
def test_drm_tail_allocates_no_stack_sized_temporary(method, shape, monkeypatch):
    # From the scaled stack to the projected delta, a drm layer allocates
    # its merged plane and the projected delta, each 1/N of the stack, plus
    # chunk-sized scratch: 0.50 stacks here. Whole-stack stages (a signs
    # plane, agreement and survivor masks, a gamma plane and the weighted
    # sum) took 1.00. The decomposition and the prune mask are made before
    # tracing starts.
    n_tasks = 4
    ds = random_delta_set(3, n_tasks, *shape)
    cfg = MergeConfig(method=method)
    jd = decompose_joint(ds, drm.engine.DRM_ORIENTATIONS[method])
    mask = prune_topk(jd.renorm_blocks, cfg.retain, cfg.prune_mode)
    monkeypatch.setattr(drm.engine, "decompose_joint", lambda *args: jd)
    monkeypatch.setattr(drm.engine, "prune_topk", lambda *args: mask)
    unit = jd.renorm_blocks.nbytes
    _, peak = traced_peak(merge_drm, ds, cfg)
    assert peak / unit < 0.75


# Every public entry point that takes a DeltaSet, each called on a borrowed
# one. Grids have two or more points, so a second point would see what the
# first left behind.
BORROWING_CALLS = {
    **{
        f"merge_delta_set-{method}": (
            lambda ds, method=method: merge_delta_set(ds, MergeConfig(method=method))
        )
        for method in METHODS
    },
    **{
        f"merge_drm_with_stats-{method}": (
            lambda ds, method=method: merge_drm(ds, MergeConfig(method=method))
        )
        for method in ("drm_h", "drm_v")
    },
    **{
        f"decompose_joint-{orientation}": (
            lambda ds, orientation=orientation: decompose_joint(ds, orientation)
        )
        for orientation in drm.engine.ORIENTATIONS
    },
    "ties_merge": lambda ds: ties_merge(ds, MergeConfig(method="ties")),
    "dare_ties_merge": lambda ds: dare_ties_merge(ds, MergeConfig(method="dare_ties")),
    **{
        f"merge_delta_set_grid-{method}": (
            lambda ds, method=method: list(
                merge_delta_set_grid(ds, MergeConfig(method=method, lambdas=0.5), [0.2, 0.5])
            )
        )
        for method in ("ties", "dare_ties")
    },
}


@pytest.mark.parametrize("call", BORROWING_CALLS.values(), ids=BORROWING_CALLS.keys())
def test_public_entry_points_leave_the_stack_alone(call):
    # Only merge_bundle, which builds each layer's stack itself, lets the
    # merge overwrite and drop it; a caller's DeltaSet keeps its array and
    # its bytes.
    ds = random_delta_set(5, n_tasks=3, m=10, n=7)
    stack = ds.deltas
    before = stack.tobytes()
    call(ds)
    assert ds.deltas is stack
    assert stack.tobytes() == before


def adapter_family(n_layers, n_tasks, shape, seed=89):
    """float32 bundles whose task deltas are rank-2 adapters, up to the
    float32 rounding of the task weights."""
    rng = np.random.default_rng(seed)
    base, tasks = TensorBundle(), [TensorBundle() for _ in range(n_tasks)]
    for i in range(n_layers):
        w = rng.standard_normal(shape).astype(np.float32)
        base.add(f"l{i}.w", w)
        for task in tasks:
            down, up = rng.standard_normal((2, shape[1])), rng.standard_normal((shape[0], 2))
            task.add(f"l{i}.w", (w + drm.materialize_low_rank(down, up, 0.1)).astype(np.float32))
    return base, tasks


@pytest.mark.parametrize("method,shape,family,bound,chunk", [
    pytest.param("drm_h", (128, 512), deep_family, 2.5, 1, id="drm_h-shape0"),
    pytest.param("drm_v", (512, 128), deep_family, 2.5, 1, id="drm_v-shape1"),
    pytest.param("ties", (128, 512), deep_family, 1.55, 8, id="ties-shape2"),
    pytest.param("dare_ties", (128, 512), deep_family, 1.55, 8, id="dare_ties-shape3"),
    pytest.param("drm_v", (512, 128), adapter_family, 2.5, 1, id="drm_v-rank2_adapters"),
    pytest.param("drm_h", (128, 512), adapter_family, 2.5, 1, id="drm_h-rank2_adapters"),
])
def test_bundle_layer_peak_below_two_and_a_half_stacks(
    method, shape, family, bound, chunk, monkeypatch, gesdd_calls
):
    # The bundle path builds the layer's stack, laid out so that drm-h's
    # and drm-v's SVD input is a view of it, and hands it to the merge:
    # TIES prunes it and DARE-TIES drops it in place, drm-h and drm-v free
    # it once the SVD of that view returns. Holding it to the end of the
    # layer cost about 3.2-3.4 stacks. Rank-2 adapters take gesdd, which
    # factors the stack where it lies; copying drm-h's stack side by side
    # and then to Fortran order cost about 3.3. TIES and DARE-TIES merge
    # the stack one row chunk at a time; a 128 x 512 plane is one chunk of
    # the default size, so their chunks are made ``chunk`` = 8 times
    # smaller here. Their drop draws, masks and election then take
    # chunk-sized buffers, about 1.46 and 1.34 stacks, against 1.8 and 1.7
    # for plane-sized ones. The peak counts the stack itself.
    n_tasks = 4
    base, tasks = family(1, n_tasks, shape)
    unit = n_tasks * shape[0] * shape[1] * 8
    monkeypatch.setenv("DRM_THREADS", "1")
    monkeypatch.setattr(drm.engine, "_CHUNK", drm.engine._CHUNK // chunk)
    _, peak = traced_peak(merge_bundle, base, tasks, MergeConfig(method=method))
    assert peak / unit < bound
    assert len(gesdd_calls) == (family is adapter_family)


@pytest.mark.parametrize("method,shape,order,in_place", [
    ("drm_h", (128, 512), "itj", True),  # 128 x 2048 stack: wide, gesdd factors its transpose
    ("drm_h", (2048, 512), "tij", False),  # 2048 x 2048: square, side_by_side copies it
    ("drm_v", (512, 128), "jti", True),  # 128 x 2048
    ("drm_v", (512, 2048), "tij", True),  # 2048 x 2048: the task-major stack
    ("ties", (128, 512), "tij", False),
    ("dare_ties", (128, 512), "tij", False),
    ("simple_avg", (128, 512), "tij", False),
    ("task_arithmetic", (128, 512), "tij", False),
])
def test_stack_order_makes_the_gesdd_matrix_a_fortran_view(method, shape, order, in_place):
    # extract_deltas lays the stack out in the buffer ``order`` names.
    base = TensorBundle({"w": np.zeros(shape)})
    ds = extract_deltas("w", base["w"], [base] * 4, list("abcd"), method)
    assert ds.deltas.strides == stack_strides(order, 4, shape)
    if method in ("drm_h", "drm_v"):
        A = (ds if method == "drm_h" else ds.transposed()).side_by_side()
        gesdd_input = A.T if A.shape[0] < A.shape[1] else A
        is_view = gesdd_input.flags.f_contiguous and np.shares_memory(gesdd_input, ds.deltas)
        assert is_view == in_place


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("method", METHODS)
def test_bundle_merge_equals_borrowed_merge(method, threads, monkeypatch):
    # The owned stacks of the bundle path give the bytes a merge of a
    # borrowed, task-major DeltaSet of the same layer gives. Dense deltas
    # take the Gram route; rank-2 adapters take gesdd, and with N=3 their
    # shapes give drm-h and drm-v both a wide and a tall SVD input, so
    # every buffer order extract_deltas picks is run. The float64 120 x 12
    # layer gives drm-h a tall Gram-route input, whose A @ W OpenBLAS's
    # small-matrix GEMM rounds differently for a Fortran-ordered A: an
    # N x n x m drm-h stack would fail here (float32 rounding hides it).
    cfg = MergeConfig(method=method, seed=4)
    monkeypatch.setenv("DRM_THREADS", threads)
    dense64 = functools.partial(deep_family, dtype=np.float64)
    for family, shape in [(deep_family, (24, 16)), (adapter_family, (16, 64)),
                          (adapter_family, (64, 16)), (dense64, (120, 12))]:
        base, tasks = family(2, 3, shape)
        names = [f"task{t}" for t in range(len(tasks))]
        merged, _ = merge_bundle(base, tasks, cfg)
        for name, arr in base.items():
            ds = extract_deltas(name, arr, tasks, names)
            want = (arr.astype(np.float64) + merge_delta_set(ds, cfg)[0]).astype(arr.dtype)
            assert merged[name].tobytes() == want.tobytes()


@pytest.mark.parametrize("orientation", drm.engine.ORIENTATIONS)
def test_stacked_svd_input(orientation, monkeypatch):
    # drm-v factors a view of the task-major stack, laid out as the
    # concatenation of the transposed deltas would be; drm-h factors the
    # C-ordered side-by-side copy. Either way thin_svd sees the same bytes.
    seen = []

    def recording_thin_svd(A, overwrite_a=False):
        seen.append(A)
        return thin_svd(A, overwrite_a=overwrite_a)

    monkeypatch.setattr(drm.engine, "thin_svd", recording_thin_svd)
    ds = random_delta_set(0, 4, 12, 8)
    decompose_joint(ds, orientation)
    [A] = seen
    if orientation == "vertical":
        want = np.concatenate(ds.transposed().deltas, axis=1)
        assert np.shares_memory(A, ds.deltas)
        assert A.strides == want.strides
    else:
        want = np.concatenate(ds.deltas, axis=1)
        assert A.flags.c_contiguous
    np.testing.assert_array_equal(A, want)


def adapter_delta_set(method=None, shape=(256, 64)):
    """Eight rank-2 adapters on a layer of ``shape``, stacked as
    ``extract_deltas`` lays them out for ``method``. On the default
    256 x 64 layer their drm-v stack, and on a 64 x 256 one their drm-h
    stack, is a rank-deficient 64 x 2048 matrix, which takes gesdd as
    adapter stacks do."""
    n_tasks, (m, n) = 8, shape
    rng = np.random.default_rng(3)
    tasks = [
        TensorBundle({"l": drm.materialize_low_rank(
            rng.standard_normal((2, n)), rng.standard_normal((m, 2)), 1.0)})
        for _ in range(n_tasks)
    ]
    return extract_deltas("l", np.zeros((m, n)), tasks, [f"t{i}" for i in range(n_tasks)], method)


def svd_peak(ds, monkeypatch, orientation="vertical"):
    """tracemalloc peak during the stacked SVD in ``decompose_joint(ds,
    orientation)``, in stacks. Tracing starts once the deltas exist, so the
    peak is what the SVD adds to the side-by-side copy, if one was made."""
    stack_bytes = ds.deltas.nbytes
    peaks = []

    def peak_thin_svd(A, overwrite_a=False):
        tracemalloc.reset_peak()
        svd = thin_svd(A, overwrite_a=overwrite_a)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return svd

    monkeypatch.setattr(drm.engine, "thin_svd", peak_thin_svd)
    tracemalloc.start()
    try:
        decompose_joint(ds, orientation)
    finally:
        tracemalloc.stop()
    [peak] = peaks
    return peak / stack_bytes


def test_vertical_svd_holds_one_stack(monkeypatch, gesdd_calls):
    # An owned stack laid out as merge_bundle lays out drm-v's is gesdd's
    # work matrix, factored where it lies, so the SVD adds one stack:
    # gesdd's own left factor of the tall transpose, which is the right
    # factor of the stack.
    ds = adapter_delta_set("drm_v")
    assert ds.deltas.strides == stack_strides("jti", 8, (256, 64))
    ds._owned = True
    assert svd_peak(ds, monkeypatch) < 1.5
    assert gesdd_calls == [(2048, 64)]


@pytest.mark.parametrize("orientation,shape", [
    pytest.param("horizontal", (64, 256), id="horizontal"),
    pytest.param("vertical", (256, 64), id="vertical"),
])
def test_svd_of_a_borrowed_stack_holds_two(orientation, shape, monkeypatch, gesdd_calls):
    # A caller's stack keeps its bytes. drm-v's matrix is a view of it, so
    # gesdd factors a Fortran copy; drm-h's is a private C-ordered copy,
    # whose transpose gesdd factors in place. Either way the peak holds one
    # copy of the stack and gesdd's own left factor. Copying drm-h's copy
    # again cost about 3.2 stacks.
    ds = adapter_delta_set(shape=shape)
    before = ds.deltas.tobytes()
    assert svd_peak(ds, monkeypatch, orientation) < 2.5
    assert gesdd_calls == [(2048, 64)]
    assert ds.deltas.tobytes() == before


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
    got, stats = merge_drm(ds, cfg)
    assert got.tobytes() == want.tobytes()
    assert stats == want_stats


@pytest.mark.parametrize("method", ["drm_h", "drm_v"])
def test_tall_gesdd_route_matches_the_wide_route_off_the_null_space(method):
    # A rank-deficient stack's null components get whatever basis LAPACK's
    # path picks, and they take part in the prune, so the tall (QR) route
    # and the former wide (LQ) route give different merges. With them
    # zeroed (rank_drop=1e-9 drops no nonzero component) the two agree to
    # rounding.
    ds = realistic_delta_set("rank_deficient")
    cfg = MergeConfig(method=method, rank_drop=1e-9)
    want, want_stats, route = reference_merge_drm(ds, cfg, tall_gesdd=False)
    assert route == "gesdd" and want_stats["rank"] == 32
    got, stats = merge_drm(ds, cfg)
    assert stats == want_stats
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    with_null = dataclasses.replace(cfg, rank_drop=0.0)
    want, _, _ = reference_merge_drm(ds, with_null, tall_gesdd=False)
    got, _ = merge_drm(ds, with_null)
    assert np.linalg.norm(got - want) > 1e-3 * np.linalg.norm(want)


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
    assert got.tobytes() == prune_reference(stack, retain, mode).tobytes()


def usable_cores():
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.parametrize("raw", [None, "", "0"])
def test_thread_count_auto(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv("DRM_THREADS", raising=False)
    else:
        monkeypatch.setenv("DRM_THREADS", raw)
    for method in METHODS:
        # drm-h/drm-v leave the cores to BLAS; the rest pool one per usable core.
        auto = 1 if method in ("drm_h", "drm_v") else min(1000, usable_cores())
        assert drm.engine._thread_count(1000, method) == auto
        assert drm.engine._thread_count(1, method) == 1


def test_thread_count_follows_the_cpu_affinity(monkeypatch):
    # Under taskset or a cpuset the process may run on fewer cores than the
    # host has; the default pool starts no more workers than it may run.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.delenv("DRM_THREADS", raising=False)
    assert drm.engine._thread_count(8, "ties") == 1
    monkeypatch.setenv("DRM_THREADS", "3")
    assert drm.engine._thread_count(8, "ties") == 3


@pytest.mark.parametrize(
    "method, threads, peak",
    [("drm_h", None, 1), ("drm_v", None, 1), ("drm_h", "2", 2), ("ties", None, 2)],
)
def test_layers_in_flight(monkeypatch, method, threads, peak):
    # The most layer merges running at once in a three-layer merge_bundle
    # with DRM_THREADS set to ``threads`` (None unsets it).
    if threads is None:
        if usable_cores() < peak:
            pytest.skip(f"needs {peak} cores for {peak} default workers")
        monkeypatch.delenv("DRM_THREADS", raising=False)
    else:
        monkeypatch.setenv("DRM_THREADS", threads)
    merge = drm.engine._merge_delta_set_with_stats
    cond = threading.Condition()
    state = {"now": 0, "peak": 0}

    def tracked(ds, cfg):
        with cond:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
            cond.notify_all()
            # Hold the layer briefly so that a second worker, if there is
            # one, starts its layer meanwhile.
            cond.wait_for(lambda: state["now"] > 1, timeout=0.25)
        try:
            return merge(ds, cfg)
        finally:
            with cond:
                state["now"] -= 1

    monkeypatch.setattr(drm.engine, "_merge_delta_set_with_stats", tracked)
    base, tasks = deep_family(3, 3, (8, 6))
    merge_bundle(base, tasks, MergeConfig(method=method))
    assert state["peak"] == peak


def test_readme_python_quick_start(capsys):
    # The README's Python quick start runs as written, and every name it
    # points to is exported by the package.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (Python)", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out
    named = set(re.findall(r"`([a-z_]+)`", section))
    assert named and named <= set(drm.__all__)


def test_readme_python_api_table_is_drm_all():
    # The README's "Python API" table lists every exported name once, and
    # only those; each one resolves.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert len(names) == len(set(names))
    assert set(names) == set(drm.__all__)
    assert all(getattr(drm, name, None) is not None for name in names)

import numpy as np
import pytest

import drm.engine
from drm.errors import ShapeMismatch, SingularSystem
from drm.harness import (
    BENCH_METHODS,
    SynthTask,
    closed_form_finetune,
    default_grids,
    evaluate,
    grid_tune,
    run_bench,
    synth_suite,
)


def simple_task(seed=0, s=30, n=3, m=4, ridge=0.0):
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal((m, n))
    X = rng.standard_normal((s, n))
    return SynthTask("t", X, X @ w_true.T, ridge), w_true


class TestSynthTask:
    def test_underdetermined_without_ridge_rejected(self):
        with pytest.raises(ValueError):
            SynthTask("t", np.zeros((2, 5)), np.zeros((2, 1)))

    def test_underdetermined_with_ridge_accepted(self):
        SynthTask("t", np.ones((2, 5)), np.zeros((2, 1)), ridge=0.1)

    def test_no_samples_rejected_even_with_ridge(self):
        with pytest.raises(ValueError, match="no samples"):
            SynthTask("t", np.zeros((0, 2)), np.zeros((0, 1)), ridge=1.0)

    def test_sample_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            SynthTask("t", np.zeros((3, 2)), np.zeros((4, 1)))


class TestClosedFormFinetune:
    def test_base_already_optimal(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((3, 2))
        X = rng.standard_normal((20, 2))
        task = SynthTask("t", X, X @ base.T)
        np.testing.assert_allclose(closed_form_finetune(base, task), base, atol=1e-10)

    def test_one_dimensional_hand_oracle(self):
        # normal equations by hand: (1*1 + 2*2) w = (1*1 + 2*2) -> w = 1
        task = SynthTask("t", np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]]))
        W = closed_form_finetune(np.zeros((1, 1)), task)
        np.testing.assert_allclose(W, [[1.0]], atol=1e-12)

    def test_ridge_shrinks_toward_base(self):
        task, _ = simple_task(seed=2)
        base = np.zeros((4, 3))
        dists = []
        for ridge in (0.0, 1.0, 10.0, 100.0):
            t = SynthTask(task.name, task.X, task.Y, ridge)
            W = closed_form_finetune(base, t)
            dists.append(np.linalg.norm(W - base))
        assert all(a >= b for a, b in zip(dists, dists[1:]))

    def test_exact_recovery_of_planted_solution(self):
        task, w_true = simple_task(seed=3)
        W = closed_form_finetune(np.zeros_like(w_true), task)
        np.testing.assert_allclose(W, w_true, atol=1e-9)

    def test_singular_system(self):
        X = np.zeros((4, 2))
        X[:, 0] = [1.0, 2.0, 3.0, 4.0]  # second input column is dead
        task = SynthTask("t", X, np.ones((4, 1)))
        with pytest.raises(SingularSystem):
            closed_form_finetune(np.zeros((1, 2)), task)

    def test_dim_mismatch(self):
        task, _ = simple_task(seed=4)
        with pytest.raises(ShapeMismatch):
            closed_form_finetune(np.zeros((2, 7)), task)


class TestEvaluate:
    def test_exact_model_scores_zero(self):
        task, w_true = simple_task(seed=5)
        scores, mean = evaluate(w_true, [task])
        assert scores[0] == pytest.approx(0.0, abs=1e-18)
        assert mean == pytest.approx(0.0, abs=1e-18)

    def test_zero_model_on_zero_targets(self):
        task = SynthTask("t", np.random.default_rng(6).standard_normal((10, 2)),
                         np.zeros((10, 3)))
        scores, mean = evaluate(np.zeros((3, 2)), [task])
        assert scores == [0.0] and mean == 0.0

    def test_against_loop_mse(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((3, 2))
        task = SynthTask("t", rng.standard_normal((8, 2)), rng.standard_normal((8, 3)))
        scores, _ = evaluate(W, [task])
        resid = task.X @ W.T - task.Y
        total = 0.0
        for i in range(8):
            for j in range(3):
                total += resid[i, j] ** 2
        assert scores[0] == pytest.approx(-total / 24.0)


class TestDefaultGrids:
    def test_drm_grid_is_10_by_8(self):
        retain, lam = default_grids("drm_h")
        assert len(retain) == 10 and len(lam) == 8
        assert retain[0] == 0.1 and retain[-1] == 1.0
        assert lam[0] == 0.8 and lam[-1] == 1.5

    def test_task_arithmetic_grid(self):
        retain, lam = default_grids("task_arithmetic")
        assert retain == (1.0,)
        assert len(lam) == 10 and lam[0] == 0.1 and lam[-1] == 1.0


class TestGridTune:
    def test_single_point_grid(self):
        base, tasks = synth_suite(10, 2, 5, 4, samples=40)
        res = grid_tune(base, tasks, "ties", retain_grid=[0.5], lambda_grid=[1.1])
        assert len(res.grid) == 1
        assert (res.best_retain, res.best_lambda) == (0.5, 1.1)
        assert len(res.per_task_scores) == 2

    def test_argmax_property_exhaustive(self):
        base, tasks = synth_suite(11, 3, 6, 5, samples=50)
        res = grid_tune(base, tasks, "drm_h", val_split_seed=2)
        assert len(res.grid) == 80
        for _, _, score in res.grid:
            assert res.best_score >= score - 1e-12 * max(1.0, abs(score))

    def test_flat_grid_tie_break(self):
        # targets solvable by the base: zero deltas, every config equal
        rng = np.random.default_rng(12)
        base = rng.standard_normal((4, 3))
        X = rng.standard_normal((30, 3))
        tasks = [SynthTask(f"t{i}", X, X @ base.T) for i in range(3)]
        res = grid_tune(base, tasks, "drm_h", val_split_seed=1)
        scores = [s for _, _, s in res.grid]
        assert max(scores) - min(scores) <= 1e-8
        assert (res.best_retain, res.best_lambda) == (0.1, 0.8)

    def test_deterministic_in_seed(self):
        base, tasks = synth_suite(13, 2, 5, 4, samples=40)
        a = grid_tune(base, tasks, "dare_ties", retain_grid=[0.5], lambda_grid=[1.0],
                      val_split_seed=3)
        b = grid_tune(base, tasks, "dare_ties", retain_grid=[0.5], lambda_grid=[1.0],
                      val_split_seed=3)
        assert a.grid == b.grid

    @pytest.mark.parametrize("method", ["drm_h", "drm_v"])
    def test_drm_decomposes_once_and_prunes_once_per_retain(self, method, monkeypatch):
        calls = {"thin_svd": 0, "prune_topk": 0}
        for name in calls:
            real = getattr(drm.engine, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(drm.engine, name, counting)
        base, tasks = synth_suite(19, 3, 6, 5, samples=50)
        retain_grid, lambda_grid = [0.2, 0.5, 0.9], [0.8, 1.0, 1.2, 1.4]
        res = grid_tune(base, tasks, method, retain_grid, lambda_grid)
        assert len(res.grid) == 12
        assert calls == {"thin_svd": 1, "prune_topk": len(retain_grid)}

    def test_empty_grid_rejected(self):
        base, tasks = synth_suite(14, 2, 5, 4, samples=40)
        with pytest.raises(ValueError):
            grid_tune(base, tasks, "ties", retain_grid=[], lambda_grid=[1.0])


class TestBench:
    def test_identical_tasks_recover_finetuned_score(self):
        base, tasks = synth_suite(15, 3, 8, 6, samples=60, identical=True)
        res = run_bench(base, tasks, neutral=True, seed=0)
        for method in BENCH_METHODS:
            gap = abs(res.method_scores[method] - res.finetuned_score)
            assert gap <= 1e-3 * max(1.0, abs(res.finetuned_score)), method

    def test_full_run_deterministic(self):
        base, tasks = synth_suite(16, 3, 6, 5, samples=50)
        a = run_bench(base, tasks, seed=1)
        b = run_bench(base, tasks, seed=1)
        assert a.method_scores == b.method_scores
        assert a.per_task == b.per_task

    def test_table_lists_every_method(self):
        base, tasks = synth_suite(17, 2, 5, 4, samples=40)
        table = run_bench(base, tasks).to_table()
        for method in BENCH_METHODS:
            assert method in table

    def test_identical_with_noise_still_recovers(self):
        base, tasks = synth_suite(18, 3, 8, 6, samples=60, identical=True, noise=0.05)
        res = run_bench(base, tasks, neutral=True, seed=0)
        for method in BENCH_METHODS:
            gap = abs(res.method_scores[method] - res.finetuned_score)
            assert gap <= 1e-3 * max(1.0, abs(res.finetuned_score)), method

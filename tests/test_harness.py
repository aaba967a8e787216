import tracemalloc
import warnings

import numpy as np
import pytest

import drm.engine
import drm.harness
from drm.engine import MergeConfig, merge_delta_set
from drm.errors import ShapeMismatch, SingularSystem
from drm.harness import (
    BENCH_METHODS,
    SynthTask,
    closed_form_finetune,
    default_grids,
    evaluate,
    grid_tune,
    run_bench,
    synth_stream,
    synth_suite,
)
from oracles import neg_mse_oracle, tune_oracle, tune_score_close, tune_split_oracle


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

    @pytest.mark.parametrize("ridge", [-1.0, np.nan, np.inf])
    def test_ridge_must_be_finite_and_non_negative(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and non-negative"):
            SynthTask("t", np.zeros((3, 2)), np.zeros((3, 1)), ridge=ridge)


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

    def test_model_of_the_wrong_shape_rejected(self):
        task, w_true = simple_task(seed=5)
        with pytest.raises(ShapeMismatch, match="does not match model shape"):
            evaluate(w_true.T, [task])

    def test_no_tasks_rejected_without_a_warning(self):
        # The mean of no scores is nan, with two numpy RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least one task"):
                evaluate(np.zeros((3, 2)), [])

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


def planted_tasks(seed, samples, m, n, noise=0.1):
    """Tasks with their own sample counts, planted solutions and noise."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((m, n))
    tasks = []
    for t, s in enumerate(samples):
        w_true = base + 0.3 * rng.standard_normal((m, n))
        X = rng.standard_normal((s, n))
        Y = X @ w_true.T + noise * rng.standard_normal((s, m))
        tasks.append(SynthTask(f"t{t}", X, Y, ridge=0.1))
    return base, tasks


# (samples per task, m, n): unequal counts giving 1, 3 and 40 validation
# rows, one-row validation splits, 1x1 weights, and nine tasks.
SCORER_SUITES = {
    "unequal": ((11, 37, 400), 5, 3),
    "one-row": ((12, 19), 4, 3),
    "1x1": ((20, 30, 40), 1, 1),
    "nine": ((50,) * 9, 6, 4),
}


class TestScorer:
    @pytest.mark.parametrize("suite", SCORER_SUITES)
    def test_evaluate_matches_oracle_exactly(self, suite):
        samples, m, n = SCORER_SUITES[suite]
        base, tasks = planted_tasks(1, samples, m, n)
        W = base + 0.1 * np.random.default_rng(2).standard_normal((m, n))
        scores, mean = evaluate(W, tasks)
        assert scores == [neg_mse_oracle(W, t.X, t.Y) for t in tasks]
        assert mean == float(np.mean(scores))

    @pytest.mark.parametrize("method", BENCH_METHODS)
    @pytest.mark.parametrize("suite", SCORER_SUITES)
    def test_grid_tune_matches_oracle_exactly(self, suite, method, monkeypatch):
        # Exact: each row's merge M_r (the bytes of a single merge at
        # coefficient 1.0) and the best point. Scores are taken in residual
        # space, base + lam * M_r, so they match the oracle's materialized
        # base + delta to 1e-12 relative, not to the byte.
        samples, m, n = SCORER_SUITES[suite]
        base, tasks = planted_tasks(3, samples, m, n)
        ds, _ = tune_split_oracle(base, tasks, seed=4)
        steps = []
        real_grid = drm.harness.merge_delta_set_grid

        def recording_grid(*args, **kwargs):
            for delta, stats in real_grid(*args, **kwargs):
                steps.append(delta.copy())
                yield delta, stats

        monkeypatch.setattr(drm.harness, "merge_delta_set_grid", recording_grid)
        retain_grid, lambda_grid = default_grids(method)
        grids = [(retain_grid, lambda_grid)]
        if method != "simple_avg":  # the one method that reads no coefficient
            signed = [-0.5, 0.0, 0.6, 1.0, 1.3]
            grids.append(([0.1, 0.5, 1.0] if len(retain_grid) > 1 else retain_grid, signed))
        for retain_grid, lambda_grid in grids:
            steps.clear()
            res = grid_tune(base, tasks, method, retain_grid, lambda_grid, val_split_seed=4)
            grid, best, best_per_task = tune_oracle(
                base, tasks, method, retain_grid, lambda_grid, seed=4
            )

            assert len(steps) == len(retain_grid)
            for retain, step in zip(retain_grid, steps):
                cfg = MergeConfig(method=method, retain=retain, lambdas=1.0, seed=4)
                assert step.tobytes() == merge_delta_set(ds, cfg)[0].tobytes(), retain

            assert [row[:2] for row in res.grid] == [row[:2] for row in grid]
            for got, want in zip(res.grid, grid):
                assert tune_score_close(got[2], want[2]), (got, want)
            assert (res.best_retain, res.best_lambda) == best[:2]
            assert tune_score_close(res.best_score, best[2])
            assert len(res.per_task_scores) == len(best_per_task)
            assert all(map(tune_score_close, res.per_task_scores, best_per_task))


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

    def test_dare_ties_searches_no_retain(self):
        # DARE-TIES drops at random instead of pruning by magnitude, so a
        # retain axis would only repeat each coefficient's merge; a given
        # one is rejected.
        retain, lam = default_grids("dare_ties")
        assert retain == (1.0,)
        assert lam == default_grids("ties")[1]
        base, tasks = synth_suite(14, 3, 6, 5, samples=50)
        with pytest.raises(ValueError, match="'dare_ties' does not read retain"):
            grid_tune(base, tasks, "dare_ties", [0.1, 0.5, 1.0], lam)


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
        retain, lam = default_grids("drm_h")
        res = grid_tune(base, tasks, "drm_h", retain[::-1], lam[::-1], val_split_seed=1)
        assert (res.best_retain, res.best_lambda) == (0.1, 0.8)

    def test_tie_break_does_not_depend_on_grid_order(self):
        # Retain 1.0 and 0.99 keep every entry of this 3-task 2x2 stack, so
        # their rows tie exactly; the tie goes to the smaller retain however
        # the grids are ordered.
        base, tasks = synth_suite(0, 3, 2, 2, 20)
        results = [grid_tune(base, tasks, "drm_h", retain_grid=r, lambda_grid=l)
                   for r, l in (([1.0, 0.99], [1.2, 1.0]), ([0.99, 1.0], [1.0, 1.2]))]
        for res in results:
            scores = {(r, l): s for r, l, s in res.grid}
            assert scores[1.0, 1.0] == scores[0.99, 1.0] and scores[1.0, 1.2] == scores[0.99, 1.2]
            assert (res.best_retain, res.best_lambda) == (0.99, 1.0)
        assert results[0].per_task_scores == results[1].per_task_scores

    def test_deterministic_in_seed(self):
        base, tasks = synth_suite(13, 2, 5, 4, samples=40)
        a = grid_tune(base, tasks, "dare_ties", lambda_grid=[1.0], val_split_seed=3)
        b = grid_tune(base, tasks, "dare_ties", lambda_grid=[1.0], val_split_seed=3)
        assert a.grid == b.grid

    @pytest.mark.parametrize("method", ["drm_h", "drm_v"])
    def test_drm_decomposes_once_and_prunes_once_per_retain(self, method, monkeypatch, call_counts):
        # The default grid's work table: one SVD per tune; one prune, one
        # tail pass and one projection U @ plane per retain value, not per
        # grid point.
        calls = call_counts("thin_svd", "prune_topk", "disjoint_average")
        projections = []

        class CountingU(np.ndarray):
            def __matmul__(self, other):
                projections.append(np.shape(other))
                return np.asarray(self) @ other

        real_decompose = drm.engine.decompose_joint

        def decompose(*args, **kwargs):
            jd = real_decompose(*args, **kwargs)
            jd.U = jd.U.view(CountingU)
            return jd

        monkeypatch.setattr(drm.engine, "decompose_joint", decompose)
        base, tasks = synth_suite(19, 3, 6, 5, samples=50)
        res = grid_tune(base, tasks, method)
        assert len(res.grid) == 80
        assert calls == {"thin_svd": 1, "prune_topk": 10, "disjoint_average": 10}
        assert len(projections) == 10

    @pytest.mark.parametrize("method,merges", [
        ("ties", 10), ("dare_ties", 1), ("task_arithmetic", 1), ("simple_avg", 1),
    ])
    def test_baseline_tune_merges_once_per_retain(self, method, merges, call_counts):
        count = call_counts("_merge_delta_set_with_stats")
        base, tasks = synth_suite(19, 3, 6, 5, samples=50)
        res = grid_tune(base, tasks, method)
        assert len(res.grid) == len(default_grids(method)[0]) * len(default_grids(method)[1])
        assert count["_merge_delta_set_with_stats"] == merges

    def test_training_splits_freed_before_the_grid(self, monkeypatch):
        # Training rows dominate this suite: 4 x 1800 x (64 + 4) float64
        # values, about 3.7 MiB, against 4 x 200 x 68 validation values.
        base, tasks = synth_suite(20, 4, 4, 64, samples=2000)
        train_bytes = sum(8 * (t.n_samples - t.n_samples // 10) * 68 for t in tasks)
        held = []
        real_grid = drm.harness.merge_delta_set_grid

        def recording_grid(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return real_grid(*args, **kwargs)

        monkeypatch.setattr(drm.harness, "merge_delta_set_grid", recording_grid)
        tracemalloc.start()
        try:
            grid_tune(base, tasks, "task_arithmetic", [1.0], [1.0])
        finally:
            tracemalloc.stop()
        assert held and held[0] < train_bytes / 4, (held, train_bytes)

    @pytest.mark.parametrize("method", ["drm_h", "drm_v", "ties", "dare_ties", "simple_avg"])
    @pytest.mark.parametrize("n_tasks,identical", [(3, False), (3, True), (1, False)])
    def test_lazy_draws_tune_like_the_list(self, method, n_tasks, identical):
        args = (21, n_tasks, 6, 5, 50)
        base, tasks = synth_suite(*args, identical=identical, noise=0.01)
        lazy_base, lazy = synth_stream(*args, identical=identical, noise=0.01)
        assert lazy_base.tobytes() == base.tobytes()
        a = grid_tune(base, tasks, method, val_split_seed=4)
        b = grid_tune(lazy_base, lazy, method, val_split_seed=4)
        assert len(a.grid) == len(default_grids(method)[0]) * len(default_grids(method)[1])
        assert a == b

    @pytest.mark.parametrize("method,grids,match", [
        ("bogus", {}, "unknown method 'bogus'"),
        ("drm_h", {"retain_grid": [0.5, 1.5]}, "retain must lie in"),
        ("ties", {"lambda_grid": [1.0, float("nan")]}, "lambdas must be finite"),
        ("drm_h", {"lambda_grid": [float("nan"), 1.0]}, "lambdas must be finite"),
    ])
    def test_bad_setting_rejected_before_any_task_is_taken(self, method, grids, match):
        base, tasks = synth_suite(23, 2, 5, 4, samples=40)
        taken = []

        def lazy():
            for task in tasks:
                taken.append(task.name)
                yield task

        with pytest.raises(ValueError, match=match):
            grid_tune(base, lazy(), method, **grids)
        assert taken == []

    @pytest.mark.parametrize("method,grids,axis", [
        ("task_arithmetic", {"retain_grid": [0.5]}, "retain"),
        ("simple_avg", {"retain_grid": [1.0, 1.0]}, "retain"),
        ("simple_avg", {"lambda_grid": [0.5, 1.0]}, "lambda"),
        ("dare_ties", {"retain_grid": [0.1, 1.0]}, "retain"),
    ])
    def test_unread_axis_rejected_before_any_task_is_taken(self, method, grids, axis):
        base, tasks = synth_suite(23, 2, 5, 4, samples=40)
        taken = []

        def lazy():
            for task in tasks:
                taken.append(task.name)
                yield task

        with pytest.raises(ValueError, match=f"'{method}' does not read {axis}"):
            grid_tune(base, lazy(), method, **grids)
        assert taken == []

    @pytest.mark.parametrize("method", ["task_arithmetic", "simple_avg", "dare_ties"])
    def test_unread_axis_given_as_its_one_point_is_accepted(self, method):
        base, tasks = synth_suite(23, 2, 5, 4, samples=40)
        retain, lam = default_grids(method)
        res = grid_tune(base, tasks, method, retain_grid=[1], lambda_grid=lam)
        assert res == grid_tune(base, tasks, method)
        assert len(res.grid) == len(lam)

    @pytest.mark.parametrize("tasks", [[], iter(())], ids=["list", "iterator"])
    def test_no_tasks_rejected(self, tasks):
        base, _ = synth_suite(22, 1, 5, 4, samples=40)
        with pytest.raises(ValueError, match="no tasks were given"):
            grid_tune(base, tasks, "ties")

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

    @pytest.mark.parametrize("noise", [-1.0, np.nan, np.inf])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="noise must be finite and non-negative"):
            synth_suite(19, 2, 5, 4, samples=40, noise=noise)

    @pytest.mark.parametrize("identical", [False, True])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_list_holds_the_lazy_draws(self, identical, noise):
        args = (23, 3, 5, 4, 40)
        base, tasks = synth_suite(*args, identical=identical, ridge=0.5, noise=noise)
        lazy_base, lazy = synth_stream(*args, identical=identical, ridge=0.5, noise=noise)
        lazy = list(lazy)
        assert lazy_base.tobytes() == base.tobytes()
        assert [t.name for t in lazy] == [t.name for t in tasks] == ["task0", "task1", "task2"]
        for a, b in zip(tasks, lazy):
            assert (a.X.tobytes(), a.Y.tobytes(), a.ridge) == (b.X.tobytes(), b.Y.tobytes(), b.ridge)

    @pytest.mark.parametrize("kwargs,message", [
        ({"n_tasks": 0}, "n_tasks must be at least 1, got 0"),
        ({"n_tasks": -1}, "n_tasks must be at least 1, got -1"),
        ({"samples": -5}, "samples must be non-negative, got -5"),
        ({"noise": -1.0}, "noise must be finite and non-negative"),
    ])
    def test_bad_arguments_rejected_before_the_first_draw(self, kwargs, message):
        args = {"seed": 24, "n_tasks": 2, "m": 5, "n": 4, "samples": 40, **kwargs}
        # The call itself raises; the task iterator is never advanced.
        with pytest.raises(ValueError, match=message):
            synth_stream(**args)
        with pytest.raises(ValueError, match=message):
            synth_suite(**args)

    def test_identical_with_noise_still_recovers(self):
        base, tasks = synth_suite(18, 3, 8, 6, samples=60, identical=True, noise=0.05)
        res = run_bench(base, tasks, neutral=True, seed=0)
        for method in BENCH_METHODS:
            gap = abs(res.method_scores[method] - res.finetuned_score)
            assert gap <= 1e-3 * max(1.0, abs(res.finetuned_score)), method

"""Acceptance criteria, one test per criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import functools
import json
import math
import struct
from functools import lru_cache

import numpy as np

from drm.analysis import check_perturbation_bound, pruning_density, sign_agreement, synth_hetero_deltas
from drm.baselines import dare_ties_merge, task_arithmetic, ties_merge
from drm.bundle import DeltaSet, TensorBundle, read_bundle, write_bundle
from drm.engine import (
    MergeConfig,
    agreeing_entries,
    decompose_joint,
    disjoint_average,
    elect_signs,
    merge_drm,
    survivor_filter,
)
from drm.harness import BENCH_METHODS, grid_tune, run_bench, synth_suite
from drm.linalg import hconcat, thin_svd


def announce(criterion: str, description: str):
    """Decorator printing one pass/fail line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] {criterion} {description}: FAIL")
                raise
            print(f"[ACCEPTANCE] {criterion} {description}: PASS")

        return run

    return wrap


@lru_cache(maxsize=1)
def random_instances():
    """200 random delta stacks: N in 1..5, m and n in 3..48, float64."""
    rng = np.random.default_rng(2024)
    instances = []
    for _ in range(200):
        n_tasks = int(rng.integers(1, 6))
        m = int(rng.integers(3, 49))
        n = int(rng.integers(3, 49))
        deltas = [rng.standard_normal((m, n)) for _ in range(n_tasks)]
        instances.append(DeltaSet("l", (m, n), deltas, [f"t{i}" for i in range(n_tasks)]))
    return instances


def planted_instance(seed, n_tasks, m, n):
    """Deltas sliced from a stack with well-separated planted spectrum."""
    rng = np.random.default_rng(seed)
    r = min(m, n_tasks * n)
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n_tasks * n, n_tasks * n)))
    sigma = 10.0 * 0.7 ** np.arange(r)
    stack = U[:, :r] @ np.diag(sigma) @ V.T[:r]
    deltas = [stack[:, t * n : (t + 1) * n] for t in range(n_tasks)]
    return DeltaSet("planted", (m, n), deltas, [f"t{i}" for i in range(n_tasks)])


@announce("criterion 01", "reconstruction fidelity, both orientations")
def test_criterion_01_reconstruction():
    for ds in random_instances():
        for orientation in ("horizontal", "vertical"):
            jd = decompose_joint(ds, orientation)
            targets = ds.deltas if orientation == "horizontal" else [d.T for d in ds.deltas]
            for t, delta in enumerate(targets):
                recon = jd.U @ (jd.task_sigmas[t][:, None] * jd.renorm_blocks[t])
                err = np.linalg.norm(recon - delta)
                assert err <= 1e-8 * max(1.0, np.linalg.norm(delta))


@announce("criterion 02", "unit norm budget across tasks")
def test_criterion_02_norm_budget():
    for ds in random_instances():
        for orientation in ("horizontal", "vertical"):
            jd = decompose_joint(ds, orientation)
            budget = (jd.row_norms**2).sum(axis=0)[jd.active_mask()]
            assert np.all(budget >= 1.0 - 1e-10)
            assert np.all(budget <= 1.0 + 1e-10)


@announce("criterion 03", "sqrt(k) law for stacked copies")
def test_criterion_03_sqrt_k_law():
    rng = np.random.default_rng(7)
    for k in (2, 3, 4):
        A = rng.standard_normal((10, 6))
        single = thin_svd(A).sigma
        stacked = thin_svd(hconcat([A] * k)).sigma
        ratio = stacked[: single.size] / single
        np.testing.assert_allclose(ratio, math.sqrt(k), rtol=1e-9)


@announce("criterion 04", "spectrum perturbation bound holds")
def test_criterion_04_perturbation_bound():
    rng = np.random.default_rng(11)
    for _ in range(100):
        deltas = [rng.standard_normal((6, 5)) for _ in range(3)]
        ds = DeltaSet("l", (6, 5), deltas, ["a", "b", "c"])
        for t in range(3):
            report = check_perturbation_bound(ds, t)
            assert report.entries, "bound must be evaluated on active components"
            assert report.all_hold


@announce("criterion 05", "vertical/horizontal transpose duality")
def test_criterion_05_duality():
    for seed in range(50):
        ds = planted_instance(seed, n_tasks=2, m=5, n=7)
        via_v = merge_drm(ds, MergeConfig(method="drm_v"))
        via_h = merge_drm(ds.transposed(), MergeConfig(method="drm_h")).T
        err = np.linalg.norm(via_v - via_h)
        assert err <= 1e-8 * max(1.0, np.linalg.norm(via_h))


@announce("criterion 06", "identity merging for identical tasks")
def test_criterion_06_identity_merging():
    rng = np.random.default_rng(13)
    for n_tasks in (1, 2, 4):
        delta = rng.standard_normal((7, 5))
        ds = DeltaSet("l", (7, 5), [delta.copy() for _ in range(n_tasks)],
                      [f"t{i}" for i in range(n_tasks)])
        scale = np.linalg.norm(delta)
        for method in ("drm_h", "drm_v"):
            merged = merge_drm(ds, MergeConfig(method=method, retain=1.0, lambdas=1.0))
            assert np.linalg.norm(merged - delta) <= 1e-8 * scale
        merged = ties_merge(ds, MergeConfig(method="ties", retain=1.0, lambdas=1.0))
        assert np.linalg.norm(merged - delta) <= 1e-8 * scale
        merged = task_arithmetic(ds, 1.0 / n_tasks)
        assert np.linalg.norm(merged - delta) <= 1e-8 * scale


@announce("criterion 07", "task-order invariance")
def test_criterion_07_task_order_invariance():
    rng = np.random.default_rng(17)
    for seed in range(20):
        ds = planted_instance(1000 + seed, n_tasks=3, m=8, n=5)
        perm = rng.permutation(3)
        permuted = DeltaSet(
            ds.layer_name, ds.base_shape,
            [ds.deltas[p] for p in perm], [ds.task_names[p] for p in perm],
        )
        for method in ("drm_h", "drm_v"):
            cfg = MergeConfig(method=method)
            ref = merge_drm(ds, cfg)
            out = merge_drm(permuted, cfg)
            assert np.linalg.norm(out - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))


@announce("criterion 08", "renormalization evens pruning densities")
def test_criterion_08_renormalization_ablation():
    ds = synth_hetero_deltas(7, 3, 64, 64, 10.0)
    cfg = MergeConfig(method="drm_h", retain=0.5)
    with_renorm = pruning_density(ds, cfg, with_renorm=True).drop_fractions
    without = pruning_density(ds, cfg, with_renorm=False).drop_fractions
    assert with_renorm.min() >= 0.25
    assert with_renorm.max() <= 0.75
    assert without.max() >= 0.90


@announce("criterion 09", "backprojected agreement below decomposed")
def test_criterion_09_sign_agreement_ordering():
    ds = synth_hetero_deltas(7, 3, 64, 64, 10.0)
    cfg = MergeConfig(method="drm_h")
    means = {}
    for space in ("original", "decomposed-h", "decomposed-v",
                  "backprojected-h", "backprojected-v"):
        hist = sign_agreement(ds, cfg, space)
        values_ok = hist.counts.sum() == hist.positions
        assert values_ok and 0.5 <= hist.mean <= 1.0
        means[space] = hist.mean
    assert means["backprojected-h"] < means["decomposed-h"]
    assert means["backprojected-v"] < means["decomposed-v"]


@announce("criterion 10", "random-drop estimator is unbiased")
def test_criterion_10_dare_unbiased():
    trials = 100_000
    ds = DeltaSet("l", (trials, 1), [np.ones((trials, 1))], ["t0"])
    cfg = MergeConfig(method="dare_ties", dare_drop=0.8, seed=5)
    merged = dare_ties_merge(ds, cfg)
    # per-trial variance p/(1-p) = 4 -> 3 sigma of the mean ~ 0.019 < 0.05
    assert abs(float(merged.mean()) - 1.0) <= 0.05


@announce("criterion 11", "ops match literal position-wise scripts")
def test_criterion_11_positionwise_oracles():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n_tasks = int(rng.integers(2, 5))
        deltas = [rng.standard_normal((4, 4)) for _ in range(n_tasks)]
        ds = DeltaSet("l", (4, 4), deltas, [f"t{i}" for i in range(n_tasks)])
        retain = float(rng.choice([0.25, 0.5, 1.0]))
        lams = rng.uniform(0.5, 1.5, n_tasks)

        got = ties_merge(ds, MergeConfig(method="ties", retain=retain, lambdas=tuple(lams)))
        want = ties_oracle(deltas, retain, lams)
        assert np.abs(got - want).max() <= 1e-12

        masks = [rng.random((4, 4)) < 0.7 for _ in range(n_tasks)]
        signs = elect_signs([np.where(m, d, 0.0) for m, d in zip(masks, deltas)])
        survivors, gamma = survivor_filter(agreeing_entries(np.array(deltas), signs), masks)
        got = disjoint_average(np.array(deltas), survivors, gamma, lams)
        want = disjoint_oracle(deltas, masks, signs, lams)
        assert np.abs(got - want).max() <= 1e-12


def ties_oracle(deltas, retain, lambdas):
    rows, cols = deltas[0].shape
    pruned = []
    for d in deltas:
        order = sorted(
            ((i, j) for i in range(rows) for j in range(cols)),
            key=lambda ij: (-abs(d[ij]), ij),
        )
        keep = set(order[: math.ceil(retain * d.size - 1e-9)])
        pruned.append(
            np.array([[d[i, j] if (i, j) in keep else 0.0 for j in range(cols)]
                      for i in range(rows)])
        )
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            total = sum(p[i, j] for p in pruned)
            sign = -1.0 if total < 0 else 1.0
            kept = [
                (lam, p[i, j]) for lam, p in zip(lambdas, pruned) if p[i, j] * sign > 0
            ]
            if kept:
                out[i, j] = sum(lam * v for lam, v in kept) / len(kept)
    return out


def disjoint_oracle(blocks, masks, signs, lambdas):
    out = np.zeros_like(blocks[0])
    rows, cols = out.shape
    for i in range(rows):
        for j in range(cols):
            kept = []
            for t in range(len(blocks)):
                v = blocks[t][i, j] if masks[t][i, j] else 0.0
                if v * signs[i, j] <= 0.0:
                    v = 0.0
                kept.append(v)
            count = sum(1 for v in kept if v != 0.0)
            if count:
                out[i, j] = sum(lam * v for lam, v in zip(lambdas, kept)) / count
    return out


@announce("criterion 12", "harness sanity and grid argmax")
def test_criterion_12_harness():
    base, tasks = synth_suite(0, 3, 8, 6, samples=60, identical=True)
    bench = run_bench(base, tasks, neutral=True, seed=0)
    for method in BENCH_METHODS:
        gap = abs(bench.method_scores[method] - bench.finetuned_score)
        assert gap <= 1e-3 * max(1.0, abs(bench.finetuned_score)), method

    base, tasks = synth_suite(1, 3, 6, 5, samples=50)
    result = grid_tune(base, tasks, "drm_h", val_split_seed=0)
    assert len(result.grid) == 80
    for _, _, score in result.grid:
        assert result.best_score >= score - 1e-12 * max(1.0, abs(score))
    assert (result.best_retain, result.best_lambda, result.best_score) in [
        (r, l, s) for r, l, s in result.grid
    ]


@announce("criterion 13", "golden file parses; writes are byte-stable")
def test_criterion_13_format_golden(tmp_path):
    header = json.dumps(
        {
            "tensors": [
                {"name": "layer0.weight", "dtype": "f64", "shape": [2, 2],
                 "offset": 0, "nbytes": 32}
            ],
            "metadata": {},
        }
    ).encode("utf-8")
    golden = (
        b"DRMB"
        + struct.pack("<I", 1)
        + struct.pack("<Q", len(header))
        + header
        + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    )
    path = tmp_path / "golden.drmb"
    path.write_bytes(golden)
    bundle = read_bundle(path)
    np.testing.assert_array_equal(bundle["layer0.weight"], [[1.0, 2.0], [3.0, 4.0]])

    def build():
        b = TensorBundle(metadata={"who": "acceptance"})
        b.add("layer0.weight", np.array([[1.0, 2.0], [3.0, 4.0]]))
        b.add("layer0.bias", np.array([0.5, -0.5], dtype=np.float32))
        return b

    p1, p2 = tmp_path / "a.drmb", tmp_path / "b.drmb"
    write_bundle(build(), p1)
    write_bundle(build(), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert read_bundle(p1) == build()

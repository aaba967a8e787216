import json

import numpy as np
import pytest

import drm.analysis
from drm.analysis import (
    AgreementHistogram,
    agreement_values,
    check_perturbation_bounds,
    pruning_density,
    row_drop_fractions,
    sign_agreement,
    spectrum_report,
)
from drm.bundle import canonical_json
from drm.engine import MergeConfig, decompose_joint
from drm.errors import NeedTwoTasks
from drm.linalg import thin_svd
from oracles import make_ds, svd_oracle, synth_hetero_deltas


class TestRowDropFractions:
    def test_retain_all_drops_nothing(self):
        blocks = [np.random.default_rng(0).standard_normal((3, 4))]
        np.testing.assert_array_equal(row_drop_fractions(blocks, 1.0), np.zeros((1, 3)))

    def test_dominant_row_wins_all_slots(self):
        block = np.array([[10.0, 10.0, 10.0, 10.0], [1.0, 1.0, 1.0, 1.0]])
        fractions = row_drop_fractions([block], 0.5)
        np.testing.assert_array_equal(fractions, [[0.0, 1.0]])


class TestPruningDensity:
    def test_retain_all(self):
        ds = make_ds([np.random.default_rng(1).standard_normal((4, 4))])
        report = pruning_density(ds, MergeConfig(method="drm_h", retain=1.0))
        assert report.drop_fractions.max() == 0.0

    def test_heterogeneous_generator_seed7(self):
        # the qualitative mechanism: renormalization evens out the per-row
        # drop shares; without it the starved rows are wiped
        ds = synth_hetero_deltas(7, 3, 64, 64, 10.0)
        cfg = MergeConfig(method="drm_h", retain=0.5)
        with_renorm = pruning_density(ds, cfg, with_renorm=True)
        without = pruning_density(ds, cfg, with_renorm=False)
        assert with_renorm.drop_fractions.min() >= 0.25
        assert with_renorm.drop_fractions.max() <= 0.75
        assert without.drop_fractions.max() >= 0.90

    def test_report_shape_and_echo(self):
        ds = synth_hetero_deltas(0, 2, 8, 6, 3.0)
        cfg = MergeConfig(method="drm_h", retain=0.3)
        report = pruning_density(ds, cfg)
        assert report.drop_fractions.shape == (2, min(8, 2 * 6))
        assert report.retain == 0.3
        assert report.renormalized is True
        parsed = json.loads(canonical_json(report.to_json_obj()))
        assert parsed["layer"] == "synthetic"
        assert len(parsed["drop_fractions"]) == 2
        assert "drop_fraction" in report.to_table()

    def test_vertical_orientation_used_for_drm_v(self):
        ds = synth_hetero_deltas(1, 2, 5, 9, 2.0)
        report = pruning_density(ds, MergeConfig(method="drm_v", retain=0.5))
        assert report.orientation == "vertical"
        assert report.drop_fractions.shape == (2, min(9, 2 * 5))


class TestAgreementValues:
    def test_two_of_three(self):
        stacks = [np.array([[1.0]]), np.array([[2.0]]), np.array([[-3.0]])]
        np.testing.assert_allclose(agreement_values(stacks), [2.0 / 3.0])

    def test_all_zero_positions_skipped(self):
        stacks = [np.zeros((2, 2)), np.zeros((2, 2))]
        assert agreement_values(stacks).size == 0

    def test_against_positionwise_tally(self):
        rng = np.random.default_rng(3)
        stacks = [rng.standard_normal((5, 4)) * (rng.random((5, 4)) < 0.7) for _ in range(3)]
        got = sorted(agreement_values(stacks))
        want = []
        for i in range(5):
            for j in range(4):
                pos = sum(1 for s in stacks if s[i, j] > 0)
                neg = sum(1 for s in stacks if s[i, j] < 0)
                if pos + neg:
                    want.append(max(pos, neg) / (pos + neg))
        np.testing.assert_allclose(got, sorted(want), atol=1e-15)


class TestSignAgreement:
    def test_needs_two_tasks(self):
        ds = make_ds([np.ones((2, 2))])
        with pytest.raises(NeedTwoTasks):
            sign_agreement(ds, MergeConfig(), "original")

    def test_unknown_space_rejected(self):
        ds = make_ds([np.ones((2, 2)), -np.ones((2, 2))])
        with pytest.raises(ValueError, match="space"):
            sign_agreement(ds, MergeConfig(), "x")

    def test_identical_tasks_fully_agree(self):
        delta = np.random.default_rng(5).standard_normal((6, 6))
        ds = make_ds([delta, delta.copy()])
        for space in ("original", "decomposed-h", "backprojected-h"):
            hist = sign_agreement(ds, MergeConfig(retain=0.5), space)
            assert hist.mean == pytest.approx(1.0)

    def test_bounds_and_totals(self):
        ds = synth_hetero_deltas(11, 3, 16, 16, 4.0)
        for space in ("original", "decomposed-h", "decomposed-v",
                      "backprojected-h", "backprojected-v"):
            hist = sign_agreement(ds, MergeConfig(), space)
            assert 0.5 <= hist.mean <= 1.0
            assert hist.counts.sum() == hist.positions
            assert hist.bin_edges[0] == 0.5 and hist.bin_edges[-1] == 1.0

    def test_histogram_matches_oracle(self):
        # original-space tally recomputed with a literal loop
        rng = np.random.default_rng(13)
        deltas = [rng.standard_normal((6, 5)) for _ in range(3)]
        retain = 0.4
        hist = sign_agreement(make_ds(deltas), MergeConfig(retain=retain), "original")
        keep = int(np.ceil(retain * 30 - 1e-9))
        pruned = []
        for d in deltas:
            flat = sorted(
                ((i, j) for i in range(6) for j in range(5)),
                key=lambda ij: (-abs(d[ij]), ij),
            )
            kept = set(flat[:keep])
            pruned.append(
                np.array([[d[i, j] if (i, j) in kept else 0.0 for j in range(5)]
                          for i in range(6)])
            )
        values = []
        for i in range(6):
            for j in range(5):
                pos = sum(1 for p in pruned if p[i, j] > 0)
                neg = sum(1 for p in pruned if p[i, j] < 0)
                if pos + neg:
                    values.append(max(pos, neg) / (pos + neg))
        expected = AgreementHistogram.from_values("layer", "original", np.array(values))
        np.testing.assert_array_equal(hist.counts, expected.counts)
        assert hist.mean == pytest.approx(expected.mean)

    def test_backprojected_below_decomposed_on_hetero_suite(self):
        for seed in (7, 8, 9):
            ds = synth_hetero_deltas(seed, 3, 64, 64, 10.0)
            cfg = MergeConfig()
            dec = sign_agreement(ds, cfg, "decomposed-h")
            back = sign_agreement(ds, cfg, "backprojected-h")
            assert back.mean < dec.mean


class TestPerturbationBound:
    def test_identical_tasks_zero_gap(self):
        delta = np.random.default_rng(17).standard_normal((4, 4))
        ds = make_ds([delta, delta.copy(), delta.copy()])
        report = check_perturbation_bounds(ds)[0]
        assert report.all_hold
        assert max(e.lhs for e in report.entries) <= 1e-10
        assert max(e.rhs for e in report.entries) == 0.0

    def test_single_task_stack_is_exact(self):
        ds = make_ds([np.random.default_rng(19).standard_normal((5, 3))])
        report = check_perturbation_bounds(ds)[0]
        assert report.all_hold
        assert max(e.lhs for e in report.entries) <= 1e-10

    def test_empty_deltas_hold_vacuously(self):
        # An m x 0, 0 x n or 0 x 0 layer has no singular values: each
        # report is empty and its norm is 0.0, as the spectral norm of an
        # empty matrix is.
        for shape in [(4, 0), (0, 4), (0, 0)]:
            ds = make_ds([np.zeros(shape) for _ in range(3)])
            reports = check_perturbation_bounds(ds)
            assert [r.task_name for r in reports] == ds.task_names
            assert all(r.entries == [] and r.all_hold for r in reports)

    def test_random_instances_hold(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            ds = make_ds([rng.standard_normal((6, 5)) for _ in range(3)])
            reports = check_perturbation_bounds(ds)
            assert [r.task_name for r in reports] == ds.task_names
            assert all(r.all_hold for r in reports)

    def test_shared_work_once_per_layer(self, monkeypatch):
        # One stack SVD serves all N reports, one values-only SVD per task
        # gives both its norm and its spectrum, and each distinct pair's
        # difference norm is taken once.
        n_tasks, m, n = 4, 6, 5
        rng = np.random.default_rng(29)
        ds = make_ds([rng.standard_normal((m, n)) for _ in range(n_tasks)])
        calls = {"stack": 0, "task": 0, "norm": 0}
        real_svd = drm.analysis.thin_svd
        real_values, real_norm = drm.analysis.singular_values, drm.analysis.spectral_norm

        def counting_svd(A):
            assert A.shape == (m, n_tasks * n)
            calls["stack"] += 1
            return real_svd(A)

        def counting_values(A):
            calls["task"] += 1
            return real_values(A)

        def counting_norm(A):
            calls["norm"] += 1
            return real_norm(A)

        monkeypatch.setattr(drm.analysis, "thin_svd", counting_svd)
        monkeypatch.setattr(drm.analysis, "singular_values", counting_values)
        monkeypatch.setattr(drm.analysis, "spectral_norm", counting_norm)
        assert len(check_perturbation_bounds(ds)) == n_tasks
        pairs = n_tasks * (n_tasks - 1) // 2
        assert calls == {"stack": 1, "task": n_tasks, "norm": pairs}

    @pytest.mark.parametrize("kind", ["dense", "rank_deficient", "ill_conditioned"])
    def test_task_spectra_match_thin_svd(self, kind):
        # The task spectra come from a values-only SVD. They agree with
        # thin_svd's (the Gram route for well-conditioned deltas) to
        # 1e-12 * sigma_max, so the same components are audited and every
        # holds flag is the one thin_svd's spectrum gives.
        rng = np.random.default_rng(37)
        m, n, n_tasks = 12, 9, 3
        if kind == "dense":
            deltas = [rng.standard_normal((m, n)) for _ in range(n_tasks)]
        elif kind == "rank_deficient":
            deltas = [rng.standard_normal((m, 3)) @ rng.standard_normal((3, n)) for _ in range(n_tasks)]
        else:  # full rank, kappa = 1e6: fails the Gram gate
            deltas = [
                np.linalg.qr(rng.standard_normal((m, n)))[0]
                @ np.diag(np.logspace(0, -6, n))
                @ np.linalg.qr(rng.standard_normal((n, n)))[0]
                for _ in range(n_tasks)
            ]
        ds = make_ds(deltas)
        sv_stack = thin_svd(ds.side_by_side()).sigma
        noise = 1e-10 * sv_stack[0]
        for t, report in enumerate(check_perturbation_bounds(ds)):
            sv = thin_svd(ds.deltas[t]).sigma
            audited = np.flatnonzero(sv > 1e-12 * sv[0])
            assert [e.index for e in report.entries] == audited.tolist()
            got = np.array([e.sigma_task for e in report.entries])
            np.testing.assert_allclose(got, sv[audited], rtol=0, atol=1e-12 * sv[0])
            for e, sigma in zip(report.entries, sv[audited]):
                lhs = abs(sv_stack[e.index] - np.sqrt(n_tasks) * sigma)
                rhs = e.rhs * e.sigma_task / sigma  # the budget is the same
                assert e.holds == (lhs <= rhs * (1.0 + 1e-9) + noise)

    def test_report_serialization(self):
        ds = make_ds([np.eye(3), 2 * np.eye(3)])
        report = check_perturbation_bounds(ds)[1]
        parsed = json.loads(canonical_json(report.to_json_obj()))
        assert parsed["k"] == 2
        assert all(set(e) == {"i", "sigma", "lhs", "rhs", "holds"} for e in parsed["entries"])
        assert "all_hold" in report.to_table()


class TestSpectrumReport:
    def test_diagonal_deltas(self):
        ds = make_ds([np.diag([4.0, 3.0])])
        report = spectrum_report(ds)
        np.testing.assert_allclose(report.sigma, [4.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(report.row_norms, np.ones((1, 2)), atol=1e-12)

    def test_copies_scale_as_sqrt_n(self):
        delta = np.random.default_rng(29).standard_normal((4, 4))
        single = spectrum_report(make_ds([delta]))
        triple = spectrum_report(make_ds([delta, delta.copy(), delta.copy()]))
        np.testing.assert_allclose(triple.sigma, np.sqrt(3.0) * single.sigma, rtol=1e-9)

    def test_matches_oracle(self):
        ds = make_ds([np.random.default_rng(31).standard_normal((5, 3)) for _ in range(2)])
        report = spectrum_report(ds)
        oracle = svd_oracle(np.concatenate(ds.deltas, axis=1))
        np.testing.assert_allclose(report.sigma, oracle, atol=1e-9)

    def test_rows_and_tables(self):
        ds = make_ds([np.eye(2)])
        report = spectrum_report(ds, "vertical")
        rows = report.rows()
        assert rows[0][0] == 0 and len(rows[0][2]) == 1
        assert "orientation=vertical" in report.to_table()
        assert json.loads(canonical_json(report.to_json_obj()))["orientation"] == "vertical"


@pytest.mark.parametrize("shape", [(4, 0), (0, 4), (0, 0)])
def test_zero_extent_layer_reports_are_empty(shape):
    # No components and no positions: every report kind is empty, in both
    # orientations and every tally space.
    ds = make_ds([np.zeros(shape) for _ in range(3)])
    for orientation, method in [("horizontal", "drm_h"), ("vertical", "drm_v")]:
        report = spectrum_report(ds, orientation)
        assert report.sigma.shape == (0,) and report.row_norms.shape == (3, 0)
        density = pruning_density(ds, MergeConfig(method=method))
        assert density.drop_fractions.shape == (3, 0)
    for space in drm.analysis.SPACES:
        assert sign_agreement(ds, MergeConfig(), space).positions == 0


class TestSynthHeteroDeltas:
    def test_unit_ratio_keeps_scales_close(self):
        ds = synth_hetero_deltas(3, 3, 32, 32, 1.0)
        norms = [np.linalg.norm(d) for d in ds.deltas]
        assert max(norms) / min(norms) < 1.2

    def test_deterministic_in_seed(self):
        a = synth_hetero_deltas(5, 2, 8, 8, 10.0)
        b = synth_hetero_deltas(5, 2, 8, 8, 10.0)
        for da, db in zip(a.deltas, b.deltas):
            np.testing.assert_array_equal(da, db)

    def test_norm_ratio_concentrates(self):
        for seed in range(5):
            ds = synth_hetero_deltas(seed, 2, 64, 64, 10.0)
            ratio = np.linalg.norm(ds.deltas[1]) / np.linalg.norm(ds.deltas[0])
            assert 8.0 <= ratio <= 12.0

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            synth_hetero_deltas(0, 2, 4, 4, 0.5)


def test_density_report_deterministic_bytes():
    ds = synth_hetero_deltas(2, 2, 10, 10, 5.0)
    cfg = MergeConfig(retain=0.5)
    a = canonical_json(pruning_density(ds, cfg).to_json_obj())
    b = canonical_json(pruning_density(ds, cfg).to_json_obj())
    assert a == b


def test_decomposed_agreement_tallies_block_positions():
    ds = synth_hetero_deltas(4, 2, 8, 8, 2.0)
    hist = sign_agreement(ds, MergeConfig(retain=1.0), "decomposed-h")
    jd = decompose_joint(ds)
    nonzero_positions = np.count_nonzero(
        np.abs(jd.renorm_blocks[0]) + np.abs(jd.renorm_blocks[1])
    )
    assert hist.positions == nonzero_positions

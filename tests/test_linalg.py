import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drm.bundle import materialize_low_rank
from drm.errors import NonFiniteValue, ShapeMismatch, SizeTooLarge
from drm import linalg
from drm.linalg import SIGMA_ZERO_REL, hconcat, spectral_norm, svd_oracle, thin_svd, vconcat


def random_matrix(seed, m, n, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal((m, n))


class TestConcat:
    def test_hconcat_example(self):
        out = hconcat([np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])])
        np.testing.assert_array_equal(out, [[1.0, 3.0], [2.0, 4.0]])

    def test_hconcat_single(self):
        a = random_matrix(0, 3, 2)
        np.testing.assert_array_equal(hconcat([a]), a)

    def test_hconcat_slice_back(self):
        blocks = [random_matrix(s, 2, 2) for s in range(3)]
        stacked = hconcat(blocks)
        for t, block in enumerate(blocks):
            np.testing.assert_array_equal(stacked[:, 2 * t : 2 * t + 2], block)

    def test_hconcat_row_mismatch(self):
        with pytest.raises(ShapeMismatch):
            hconcat([np.zeros((2, 2)), np.zeros((3, 2))])

    def test_vconcat_duality(self):
        a, b = random_matrix(1, 2, 3), random_matrix(2, 4, 3)
        np.testing.assert_array_equal(vconcat([a, b]), hconcat([a.T, b.T]).T)

    def test_vconcat_single(self):
        a = random_matrix(3, 3, 2)
        np.testing.assert_array_equal(vconcat([a]), a)

    def test_vconcat_slice_back(self):
        blocks = [random_matrix(s + 10, 2, 3) for s in range(3)]
        stacked = vconcat(blocks)
        for t, block in enumerate(blocks):
            np.testing.assert_array_equal(stacked[2 * t : 2 * t + 2, :], block)

    def test_vconcat_col_mismatch(self):
        with pytest.raises(ShapeMismatch):
            vconcat([np.zeros((2, 2)), np.zeros((2, 3))])


def check_thin_svd_invariants(A, svd):
    r = min(A.shape)
    assert svd.U.shape == (A.shape[0], r)
    assert svd.Vt.shape == (r, A.shape[1])
    np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(r), atol=1e-10)
    np.testing.assert_allclose(svd.Vt @ svd.Vt.T, np.eye(r), atol=1e-10)
    assert np.all(svd.sigma >= 0)
    assert np.all(np.diff(svd.sigma) <= 0)
    recon = svd.U @ np.diag(svd.sigma) @ svd.Vt
    assert np.linalg.norm(recon - A) <= 1e-9 * max(1.0, np.linalg.norm(A))


class TestThinSVD:
    def test_diagonal_with_negative_entry(self):
        svd = thin_svd(np.diag([3.0, -2.0]))
        np.testing.assert_allclose(svd.sigma, [3.0, 2.0], atol=1e-12)
        check_thin_svd_invariants(np.diag([3.0, -2.0]), svd)

    def test_zero_matrix(self):
        A = np.zeros((3, 2))
        svd = thin_svd(A)
        np.testing.assert_array_equal(svd.sigma, [0.0, 0.0])
        check_thin_svd_invariants(A, svd)
        assert svd.rank == 0

    def test_sigma_matches_gram_eigenvalues(self):
        A = random_matrix(11, 5, 3)
        svd = thin_svd(A)
        oracle = svd_oracle(A)
        np.testing.assert_allclose(svd.sigma, oracle, rtol=1e-9)

    def test_sign_convention(self):
        A = random_matrix(12, 6, 4)
        svd = thin_svd(A)
        peaks = svd.U[np.abs(svd.U).argmax(axis=0), np.arange(svd.U.shape[1])]
        assert np.all(peaks > 0)

    def test_rank_counts_above_cutoff(self):
        A = np.diag([5.0, 1.0, 0.0])
        assert thin_svd(A).rank == 2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 9),
    st.integers(1, 9),
    st.sampled_from([1e-6, 1.0, 1e6]),
)
def test_thin_svd_reconstruction_property(seed, m, n, scale):
    A = random_matrix(seed, m, n, scale)
    check_thin_svd_invariants(A, thin_svd(A))


class TestSvdOracle:
    def test_diag(self):
        np.testing.assert_allclose(svd_oracle(np.diag([1.0, 2.0])), [2.0, 1.0], atol=1e-12)

    def test_permutation_matrix(self):
        np.testing.assert_allclose(
            svd_oracle(np.array([[0.0, 1.0], [1.0, 0.0]])), [1.0, 1.0], atol=1e-12
        )

    def test_size_limit(self):
        with pytest.raises(SizeTooLarge):
            svd_oracle(np.zeros((33, 40)))

    def test_wide_matrix_allowed_when_gram_small(self):
        # min(m, n) governs the limit, not max.
        vals = svd_oracle(random_matrix(5, 3, 100))
        assert vals.shape == (3,)

    def test_agreement_with_backend_200_seeds(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m, n = rng.integers(1, 9, size=2)
            A = rng.standard_normal((m, n))
            sigma_max = max(1.0, float(np.abs(A).sum()))
            np.testing.assert_allclose(
                svd_oracle(A), thin_svd(A).sigma, atol=1e-8 * sigma_max
            )

    def test_zero_matrix(self):
        np.testing.assert_array_equal(svd_oracle(np.zeros((2, 5))), [0.0, 0.0])


class TestSpectralProperties:
    def test_gram_invariance_under_block_order(self):
        blocks = [random_matrix(s + 40, 4, 3) for s in range(3)]
        ref = thin_svd(hconcat(blocks)).sigma
        perm = thin_svd(hconcat([blocks[2], blocks[0], blocks[1]])).sigma
        np.testing.assert_allclose(perm, ref, rtol=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sqrt_k_copies_law(self, k):
        A = random_matrix(77, 6, 4)
        single = thin_svd(A).sigma
        stacked = thin_svd(hconcat([A] * k)).sigma
        np.testing.assert_allclose(stacked[: single.size], np.sqrt(k) * single, rtol=1e-9)

    def test_spectral_norm_matches_sigma_max(self):
        A = random_matrix(78, 5, 7)
        assert spectral_norm(A) == pytest.approx(float(thin_svd(A).sigma[0]), rel=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_spectral_norm_rejects_non_finite_before_lapack(self, monkeypatch, bad):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on non-finite input")

        monkeypatch.setattr(np.linalg, "svd", no_lapack)
        A = random_matrix(79, 4, 6)
        A[1, 5] = bad
        with pytest.raises(NonFiniteValue, match=r"\(4, 6\)"):
            spectral_norm(A)


@pytest.fixture()
def gesdd_calls(monkeypatch):
    """Count the calls thin_svd makes to LAPACK's SVD."""
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def gesdd_rank(A):
    sigma = np.linalg.svd(A, compute_uv=False)
    return int(np.count_nonzero(sigma > SIGMA_ZERO_REL * sigma.max(initial=0.0)))


def rank_deficient_stack(name):
    """A stack whose rank is below its smaller side, and that rank."""
    rng = np.random.default_rng(6)
    if name == "low_rank_adapters":  # three rank-2 adapters on a 16x10 layer
        adapters = [(rng.standard_normal((2, 10)), rng.standard_normal((16, 2))) for _ in range(3)]
        return hconcat([materialize_low_rank(down, up, 0.5) for down, up in adapters]), 6
    if name == "identical_tasks":
        return hconcat([random_matrix(7, 12, 8)] * 3), 8
    return np.zeros((4, 9)), 0


class TestDecompositionRoutes:
    @pytest.mark.parametrize("n_tasks,m,n,stack", [
        (4, 12, 9, hconcat),   # wide 12x36: Gram side is the 12 rows
        (4, 7, 12, vconcat),   # tall 28x12: Gram side is the 12 columns
    ])
    def test_well_conditioned_stack_takes_gram_route(self, gesdd_calls, n_tasks, m, n, stack):
        rng = np.random.default_rng(5)
        A = stack([rng.standard_normal((m, n)) for _ in range(n_tasks)])
        svd = thin_svd(A)
        assert gesdd_calls == []
        U_ref, s_ref, Vt_ref = np.linalg.svd(A, full_matrices=False)
        check_thin_svd_invariants(A, svd)
        np.testing.assert_allclose(svd.sigma, s_ref, rtol=1e-9)
        np.testing.assert_allclose(np.abs(svd.U), np.abs(U_ref), atol=1e-8)
        np.testing.assert_allclose(np.abs(svd.Vt), np.abs(Vt_ref), atol=1e-8)
        assert svd.rank == min(A.shape)

    @pytest.mark.parametrize("name", ["low_rank_adapters", "identical_tasks", "zero"])
    def test_rank_deficient_stack_falls_back(self, gesdd_calls, name):
        A, rank = rank_deficient_stack(name)
        svd = thin_svd(A)
        assert gesdd_calls == [A.shape]
        check_thin_svd_invariants(A, svd)
        assert svd.rank == gesdd_rank(A) == rank

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected_before_lapack(self, monkeypatch, bad):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on non-finite input")

        monkeypatch.setattr(np.linalg, "svd", no_lapack)
        monkeypatch.setattr(np.linalg, "eigh", no_lapack)
        A = random_matrix(8, 4, 6)
        A[2, 3] = bad
        with pytest.raises(NonFiniteValue, match=r"\(4, 6\)"):
            thin_svd(A)

    def test_negated_input_flips_only_vt(self, gesdd_calls):
        A = hconcat([random_matrix(s, 5, 6) for s in range(3)])
        svd = thin_svd(A)
        flipped = thin_svd(-A)
        assert gesdd_calls == []
        np.testing.assert_allclose(flipped.U, svd.U, atol=1e-12)
        np.testing.assert_allclose(flipped.Vt, -svd.Vt, atol=1e-12)

    @pytest.mark.parametrize("route", ["wide_gram", "tall_gram", "gesdd"])
    def test_in_place_sign_fix_matches_where_formula(self, route):
        # thin_svd negates the flipped U columns and Vt rows in place; the
        # bytes must be those of the copying np.where formula it replaced.
        if route == "gesdd":
            A, _ = rank_deficient_stack("low_rank_adapters")
            U, sigma, Vt = np.linalg.svd(A, full_matrices=False)
        else:
            rng = np.random.default_rng(31)
            blocks = [rng.standard_normal((40, 24)) for _ in range(4)]
            A = hconcat(blocks) if route == "wide_gram" else vconcat(blocks)
            U, sigma, Vt = linalg._gram_svd(A)
        flip = U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])] < 0
        assert flip.any() and not flip.all()
        svd = thin_svd(A)
        assert svd.U.tobytes() == np.where(flip[None, :], -U, U).tobytes()
        assert svd.Vt.tobytes() == np.where(flip[:, None], -Vt, Vt).tobytes()
        assert svd.sigma.tobytes() == sigma.tobytes()

import ctypes
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drm.bundle import materialize_low_rank
from drm.errors import ConvergenceFailure, NonFiniteValue, ShapeMismatch
from drm import linalg
from drm.linalg import SIGMA_ZERO_REL, spectral_norm, thin_svd
from oracles import SizeTooLarge, svd_oracle


def random_matrix(seed, m, n, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal((m, n))


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
    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3, 4\)"):
            thin_svd(np.zeros((2, 3, 4)))

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

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_matrix(self, shape, gesdd_calls):
        # No components: m x 0, 0 and 0 x n factors, with no LAPACK call.
        m, n = shape
        svd = thin_svd(np.zeros(shape))
        assert (svd.U.shape, svd.sigma.shape, svd.Vt.shape) == ((m, 0), (0,), (0, n))
        assert svd.rank == 0
        assert gesdd_calls == []

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
        ref = thin_svd(np.concatenate(blocks, axis=1)).sigma
        perm = thin_svd(np.concatenate([blocks[2], blocks[0], blocks[1]], axis=1)).sigma
        np.testing.assert_allclose(perm, ref, rtol=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sqrt_k_copies_law(self, k):
        A = random_matrix(77, 6, 4)
        single = thin_svd(A).sigma
        stacked = thin_svd(np.concatenate([A] * k, axis=1)).sigma
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


def gesdd_rank(A):
    sigma = np.linalg.svd(A, compute_uv=False)
    return int(np.count_nonzero(sigma > SIGMA_ZERO_REL * sigma.max(initial=0.0)))


def rank_deficient_stack(name):
    """A stack whose rank is below its smaller side, and that rank."""
    rng = np.random.default_rng(6)
    if name == "low_rank_adapters":  # three rank-2 adapters on a 16x10 layer
        adapters = [(rng.standard_normal((2, 10)), rng.standard_normal((16, 2))) for _ in range(3)]
        deltas = [materialize_low_rank(down, up, 0.5) for down, up in adapters]
        return np.concatenate(deltas, axis=1), 6
    if name == "identical_tasks":
        return np.concatenate([random_matrix(7, 12, 8)] * 3, axis=1), 8
    return np.zeros((4, 9)), 0


class TestDecompositionRoutes:
    @pytest.mark.parametrize("n_tasks,m,n,axis", [
        pytest.param(4, 12, 9, 1, id="4-12-9-hconcat"),  # wide 12x36: Gram side is the 12 rows
        pytest.param(4, 7, 12, 0, id="4-7-12-vconcat"),  # tall 28x12: Gram side is the 12 columns
    ])
    def test_well_conditioned_stack_takes_gram_route(self, gesdd_calls, n_tasks, m, n, axis):
        rng = np.random.default_rng(5)
        A = np.concatenate([rng.standard_normal((m, n)) for _ in range(n_tasks)], axis=axis)
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
        # Every stack here is wide, so gesdd factors its tall transpose.
        A, rank = rank_deficient_stack(name)
        svd = thin_svd(A)
        assert gesdd_calls == [A.T.shape]
        check_thin_svd_invariants(A, svd)
        assert svd.rank == gesdd_rank(A) == rank

    def test_gram_overflow_on_finite_input_falls_back(self, gesdd_calls):
        # Every row's sum of squares overflows, so the Gram diagonal is
        # infinite although A is finite; gesdd factors A.T instead. A norm
        # of A itself overflows, so the contract is checked on A / scale.
        scale = 1e160
        A = random_matrix(41, 6, 20, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svd = thin_svd(A)
        assert gesdd_calls == [(20, 6)]
        check_thin_svd_invariants(A / scale, linalg.ThinSVD(svd.U, svd.sigma / scale, svd.Vt))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected_before_lapack(self, monkeypatch, bad):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on non-finite input")

        monkeypatch.setattr(np.linalg, "svd", no_lapack)
        monkeypatch.setattr(np.linalg, "eigh", no_lapack)
        monkeypatch.setattr(linalg, "_dgesdd", no_lapack)
        A = random_matrix(8, 4, 6)
        A[2, 3] = bad
        with pytest.raises(NonFiniteValue, match=r"\(4, 6\)"):
            thin_svd(A)

    def test_negated_input_flips_only_vt(self, gesdd_calls):
        A = np.concatenate([random_matrix(s, 5, 6) for s in range(3)], axis=1)
        svd = thin_svd(A)
        flipped = thin_svd(-A)
        assert gesdd_calls == []
        np.testing.assert_allclose(flipped.U, svd.U, atol=1e-12)
        np.testing.assert_allclose(flipped.Vt, -svd.Vt, atol=1e-12)

    @pytest.mark.parametrize("route", ["wide_gram", "tall_gram", "gesdd"])
    def test_in_place_sign_fix_matches_where_formula(self, route):
        # thin_svd negates the flipped U columns and Vt rows in place (the
        # wide Gram route negates W's columns before Vt = W.T @ A); the
        # bytes must be those of the copying np.where formula it replaced,
        # applied to the unpinned factors, except that the wide Gram route
        # leaves a zero of Vt +0.0 where that formula negates it.
        if route == "gesdd":
            A, _ = rank_deficient_stack("low_rank_adapters")  # wide: factored as A.T
            V, sigma, Ut = np.linalg.svd(A.T, full_matrices=False)
            U, Vt = Ut.T, V.T
        else:
            rng = np.random.default_rng(31)
            blocks = [rng.standard_normal((40, 24)) for _ in range(4)]
            wide = route == "wide_gram"
            if wide:
                blocks[-1][:, 4:] = 0.0  # structural zeros: all-zero columns of A
            A = np.concatenate(blocks, axis=1 if wide else 0)
            lam, W = np.linalg.eigh(A @ A.T if wide else A.T @ A)
            lam, W = lam[::-1], W[:, ::-1]
            sigma = np.sqrt(lam)
            if wide:
                U, Vt = W, (W.T @ A) / sigma[:, None]
            else:
                U, Vt = (A @ W) / sigma[None, :], W.T
        flip = U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])] < 0
        assert flip.any() and not flip.all()
        svd = thin_svd(A)
        assert svd.U.tobytes() == np.where(flip[None, :], -U, U).tobytes()
        want = np.where(flip[:, None], -Vt, Vt)
        if route == "wide_gram":
            zero = want == 0.0
            assert zero[flip].any() and not np.signbit(svd.Vt[zero]).any()
            want[zero] = 0.0
        assert svd.Vt.tobytes() == want.tobytes()
        assert svd.sigma.tobytes() == sigma.tobytes()


def wide_gesdd_input(kind, seed=13):
    """A wide matrix that fails the Gram gate, with a Gram side the Jacobi
    oracle takes: four rank-2 adapters side by side (24 x 64, rank 8), or a
    full-rank 20 x 80 matrix with condition number 1e8."""
    rng = np.random.default_rng(seed)
    if kind == "rank_deficient":
        blocks = [materialize_low_rank(rng.standard_normal((2, 16)), rng.standard_normal((24, 2)), 0.5)
                  for _ in range(4)]
        return np.concatenate(blocks, axis=1)
    left = np.linalg.qr(rng.standard_normal((20, 20)))[0]
    right = np.linalg.qr(rng.standard_normal((80, 20)))[0]
    return left @ np.diag(np.logspace(0, -8, 20)) @ right.T


@pytest.mark.parametrize("kind", ["rank_deficient", "ill_conditioned"])
class TestTallRoute:
    """A wide matrix that fails the Gram gate is factored by gesdd as its
    tall transpose, and meets the same contract as every other route."""

    def test_takes_gesdd_on_the_transpose(self, gesdd_calls, kind):
        A = wide_gesdd_input(kind)
        thin_svd(A)
        assert gesdd_calls == [A.T.shape]

    def test_sigma_matches_the_jacobi_oracle(self, kind):
        # The oracle squares the condition number, so its small singular
        # values are only good to about sqrt(eps) * sigma_max.
        A = wide_gesdd_input(kind)
        svd = thin_svd(A)
        np.testing.assert_allclose(svd.sigma, svd_oracle(A), rtol=0, atol=1e-7 * svd.sigma[0])
        assert svd.rank == gesdd_rank(A) == (8 if kind == "rank_deficient" else 20)

    def test_orthonormal_factors_reconstruct(self, kind):
        A = wide_gesdd_input(kind)
        check_thin_svd_invariants(A, thin_svd(A))

    def test_bytes_are_the_swapped_factors_of_the_transpose(self, kind):
        # thin_svd(A.T) factors the same tall matrix; swapping its factors
        # and pinning the signs on the new U gives thin_svd(A)'s bytes.
        A = wide_gesdd_input(kind)
        svd = thin_svd(A)
        tall = thin_svd(A.T)
        U, Vt = tall.Vt.T, tall.U.T
        flip = U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])] < 0
        assert svd.sigma.tobytes() == tall.sigma.tobytes()
        assert svd.U.tobytes() == np.where(flip[None, :], -U, U).tobytes()
        assert svd.Vt.tobytes() == np.where(flip[:, None], -Vt, Vt).tobytes()


def gesdd_input(shape, kind, order, seed=12):
    """A dense matrix, or a stack of rank-2 adapters (side by side when
    wide, one above the other when tall) whose rank is below min(shape)."""
    rng = np.random.default_rng(seed)
    m, n = shape
    if kind == "full":
        return np.array(rng.standard_normal(shape), order=order)
    n_tasks = 4
    if m <= n:
        blocks = [materialize_low_rank(rng.standard_normal((2, n // n_tasks)),
                                       rng.standard_normal((m, 2)), 0.5) for _ in range(n_tasks)]
        A = np.concatenate(blocks, axis=1)
    else:
        blocks = [materialize_low_rank(rng.standard_normal((2, n)),
                                       rng.standard_normal((m // n_tasks, 2)), 0.5) for _ in range(n_tasks)]
        A = np.concatenate(blocks, axis=0)
    assert np.linalg.matrix_rank(A) == 2 * n_tasks < min(shape)
    return np.array(A, order=order)


needs_direct_gesdd = pytest.mark.skipif(
    linalg._dgesdd() is None, reason="numpy's LAPACK dgesdd is not reachable here"
)


class TestDirectGesdd:
    """The gesdd route calls the dgesdd numpy links, with the arguments of
    numpy's own svd, so it can factor a matrix its caller gives up. A wide
    matrix is factored through its tall transpose."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", ["full", "rank2_adapters"])
    @pytest.mark.parametrize("shape", [(64, 512), (512, 64), (160, 160)], ids=["wide", "tall", "square"])
    def test_bytes_equal_numpy_svd(self, shape, kind, order):
        A = gesdd_input(shape, kind, order)
        wide = shape[0] < shape[1]
        want = np.linalg.svd(A.T if wide else A, full_matrices=False)
        if wide:  # A.T = V diag(sigma) Ut, so A = Ut.T diag(sigma) V.T
            V, sigma, Ut = want
            want = Ut.T, sigma, V.T
        for overwrite_a in (False, True):
            got = linalg._lapack_svd(A.copy(order="K"), overwrite_a)
            # U is gesdd's Fortran-ordered factor of the tall orientation,
            # or its transpose; Vt likewise is C-ordered either way.
            assert got[0].flags.f_contiguous and got[2].flags.c_contiguous
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("shape", [(24, 96), (96, 24)], ids=["wide", "tall"])
    def test_fallback_gives_the_same_bytes(self, monkeypatch, gesdd_calls, shape):
        A = gesdd_input(shape, "rank2_adapters", "C")
        direct = thin_svd(A)
        monkeypatch.setattr(linalg, "_dgesdd", lambda: None)
        fallback = thin_svd(A)
        assert gesdd_calls == [(max(shape), min(shape))] * 2  # the tall orientation
        for name in ("U", "sigma", "Vt"):
            assert getattr(fallback, name).tobytes() == getattr(direct, name).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("overwrite_a", [False, True])
    def test_input_kept_unless_given_up_in_fortran_order(self, order, overwrite_a):
        # A is wide, so gesdd factors A.T, which is Fortran-ordered only when
        # A is C-ordered; only the direct call uses it as its work matrix.
        A = gesdd_input((24, 96), "rank2_adapters", order)
        before = A.tobytes()
        svd = thin_svd(A, overwrite_a=overwrite_a)
        factored_in_place = overwrite_a and order == "C" and linalg._dgesdd() is not None
        assert (A.tobytes() != before) == factored_in_place
        for name in ("U", "sigma", "Vt"):
            assert not np.shares_memory(getattr(svd, name), A)

    @pytest.mark.parametrize("shape", [(24, 96), (96, 24), (40, 40)], ids=["wide", "tall", "square"])
    @pytest.mark.parametrize("path", [pytest.param("direct", marks=needs_direct_gesdd), "fallback"])
    def test_given_up_input_is_factored_where_it_lies(self, monkeypatch, path, shape):
        # The matrix gesdd factors is Fortran-ordered: A itself when tall or
        # square, A.T (so A is C-ordered) when wide. The direct call uses it
        # as its work matrix; np.linalg.svd factors a copy.
        wide = shape[0] < shape[1]
        A = gesdd_input(shape, "rank2_adapters", "C" if wide else "F")
        if path == "fallback":
            monkeypatch.setattr(linalg, "_dgesdd", lambda: None)
        before = A.tobytes()
        want = thin_svd(A.copy(order="K"))
        got = thin_svd(A, overwrite_a=True)
        assert (A.tobytes() != before) == (path == "direct")
        for name in ("U", "sigma", "Vt"):
            assert not np.shares_memory(getattr(got, name), A)
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("info,error", [(3, ConvergenceFailure), (-5, RuntimeError)])
    def test_lapack_failure_raises_naming_the_shape(self, monkeypatch, info, error):
        # info > 0: no convergence; info < 0: an illegal argument, a bug.
        @linalg._DGESDD
        def failing_dgesdd(jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork, info_p, _):
            if lwork[0] == -1:
                ctypes.c_double.from_address(work).value = 1.0
            else:
                info_p[0] = info

        monkeypatch.setattr(linalg, "_dgesdd", lambda: failing_dgesdd)
        A = gesdd_input((24, 96), "rank2_adapters", "C")
        with pytest.raises(error, match=r"\(24, 96\)"):
            thin_svd(A)

    def test_loader_finds_dgesdd_in_numpys_openblas(self):
        # The direct call needs numpy's bundled ILP64 scipy-openblas. Where
        # numpy says it was built on it, the loader must find dgesdd, so a
        # renamed library cannot silently fall back to np.linalg.svd.
        try:
            config = np.show_config(mode="dicts")
        except TypeError:
            pytest.skip("this numpy cannot report its build configuration")
        lapack = config.get("Build Dependencies", {}).get("lapack", {})
        if lapack.get("name") != "scipy-openblas" or "USE64BITINT" not in lapack.get(
            "openblas configuration", ""
        ):
            pytest.skip("numpy is not built on the ILP64 scipy-openblas")
        assert linalg._dgesdd() is not None

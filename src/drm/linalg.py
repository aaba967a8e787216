"""Dense kernels with explicit contracts: the thin SVD with pinned signs
that factors the merge stacks, singular values and the spectral norm."""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceFailure, NonFiniteValue, ShapeMismatch

# Singular values below this fraction of sigma_max count as zero for rank
# purposes; floating-point rank is ill-posed without a cutoff.
SIGMA_ZERO_REL = 1e-12

# thin_svd factors through the smaller Gram matrix only when its eigenvalues
# satisfy lambda_min >= GRAM_MIN_EIG_RATIO * lambda_max. That bounds the
# condition number by kappa <= 100, so squaring it costs at most four digits
# (sigma relative error ~ eps * kappa**2 ~ 2e-12), every sigma lies at least
# 1e-2 * sigma_max above the SIGMA_ZERO_REL rank cutoff, and rank cannot
# inflate. Anything worse conditioned goes to LAPACK's SVD.
GRAM_MIN_EIG_RATIO = 1e-4


@dataclass(frozen=True)
class ThinSVD:
    """Economy SVD A = U @ diag(sigma) @ Vt with r = min(m, n) components.

    U has orthonormal columns, Vt orthonormal rows, sigma is non-negative
    and non-increasing. Each U column is sign-normalized so its
    largest-magnitude entry is positive (the matching Vt row is flipped
    with it), which pins down the decomposition for full-rank distinct
    spectra.
    """

    U: np.ndarray
    sigma: np.ndarray
    Vt: np.ndarray

    @property
    def rank(self) -> int:
        """Number of singular values above the relative zero cutoff."""
        return int(np.count_nonzero(nonzero_sigma_mask(self.sigma)))


def nonzero_sigma_mask(sigma: np.ndarray) -> np.ndarray:
    """Boolean mask of singular values treated as nonzero."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.size == 0:
        return np.zeros(0, dtype=bool)
    return sigma > SIGMA_ZERO_REL * float(sigma.max(initial=0.0))


def thin_svd(A: np.ndarray, overwrite_a: bool = False) -> ThinSVD:
    """Economy SVD with deterministic column signs.

    Well-conditioned inputs (see GRAM_MIN_EIG_RATIO) are factored through
    ``eigh`` of the smaller Gram matrix plus one GEMM for the other factor;
    everything else, including zero and rank-deficient inputs, goes to
    LAPACK's ``gesdd``. Both routes meet one contract: U and Vt
    orthonormal to 1e-10 and ||U diag(sigma) Vt - A|| <= 1e-9 * max(1, ||A||).
    ``gesdd`` gets sigma to an absolute error of order eps * sigma_max; the
    Gram route to a relative error of order eps * kappa**2, where the gate
    keeps kappa <= 100. The Gram route is therefore not bit-identical to
    ``gesdd``, and within a (nearly) repeated singular value the two may
    pick different bases of the same subspace. The ``gesdd`` route factors
    a tall or square ``A`` itself and a wide one through its tall
    transpose, so it gives the bytes of ``np.linalg.svd(A,
    full_matrices=False)`` for a tall or square ``A`` and, for a wide one,
    those of ``np.linalg.svd(A.T, full_matrices=False)`` with the factors
    swapped and transposed (before the signs are pinned). Where A's rank
    is below min(m, n), the components past the rank span a null space in
    which LAPACK's basis depends on the path it takes (and on the BLAS
    thread count), so the two orientations give different bytes there.
    On the Gram route for a wide ``A``, the flipped rows of Vt come from
    the product with negated columns of U, so an exact zero there (an
    all-zero column of ``A``, or a sum that cancels) is +0.0, not the
    -0.0 that negating the row after the product gives.

    With ``overwrite_a`` the caller gives up ``A``: if the matrix ``gesdd``
    factors (``A``, or ``A.T`` when ``A`` is wide) is a float64,
    Fortran-ordered, writeable matrix, that is ``A`` is in
    :func:`in_place_order`, the ``gesdd`` route uses it as its work matrix
    and destroys its bytes. Without it, or for any other layout, ``A`` is
    never written. The Gram route never writes ``A``. On either route no
    factor shares A's memory, and the factors' memory order is not part of
    the contract; their values do not depend on A's, except that a BLAS
    may round a tall A's Gram-route ``A @ W`` otherwise in Fortran order.
    An empty ``A`` gives m x 0, 0 and 0 x n factors without running either
    route.

    Raises NonFiniteValue on NaN or infinity in ``A``, before any LAPACK
    call, and ConvergenceFailure if the backend does not converge.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {A.shape}")
    if A.size == 0:
        m, n = A.shape
        return ThinSVD(np.zeros((m, 0)), np.zeros(0), np.zeros((0, n)))
    factors = _gram_svd(A)
    if factors is None:
        U, sigma, Vt = _lapack_svd(A, overwrite_a)
        # Both factors are fresh arrays: negate in place.
        flip = _sign_flips(U)
        np.negative(U, out=U, where=flip[None, :])
        np.negative(Vt, out=Vt, where=flip[:, None])
        factors = U, sigma, Vt
    return ThinSVD(*factors)


def _sign_flips(U: np.ndarray) -> np.ndarray:
    """The columns of ``U`` to negate to pin the sign ambiguity: those whose
    largest-|entry| is negative."""
    return U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])] < 0


def in_place_order(shape: tuple[int, int]) -> str:
    """The memory order, ``"C"`` or ``"F"``, of an m x n matrix of
    ``shape`` that :func:`thin_svd` with ``overwrite_a`` factors where it
    lies on its ``gesdd`` route. ``gesdd`` factors the tall or square
    orientation, ``A`` or ``A.T``, and only a Fortran-ordered one in place,
    so a wide ``A`` must be C-ordered."""
    return "C" if shape[0] < shape[1] else "F"


# dgesdd(jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork, info,
# len(jobz)) with 64-bit integers, as numpy's scipy-openblas exports it.
_I64P = ctypes.POINTER(ctypes.c_int64)
_DGESDD = ctypes.CFUNCTYPE(
    None, ctypes.c_char_p, _I64P, _I64P, ctypes.c_void_p, _I64P, ctypes.c_void_p,
    ctypes.c_void_p, _I64P, ctypes.c_void_p, _I64P, ctypes.c_void_p, _I64P,
    ctypes.c_void_p, _I64P, ctypes.c_size_t,
)


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """The scipy-openblas ILP64 library numpy's wheel bundles and has
    already loaded, or None for any other build (MKL, a system BLAS)."""
    package = Path(np.__file__).parent
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):  # Linux/Windows, macOS
        for path in sorted(folder.glob("libscipy_openblas64_*")):
            try:
                return ctypes.CDLL(str(path))
            except OSError:
                continue
    return None


def _openblas_function(name: str, prototype):
    """``name`` from numpy's bundled OpenBLAS with ``prototype``, or None."""
    lib = _openblas()
    if lib is None:
        return None
    try:
        return prototype((name, lib))
    except AttributeError:
        return None


@functools.cache
def _dgesdd():
    return _openblas_function("scipy_dgesdd_64_", _DGESDD)


def _lapack_svd(A: np.ndarray, overwrite_a: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, sigma, Vt) from LAPACK's ``gesdd``, called on the tall
    orientation (``A``, or ``A.T`` when ``A`` is wide) as numpy's ``svd_s``
    calls it, so the bytes are those of ``np.linalg.svd``. On a wide ``A``,
    ``gesdd`` would take its LQ path, whose Householder steps walk rows with
    a stride of the whole leading dimension; on the tall transpose it takes
    its QR path, which walks the Fortran-ordered columns. The factors are
    the buffers ``gesdd`` wrote: the tall orientation's ``U`` in Fortran
    order and its ``Vt`` C-ordered, swapped and transposed for a wide
    ``A``. Errors name ``A``'s shape."""
    wide = in_place_order(A.shape) == "C"
    T = A.T if wide else A  # T = U diag(sigma) Vt with m >= n
    gesdd = _dgesdd()
    if gesdd is None:
        try:
            U, s, Vt = np.linalg.svd(T, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"SVD did not converge on a {A.shape} matrix") from exc
    else:
        m, n = T.shape
        in_place = overwrite_a and T.flags.f_contiguous and T.flags.writeable and T.flags.aligned
        a = T if in_place else np.array(T, order="F")  # gesdd's work matrix
        s = np.empty(n)
        u = np.empty((n, m))  # u.T is U, m x n in Fortran order (ldu = m)
        vt = np.empty((n, n))  # vt.T is Vt, n x n in Fortran order (ldvt = n)
        iwork = np.empty(8 * n, dtype=np.int64)
        pm, pn = (ctypes.byref(ctypes.c_int64(v)) for v in (m, n))
        lwork, info = ctypes.c_int64(-1), ctypes.c_int64(0)
        work = np.empty(1)
        for query in (True, False):  # a workspace query, then the factorization
            gesdd(b"S", pm, pn, a.ctypes.data, pm, s.ctypes.data, u.ctypes.data, pm,
                  vt.ctypes.data, pn, work.ctypes.data, ctypes.byref(lwork),
                  iwork.ctypes.data, ctypes.byref(info), 1)
            if info.value < 0:
                raise RuntimeError(
                    f"dgesdd rejected argument {-info.value} for a {A.shape} matrix")
            if info.value > 0:
                raise ConvergenceFailure(f"SVD did not converge on a {A.shape} matrix")
            if query:
                lwork.value = max(1, int(work[0]))
                work = np.empty(lwork.value)
        del a, work, iwork
        U, Vt = u.T, np.ascontiguousarray(vt.T)
    return (Vt.T, s, U.T) if wide else (U, s, Vt)


def _gram_svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(U, sigma, Vt), signs pinned, from ``eigh`` of the smaller Gram
    matrix, or None when the spectrum fails the GRAM_MIN_EIG_RATIO gate or
    ``eigh`` fails. Raises NonFiniteValue on NaN or infinity in ``A``,
    before ``eigh`` runs."""
    wide = A.shape[0] <= A.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the gate
        gram = A @ A.T if wide else A.T @ A
    # Each diagonal entry sums the squares of one row (wide) or column of A,
    # so NaN or infinity anywhere in A shows there; so does an overflow,
    # which only a scan of A tells apart.
    if not np.isfinite(gram.diagonal()).all():
        if not np.isfinite(A).all():
            raise NonFiniteValue(f"cannot factor a {A.shape} matrix holding NaN or infinity")
        return None
    try:
        lam, W = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:
        return None
    del gram
    lam, W = lam[::-1], W[:, ::-1]
    if not (lam[0] > 0.0 and lam[-1] >= GRAM_MIN_EIG_RATIO * lam[0]):
        return None  # also rejects NaN spectra
    sigma = np.sqrt(lam)
    if wide:
        # U is W: negating its flipped columns before the product negates
        # the matching rows of Vt with it, bit for bit up to the sign of a
        # zero (the product's zeros are +0.0).
        np.negative(W, out=W, where=_sign_flips(W)[None, :])
        Vt = W.T @ A
        Vt /= sigma[:, None]
        return W, sigma, Vt
    U = A @ W
    U /= sigma[None, :]
    flip = _sign_flips(U)
    np.negative(U, out=U, where=flip[None, :])
    np.negative(W, out=W, where=flip[None, :])
    return U, sigma, W.T


def singular_values(A: np.ndarray) -> np.ndarray:
    """All min(m, n) singular values, non-increasing, from LAPACK's
    values-only ``gesdd``, which forms no U or Vt.

    Raises NonFiniteValue on NaN or infinity in ``A``, before any LAPACK
    call, and ConvergenceFailure if the backend does not converge.
    """
    A = np.asarray(A, dtype=np.float64)
    if not np.isfinite(A).all():
        raise NonFiniteValue(f"cannot factor a {A.shape} matrix holding NaN or infinity")
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge on a {A.shape} matrix") from exc


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value (exact, via :func:`singular_values`); 0.0 for
    an empty matrix."""
    A = np.asarray(A, dtype=np.float64)
    if A.size == 0:
        return 0.0
    return float(singular_values(A)[0])

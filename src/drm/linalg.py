"""Dense kernels with explicit contracts: concatenation, thin SVD, and an
independent brute-force singular-value oracle for cross-checking tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NonFiniteValue, ShapeMismatch, SizeTooLarge

# Singular values below this fraction of sigma_max count as zero for rank
# purposes; floating-point rank is ill-posed without a cutoff.
SIGMA_ZERO_REL = 1e-12

# Largest Gram dimension svd_oracle accepts; it exists for test-scale
# cross-checks only.
ORACLE_MAX_SIDE = 32

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


def hconcat(mats: list[np.ndarray]) -> np.ndarray:
    """Concatenate matrices side by side; column blocks keep input order."""
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    if not mats:
        raise ValueError("nothing to concatenate")
    rows = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.ndim != 2 or m.shape[0] != rows:
            raise ShapeMismatch(f"block {i} has shape {m.shape}, expected {rows} rows")
    return np.concatenate(mats, axis=1)


def vconcat(mats: list[np.ndarray]) -> np.ndarray:
    """Stack matrices top to bottom; transpose-dual of :func:`hconcat`."""
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    if not mats:
        raise ValueError("nothing to concatenate")
    cols = mats[0].shape[1]
    for i, m in enumerate(mats):
        if m.ndim != 2 or m.shape[1] != cols:
            raise ShapeMismatch(f"block {i} has shape {m.shape}, expected {cols} columns")
    return np.concatenate(mats, axis=0)


def thin_svd(A: np.ndarray) -> ThinSVD:
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
    pick different bases of the same subspace.

    Raises NonFiniteValue on NaN or infinity in ``A``, before any LAPACK
    call, and ConvergenceFailure if the backend does not converge.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFiniteValue(f"cannot factor a {A.shape} matrix holding NaN or infinity")
    factors = _gram_svd(A)
    if factors is None:
        try:
            factors = np.linalg.svd(A, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"SVD did not converge on a {A.shape} matrix") from exc
    U, sigma, Vt = factors
    # Pin the sign ambiguity: largest-|entry| of each U column made positive.
    # Both factors are fresh arrays (or views of one), so negate in place.
    flip = U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])] < 0
    np.negative(U, out=U, where=flip[None, :])
    np.negative(Vt, out=Vt, where=flip[:, None])
    return ThinSVD(U, sigma, Vt)


def _gram_svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(U, sigma, Vt) from ``eigh`` of the smaller Gram matrix, or None when
    the spectrum fails the GRAM_MIN_EIG_RATIO gate or ``eigh`` fails."""
    if A.size == 0:
        return None
    wide = A.shape[0] <= A.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the gate
        gram = A @ A.T if wide else A.T @ A
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
        Vt = W.T @ A
        Vt /= sigma[:, None]
        return W, sigma, Vt
    U = A @ W
    U /= sigma[None, :]
    return U, sigma, W.T


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value (exact, via SVD).

    Raises NonFiniteValue on NaN or infinity in ``A``, before any LAPACK
    call, and ConvergenceFailure if the backend does not converge.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.size == 0:
        return 0.0
    if not np.isfinite(A).all():
        raise NonFiniteValue(f"cannot factor a {A.shape} matrix holding NaN or infinity")
    try:
        return float(np.linalg.svd(A, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge on a {A.shape} matrix") from exc


def _jacobi_eigenvalues(G: np.ndarray, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Written without any library eigensolver so it can serve as an
    independent check of the SVD backend.
    """
    G = np.array(G, dtype=np.float64, copy=True)
    n = G.shape[0]
    if n <= 1:
        return G.reshape(-1)[:1].copy() if n else np.zeros(0)
    fro = math.sqrt(float((G * G).sum()))
    if fro == 0.0:
        return np.zeros(n)
    tol = 1e-15 * fro
    off_mask = ~np.eye(n, dtype=bool)
    for sweep in range(max_sweeps + 1):
        off_sq = float((G[off_mask] ** 2).sum())
        if off_sq <= tol * tol:
            return np.diag(G).copy()
        if sweep == max_sweeps:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                gpq = G[p, q]
                if abs(gpq) <= 1e-30 * fro:
                    continue
                tau = (G[q, q] - G[p, p]) / (2.0 * gpq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = c * G[:, p] - s * G[:, q]
                col_q = s * G[:, p] + c * G[:, q]
                G[:, p], G[:, q] = col_p, col_q
                row_p = c * G[p, :] - s * G[q, :]
                row_q = s * G[p, :] + c * G[q, :]
                G[p, :], G[q, :] = row_p, row_q
                G[p, q] = 0.0
                G[q, p] = 0.0
    raise ConvergenceFailure(f"Jacobi iteration did not converge in {max_sweeps} sweeps")


def svd_oracle(A: np.ndarray) -> np.ndarray:
    """Singular values via Jacobi eigenvalues of the smaller Gram matrix.

    Test-scale only: the Gram side must not exceed ORACLE_MAX_SIDE. Returns
    min(m, n) values sorted non-increasing.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {A.shape}")
    m, n = A.shape
    if min(m, n) > ORACLE_MAX_SIDE:
        raise SizeTooLarge(
            f"oracle accepts min(m, n) <= {ORACLE_MAX_SIDE}, got {A.shape}"
        )
    gram = A @ A.T if m <= n else A.T @ A
    evals = _jacobi_eigenvalues(gram)
    evals = np.clip(evals, 0.0, None)
    return np.sort(np.sqrt(evals))[::-1]

"""Test-scale oracles the suite checks the package against.

``svd_oracle`` computes singular values by cyclic Jacobi rotations of the
smaller Gram matrix, with no library eigensolver, so it is an independent
check of the SVD backend. ``synth_hetero_deltas`` generates delta sets
whose task norms span a chosen ratio, the input on which renormalization
visibly changes what pruning keeps.
"""

from __future__ import annotations

import math

import numpy as np

from drm.bundle import DeltaSet
from drm.errors import ConvergenceFailure, NumericError, ShapeMismatch

# Largest Gram dimension svd_oracle accepts.
ORACLE_MAX_SIDE = 32

JACOBI_MAX_SWEEPS = 60


class SizeTooLarge(NumericError):
    """Input exceeds the size limit of a test-scale routine."""


def jacobi_eigenvalues(G: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    G = np.array(G, dtype=np.float64, copy=True)
    n = G.shape[0]
    if n <= 1:
        return G.reshape(-1)[:1].copy() if n else np.zeros(0)
    fro = math.sqrt(float((G * G).sum()))
    if fro == 0.0:
        return np.zeros(n)
    tol = 1e-15 * fro
    off_mask = ~np.eye(n, dtype=bool)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off_sq = float((G[off_mask] ** 2).sum())
        if off_sq <= tol * tol:
            return np.diag(G).copy()
        if sweep == JACOBI_MAX_SWEEPS:
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
    raise ConvergenceFailure(f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def svd_oracle(A: np.ndarray) -> np.ndarray:
    """Singular values via Jacobi eigenvalues of the smaller Gram matrix.

    The Gram side must not exceed ORACLE_MAX_SIDE. Returns min(m, n)
    values sorted non-increasing.
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
    evals = jacobi_eigenvalues(gram)
    evals = np.clip(evals, 0.0, None)
    return np.sort(np.sqrt(evals))[::-1]


def synth_hetero_deltas(
    seed: int, n_tasks: int, m: int, n: int, scale_ratio: float
) -> DeltaSet:
    """Random deltas whose task norms span ``scale_ratio``.

    Task t gets standard-normal entries scaled by
    scale_ratio ** (t / (n_tasks - 1)), so the first and last tasks differ
    by the full ratio. Deterministic in the seed.
    """
    if scale_ratio < 1.0:
        raise ValueError(f"scale_ratio must be >= 1, got {scale_ratio}")
    rng = np.random.default_rng(seed)
    deltas = []
    for t in range(n_tasks):
        exponent = t / (n_tasks - 1) if n_tasks > 1 else 0.0
        deltas.append(rng.standard_normal((m, n)) * scale_ratio**exponent)
    return DeltaSet("synthetic", (m, n), deltas, [f"task{t}" for t in range(n_tasks)])

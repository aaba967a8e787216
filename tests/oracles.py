"""Test-scale oracles the suite checks the package against.

``svd_oracle`` computes singular values by cyclic Jacobi rotations of the
smaller Gram matrix, with no library eigensolver, so it is an independent
check of the SVD backend. ``synth_hetero_deltas`` generates delta sets
whose task norms span a chosen ratio, the input on which renormalization
visibly changes what pruning keeps. ``neg_mse_oracle`` is the per-task
score the synthetic harness must reproduce exactly. ``tune_oracle`` tunes
point by point: a single merge at each grid point, materialized as
``base + delta`` and scored with ``neg_mse_oracle``.
"""

from __future__ import annotations

import math

import numpy as np

from drm.bundle import DeltaSet
from drm.engine import MergeConfig, merge_delta_set
from drm.errors import ConvergenceFailure, NumericError, ShapeMismatch
from drm.harness import SynthTask, closed_form_finetune

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


def neg_mse_oracle(W: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    """Negative mean squared error of ``X @ W.T`` against ``Y``."""
    return -float(np.mean((X @ W.T - Y) ** 2))


def tune_split_oracle(base: np.ndarray, tasks, seed: int):
    """The tune's split rule, restated: the first max(1, s // 10) entries
    of a permutation drawn per task from one generator seeded with
    ``seed`` are validation rows, the rest train the task's finetune.
    Returns (the "layer0" DeltaSet of finetuned deltas, [(X_val, Y_val)])."""
    rng = np.random.default_rng(seed)
    deltas, val = [], []
    for task in tasks:
        perm = rng.permutation(task.n_samples)
        n_val = max(1, task.n_samples // 10)
        train = perm[n_val:]
        train_task = SynthTask(task.name, task.X[train], task.Y[train], task.ridge)
        fit = closed_form_finetune(base, train_task)
        deltas.append(fit - base)
        val.append((task.X[perm[:n_val]], task.Y[perm[:n_val]]))
    return DeltaSet("layer0", base.shape, deltas, [t.name for t in tasks]), val


def tune_score_close(got: float, want: float) -> bool:
    """Whether a tune score lies within 1e-12 * max(1, |want|) of the
    oracle's: residual-space scoring rounds differently, by far less."""
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def tune_oracle(base, tasks, method: str, retain_grid, lambda_grid, seed: int):
    """Tune point by point: merge once at every (retain, lam), score
    ``base + delta`` on each validation split, and take the best mean with
    ties (1e-12 relative) going to the smaller retain, then the smaller lam.
    Returns (grid rows (retain, lam, score) in search order,
    (best retain, best lam, best score), the best point's per-task scores)."""
    ds, val = tune_split_oracle(base, tasks, seed)
    grid, per_task = [], {}
    for retain in retain_grid:
        for lam in lambda_grid:
            cfg = MergeConfig(method=method, retain=retain, lambdas=lam, seed=seed)
            W = base + merge_delta_set(ds, cfg)
            per_task[retain, lam] = [neg_mse_oracle(W, X, Y) for X, Y in val]
            grid.append((retain, lam, float(np.mean(per_task[retain, lam]))))
    best = None
    for retain, lam, score in sorted(grid, key=lambda row: row[:2]):
        if best is None or score > best[2] + 1e-12 * max(1.0, abs(best[2])):
            best = (retain, lam, score)
    return grid, best, per_task[best[:2]]

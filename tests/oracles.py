"""One copy of each oracle and reference the suite checks the package
against. A literal script restates a stage entry by entry in plain loops
and is compared within a tolerance; a byte reference runs whole-array
numpy stages, as the package did before a faster path replaced them, and
is compared byte for byte.

Literal: ``svd_oracle`` (singular values by cyclic Jacobi rotations of the
smaller Gram matrix, no library eigensolver), ``topk_oracle`` (top-k masks
by a full sort of (-|v|, task, row, col)), ``disjoint_oracle`` (the
filtered reciprocal-count average), ``ties_oracle`` (per-task top-k, sign
election with +1 on ties, survivor-count averaging), ``neg_mse_oracle``
(the per-task score the harness must reproduce exactly) and
``tune_oracle`` (one merge and score per grid point, on
``tune_split_oracle``'s splits).

Byte: ``prune_reference`` (the top-k mask by a stable argsort, not the
partition of ``drm.engine.prune_topk``), ``tail_reference`` (the
disjoint-merge tail on a whole stack), ``ties_reference`` and
``dare_reference`` (the two baselines ending in that tail), and
``reference_thin_svd`` with ``reference_merge_drm`` (the drm pipeline with
one array per task and stage). Each takes its top-k and rank-cut counts
from ``keep_count``.

Inputs: ``make_ds`` wraps a list of deltas, ``synth_hetero_deltas`` spans
a chosen ratio of task norms (where renormalization visibly changes what
pruning keeps); ``tune_score_close`` is a tune score's tolerance and
``stack_strides`` names a stack's layout by its buffer's axis order.
"""

from __future__ import annotations

import math

import numpy as np

import drm.engine
import drm.linalg
from drm.baselines import _dare_generator
from drm.bundle import DeltaSet
from drm.engine import MergeConfig, elect_signs, kept_counts, merge_delta_set, prune_topk
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


def keep_count(share: float, size: int) -> int:
    """The entries or components a positive ``share`` of a pool of ``size``
    keeps: ceil(share * size), less float dust, and at least one of a
    non-empty pool."""
    return min(size, max(1, math.ceil(share * size - 1e-9)))


def prune_reference(stack, retain: float, mode: str = "joint") -> np.ndarray:
    """The keep-mask of an N x rows x cols stack: in each pool (the whole
    stack in joint mode, each block in individual mode) the top
    ceil(retain * size) magnitudes by a stable argsort, so that ties at the
    cutoff go to the smaller flattened (task, row, col) index."""
    stack = np.asarray(stack, dtype=np.float64)
    mask = np.zeros(stack.shape, dtype=bool)
    for pool, kept in [(stack, mask)] if mode == "joint" else zip(stack, mask):
        mags = np.abs(pool).ravel()
        keep = keep_count(retain, mags.size)
        kept.reshape(-1)[np.argsort(-mags, kind="stable")[:keep]] = True
    return mask


def topk_oracle(blocks, retain, mode):
    """Enumerate, sort by (-|v|, task, row, col), keep the exact count."""
    entries = []
    for t, b in enumerate(blocks):
        for i in range(b.shape[0]):
            for j in range(b.shape[1]):
                entries.append((-abs(b[i, j]), t, i, j))
    masks = [np.zeros(b.shape, dtype=bool) for b in blocks]
    if mode == "joint":
        entries.sort()
        keep = keep_count(retain, len(entries))
        for _, t, i, j in entries[:keep]:
            masks[t][i, j] = True
    else:
        for t, b in enumerate(blocks):
            sub = sorted(e for e in entries if e[1] == t)
            keep = keep_count(retain, b.size)
            for _, _, i, j in sub[:keep]:
                masks[t][i, j] = True
    return masks


def tail_reference(stack, cfg: MergeConfig, mask=None) -> np.ndarray:
    """The disjoint-merge tail of an N x rows x cols stack, one whole-array
    stage at a time. Survivors are the nonzero entries, of the sign that
    ``elect_signs`` elects where ``cfg.enable_sign_elect``, that also pass
    ``mask``; gamma is 1/count per position (0 where nobody survives), or
    1/N without ``cfg.enable_disjoint``; the result is gamma times the
    sum over tasks of the survivors at ``cfg``'s coefficients.

    TIES elects on its pruned entries: pass the pruned stack. drm elects
    on the unpruned blocks and prunes at the survivor test: pass the
    unpruned stack and its keep-mask as ``mask``."""
    stack = np.asarray(stack, dtype=np.float64)
    survivors = stack != 0.0
    if cfg.enable_sign_elect:
        survivors &= (stack < 0.0) == (elect_signs(stack) < 0.0)
    if mask is not None:
        survivors &= np.asarray(mask)
    gamma = 1.0 / len(stack)
    if cfg.enable_disjoint:
        counts = survivors.sum(axis=0)
        gamma = np.divide(1.0, counts, out=np.zeros(counts.shape), where=counts > 0)
    weighted = np.zeros(stack.shape[1:])
    for block, keep, lam in zip(stack, survivors, cfg.task_lambdas(len(stack))):
        weighted += block * keep * lam
    weighted *= gamma
    return weighted


def disjoint_oracle(blocks, masks, signs, lambdas, disjoint=True):
    """Literal per-position transcription of the filtered reciprocal-count
    average."""
    n_tasks = len(blocks)
    out = np.zeros_like(blocks[0])
    rows, cols = out.shape
    for i in range(rows):
        for j in range(cols):
            kept = []
            for t in range(n_tasks):
                v = blocks[t][i, j] if masks[t][i, j] else 0.0
                if signs is not None and v * signs[i, j] <= 0.0:
                    v = 0.0
                kept.append(v)
            count = sum(1 for v in kept if v != 0.0)
            total = sum(lam * v for lam, v in zip(lambdas, kept))
            if disjoint:
                out[i, j] = total / count if count else 0.0
            else:
                out[i, j] = total / n_tasks
    return out


def ties_oracle(deltas, retain, lambdas):
    """Literal position-wise script: per-task top-k pruning, dominant-sign
    election with +1 on ties, survivor-count averaging."""
    n_tasks = len(deltas)
    rows, cols = deltas[0].shape
    pruned = []
    for d in deltas:
        order = sorted(
            ((i, j) for i in range(rows) for j in range(cols)),
            key=lambda ij: (-abs(d[ij]), ij),
        )
        keep = set(order[: keep_count(retain, d.size)])
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
                (lambdas[t], pruned[t][i, j])
                for t in range(n_tasks)
                if pruned[t][i, j] * sign > 0
            ]
            if kept:
                out[i, j] = sum(lam * v for lam, v in kept) / len(kept)
    return out


def ties_reference(stack, cfg):
    """TIES whole-array: each task pruned on its own, then the reference tail."""
    masks = prune_topk(stack, cfg.retain, "individual")
    return tail_reference(stack * masks, cfg), kept_counts(masks)


def dare_reference(stack, cfg, layer_name):
    """DARE-TIES whole-array: each task's drops from its own stream, then
    the reference tail."""
    dropped = stack * (1.0 / (1.0 - cfg.dare_drop))
    for t, block in enumerate(dropped):
        block *= _dare_generator(cfg.seed, layer_name, t).random(block.shape) >= cfg.dare_drop
    return tail_reference(dropped, cfg), {}


def reference_thin_svd(A, tall_gesdd=True):
    """thin_svd as written with copies: (U, sigma, Vt, route). gesdd
    factors a wide A through its tall transpose; ``tall_gesdd=False``
    factors it as it is, the route thin_svd took before, whose LAPACK path
    picks another basis for a rank-deficient A's null space."""
    wide = A.shape[0] <= A.shape[1]
    lam, W = np.linalg.eigh(A @ A.T if wide else A.T @ A)
    lam, W = lam[::-1], W[:, ::-1]
    if lam[0] > 0.0 and lam[-1] >= drm.linalg.GRAM_MIN_EIG_RATIO * lam[0]:
        sigma = np.sqrt(lam)
        if wide:
            U, Vt = W, (W.T @ A) / sigma[:, None]
        else:
            U, Vt = (A @ W) / sigma[None, :], W.T
        route = "gram"
    elif tall_gesdd and A.shape[0] < A.shape[1]:
        V, sigma, Ut = np.linalg.svd(A.T, full_matrices=False)
        # Row-major factors: the block norms below sum each row's squares
        # in the order numpy uses for contiguous rows.
        U, Vt = np.ascontiguousarray(Ut.T), np.ascontiguousarray(V.T)
        route = "gesdd"
    else:
        U, sigma, Vt = np.linalg.svd(A, full_matrices=False)
        route = "gesdd"
    flip = U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])] < 0
    U = np.where(flip[None, :], -U, U)
    Vt = np.where(flip[:, None], -Vt, Vt)
    return U, sigma, Vt, route


def reference_merge_drm(ds, cfg, tall_gesdd=True):
    """(merged delta, stats, SVD route) with one array per task and stage."""
    if cfg.method == "drm_v":
        ds = ds.transposed()
    n_tasks, n = ds.n_tasks, ds.base_shape[1]
    U, sigma, Vt, route = reference_thin_svd(np.concatenate(ds.deltas, axis=1), tall_gesdd)
    blocks = [Vt[:, t * n : (t + 1) * n] for t in range(n_tasks)]
    row_norms = np.empty((n_tasks, sigma.size))
    renorm_blocks = []
    for t, block in enumerate(blocks):
        norms = np.linalg.norm(block, axis=1)
        row_norms[t] = norms
        safe = np.where(norms > drm.engine.ZERO_ROW_NORM, norms, 1.0)
        renorm = block / safe[:, None]
        renorm[norms <= drm.engine.ZERO_ROW_NORM] = 0.0
        renorm_blocks.append(renorm)
    row_norms[row_norms <= drm.engine.ZERO_ROW_NORM] = 0.0
    rank = int(np.count_nonzero(drm.linalg.nonzero_sigma_mask(sigma)))
    if cfg.rank_drop > 0.0:  # keep the top ceil((1 - rank_drop) * rank) components
        keep = keep_count(1.0 - cfg.rank_drop, rank)
        U, sigma = U.copy(), sigma.copy()
        U[:, keep:] = 0.0
        sigma[keep:] = 0.0
        row_norms[:, keep:] = 0.0
        for renorm in renorm_blocks:
            renorm[keep:] = 0.0
        rank = keep
    task_sigmas = sigma[None, :] * row_norms
    scaled = [task_sigmas[t][:, None] * renorm_blocks[t] for t in range(n_tasks)]
    masks = prune_reference(renorm_blocks, cfg.retain, cfg.prune_mode)
    merged = U @ tail_reference(scaled, cfg, mask=masks)
    stats = {"rank": rank, "kept": int(sum(m.sum() for m in masks)), "total": sum(b.size for b in renorm_blocks)}
    return (merged.T if cfg.method == "drm_v" else merged), stats, route


def make_ds(deltas, name="layer"):
    deltas = [np.asarray(d, dtype=np.float64) for d in deltas]
    return DeltaSet(name, deltas[0].shape, deltas, [f"t{i}" for i in range(len(deltas))])


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
            W = base + merge_delta_set(ds, cfg)[0]
            per_task[retain, lam] = [neg_mse_oracle(W, X, Y) for X, Y in val]
            grid.append((retain, lam, float(np.mean(per_task[retain, lam]))))
    best = None
    for retain, lam, score in sorted(grid, key=lambda row: row[:2]):
        if best is None or score > best[2] + 1e-12 * max(1.0, abs(best[2])):
            best = (retain, lam, score)
    return grid, best, per_task[best[:2]]


def stack_strides(order: str, n_tasks: int, shape: tuple[int, int]) -> tuple[int, ...]:
    """The strides of an N x m x n float64 stack that views a C-ordered
    buffer whose axes, in memory order, are ``order``'s t (task), i (row)
    and j (column)."""
    extent, strides, step = dict(zip("tij", (n_tasks, *shape))), {}, 8
    for axis in reversed(order):
        strides[axis] = step
        step *= extent[axis]
    return tuple(strides[axis] for axis in "tij")

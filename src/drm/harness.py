"""Desk-scale end-to-end evaluation on synthetic linear tasks.

Gradient training is replaced by closed-form ridge regression on
single-layer linear problems, so merge quality can be scored exactly and
the whole comparison stays deterministic in its seeds.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .bundle import DeltaSet
from .engine import MergeConfig, merge_delta_set, merge_delta_set_grid
from .errors import ShapeMismatch, SingularSystem

BENCH_METHODS = ("simple_avg", "task_arithmetic", "ties", "dare_ties", "drm_h", "drm_v")

# Each planted task solution is the base plus this much standard-normal
# perturbation, in the base's 1/sqrt(n) units.
PLANTED_DELTA_SCALE = 0.3


@dataclass
class SynthTask:
    """One regression task: fit W so that X @ W.T approximates Y.

    At least one sample is required, and s >= n for a unique unregularized
    solution; any positive ridge lifts the second requirement.
    """

    name: str
    X: np.ndarray
    Y: np.ndarray
    ridge: float = 0.0

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.Y = np.asarray(self.Y, dtype=np.float64)
        if self.X.ndim != 2 or self.Y.ndim != 2 or self.X.shape[0] != self.Y.shape[0]:
            raise ShapeMismatch(
                f"task {self.name!r}: X {self.X.shape} and Y {self.Y.shape} disagree"
            )
        if not (np.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge must be finite and non-negative, got {self.ridge}")
        if self.X.shape[0] == 0:
            raise ValueError(f"task {self.name!r} has no samples to fit or score")
        if self.ridge == 0.0 and self.X.shape[0] < self.X.shape[1]:
            raise ValueError(
                f"task {self.name!r}: {self.X.shape[0]} samples underdetermine "
                f"{self.X.shape[1]} inputs without ridge"
            )

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]


def closed_form_finetune(base: np.ndarray, task: SynthTask) -> np.ndarray:
    """Minimize ||X W^T - Y||_F^2 + ridge ||W - base||_F^2 exactly.

    Solves the normal equations
    (X^T X + ridge I) W^T = X^T Y + ridge base^T in float64.
    """
    base = np.asarray(base, dtype=np.float64)
    m, n = base.shape
    if task.X.shape[1] != n or task.Y.shape[1] != m:
        raise ShapeMismatch(
            f"task {task.name!r} dims {task.X.shape[1]}x{task.Y.shape[1]} "
            f"do not match base {n}x{m}"
        )
    gram = task.X.T @ task.X + task.ridge * np.eye(n)
    rhs = task.X.T @ task.Y + task.ridge * base.T
    try:
        wt = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"task {task.name!r}: normal equations are singular") from exc
    return wt.T


class _Scorer:
    """Scores ``base + lam * step`` on every (X, Y) pair: the negative mean
    squared error of its outputs against Y, one score per pair.

    The base's residual ``R0 = X @ base.T - Y`` is taken once, each pair's
    GEMM writing its own rows of one buffer; :meth:`along` takes a step's
    outputs ``S = X @ step.T`` into a second one. A score forms ``R0 + lam *
    S`` in a third buffer, squares it, and reduces each pair's rows with the
    sum and division ``np.mean`` runs. With no step the score has the bytes
    of ``-np.mean((X @ base.T - Y) ** 2)``. With one, the residual is that
    of ``base + lam * step`` up to rounding: the square is never expanded,
    so no digits are lost where the step cancels the base's residual.
    """

    def __init__(self, pairs: list[tuple[np.ndarray, np.ndarray]], base: np.ndarray):
        self._Xs = [X for X, _ in pairs]
        self._bounds = np.cumsum([len(X) for X in self._Xs])[:-1]
        self._base_resid = self._outputs(base)
        for slot, (_, Y) in zip(np.split(self._base_resid, self._bounds), pairs):
            np.subtract(slot, Y, out=slot)
        self._step_out = None
        self._resid = np.empty_like(self._base_resid)
        self._resid_slots = np.split(self._resid, self._bounds)

    def _outputs(self, W: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((sum(len(X) for X in self._Xs), W.shape[0]))
        for X, slot in zip(self._Xs, np.split(out, self._bounds)):
            np.matmul(X, W.T, out=slot)
        return out

    def along(self, step: np.ndarray) -> None:
        """Score points on the line ``base + lam * step`` from now on."""
        self._step_out = self._outputs(step, self._step_out)

    def score(self, lam: float = 0.0) -> list[float]:
        """Per-pair scores at ``lam`` on the line, or of the base alone
        before the first :meth:`along`."""
        resid = self._resid
        if self._step_out is None:
            np.multiply(self._base_resid, self._base_resid, out=resid)
        else:
            np.multiply(self._step_out, lam, out=resid)
            np.add(self._base_resid, resid, out=resid)
            np.multiply(resid, resid, out=resid)
        return [-float(np.add.reduce(slot, axis=None) / slot.size) for slot in self._resid_slots]


def evaluate(model, tasks: list[SynthTask]) -> tuple[list[float], float]:
    """Score a weight matrix on every task.

    Returns (per-task negative mean squared errors, their mean).
    """
    if not tasks:
        raise ValueError("need at least one task to score")
    W = np.asarray(model, dtype=np.float64)
    for task in tasks:
        if task.X.shape[1] != W.shape[1] or task.Y.shape[1] != W.shape[0]:
            raise ShapeMismatch(f"task {task.name!r} does not match model shape {W.shape}")
    scores = _Scorer([(task.X, task.Y) for task in tasks], W).score()
    return scores, float(np.mean(scores))


def default_grids(method: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(retain grid, coefficient grid) searched when none is given. Methods
    that never read ``retain`` (task arithmetic, simple averaging, DARE-TIES,
    which drops at random instead of pruning) search it at 1.0 alone."""
    tenths = tuple(round(0.1 * i, 1) for i in range(1, 11))
    if method == "task_arithmetic":
        return (1.0,), tenths
    if method == "simple_avg":
        return (1.0,), (1.0,)
    lambdas = tuple(round(0.8 + 0.1 * i, 1) for i in range(8))
    return ((1.0,) if method == "dare_ties" else tenths), lambdas


@dataclass
class TuneResult:
    """Grid-search outcome over (retain, coefficient) pairs.

    ``grid`` lists (retain, lam, mean validation score) in search order;
    ``best_*`` is the argmax with ties broken toward smaller retain, then
    smaller lam (scores within a 1e-12 relative band count as tied, so
    arithmetic noise cannot flip the tie-break). ``per_task_scores`` are
    the held-out (validation-split) scores of the winning configuration.
    """

    method: str
    task_names: list[str]
    grid: list[tuple[float, float, float]] = field(default_factory=list)
    best_retain: float = 1.0
    best_lambda: float = 1.0
    best_score: float = -np.inf
    per_task_scores: list[float] = field(default_factory=list)

    def to_table(self) -> str:
        lines = [f"# tuning grid  method={self.method}", "retain\tlambda\tval_score"]
        for retain, lam, score in self.grid:
            marker = "\t<= best" if (retain, lam) == (self.best_retain, self.best_lambda) else ""
            lines.append(f"{_point_text(retain)}\t{_point_text(lam)}\t{score:.8f}{marker}")
        lines.append(
            f"best: retain={_point_text(self.best_retain)} "
            f"lambda={_point_text(self.best_lambda)} score={self.best_score:.8f}"
        )
        for name, score in zip(self.task_names, self.per_task_scores):
            lines.append(f"heldout[{name}] = {score:.8f}")
        return "\n".join(lines) + "\n"


def _point_text(x: float) -> str:
    """A grid value with two decimals where they are exact, and otherwise
    in the fewest digits that read back as ``x``."""
    text = f"{x:.2f}"
    return text if float(text) == x else repr(float(x))


def _finetune_split(
    base: np.ndarray, task: SynthTask, rng: np.random.Generator
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Finetune on a 90% split of ``task``; returns (finetuned delta,
    (X_val, Y_val)). The training rows are dropped on return."""
    s = task.n_samples
    n_val = max(1, s // 10)
    perm = rng.permutation(s)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    train = SynthTask(task.name, task.X[train_idx], task.Y[train_idx], task.ridge)
    return closed_form_finetune(base, train) - base, (task.X[val_idx], task.Y[val_idx])


def grid_tune(
    base: np.ndarray,
    tasks: Iterable[SynthTask],
    method: str,
    retain_grid=None,
    lambda_grid=None,
    val_split_seed: int = 0,
) -> TuneResult:
    """Finetune on 90% splits, score every grid point on the validation
    splits, pick the best mean validation score.

    ``tasks`` may be any iterable and is read once, task by task; only each
    task's name, finetuned delta and validation split are kept, so with a
    lazy source such as :func:`synth_stream` the tune holds the samples of
    the task in hand and, while it is drawn, the next one. The method and
    the grid are checked, by one config per grid value, before the first
    task is taken. An axis that :func:`default_grids` gives one point
    (``retain`` for task arithmetic, simple averaging and DARE-TIES; the
    coefficient for simple averaging) is one the method never reads, so a
    given grid for it must be exactly that point.

    Every method's merged delta is linear in the shared coefficient: the
    prune, the sign election, the survivor counts and the DARE drops never
    read it. So each ``retain`` row merges once, at coefficient 1.0,
    through :func:`merge_delta_set_grid` (drm-h and drm-v decompose once
    per tune and write one plane per ``retain``), and point ``(retain,
    lam)`` is scored as ``base + lam * M_r`` by :class:`_Scorer`: the
    validation residual of the base is taken once per tune, the outputs of
    ``M_r`` once per row, and each point adds them in residual space.
    ``M_r`` has the bytes of a single merge at ``(retain, 1.0)``. A score
    is not bit-identical to merging at the point and calling
    :func:`evaluate` on ``base + delta``, but lies within ``1e-12 * max(1,
    |score|)`` of it, as do the held-out scores.
    """
    default_retain, default_lambda = default_grids(method)
    retain_grid = [float(r) for r in (default_retain if retain_grid is None else retain_grid)]
    lambda_grid = [float(l) for l in (default_lambda if lambda_grid is None else lambda_grid)]
    if not retain_grid or not lambda_grid:
        raise ValueError("grids must be non-empty")
    for axis, grid, default in (("retain", retain_grid, default_retain),
                                ("lambda", lambda_grid, default_lambda)):
        if len(default) == 1 and grid != list(default):
            raise ValueError(f"method {method!r} does not read {axis}; "
                             f"its {axis} grid must be {default[0]} alone")
    for retain in retain_grid:  # a config checks each field on its own
        MergeConfig(method=method, retain=retain)
    for lam in lambda_grid:
        MergeConfig(method=method, lambdas=lam)

    base = np.asarray(base, dtype=np.float64)
    rng = np.random.default_rng(val_split_seed)
    fits = [(task.name, *_finetune_split(base, task, rng)) for task in tasks]
    if not fits:
        raise ValueError("grid_tune needs at least one task; no tasks were given")
    names = [name for name, _, _ in fits]
    ds = DeltaSet("layer0", base.shape, [delta for _, delta, _ in fits], names)
    score_val = _Scorer([pair for _, _, pair in fits], base)
    del fits

    result = TuneResult(method=method, task_names=names)
    points = []
    cfg = MergeConfig(method=method, lambdas=1.0, seed=val_split_seed)
    merges = merge_delta_set_grid(ds, cfg, retain_grid)
    for retain, (step, _) in zip(retain_grid, merges, strict=True):
        score_val.along(step)
        for lam in lambda_grid:
            per_task = score_val.score(lam)
            score = float(np.mean(per_task))
            result.grid.append((retain, lam, score))
            points.append((retain, lam, score, per_task))
    # Scanned in (retain, lam) order whatever the order of the grids, so a
    # tie goes to the smaller retain, then the smaller lam.
    for retain, lam, score, per_task in sorted(points, key=lambda p: p[:2]):
        best = result.best_score
        if not np.isfinite(best) or score > best + 1e-12 * max(1.0, abs(best)):
            result.best_score = score
            result.best_retain = retain
            result.best_lambda = lam
            result.per_task_scores = per_task
    return result


def synth_stream(
    seed: int,
    n_tasks: int,
    m: int,
    n: int,
    samples: int,
    identical: bool = False,
    ridge: float = 0.0,
    noise: float = 0.0,
) -> tuple[np.ndarray, Iterator[SynthTask]]:
    """Draw a base matrix now and return it with a lazy iterator over
    the tasks of :func:`synth_suite`.

    The arguments are checked and the base drawn on the call; each task's
    planted solution, samples and noise are drawn when the iterator
    reaches it, in the order ``synth_suite`` draws them, so a consumer
    that keeps no task it has finished with holds one task's samples at a
    time beside the next task's draw. ``identical=True`` draws once and yields the same arrays
    for every task.
    """
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be at least 1, got {n_tasks}")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if not (np.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((m, n)) / np.sqrt(n)

    def draw() -> Iterator[SynthTask]:
        shared = None
        for t in range(n_tasks):
            if identical and shared is not None:
                X, Y = shared
            else:
                w_true = base + PLANTED_DELTA_SCALE * rng.standard_normal((m, n)) / np.sqrt(n)
                X = rng.standard_normal((samples, n))
                Y = X @ w_true.T
                if noise > 0:
                    Y = Y + noise * rng.standard_normal(Y.shape)
                if identical:
                    shared = (X, Y)
            yield SynthTask(f"task{t}", X, Y, ridge)

    return base, draw()


def synth_suite(
    seed: int,
    n_tasks: int,
    m: int,
    n: int,
    samples: int,
    identical: bool = False,
    ridge: float = 0.0,
    noise: float = 0.0,
) -> tuple[np.ndarray, list[SynthTask]]:
    """Build a base matrix and task family with planted linear solutions:
    every task of :func:`synth_stream`, drawn at once.

    ``identical=True`` reuses one planted solution and one sample set for
    every task, the degenerate case in which exact merging should recover
    the finetuned model.
    """
    base, tasks = synth_stream(seed, n_tasks, m, n, samples, identical, ridge, noise)
    return base, list(tasks)


@dataclass
class BenchResult:
    """Comparison of merging methods on one synthetic suite."""

    task_names: list[str]
    finetuned_score: float
    method_scores: dict[str, float] = field(default_factory=dict)
    per_task: dict[str, list[float]] = field(default_factory=dict)

    def to_table(self) -> str:
        width = max(len(m) for m in list(self.method_scores) + ["finetuned"])
        lines = ["method".ljust(width) + "\tmean_score\t" + "\t".join(self.task_names)]
        lines.append("finetuned".ljust(width) + f"\t{self.finetuned_score:.8f}")
        for method, score in self.method_scores.items():
            per = "\t".join(f"{s:.8f}" for s in self.per_task[method])
            lines.append(method.ljust(width) + f"\t{score:.8f}\t{per}")
        return "\n".join(lines) + "\n"


def _neutral_config(method: str, n_tasks: int, seed: int) -> MergeConfig:
    # Settings at which exact-recovery is expected for identical tasks.
    lam = 1.0 / n_tasks if method == "task_arithmetic" else 1.0
    return MergeConfig(method=method, retain=1.0, lambdas=lam, dare_drop=0.0, seed=seed)


def run_bench(
    base: np.ndarray,
    tasks: list[SynthTask],
    neutral: bool = False,
    seed: int = 0,
) -> BenchResult:
    """Finetune every task, merge with each of BENCH_METHODS, and score
    the merges.

    ``neutral=True`` swaps the per-method defaults for identity-preserving
    settings (retain 1, coefficient 1 or 1/N, no random drops).
    """
    base = np.asarray(base, dtype=np.float64)
    finetuned = [closed_form_finetune(base, task) for task in tasks]
    ft_scores = [evaluate(w, [task])[0][0] for w, task in zip(finetuned, tasks)]
    ds = DeltaSet(
        "layer0", base.shape, [w - base for w in finetuned], [t.name for t in tasks]
    )
    result = BenchResult([t.name for t in tasks], float(np.mean(ft_scores)))
    for method in BENCH_METHODS:
        if neutral:
            cfg = _neutral_config(method, len(tasks), seed)
        else:
            cfg = MergeConfig(method=method, seed=seed)
        merged = base + merge_delta_set(ds, cfg)[0]
        per_task, mean = evaluate(merged, tasks)
        result.method_scores[method] = mean
        result.per_task[method] = per_task
    return result

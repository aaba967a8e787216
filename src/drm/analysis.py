"""Diagnostics over delta stacks: pruning densities, sign agreement,
singular-value perturbation audits, spectra, and the synthetic
heterogeneous-scale generator the test suite leans on.

Every report serializes two ways: ``to_table()`` gives a line-oriented
text table; ``to_json()`` gives the compact key-sorted JSON dialect that
bundle headers use. Schemas are documented on the report classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundle import DeltaSet, canonical_json
from .engine import MergeConfig, decompose_joint, prune_topk
from .errors import NeedTwoTasks
from .linalg import hconcat, spectral_norm, thin_svd

SPACES = (
    "original",
    "decomposed-h",
    "decomposed-v",
    "backprojected-h",
    "backprojected-v",
)

AGREEMENT_BINS = np.linspace(0.5, 1.0, 11)


@dataclass
class DensityReport:
    """Per-row drop fractions after pruning one layer's blocks.

    JSON schema: {"layer": str, "retain": float, "renormalized": bool,
    "prune_mode": str, "orientation": str, "task_names": [str],
    "drop_fractions": [[float]]} where drop_fractions[t][i] is the zeroed
    share of row i of task t's block.
    """

    layer_name: str
    retain: float
    renormalized: bool
    prune_mode: str
    orientation: str
    task_names: list[str]
    drop_fractions: np.ndarray  # n_tasks x r

    def max_drop(self) -> float:
        return float(self.drop_fractions.max())

    def to_json_obj(self) -> dict:
        return {
            "layer": self.layer_name,
            "retain": self.retain,
            "renormalized": self.renormalized,
            "prune_mode": self.prune_mode,
            "orientation": self.orientation,
            "task_names": list(self.task_names),
            "drop_fractions": [[float(x) for x in row] for row in self.drop_fractions],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    def to_table(self) -> str:
        lines = [
            f"# drop fractions  layer={self.layer_name}  retain={self.retain:g}  "
            f"renorm={'on' if self.renormalized else 'off'}  mode={self.prune_mode}",
            "task\trow\tdrop_fraction",
        ]
        for t, name in enumerate(self.task_names):
            for i, frac in enumerate(self.drop_fractions[t]):
                lines.append(f"{name}\t{i}\t{frac:.6f}")
        return "\n".join(lines) + "\n"


@dataclass
class AgreementHistogram:
    """Sign-agreement distribution over matrix positions.

    Agreement at a position is max(#positive, #negative) over their total,
    counted across tasks with a nonzero entry there; all-zero positions are
    skipped, so every tallied value lies in [0.5, 1].

    JSON schema: {"layer": str, "space": str, "bin_edges": [float x11],
    "counts": [int x10], "mean": float, "positions": int}.
    """

    layer_name: str
    space: str
    bin_edges: np.ndarray
    counts: np.ndarray
    mean: float
    positions: int

    @classmethod
    def from_values(cls, layer_name: str, space: str, values: np.ndarray) -> "AgreementHistogram":
        values = np.asarray(values, dtype=np.float64)
        counts, edges = np.histogram(values, bins=AGREEMENT_BINS)
        mean = float(values.mean()) if values.size else 0.0
        return cls(layer_name, space, edges, counts, mean, int(values.size))

    def to_json_obj(self) -> dict:
        return {
            "layer": self.layer_name,
            "space": self.space,
            "bin_edges": [float(x) for x in self.bin_edges],
            "counts": [int(c) for c in self.counts],
            "mean": self.mean,
            "positions": self.positions,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    def to_table(self) -> str:
        lines = [
            f"# sign agreement  layer={self.layer_name}  space={self.space}  "
            f"mean={self.mean:.4f}  positions={self.positions}",
            "bin_lo\tbin_hi\tcount",
        ]
        for lo, hi, c in zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts):
            lines.append(f"{lo:.2f}\t{hi:.2f}\t{int(c)}")
        return "\n".join(lines) + "\n"


@dataclass
class BoundEntry:
    index: int
    sigma_task: float
    lhs: float
    rhs: float
    holds: bool


@dataclass
class BoundReport:
    """Audit of the concatenation perturbation bound for one task.

    For each component i with a nonzero task singular value: lhs is the
    absolute gap between the stacked spectrum and sqrt(k) times the task
    spectrum; rhs the spectral-norm perturbation budget; holds is
    lhs <= rhs within 1e-9 relative slack.

    JSON schema: {"layer": str, "task": str, "k": int, "entries":
    [{"i": int, "sigma": float, "lhs": float, "rhs": float, "holds": bool}]}.
    """

    layer_name: str
    task_name: str
    k: int
    entries: list[BoundEntry] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)

    def to_json_obj(self) -> dict:
        return {
            "layer": self.layer_name,
            "task": self.task_name,
            "k": self.k,
            "entries": [
                {"i": e.index, "sigma": e.sigma_task, "lhs": e.lhs, "rhs": e.rhs,
                 "holds": e.holds}
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    def to_table(self) -> str:
        lines = [
            f"# spectrum perturbation bound  layer={self.layer_name}  "
            f"task={self.task_name}  k={self.k}  all_hold={self.all_hold}",
            "i\tsigma\tlhs\trhs\tholds",
        ]
        for e in self.entries:
            lines.append(
                f"{e.index}\t{e.sigma_task:.6e}\t{e.lhs:.6e}\t{e.rhs:.6e}\t{e.holds}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class SpectrumReport:
    """Shared singular values with each task's share of the row-norm budget.

    JSON schema: {"layer": str, "orientation": str, "task_names": [str],
    "sigma": [float], "row_norms": [[float]]} (row_norms[t][i]).
    """

    layer_name: str
    orientation: str
    task_names: list[str]
    sigma: np.ndarray
    row_norms: np.ndarray

    def rows(self) -> list[tuple[int, float, list[float]]]:
        return [
            (i, float(s), [float(x) for x in self.row_norms[:, i]])
            for i, s in enumerate(self.sigma)
        ]

    def to_json_obj(self) -> dict:
        return {
            "layer": self.layer_name,
            "orientation": self.orientation,
            "task_names": list(self.task_names),
            "sigma": [float(s) for s in self.sigma],
            "row_norms": [[float(x) for x in row] for row in self.row_norms],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    def to_table(self) -> str:
        header = "i\tsigma\t" + "\t".join(f"norm[{n}]" for n in self.task_names)
        lines = [
            f"# spectrum  layer={self.layer_name}  orientation={self.orientation}",
            header,
        ]
        for i, s, norms in self.rows():
            lines.append(f"{i}\t{s:.6e}\t" + "\t".join(f"{x:.6f}" for x in norms))
        return "\n".join(lines) + "\n"


def _orientation_for(cfg: MergeConfig) -> str:
    return "vertical" if cfg.method == "drm_v" else "horizontal"


def row_drop_fractions(stack: np.ndarray, retain: float, mode: str = "joint") -> np.ndarray:
    """Fraction of each block row zeroed by top-``retain`` magnitude pruning."""
    return 1.0 - prune_topk(stack, retain, mode).mean(axis=2)


def pruning_density(ds: DeltaSet, cfg: MergeConfig, with_renorm: bool = True) -> DensityReport:
    """Per-row drop fractions after pruning the (renormalized or raw) blocks."""
    orientation = _orientation_for(cfg)
    jd = decompose_joint(ds, orientation)
    stack = jd.renorm_blocks if with_renorm else jd.renorm_blocks * jd.row_norms[..., None]
    fractions = row_drop_fractions(stack, cfg.retain, cfg.prune_mode)
    return DensityReport(
        layer_name=ds.layer_name,
        retain=cfg.retain,
        renormalized=with_renorm,
        prune_mode=cfg.prune_mode,
        orientation=orientation,
        task_names=list(ds.task_names),
        drop_fractions=fractions,
    )


def agreement_values(stacks: list[np.ndarray]) -> np.ndarray:
    """Per-position agreement across tasks, skipping all-zero positions."""
    pos = np.zeros(stacks[0].shape)
    neg = np.zeros(stacks[0].shape)
    for s in stacks:
        pos += s > 0.0
        neg += s < 0.0
    total = pos + neg
    tallied = total > 0
    return (np.maximum(pos, neg)[tallied] / total[tallied]).ravel()


def sign_agreement(ds: DeltaSet, cfg: MergeConfig, space: str = "original") -> AgreementHistogram:
    """Sign-agreement histogram after pruning in the requested space.

    ``original`` prunes each raw delta per task; the decomposed spaces
    prune the renormalized blocks of the horizontal/vertical joint
    decomposition; the backprojected spaces map those pruned blocks back to
    parameter space before tallying.
    """
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}")
    if ds.n_tasks < 2:
        raise NeedTwoTasks("sign agreement needs at least two tasks")

    if space == "original":
        masks = prune_topk(ds.deltas, cfg.retain, "individual")
        stacks = [np.where(m, d, 0.0) for m, d in zip(masks, ds.deltas)]
    else:
        orientation = "vertical" if space.endswith("-v") else "horizontal"
        jd = decompose_joint(ds, orientation)
        masks = prune_topk(jd.renorm_blocks, cfg.retain, cfg.prune_mode)
        stacks = np.where(masks, jd.renorm_blocks, 0.0)
        if not space.startswith("decomposed"):
            stacks *= jd.task_sigmas[:, :, None]
            stacks = [jd.U @ block for block in stacks]
    return AgreementHistogram.from_values(ds.layer_name, space, agreement_values(stacks))


def check_perturbation_bound(ds: DeltaSet, t: int) -> BoundReport:
    """Evaluate the stacked-spectrum perturbation bound against task ``t``.

    Compares each singular value of the actual stack with sqrt(k) times the
    task's own singular value; the admissible gap is the summed spectral
    budget of the other tasks' deviations from task t.
    """
    k = ds.n_tasks
    delta_t = ds.deltas[t]
    sv_task = thin_svd(delta_t).sigma
    sv_stack = thin_svd(hconcat(ds.deltas)).sigma
    norm_t = spectral_norm(delta_t)
    budget = 0.0
    for j in range(k):
        e_norm = spectral_norm(ds.deltas[j] - delta_t)
        budget += 2.0 * norm_t * e_norm + e_norm * e_norm

    report = BoundReport(ds.layer_name, ds.task_names[t], k)
    cutoff = 1e-12 * float(sv_task.max(initial=0.0))
    # Zero-perturbation instances have rhs == 0 exactly while the computed
    # lhs carries backend rounding noise; grant that much absolute slack.
    noise = 1e-10 * float(sv_stack.max(initial=0.0))
    sqrt_k = math.sqrt(k)
    for i, sigma in enumerate(sv_task):
        if sigma <= cutoff:
            continue
        lhs = abs(float(sv_stack[i]) - sqrt_k * float(sigma))
        rhs = budget / (sqrt_k * float(sigma))
        report.entries.append(
            BoundEntry(i, float(sigma), lhs, rhs, holds=lhs <= rhs * (1.0 + 1e-9) + noise)
        )
    return report


def spectrum_report(ds: DeltaSet, orientation: str = "horizontal") -> SpectrumReport:
    """Decompose and dump the shared spectrum with per-task norm shares."""
    jd = decompose_joint(ds, orientation)
    return SpectrumReport(
        layer_name=ds.layer_name,
        orientation=orientation,
        task_names=list(ds.task_names),
        sigma=jd.sigma,
        row_norms=jd.row_norms,
    )


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

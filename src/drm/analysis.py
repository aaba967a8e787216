"""Diagnostics over delta stacks: pruning densities, sign agreement,
singular-value perturbation audits and spectra.

Every report serializes two ways: ``to_table()`` gives a line-oriented
text table; ``to_json_obj()`` gives the JSON-ready object whose schema the
report class documents (``drm analyze`` writes it in the compact
key-sorted dialect of ``bundle.canonical_json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .bundle import DeltaSet
from .engine import DRM_ORIENTATIONS, SPACES, MergeConfig, decompose_joint, prune_topk
from .errors import NeedTwoTasks
from .linalg import singular_values, spectral_norm, thin_svd

AGREEMENT_BINS = np.linspace(0.5, 1.0, 11)
# Report fields whose JSON key is not the field's name.
_JSON_KEYS = {"layer_name": "layer", "task_name": "task", "index": "i", "sigma_task": "sigma"}


def _json_value(value):
    """``value`` as JSON: a dataclass as a dict of its fields (keyed as
    ``_JSON_KEYS`` renames them), a list item by item, an array by
    ``tolist()``."""
    if is_dataclass(value):
        return {_JSON_KEYS.get(f.name, f.name): _json_value(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, list):
        return [_json_value(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


class _Report:
    def to_json_obj(self) -> dict:
        return _json_value(self)


@dataclass
class DensityReport(_Report):
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
class AgreementHistogram(_Report):
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
class BoundReport(_Report):
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
class SpectrumReport(_Report):
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

    def to_table(self) -> str:
        header = "i\tsigma\t" + "\t".join(f"norm[{n}]" for n in self.task_names)
        lines = [
            f"# spectrum  layer={self.layer_name}  orientation={self.orientation}",
            header,
        ]
        for i, s, norms in self.rows():
            lines.append(f"{i}\t{s:.6e}\t" + "\t".join(f"{x:.6f}" for x in norms))
        return "\n".join(lines) + "\n"


def row_drop_fractions(stack: np.ndarray, retain: float, mode: str = "joint") -> np.ndarray:
    """Fraction of each block row zeroed by top-``retain`` magnitude pruning."""
    kept = prune_topk(stack, retain, mode)
    # mean(axis=2) warns on the N x 0 x 0 blocks of an empty layer.
    return 1.0 - kept.sum(axis=2, dtype=np.float64) / kept.shape[2]


def pruning_density(ds: DeltaSet, cfg: MergeConfig, with_renorm: bool = True) -> DensityReport:
    """Per-row drop fractions after pruning the (renormalized or raw) blocks."""
    orientation = DRM_ORIENTATIONS.get(cfg.method, "horizontal")
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


def agreement_values(stack: np.ndarray) -> np.ndarray:
    """Per-position agreement across the stack's first axis, skipping
    all-zero positions."""
    stack = np.asarray(stack)
    pos = np.count_nonzero(stack > 0.0, axis=0)
    neg = np.count_nonzero(stack < 0.0, axis=0)
    total = pos + neg
    tallied = total > 0
    return np.maximum(pos, neg)[tallied] / total[tallied]


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
        stack = ds.deltas if ds._owned else ds.deltas.copy()
        masks = prune_topk(stack, cfg.retain, "individual")
    else:
        orientation = "vertical" if space.endswith("-v") else "horizontal"
        jd = decompose_joint(ds, orientation)
        stack = jd.renorm_blocks
        masks = prune_topk(stack, cfg.retain, cfg.prune_mode)
    # Pruned where it lies; a pruned entry's zero may be -0.0, which tallies as 0.0.
    pruned = np.multiply(stack, masks, out=stack)
    if space.startswith("backprojected"):
        pruned *= jd.task_sigmas[:, :, None]
        pruned = jd.U @ pruned
    return AgreementHistogram.from_values(ds.layer_name, space, agreement_values(pruned))


def check_perturbation_bounds(ds: DeltaSet) -> list[BoundReport]:
    """Evaluate the stacked-spectrum perturbation bound against each task.

    For task t, compares each singular value of the actual stack with
    sqrt(k) times the task's own singular value; the admissible gap is the
    summed spectral budget of the other tasks' deviations from task t. The
    stack is factored once, each task's spectrum (whose first value is its
    norm) is taken once by a values-only SVD, and each distinct pair's
    difference norm once, for all k reports.
    """
    k = ds.n_tasks
    sv_stack = thin_svd(ds.side_by_side()).sigma
    # Zero-perturbation instances have rhs == 0 exactly while the computed
    # lhs carries backend rounding noise; grant that much absolute slack.
    noise = 1e-10 * float(sv_stack.max(initial=0.0))
    spectra = [singular_values(delta) for delta in ds.deltas]
    # ||deltas[j] - deltas[t]|| is symmetric: the two differences are exact
    # negations of each other, with the same singular values.
    e_norms = [[0.0] * k for _ in range(k)]
    for t in range(k):
        for j in range(t + 1, k):
            e_norms[t][j] = e_norms[j][t] = spectral_norm(ds.deltas[j] - ds.deltas[t])

    sqrt_k = math.sqrt(k)
    reports = []
    for t, sv_task in enumerate(spectra):
        norm_t = float(sv_task.max(initial=0.0))  # 0.0 for an m x 0 delta
        budget = 0.0
        for e_norm in e_norms[t]:
            budget += 2.0 * norm_t * e_norm + e_norm * e_norm
        cutoff = 1e-12 * norm_t
        report = BoundReport(ds.layer_name, ds.task_names[t], k)
        for i, sigma in enumerate(sv_task):
            if sigma <= cutoff:
                continue
            lhs = abs(float(sv_stack[i]) - sqrt_k * float(sigma))
            rhs = budget / (sqrt_k * float(sigma))
            report.entries.append(
                BoundEntry(i, float(sigma), lhs, rhs, holds=lhs <= rhs * (1.0 + 1e-9) + noise)
            )
        reports.append(report)
    return reports


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

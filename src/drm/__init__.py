"""Checkpoint merging through a shared decomposed weight space.

The engine stacks per-layer weight deltas from several finetuned
checkpoints, decomposes the stack with a thin SVD, renormalizes each
task's partitioned basis rows, and runs magnitude pruning, sign election,
and disjoint averaging inside that joint space before projecting back.
Classic parameter-space baselines (simple averaging, task arithmetic,
TIES, DARE-TIES) share the same vocabulary, and an analysis suite audits
the mechanism-level behavior.

``import drm`` loads everything a merge runs: bundle I/O, the engine, the
baselines and the linear algebra. The names of :mod:`drm.analysis` and
:mod:`drm.harness` (the analyses; the synthetic benchmark and tune) load
their module on first use, as do ``drm.analysis`` and ``drm.harness``
themselves, so a merge never compiles them.
"""

import importlib

from .baselines import dare_ties_merge, task_arithmetic, ties_merge
from .bundle import (
    BundleFile,
    DeltaSet,
    TensorBundle,
    materialize_low_rank,
    open_bundle,
    read_bundle,
    write_bundle,
)
from .engine import (
    JointDecomposition,
    MergeConfig,
    decompose_joint,
    disjoint_average,
    elect_signs,
    extract_deltas,
    merge_biases,
    merge_bundle,
    merge_delta_set,
    merge_delta_set_grid,
    merge_drm,
    prune_topk,
)
from .errors import ArgumentError, DrmError, InputOutputError, NumericError
from .linalg import ThinSVD, thin_svd

__version__ = "0.1.0"

# Exported names whose module (drm.analysis or drm.harness) loads when one
# of them is first read.
_LAZY = {
    **dict.fromkeys((
        "AgreementHistogram",
        "BoundReport",
        "DensityReport",
        "SpectrumReport",
        "check_perturbation_bounds",
        "pruning_density",
        "sign_agreement",
        "spectrum_report",
    ), "analysis"),
    **dict.fromkeys((
        "SynthTask",
        "TuneResult",
        "closed_form_finetune",
        "evaluate",
        "grid_tune",
        "run_bench",
        "synth_suite",
    ), "harness"),
}

__all__ = [
    "AgreementHistogram",
    "ArgumentError",
    "BoundReport",
    "BundleFile",
    "DeltaSet",
    "DensityReport",
    "DrmError",
    "InputOutputError",
    "JointDecomposition",
    "MergeConfig",
    "NumericError",
    "SpectrumReport",
    "SynthTask",
    "TensorBundle",
    "ThinSVD",
    "TuneResult",
    "check_perturbation_bounds",
    "closed_form_finetune",
    "dare_ties_merge",
    "decompose_joint",
    "disjoint_average",
    "elect_signs",
    "evaluate",
    "extract_deltas",
    "grid_tune",
    "materialize_low_rank",
    "merge_biases",
    "merge_bundle",
    "merge_delta_set",
    "merge_delta_set_grid",
    "merge_drm",
    "open_bundle",
    "prune_topk",
    "pruning_density",
    "read_bundle",
    "run_bench",
    "sign_agreement",
    "spectrum_report",
    "synth_suite",
    "task_arithmetic",
    "thin_svd",
    "ties_merge",
    "write_bundle",
]


def __getattr__(name):
    """Load a lazy name's module, or the module itself, on first use (PEP 562)."""
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY.values()})

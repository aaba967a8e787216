"""Checkpoint merging through a shared decomposed weight space.

The engine stacks per-layer weight deltas from several finetuned
checkpoints, decomposes the stack with a thin SVD, renormalizes each
task's partitioned basis rows, and runs magnitude pruning, sign election,
and disjoint averaging inside that joint space before projecting back.
Classic parameter-space baselines (simple averaging, task arithmetic,
TIES, DARE-TIES) share the same vocabulary, and an analysis suite audits
the mechanism-level behavior.
"""

from .analysis import (
    AgreementHistogram,
    BoundReport,
    DensityReport,
    SpectrumReport,
    check_perturbation_bound,
    pruning_density,
    sign_agreement,
    spectrum_report,
    synth_hetero_deltas,
)
from .baselines import dare_ties_merge, simple_average, task_arithmetic, ties_merge
from .bundle import (
    BiasEntry,
    BiasGroup,
    BundleFile,
    DeltaSet,
    TensorBundle,
    extract_deltas,
    materialize_low_rank,
    open_bundle,
    read_bundle,
    write_bundle,
)
from .engine import (
    JointDecomposition,
    MergeConfig,
    agreeing_entries,
    decompose_joint,
    disjoint_average,
    elect_signs,
    merge_biases,
    merge_bundle,
    merge_delta_set,
    merge_delta_set_grid,
    merge_drm,
    prune_topk,
    renormalize_row,
    survivor_filter,
    truncate_rank,
)
from .errors import ArgumentError, DrmError, InputOutputError, NumericError
from .harness import (
    SynthTask,
    TuneResult,
    closed_form_finetune,
    evaluate,
    grid_tune,
    run_bench,
    synth_suite,
)
from .linalg import ThinSVD, hconcat, svd_oracle, thin_svd, vconcat

__version__ = "0.1.0"

__all__ = [
    "AgreementHistogram",
    "ArgumentError",
    "BiasEntry",
    "BiasGroup",
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
    "agreeing_entries",
    "check_perturbation_bound",
    "closed_form_finetune",
    "dare_ties_merge",
    "decompose_joint",
    "disjoint_average",
    "elect_signs",
    "evaluate",
    "extract_deltas",
    "grid_tune",
    "hconcat",
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
    "renormalize_row",
    "run_bench",
    "sign_agreement",
    "simple_average",
    "spectrum_report",
    "survivor_filter",
    "svd_oracle",
    "synth_hetero_deltas",
    "synth_suite",
    "task_arithmetic",
    "thin_svd",
    "ties_merge",
    "truncate_rank",
    "vconcat",
    "write_bundle",
]

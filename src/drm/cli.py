"""Command-line front end: merge checkpoints, run analyses, benchmark and
tune on synthetic suites.

Exit codes: 0 success, 2 argument errors, 3 I/O or bundle-content errors,
4 numerical failures.

``drm.analysis`` and ``drm.harness`` are imported by the commands that run
them (analyze; bench and tune), so ``drm merge`` loads neither.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

from .bundle import atomic_output, canonical_json, check_aligned, open_bundle, write_bundle
from .bundle import read_bundle  # noqa: F401 -- drmbench wraps drm.cli.read_bundle
from .engine import PRUNE_MODES, SPACES, MergeConfig, map_layers
from .engine import merge_bundle as merge_bundle_with_stats  # drmbench's tracer wraps this name
from .errors import ArgumentError, InputOutputError, NumericError

_CLI_METHODS = {
    "drm-h": "drm_h",
    "drm-v": "drm_v",
    "avg": "simple_avg",
    "ta": "task_arithmetic",
    "ties": "ties",
    "dare-ties": "dare_ties",
}

# Most points one --grid-* axis may have; the default grids have 10 and 8.
MAX_GRID_POINTS = 1000
_GRID_SLACK = 1e-9  # a point this fraction of a step past b still counts


def _parse_lambdas(text: str | None):
    if text is None:
        return None
    values = tuple(float(p) for p in text.split(","))
    return values[0] if len(values) == 1 else values


def _parse_grid(text: str) -> list[float]:
    """Parse "a:b:step" (inclusive endpoints) or a single float; every
    number must be finite and the grid at most MAX_GRID_POINTS long. Points
    are rounded to 10 decimals, or to the step's 10th significant digit
    where that is finer."""
    try:
        parts = [float(p) for p in text.split(":")]
    except ValueError as exc:
        raise ValueError(f"bad grid spec {text!r}; expected a:b:step") from exc
    if not all(math.isfinite(p) for p in parts):
        raise ValueError(f"bad grid spec {text!r}; values must be finite")
    if len(parts) == 1:
        return parts
    if len(parts) != 3:
        raise ValueError(f"bad grid spec {text!r}; expected a:b:step")
    lo, hi, step = parts
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid spec {text!r}; need step > 0 and b >= a")
    # floor(steps) + 1 points; the quotient may overflow to inf.
    steps = (hi - lo) / step + _GRID_SLACK
    if steps >= MAX_GRID_POINTS:
        raise ValueError(f"bad grid spec {text!r}; more than {MAX_GRID_POINTS} points")
    digits = max(10, 9 - math.floor(math.log10(step)))
    values = []
    x = lo
    for _ in range(math.floor(steps) + 1):
        values.append(round(x, digits))
        x += step
    return values


def _parse_dim(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad --dim {text!r}; expected M,N")
    m, n = (int(p) for p in parts)
    if m <= 0 or n <= 0:
        raise ValueError("--dim extents must be positive")
    return m, n


def _task_names(paths: list[str]) -> list[str]:
    stems = [Path(p).stem for p in paths]
    if len(set(stems)) == len(stems):
        return stems
    return [f"task{i}" for i in range(len(paths))]


def _config_from_args(args) -> MergeConfig:
    return MergeConfig(
        method=_CLI_METHODS[args.method],
        retain=args.retain,
        lambdas=_parse_lambdas(args.lam),
        dare_drop=args.dare_drop,
        rank_drop=args.rank_drop,
        prune_mode=args.prune_mode,
        enable_sign_elect=not args.no_sign_elect,
        enable_disjoint=not args.no_disjoint,
        seed=args.seed,
    )


def _write_json(path, obj) -> None:
    """Write ``obj`` as canonical JSON plus a newline, atomically."""
    with atomic_output(path) as fh:
        fh.write((canonical_json(obj) + "\n").encode("utf-8"))


@contextlib.contextmanager
def _open_inputs(args):
    """The base and task bundles, opened by their headers for the block;
    each tensor is read from disk only when its layer is taken."""
    with contextlib.ExitStack() as inputs:
        base = inputs.enter_context(open_bundle(args.base))
        yield base, [inputs.enter_context(open_bundle(p)) for p in args.task]


def cmd_merge(args) -> int:
    with _open_inputs(args) as (base, tasks):
        cfg = _config_from_args(args)
        merged, stats = merge_bundle_with_stats(base, tasks, cfg, _task_names(args.task))
    write_bundle(merged, args.out)
    for st in stats:
        shape = "x".join(str(s) for s in st.shape)
        rank = "-" if st.rank is None else str(st.rank)
        kept = "-" if st.kept is None else f"{st.kept}/{st.total}"
        print(f"{st.name}\tshape={shape}\trank={rank}\tkept={kept}")
    print(f"wrote {args.out} ({len(merged)} tensors, method={cfg.method})")
    return 0


def cmd_analyze(args) -> int:
    from . import analysis

    # svd-bound factors the horizontal stack whatever the space.
    vertical = args.space.endswith("-v") and args.kind != "svd-bound"
    orientation = "vertical" if vertical else "horizontal"
    with _open_inputs(args) as (base, tasks):
        cfg = MergeConfig(method="drm_v" if vertical else "drm_h", retain=args.retain,
                          prune_mode=args.prune_mode)
        analyze_layer = {  # (base value, deltas) -> the layer's reports
            "prune-density": lambda _, ds: [analysis.pruning_density(ds, cfg, args.renorm)],
            "sign-agreement": lambda _, ds: [analysis.sign_agreement(ds, cfg, args.space)],
            "svd-bound": lambda _, ds: analysis.check_perturbation_bounds(ds),
            "spectrum": lambda _, ds: [analysis.spectrum_report(ds, orientation)],
        }[args.kind]
        task_names = check_aligned(base, tasks, _task_names(args.task))
        layers = map_layers(base, tasks, task_names, cfg.method, analyze_layer)
    reports = [r for layer_reports in layers.values() for r in layer_reports]
    if not reports:
        raise ValueError("no rank-2 tensors to analyze")

    _write_json(args.out, [r.to_json_obj() for r in reports])
    for r in reports:
        print(r.to_table(), end="")
    print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    from . import harness

    m, n = _parse_dim(args.dim)
    base, tasks = harness.synth_suite(
        args.seed, args.tasks, m, n, args.samples, identical=args.identical,
        ridge=args.ridge, noise=args.noise,
    )
    result = harness.run_bench(base, tasks, neutral=args.identical, seed=args.seed)
    print(result.to_table(), end="")
    return 0


def cmd_tune(args) -> int:
    from . import harness

    m, n = _parse_dim(args.dim)
    retain_grid = _parse_grid(args.grid_retain) if args.grid_retain else None
    lambda_grid = _parse_grid(args.grid_lambda) if args.grid_lambda else None
    base, tasks = harness.synth_stream(
        args.seed, args.tasks, m, n, args.samples, ridge=args.ridge, noise=args.noise
    )
    method = _CLI_METHODS[args.method]
    result = harness.grid_tune(
        base, tasks, method, retain_grid, lambda_grid, val_split_seed=args.seed
    )
    print(result.to_table(), end="")
    if args.out:
        rows = [
            {"retain": r, "lambda": l, "score": s} for r, l, s in result.grid
        ]
        _write_json(
            args.out,
            {
                "method": result.method,
                "grid": rows,
                "best": {
                    "retain": result.best_retain,
                    "lambda": result.best_lambda,
                    "score": result.best_score,
                },
                "per_task_scores": result.per_task_scores,
                "task_names": result.task_names,
            }
        )
        print(f"wrote {args.out}")
    return 0


_DEFAULTS = MergeConfig()  # the knobs' defaults, written down once


def _add_prune_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--retain", type=float, default=_DEFAULTS.retain,
                   help="fraction of largest-magnitude entries kept; 1.0 keeps every "
                        "entry (default %(default)s)")
    p.add_argument("--prune-mode", choices=PRUNE_MODES, default=_DEFAULTS.prune_mode,
                   help="rank entries across all tasks or within each, for drm-h/drm-v "
                        "merges, prune-density, and sign-agreement outside --space "
                        "original; ties and original-space sign-agreement always rank "
                        "within each task (default %(default)s)")


def _add_suite_knobs(p: argparse.ArgumentParser) -> None:
    """The synthetic suite's options, shared by bench and tune."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tasks", type=int, default=3)
    p.add_argument("--dim", default="12,8", help="matrix shape M,N (default %(default)s)")
    p.add_argument("--samples", type=int, default=80)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0)


def _add_merge_knobs(p: argparse.ArgumentParser) -> None:
    _add_prune_knobs(p)
    p.add_argument("--lambda", dest="lam", default=None,
                   help="merging coefficient: one shared value or comma list per task "
                        "(default 1.0; 0.4 for ta)")
    p.add_argument("--dare-drop", type=float, default=_DEFAULTS.dare_drop,
                   help="random drop rate for dare-ties (default %(default)s)")
    p.add_argument("--rank-drop", type=float, default=_DEFAULTS.rank_drop,
                   help="fraction of the nonzero spectrum to discard (default %(default)s)")
    p.add_argument("--no-sign-elect", action="store_true", help="skip sign election")
    p.add_argument("--no-disjoint", action="store_true",
                   help="average over all tasks instead of survivors only")
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed,
                   help="seed of the dare-ties drops (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drm", description="Checkpoint merging in a decomposed, renormalized joint space."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="merge task checkpoints onto a base checkpoint")
    p_merge.add_argument("--method", required=True, choices=sorted(_CLI_METHODS))
    p_merge.add_argument("--base", required=True)
    p_merge.add_argument("--task", action="append", required=True,
                         help="task checkpoint path (repeatable)")
    p_merge.add_argument("--out", required=True)
    _add_merge_knobs(p_merge)
    p_merge.set_defaults(func=cmd_merge)

    p_an = sub.add_parser("analyze", help="write a diagnostic report")
    p_an.add_argument("kind", choices=["prune-density", "sign-agreement", "svd-bound", "spectrum"])
    p_an.add_argument("--base", required=True)
    p_an.add_argument("--task", action="append", required=True)
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--space", choices=list(SPACES), default="original",
                      help="tally space for sign-agreement; a -v space also makes "
                           "prune-density and spectrum decompose vertically "
                           "(svd-bound ignores it)")
    _add_prune_knobs(p_an)
    p_an.add_argument("--no-renorm", dest="renorm", action="store_false")
    p_an.set_defaults(func=cmd_analyze)

    p_bench = sub.add_parser("bench", help="compare methods on a synthetic suite")
    p_bench.add_argument("scenario", choices=["synthetic"])
    _add_suite_knobs(p_bench)
    p_bench.add_argument("--identical", action="store_true",
                         help="make every task the same problem and merge at "
                              "identity-preserving settings")
    p_bench.set_defaults(func=cmd_bench)

    p_tune = sub.add_parser("tune", help="grid-search retain/lambda on a synthetic suite")
    p_tune.add_argument("--method", required=True, choices=sorted(_CLI_METHODS))
    p_tune.add_argument("--grid-retain", default=None, help="a:b:step or single value")
    p_tune.add_argument("--grid-lambda", default=None, help="a:b:step or single value")
    _add_suite_knobs(p_tune)
    p_tune.add_argument("--out", default=None, help="optional JSON output path")
    p_tune.set_defaults(func=cmd_tune)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ArgumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InputOutputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())

"""The drm benchmark: seeded checkpoint families through the real ``drm`` CLI.

Usage (from the repository root)::

    python3 drmbench/run.py --workload drmh-block --seed 0 --seconds 25 --trace 0

The harness is a closed loop with one client: it starts one child process
(``drmbench/child.py``) per sample, waits for it to exit, checks its output,
and only then starts the next. The child imports ``drm`` from this
checkout's ``src/`` and runs ``drm.cli.main`` on the generated files.

``--trace 0`` runs samples for ``--seconds`` and reports the end-to-end
metrics; ``--trace 1`` runs one untraced, one traced and one serial
(``DRM_THREADS=1 OPENBLAS_NUM_THREADS=1``) sample and reports the per-layer
metrics. The last line of standard output is the JSON result; the line
before it (``detail ...``) records the environment, the samples and the
SHA-256 of every output. See ``drmbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "drmbench" / "child.py"
WORK = ROOT / ".drmbench"
# Children get the environment the benchmark was started with; the harness
# itself keeps BLAS to one thread so it starts no threads of its own.
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from drmbench import checks, tracing  # noqa: E402
from drmbench.workloads import WORKLOADS, Inputs, Workload  # noqa: E402

SETUP_REPS = 8  # import-only children per run at least, for the setup_s median
CHILD_TIMEOUT_S = 150.0
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s", "bundle.read_s": "s", "bundle.read_mb": "MiB", "bundle.extract_s": "s",
    "bundle.extract_alloc_mb": "MiB", "bundle.write_s": "s", "engine.merge_bundle_s": "s",
    "engine.merge_bundle_self_s": "s", "engine.merge_alloc_mb": "MiB",
    "engine.layer_busy_s": "s", "engine.layer_concurrency": "ratio",
    "engine.serial_run_s": "s", "engine.decompose_self_s": "s", "engine.prune_s": "s",
    "engine.prune_entries": "count", "engine.elect_s": "s", "engine.average_s": "s",
    "engine.drm_self_s": "s", "linalg.svd_s": "s", "linalg.svd_calls": "count",
    "linalg.svd_gflop": "GFLOP", "linalg.svd_gflops": "GFLOP/s", "linalg.rank_frac": "ratio",
    "baselines.dare_self_s": "s", "harness.synth_s": "s", "harness.finetune_s": "s",
    "harness.merge_s": "s", "harness.grid_self_s": "s", "harness.grid_points": "count",
    "proc.cpu_s": "s", "proc.cpu_util": "ratio", "trace.overhead_s": "s",
}


class SetupFailure(RuntimeError):
    """The child could not import drm from this checkout: nothing can be measured."""


class Sample:
    """One child run: its timings, rusage and the verdict of the output check."""

    def __init__(self, result: dict, rss_mb: float, stdout: str, stderr: str):
        self.result = result
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr
        self.errors: list[str] = []
        self.sha256 = ""

    @property
    def ok(self) -> bool:
        return not self.errors

    def describe(self) -> dict:
        return {"run_s": self.result.get("run_s"), "setup_s": self.result.get("setup_s"),
                "peak_rss_mb": self.rss_mb, "cpu_s": self.result.get("cpu_s"),
                "sha256": self.sha256, "errors": self.errors[:5]}


class ChildTimeout(Exception):
    """The child ran longer than CHILD_TIMEOUT_S."""


def _raise_timeout(signum, frame):
    raise ChildTimeout


def spawn(mode: str, drm_argv: list[str], run_dir: Path, env: dict) -> Sample:
    """Start one child, wait for it in wait4 (which gives its rusage) and collect it."""
    result_path, out_path, err_path = (run_dir / n for n in ("child.json", "stdout", "stderr"))
    result_path.unlink(missing_ok=True)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(result_path), repr(t0), mode, *drm_argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=ROOT,
        )
        # Block in wait4 rather than poll, so the harness never wakes while
        # the child runs; an alarm bounds the wait.
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {}
    sample = Sample(result, usage.ru_maxrss / 1024.0,
                    out_path.read_text(encoding="utf-8", errors="replace"),
                    err_path.read_text(encoding="utf-8", errors="replace"))
    drm_file = result.get("drm_file")
    if drm_file is None or not Path(drm_file).resolve().is_relative_to(ROOT / "src"):
        raise SetupFailure(f"child did not import drm from {ROOT / 'src'}: "
                           f"{drm_file or sample.stderr.strip()[-400:]}")
    if proc.returncode != 0 or (mode != "setup" and result.get("rc") != 0):
        sample.errors.append(f"exit {proc.returncode}, drm rc {result.get('rc')}: "
                             f"{sample.stderr.strip()[-300:]}")
    return sample


class Runner:
    """Runs and checks the samples of one workload at one seed."""

    def __init__(self, wl: Workload, seed: int, inputs: Inputs, run_dir: Path):
        self.wl, self.seed, self.inputs, self.run_dir = wl, seed, inputs, run_dir
        self.reference = checks.load_reference() if checks.REFERENCE_PATH.exists() else None
        self._verdicts: dict[tuple[str, str], tuple[list[str], dict]] = {}
        self.samples: list[Sample] = []

    def setup_times(self, count: int = SETUP_REPS) -> list[float]:
        return [spawn("setup", [], self.run_dir, CHILD_ENV).result["setup_s"]
                for _ in range(count)]

    def sample(self, mode: str = "run", env: dict | None = None) -> Sample:
        self.inputs.out.unlink(missing_ok=True)
        s = spawn(mode, self.inputs.argv, self.run_dir, env or CHILD_ENV)
        self.samples.append(s)
        if s.ok:
            self.check(s)
        return s

    def check(self, s: Sample) -> None:
        """Check the output; an identical (output, summary) pair is checked once per run."""
        try:
            data = self.inputs.out.read_bytes()
        except OSError as exc:
            s.errors.append(f"no output: {exc}")
            return
        s.sha256 = hashlib.sha256(data).hexdigest()
        key = (s.sha256, s.stdout)
        if key not in self._verdicts:
            if self.wl.name == "tune-grid":
                verdict = checks.check_tune(self.inputs, s.stdout, self.seed, self.reference)
            else:
                verdict = checks.check_merge(self.inputs, s.stdout, self.wl.method,
                                             self.wl.name, self.seed, self.reference)
            self._verdicts[key] = verdict
        s.errors += self._verdicts[key][0]

    def fingerprint(self) -> dict:
        return next(iter(self._verdicts.values()))[1]


def _median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it, if any."""
    n = len(values)
    for p in range(99, 49, -1):
        if n - int(np.ceil(p / 100 * n)) >= 10:
            return p, float(np.percentile(values, p, method="inverted_cdf"))
    return None


def timed_pass(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    setups: list[float] = []
    begin = time.monotonic()
    longest = 0.0
    while True:
        # One import-only child before each sample spreads the setup
        # measurements over the run instead of bunching them at its start.
        setups += runner.setup_times(1)
        start = time.monotonic()
        runner.sample()
        longest = max(longest, time.monotonic() - start)
        # Closed loop: start another sample only if it should end in time.
        if time.monotonic() - begin + longest > seconds:
            break
    setups += runner.setup_times(SETUP_REPS - len(setups))
    good = [s for s in runner.samples if s.ok] or runner.samples
    run_s = [s.result.get("run_s", 0.0) for s in good]
    setups += [s.result["setup_s"] for s in runner.samples]
    rss = [s.rss_mb for s in good]
    metrics = {"run_s": _median(run_s), "setup_s": _median(setups),
               "peak_rss_mb": _median(rss)}
    tail = tail_percentile(run_s)
    failed = sum(not s.ok for s in runner.samples)
    lines = [
        f"run_s        {metrics['run_s']:.4f} s    median of {len(run_s)} samples; "
        + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile (needs >= 11 samples)"),
        f"setup_s      {metrics['setup_s']:.4f} s    median of {len(setups)} children",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MiB  median of {len(rss)} samples",
        f"failed_frac  {failed / len(runner.samples):.4f}      "
        f"{failed} of {len(runner.samples)} runs failed",
    ]
    return metrics, lines


def traced_pass(runner: Runner, spans_path: Path) -> tuple[dict, list[str]]:
    plain = runner.sample()
    traced = runner.sample(f"trace:{spans_path}")
    serial_env = CHILD_ENV | {"DRM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    serial = runner.sample(env=serial_env)
    lines = []
    if not traced.ok:
        return {k: None for k in PER_LAYER_UNITS}, ["traced sample failed"]
    spans, missing = tracing.read_spans(spans_path)
    tree = tracing.SpanTree(spans)
    # Traced-run hygiene: identical bytes, and a span tree whose blocking
    # path adds up to the traced command time.
    if plain.ok and traced.sha256 != plain.sha256:
        traced.errors.append("traced output differs from the untraced output")
    path_s, run_s = tree.blocking_path_s(), traced.result["run_s"]
    if abs(path_s - run_s) > 1e-6 + 1e-6 * run_s:
        traced.errors.append(f"blocking-path self times add to {path_s:.6f} s, not {run_s:.6f} s")
    metrics = tracing.blank_missing(tracing.summarize(spans), missing)
    plain_run = plain.result.get("run_s", 0.0)
    metrics.update({
        "engine.serial_run_s": serial.result.get("run_s"),
        "proc.cpu_s": plain.result.get("cpu_s"),
        "proc.cpu_util": plain.result.get("cpu_s", 0.0) / plain_run if plain_run else 0.0,
        "trace.overhead_s": run_s - plain_run,
    })
    lines.append(f"traced run_s {run_s:.4f} s, untraced {plain_run:.4f} s, serial "
                 f"{serial.result.get('run_s', float('nan')):.4f} s; blocking path {path_s:.4f} s")
    if missing:
        lines.append("missing wrap targets (their metrics are null): " + ", ".join(missing))
    return metrics, lines


def _cache_bytes(level: int) -> int | None:
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if int((index / "level").read_text()) == level and \
                    (index / "type").read_text().strip() in ("Unified", "Data"):
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            continue
    return None


def environment(wl: Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "DRM_THREADS": CHILD_ENV.get("DRM_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": CHILD_ENV.get("OPENBLAS_NUM_THREADS", "unset"),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "working_set_bytes": wl.working_set_bytes,
        "note": "inputs are written just before the samples and read warm from the page "
                "cache; disk behaviour is not measured (the benchmark does not drop caches)",
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "drm" / "__init__.py").is_file():
        print(f"error: no drm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[workload]
    run_dir = WORK / f"{workload}-s{seed}-{os.getpid()}"
    try:
        inputs = wl.generate(seed, run_dir)
        runner = Runner(wl, seed, inputs, run_dir)
        if trace:
            spans_path = WORK / f"spans-{workload}-s{seed}.jsonl"
            metrics, lines = traced_pass(runner, spans_path)
            units = PER_LAYER_UNITS
        else:
            metrics, lines = timed_pass(runner, seconds)
            units = END_TO_END_UNITS
    except SetupFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = len(runner.samples)
    failed = sum(not s.ok for s in runner.samples)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for line in lines:
        print("  " + line)
    for s in runner.samples:
        for err in s.errors:
            print(f"  FAILED: {err}")
    detail = {"workload": workload, "seed": seed, "env": environment(wl),
              "samples": [s.describe() for s in runner.samples]}
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def write_reference(workload: str) -> int:
    """Record the default-seed fingerprints of ``workload`` in reference.json."""
    wl = WORKLOADS[workload]
    run_dir = WORK / f"reference-{workload}"
    try:
        runner = Runner(wl, checks.DEFAULT_SEED, wl.generate(checks.DEFAULT_SEED, run_dir),
                        run_dir)
        runner.reference = None
        s = runner.sample()
        if not s.ok:
            print("\n".join(s.errors), file=sys.stderr)
            return 1
        ref = runner.fingerprint()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    table = checks.load_reference() if checks.REFERENCE_PATH.exists() else {}
    table[workload] = ref
    checks.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload} at seed {checks.DEFAULT_SEED}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed output fingerprints and exit")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference(args.workload)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

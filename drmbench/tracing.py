"""Outside-in span tracing of drm, and the per-layer metrics derived from it.

The child process installs :class:`Tracer` after ``import drm``: it replaces
each entry point in :data:`TARGETS` at the module where its caller looks it
up, so every call records a span (name, start, end, parent, thread). Spans
stay in memory and are written as JSON lines when the command returns.
A target that no longer exists is recorded as missing, and every metric
that depends on it is reported as ``None``, never as 0.

:func:`summarize` turns the spans into per-layer metrics. A span's self time
is its duration minus the part of it that its child spans cover. Spans that
pool worker threads open with nothing above them take the enclosing
``engine.merge_bundle`` span as their parent.

This module imports only the standard library: the parent imports it as
``drmbench.tracing`` and the child as ``tracing``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
import tracemalloc
from collections import defaultdict

ROOT = "cli.main"
POOL_PARENT = "engine.merge_bundle"
LAYER = "engine.layer"
# Spans whose tracemalloc peak growth is recorded.
ALLOC_SPANS = ("bundle.extract", "engine.merge_bundle")

# (module, attribute, span name). The attribute is replaced in the module
# whose code calls it, which is where the call is resolved.
TARGETS = (
    ("drm.cli", "read_bundle", "bundle.read"),
    ("drm.cli", "write_bundle", "bundle.write"),
    ("drm.cli", "merge_bundle_with_stats", "engine.merge_bundle"),
    ("drm.engine", "extract_deltas", "bundle.extract"),
    ("drm.engine", "_merge_delta_set_with_stats", LAYER),
    ("drm.engine", "merge_drm_with_stats", "engine.merge_drm"),
    ("drm.engine", "decompose_joint", "engine.decompose"),
    ("drm.engine", "thin_svd", "linalg.thin_svd"),
    ("drm.engine", "prune_topk", "engine.prune"),
    ("drm.engine", "elect_signs", "engine.elect"),
    ("drm.engine", "disjoint_average", "engine.average"),
    ("drm.baselines", "prune_topk", "engine.prune"),
    ("drm.baselines", "elect_signs", "engine.elect"),
    ("drm.baselines", "disjoint_average", "engine.average"),
    ("drm.baselines", "dare_ties_merge", "baselines.dare_ties"),
    ("drm.harness", "synth_suite", "harness.synth_suite"),
    ("drm.harness", "grid_tune", "harness.grid_tune"),
    ("drm.harness", "closed_form_finetune", "harness.finetune"),
    ("drm.harness", "merge_delta_set", "harness.merge"),
)


def _read_counts(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _prune_counts(args, result):
    return {"entries": sum(int(b.size) for b in args[0])}


def _svd_counts(args, result):
    m, n = args[0].shape
    return {"m": int(m), "n": int(n), "rank": int(result.rank)}


# Work counts taken from a span's arguments and result.
_COUNTS = {"bundle.read": _read_counts, "engine.prune": _prune_counts,
           "linalg.thin_svd": _svd_counts}


class Tracer:
    """Records spans around the :data:`TARGETS` of the imported drm package."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_parent = 0
        self._alloc_open: list[list[int]] = []  # [span id, bytes at start, peak seen]

    def install(self) -> None:
        tracemalloc.start()
        self._stack().append(0)  # the root span, closed by finish()
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))

    def finish(self, start: float, end: float, path: str) -> None:
        """Close the root span over [start, end] and write every span."""
        tracemalloc.stop()
        self.spans.append({"id": 0, "name": ROOT, "start": start, "end": end,
                           "parent": None, "thread": threading.get_ident()})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name: str):
        counts = _COUNTS.get(name)
        track_alloc = name in ALLOC_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else self._pool_parent
            stack.append(sid)
            if name == POOL_PARENT:
                self._pool_parent = sid
            if track_alloc:
                self._alloc_enter(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": sid, "name": name, "start": start, "end": end,
                        "parent": parent, "thread": threading.get_ident()}
                if track_alloc:
                    span["alloc_bytes"] = self._alloc_exit(sid)
                self.spans.append(span)
            if counts is not None:
                span.update(counts(args, result))
            return result

        return wrapper

    # tracemalloc keeps one global peak; nested tracked spans share it by
    # folding the peak into every open span before each reset.
    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._alloc_open:
            frame[2] = max(frame[2], peak)
        tracemalloc.reset_peak()

    def _alloc_enter(self, sid: int) -> None:
        with self._lock:
            self._fold_peak()
            current = tracemalloc.get_traced_memory()[0]
            self._alloc_open.append([sid, current, current])

    def _alloc_exit(self, sid: int) -> int:
        with self._lock:
            self._fold_peak()
            frame = next(f for f in self._alloc_open if f[0] == sid)
            self._alloc_open.remove(frame)
            return frame[2] - frame[1]


def read_spans(path) -> tuple[list[dict], list[str]]:
    """Return (spans, missing targets) from a file written by :meth:`Tracer.finish`."""
    with open(path, encoding="utf-8") as fh:
        missing = json.loads(fh.readline())["missing"]
        return [json.loads(line) for line in fh], missing


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class SpanTree:
    """Durations, self times and counts over one traced command."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.children: dict[int, list[dict]] = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)
        self.root = self.by_name[ROOT][0]

    @staticmethod
    def duration(span) -> float:
        return span["end"] - span["start"]

    def covered(self, span, kids=None) -> float:
        """Length of the part of ``span`` that its children (or ``kids``) cover."""
        kids = self.children[span["id"]] if kids is None else kids
        return _union_length(
            (max(c["start"], span["start"]), min(c["end"], span["end"])) for c in kids
        )

    def self_time(self, span) -> float:
        return self.duration(span) - self.covered(span)

    def total(self, name: str) -> float:
        return sum(self.duration(s) for s in self.by_name[name])

    def total_self(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.by_name[name])

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def field_sum(self, name: str, key: str) -> int:
        return sum(s[key] for s in self.by_name[name])

    def blocking_path_s(self) -> float:
        """Self times of the spans on the root's thread plus the time that
        their children on other threads (the layer pool) cover.

        This equals the root's duration only when every child lies inside its
        parent and the children on one thread do not overlap, so comparing the
        two checks that the span tree is well formed.
        """
        main = self.root["thread"]
        total = 0.0
        for s in self.spans:
            if s["thread"] == main:
                other = [c for c in self.children[s["id"]] if c["thread"] != main]
                total += self.self_time(s) + self.covered(s, other)
        return total


def _ratio(num: float, den: float) -> float:
    # A ratio whose base is zero (the layer did no work) reads 0.
    return num / den if den > 0 else 0.0


def _svd_gflop(span) -> float:
    # Computed, not measured: Golub and Van Loan's count for an economy SVD
    # with U, sigma and V of a p x q matrix (p >= q), 6pq^2 + 20q^3.
    p, q = max(span["m"], span["n"]), min(span["m"], span["n"])
    return (6.0 * p * q * q + 20.0 * q ** 3) / 1e9


MIB = float(1 << 20)


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced command, keyed by metric name."""
    t = SpanTree(spans)
    svds = t.by_name["linalg.thin_svd"]
    svd_s = t.total("linalg.thin_svd")
    svd_gflop = sum(_svd_gflop(s) for s in svds)
    merge_s = t.total(POOL_PARENT)
    pool_ids = {s["id"] for s in t.by_name[POOL_PARENT]}
    busy = sum(t.duration(s) for s in t.by_name[LAYER] if s["parent"] in pool_ids)
    alloc = lambda name: max((s["alloc_bytes"] for s in t.by_name[name]), default=0) / MIB
    return {
        "cli.self_s": t.self_time(t.root),
        "bundle.read_s": t.total("bundle.read"),
        "bundle.read_mb": t.field_sum("bundle.read", "bytes") / MIB,
        "bundle.extract_s": t.total("bundle.extract"),
        "bundle.extract_alloc_mb": alloc("bundle.extract"),
        "bundle.write_s": t.total("bundle.write"),
        "engine.merge_bundle_s": merge_s,
        "engine.merge_bundle_self_s": t.total_self(POOL_PARENT),
        "engine.merge_alloc_mb": alloc(POOL_PARENT),
        "engine.layer_busy_s": busy,
        "engine.layer_concurrency": _ratio(busy, merge_s),
        "engine.decompose_self_s": t.total_self("engine.decompose"),
        "engine.prune_s": t.total("engine.prune"),
        "engine.prune_entries": t.field_sum("engine.prune", "entries"),
        "engine.elect_s": t.total("engine.elect"),
        "engine.average_s": t.total("engine.average"),
        "engine.drm_self_s": t.total_self("engine.merge_drm"),
        "linalg.svd_s": svd_s,
        "linalg.svd_calls": len(svds),
        "linalg.svd_gflop": svd_gflop,
        "linalg.svd_gflops": _ratio(svd_gflop, svd_s),
        "linalg.rank_frac": _ratio(sum(s["rank"] for s in svds),
                                   sum(min(s["m"], s["n"]) for s in svds)),
        "baselines.dare_self_s": t.total_self("baselines.dare_ties"),
        "harness.synth_s": t.total("harness.synth_suite"),
        "harness.finetune_s": t.total("harness.finetune"),
        "harness.merge_s": t.total("harness.merge"),
        "harness.grid_self_s": t.total_self("harness.grid_tune"),
        "harness.grid_points": t.count("harness.merge"),
    }


# The spans each per-layer metric is computed from. A metric whose span has
# a missing target is reported as None. Metrics not listed here come from
# the process rusage or from separate untraced runs.
METRIC_SPANS = {
    "cli.self_s": [name for _, _, name in TARGETS],
    "bundle.read_s": ["bundle.read"],
    "bundle.read_mb": ["bundle.read"],
    "bundle.extract_s": ["bundle.extract"],
    "bundle.extract_alloc_mb": ["bundle.extract"],
    "bundle.write_s": ["bundle.write"],
    "engine.merge_bundle_s": [POOL_PARENT],
    "engine.merge_bundle_self_s": [POOL_PARENT, "bundle.extract", LAYER],
    "engine.merge_alloc_mb": [POOL_PARENT],
    "engine.layer_busy_s": [POOL_PARENT, LAYER],
    "engine.layer_concurrency": [POOL_PARENT, LAYER],
    "engine.decompose_self_s": ["engine.decompose", "linalg.thin_svd"],
    "engine.prune_s": ["engine.prune"],
    "engine.prune_entries": ["engine.prune"],
    "engine.elect_s": ["engine.elect"],
    "engine.average_s": ["engine.average"],
    "engine.drm_self_s": ["engine.merge_drm", "engine.decompose", "engine.prune",
                          "engine.elect", "engine.average"],
    "linalg.svd_s": ["linalg.thin_svd"],
    "linalg.svd_calls": ["linalg.thin_svd"],
    "linalg.svd_gflop": ["linalg.thin_svd"],
    "linalg.svd_gflops": ["linalg.thin_svd"],
    "linalg.rank_frac": ["linalg.thin_svd"],
    "baselines.dare_self_s": ["baselines.dare_ties", "engine.elect", "engine.average"],
    "harness.synth_s": ["harness.synth_suite"],
    "harness.finetune_s": ["harness.finetune"],
    "harness.merge_s": ["harness.merge"],
    "harness.grid_self_s": ["harness.grid_tune", "harness.finetune", "harness.merge"],
    "harness.grid_points": ["harness.merge"],
}


def blank_missing(metrics: dict, missing_targets: list[str]) -> dict:
    """Set to None every metric whose spans have a target in ``missing_targets``."""
    lost = {name for module, attr, name in TARGETS if f"{module}.{attr}" in missing_targets}
    return {k: (None if lost.intersection(METRIC_SPANS.get(k, ())) else v)
            for k, v in metrics.items()}

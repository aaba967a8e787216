"""Output checks, run by the parent after each child has exited (never timed).

Checks that hold at every seed:

* every base tensor is present, in order, with the base's shape and dtype,
  and every value is finite;
* the CLI summary reports the expected rank per matrix and, for the drm
  methods, ``kept == ceil(0.2 * total)``;
* rank-1 tensors equal base + mean task delta (the bias path), to one ulp;
* per method invariants: drm-v rows lie in the adapters' joint row space;
  each DARE-TIES entry is zero or lies between the smallest and largest
  rescaled task delta of its sign, and the non-zero share is 1 - p^N;
* the energy ratio ||merged - base|| / rms_t ||task_t - base|| of every
  matrix is within ``RATIO_BAND`` of the value recorded at the default seed
  (the inputs are i.i.d. draws, so the ratio barely depends on the seed).

At the default seed the Frobenius norm of merged - base and three seeded
bilinear probes of it must match the recorded values within ``PROBE_RTOL``
(probe error is taken relative to ||u|| ||merged - base||_F ||v||), and for
tune-grid the best (retain, lambda) must match and the best score lie within
``TUNE_RTOL``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import bundlefmt

DEFAULT_SEED = 0
PROBE_RTOL = 1e-4
TUNE_RTOL = 1e-6
RATIO_BAND = 0.02
N_PROBES = 3
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def parse_summary(stdout: str) -> dict[str, dict]:
    """Per-tensor fields of ``drm merge``'s summary lines (name, shape, rank, kept)."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split("\t")
        if len(parts) == 4 and parts[1].startswith("shape="):
            rows[parts[0]] = dict(p.split("=", 1) for p in parts[1:])
    return rows


def _probe_vectors(index: int, shape: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng([7919, index])
    rows = shape[0]
    cols = shape[1] if len(shape) == 2 else 1
    return [(rng.standard_normal(rows), rng.standard_normal(cols)) for _ in range(N_PROBES)]


def fingerprint(index: int, delta: np.ndarray) -> dict:
    """Frobenius norm and seeded bilinear probes u^T delta v of one merged delta."""
    mat = delta.reshape(delta.shape[0], -1)
    probes = [float(u @ mat @ v) for u, v in _probe_vectors(index, delta.shape)]
    return {"fro": float(np.linalg.norm(mat)), "probes": probes}


def _compare_fingerprint(name: str, index: int, got: dict, want: dict) -> list[str]:
    errors = []
    if not math.isclose(got["fro"], want["fro"], rel_tol=PROBE_RTOL, abs_tol=1e-300):
        errors.append(f"{name}: ||merged-base|| {got['fro']!r} != reference {want['fro']!r}")
    scales = [np.linalg.norm(u) * np.linalg.norm(v) * want["fro"]
              for u, v in _probe_vectors(index, tuple(want["shape"]))]
    for k, (g, w, scale) in enumerate(zip(got["probes"], want["probes"], scales)):
        if abs(g - w) > PROBE_RTOL * scale:
            errors.append(f"{name}: probe {k} {g!r} != reference {w!r}")
    return errors


def check_summary(stdout: str, base: dict, expect: dict, method: str) -> list[str]:
    rows = parse_summary(stdout)
    errors = []
    for name, arr in base.items():
        row = rows.get(name)
        if row is None:
            errors.append(f"summary has no line for {name}")
            continue
        if arr.ndim != 2:
            continue
        want_rank = expect.get("rank", {}).get(name)
        if want_rank is not None and row["rank"] != str(want_rank):
            errors.append(f"{name}: summary rank={row['rank']}, expected {want_rank}")
        if method.startswith("drm"):
            kept, _, total = row["kept"].partition("/")
            if not (kept.isdigit() and total.isdigit()) or int(kept) != -(-int(total) // 5):
                errors.append(f"{name}: kept={row['kept']} is not ceil(0.2*total)")
    return errors


def check_merge(inputs, stdout: str, method: str, workload: str, seed: int,
                reference: dict | None) -> tuple[list[str], dict]:
    """Check one merged bundle; returns (errors, fingerprints by tensor name)."""
    base, _ = bundlefmt.read(inputs.base_path)
    tasks = [bundlefmt.read(p)[0] for p in inputs.task_paths]
    try:
        merged, _ = bundlefmt.read(inputs.out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"cannot read output: {exc}"], {}
    errors = check_summary(stdout, base, inputs.expect, method)
    if list(merged) != list(base):
        errors.append(f"tensor names {list(merged)[:4]}... differ from the base's")
        return errors, {}
    ref = (reference or {}).get(workload, {}) if seed == DEFAULT_SEED else {}
    ratio_ref = (reference or {}).get(workload, {}).get("ratios", {})
    prints, ratios = {}, {}
    for index, (name, b) in enumerate(base.items()):
        m = merged[name]
        if m.shape != b.shape or m.dtype != b.dtype:
            errors.append(f"{name}: {m.dtype}{m.shape} != base {b.dtype}{b.shape}")
            continue
        if not np.all(np.isfinite(m)):
            errors.append(f"{name}: non-finite values")
            continue
        b64 = np.asarray(b, dtype=np.float64)
        delta = np.asarray(m, dtype=np.float64) - b64
        task_deltas = np.stack([np.asarray(t[name], dtype=np.float64) - b64 for t in tasks])
        errors += _check_tensor(name, m, b64, delta, task_deltas, inputs.expect)
        prints[name] = fingerprint(index, delta) | {"shape": list(b.shape)}
        if b.ndim == 2:
            rms = math.sqrt(float(np.mean(np.sum(task_deltas ** 2, axis=(1, 2)))))
            ratios[name] = prints[name]["fro"] / rms
            want = ratio_ref.get(name)
            if want is not None and abs(ratios[name] - want) > RATIO_BAND * want:
                errors.append(f"{name}: energy ratio {ratios[name]:.5f} is not within "
                              f"{RATIO_BAND:.0%} of {want:.5f}")
        if name in ref.get("tensors", {}):
            errors += _compare_fingerprint(name, index, prints[name], ref["tensors"][name])
    return errors, {"tensors": prints, "ratios": ratios}


def _check_tensor(name, merged, base64, delta, task_deltas, expect) -> list[str]:
    ulp = np.spacing(np.abs(merged)).astype(np.float64)
    if merged.ndim == 1:
        want = (base64 + task_deltas.mean(axis=0)).astype(merged.dtype)
        if np.any(np.abs(np.asarray(merged, np.float64) - want) > 2 * ulp):
            return [f"{name}: bias is not base + mean task delta"]
        return []
    errors = []
    basis = expect.get("row_basis", {}).get(name)
    if basis is not None:
        resid = delta - (delta @ basis) @ basis.T
        if np.linalg.norm(resid) > 1e-8 * np.linalg.norm(delta):
            errors.append(f"{name}: merged rows leave the adapters' row space")
    p = expect.get("dare_drop")
    if p is not None:
        errors += _check_dare(name, delta, task_deltas, p, ulp)
    return errors


def _check_dare(name, delta, task_deltas, p, ulp) -> list[str]:
    scaled = task_deltas / (1.0 - p)
    sign = np.sign(delta)
    same = np.sign(scaled) == sign  # tasks whose delta has the merged entry's sign
    mag = np.abs(scaled)
    hi = np.where(same, mag, 0.0).max(axis=0)
    lo = np.where(same, mag, np.inf).min(axis=0)
    live = np.abs(delta) > ulp
    slack = ulp + 1e-12 * np.abs(delta)
    a = np.abs(delta)
    bad = live & ((a > hi + slack) | (a < lo - slack))
    errors = []
    if np.any(bad):
        errors.append(f"{name}: {int(bad.sum())} entries outside their surviving task deltas")
    share = float(live.mean())
    expected = 1.0 - p ** task_deltas.shape[0]
    if abs(share - expected) > 0.02:
        errors.append(f"{name}: non-zero share {share:.4f}, expected about {expected:.4f}")
    return errors


def check_tune(inputs, stdout: str, seed: int, reference: dict | None) -> tuple[list[str], dict]:
    """Check the tuning JSON; returns (errors, the best point)."""
    try:
        data = json.loads(Path(inputs.out).read_text(encoding="utf-8"))
        grid, best = data["grid"], data["best"]
        scores = [row["score"] for row in grid]
        per_task = data["per_task_scores"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot read tuning output: {exc}"], {}
    errors = []
    if len(grid) != inputs.expect["grid_points"]:
        errors.append(f"grid has {len(grid)} points, expected {inputs.expect['grid_points']}")
    if not all(math.isfinite(s) for s in scores + per_task):
        errors.append("non-finite score")
        return errors, {}
    top = max(scores)
    # The program breaks near-ties (1e-12 relative) toward the earlier point.
    if best["score"] < top - 1e-12 * max(1.0, abs(top)) or best not in grid:
        errors.append(f"best {best} is not the top grid point ({top!r})")
    if len(per_task) != inputs.expect["tasks"] or not math.isclose(
            float(np.mean(per_task)), best["score"], rel_tol=1e-9):
        errors.append("per-task scores do not average to the best score")
    if "best:" not in stdout:
        errors.append("summary has no best line")
    want = (reference or {}).get("tune-grid", {}).get("best") if seed == DEFAULT_SEED else None
    if want is not None:
        if (best["retain"], best["lambda"]) != (want["retain"], want["lambda"]):
            errors.append(f"best point {best} != reference {want}")
        elif not math.isclose(best["score"], want["score"], rel_tol=TUNE_RTOL):
            errors.append(f"best score {best['score']!r} != reference {want['score']!r}")
    return errors, {"best": best}

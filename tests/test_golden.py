"""Golden output hashes: `drm merge` must keep writing the same bytes.

A small fixed family (float32 and float64 tensors, biases, four matrix
layers so the layer pool runs) is merged with every method, and with TIES
and drm-h with pruning switched off. The SHA-256 of each output bundle is
compared with a recorded value; refactors and speed-ups must leave these
hashes unchanged, and a serial run must write the same bytes as a pooled
one. The drm-h and drm-v hashes depend on the LAPACK/BLAS build; after an
intended output change, or on a platform whose BLAS rounds differently,
print the current values with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from drm.bundle import TensorBundle, write_bundle
from drm.cli import main

SHAPES = {
    "l0.w": ((12, 8), np.float32),
    "l0.b": ((12,), np.float32),
    "l1.w": ((8, 10), np.float64),
    "l1.b": ((8,), np.float64),
    "l2.w": ((10, 6), np.float32),
    "l3.w": ((5, 9), np.float64),
}
N_TASKS = 3
CASES = {
    "drm-h": ["--method", "drm-h"],
    "drm-v": ["--method", "drm-v"],
    "avg": ["--method", "avg"],
    "ta": ["--method", "ta"],
    "ties": ["--method", "ties"],
    "dare-ties": ["--method", "dare-ties"],
    "ties-no-prune": ["--method", "ties", "--no-prune"],
    "drm-h-no-prune": ["--method", "drm-h", "--no-prune"],
}

GOLDEN = {
    "drm-h": "0ac5253b8b826d29405b885036cc1e370106e38f457ee4a0596f00817e1c34e4",
    "drm-v": "8e8fb6f6790828542de1052ef69ad97ad79d90ec23f59fa307ccc9d43bc7dbcd",
    "avg": "6658fe4ad26f501c9aab09ac9bdbf8658d6fd30deb92b4ddabcfad567c836f04",
    "ta": "11a487a215ec008efc6374064e6d0cf5a160e04d7577f7d2ecc898b023131d6e",
    "ties": "d62c5f19bdfa5e575f8ce0902c4102dca4dc5c5fa090763fe386d316eff0d666",
    "dare-ties": "996139f189da8a6ac14bbdc42f9360e38af5b295956b661c19ba94ab3fc322a8",
    "ties-no-prune": "b94eb03406a5154b8cbc329b10d5792386b2e43eee2d2108bfd1fe29378587c7",
    "drm-h-no-prune": "419111cfe7fe73ea17208d82bca655abd3ff597ba29f20dc3ce430208ce965d4",
}


def write_family(directory: Path) -> tuple[str, list[str]]:
    rng = np.random.default_rng(20260)
    base = TensorBundle(metadata={"family": "golden"})
    for name, (shape, dtype) in SHAPES.items():
        base.add(name, rng.standard_normal(shape).astype(dtype))
    base_path = directory / "base.drmb"
    write_bundle(base, base_path)
    task_paths = []
    for t in range(N_TASKS):
        task = TensorBundle()
        for name, (shape, dtype) in SHAPES.items():
            task.add(name, (base[name] + 0.1 * rng.standard_normal(shape)).astype(dtype))
        path = directory / f"t{t}.drmb"
        write_bundle(task, path)
        task_paths.append(str(path))
    return str(base_path), task_paths


def merged_sha256(directory: Path, case: str) -> str:
    base, tasks = write_family(directory)
    out = directory / f"{case}.drmb"
    argv = ["merge", "--base", base, "--out", str(out), *CASES[case]]
    for task in tasks:
        argv += ["--task", task]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_output_hash_unchanged(case, tmp_path, monkeypatch):
    monkeypatch.delenv("DRM_THREADS", raising=False)
    assert merged_sha256(tmp_path, case) == GOLDEN[case]


@pytest.mark.parametrize("case", CASES)
def test_serial_matches_pooled(case, tmp_path, monkeypatch):
    monkeypatch.delenv("DRM_THREADS", raising=False)
    pooled = merged_sha256(tmp_path, case)
    monkeypatch.setenv("DRM_THREADS", "1")
    assert merged_sha256(tmp_path, case) == pooled


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            with contextlib.redirect_stdout(io.StringIO()):
                digest = merged_sha256(Path(tmp), case)
            print(f'    "{case}": "{digest}",')

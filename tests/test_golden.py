"""Golden output hashes: `drm merge`, `drm tune` and `drm analyze` must keep
writing the same bytes.

A small fixed family (float32 and float64 tensors, biases, four matrix
layers so the layer pool runs) is merged with every method, and with TIES
and drm-h with pruning switched off. The SHA-256 of each output bundle is
compared with a recorded value; refactors and speed-ups must leave these
hashes unchanged, and a serial run must write the same bytes as a pooled
one. The same family is analyzed with every report kind, and a small
synthetic suite is tuned over the default grids with six methods; their
JSON outputs are pinned the same way. The drm-h and drm-v hashes depend on
the LAPACK/BLAS build; after an intended output change, or on a platform
whose BLAS rounds differently, print the current values with
``PYTHONPATH=src python tests/test_golden.py``.
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

TUNE_METHODS = ("drm-h", "drm-v", "ties", "dare-ties", "ta", "avg")
TUNE_GOLDEN = {
    "drm-h": "f1934087abc586679acebb2ddbff73992bc97e6bcfdad4e0e2cda127e9439130",
    "drm-v": "8e125d6a11c734671ffd28cbfb38e6ce9e565dc1e7c6975a1c719a6babf963b5",
    "ties": "78d08d8cadb7bb74563b595a6760b85e7ebb13e0c73030d74672cebdc7cb7fdd",
    "dare-ties": "ba7ef9c36df84a7ecf43bb83c34aff81d33dc398128af19a817ae024dfd72994",
    "ta": "092cc935257874ea6aec560ee6fdd0514eec26c825e2009b127c93406b6face3",
    "avg": "60a585d7cbcafd864e22be2f6218639dce25e73b5ac7cd2ee8de77f08fca2da7",
}

ANALYSIS_KINDS = ("prune-density", "sign-agreement", "svd-bound", "spectrum")
ANALYSIS_GOLDEN = {
    "prune-density": "df7f55de315b5968c78d87344f59b64c4cf10432c06d69181b052d2df752c574",
    "sign-agreement": "0fd8af63765410fbd241a9450baea48f164543a425ede4532f42f9fc4f68e146",
    "svd-bound": "a2c6a6e894ab880580f2264e958407ae13f7464ed617da928efe4a257f6197a0",
    "spectrum": "d9d4cae8a2f2d66b2f0f947130d779683955bfe0c7025b93952f40c8c60572f2",
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


def tune_sha256(directory: Path, method: str) -> str:
    out = directory / f"tune-{method}.json"
    argv = ["tune", "--method", method, "--tasks", "3", "--dim", "12,8", "--out", str(out)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def analysis_sha256(directory: Path, kind: str) -> str:
    base, tasks = write_family(directory)
    out = directory / f"{kind}.json"
    argv = ["analyze", kind, "--base", base, "--out", str(out)]
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


@pytest.mark.parametrize("method", TUNE_METHODS)
def test_tune_hash_unchanged(method, tmp_path):
    assert tune_sha256(tmp_path, method) == TUNE_GOLDEN[method]


@pytest.mark.parametrize("kind", ANALYSIS_KINDS)
def test_analysis_hash_unchanged(kind, tmp_path):
    assert analysis_sha256(tmp_path, kind) == ANALYSIS_GOLDEN[kind]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for title, hasher, keys in (
            ("GOLDEN", merged_sha256, CASES),
            ("TUNE_GOLDEN", tune_sha256, TUNE_METHODS),
            ("ANALYSIS_GOLDEN", analysis_sha256, ANALYSIS_KINDS),
        ):
            print(f"{title} = {{")
            for key in keys:
                with contextlib.redirect_stdout(io.StringIO()):
                    digest = hasher(Path(tmp), key)
                print(f'    "{key}": "{digest}",')
            print("}")

"""Golden output hashes: `drm merge`, `drm tune` and `drm analyze` must keep
writing the same bytes.

A small fixed family (float32 and float64 tensors, biases, four matrix
layers so the layer pool runs) is merged with every method, with TIES
and drm-h with pruning switched off, with drm-h and drm-v dropping half
the rank, with DARE-TIES at drop rates 0.5 and 0 and without the
disjoint average, with TIES without the sign election, with simple
averaging given a coefficient it records but ignores, and with drm-h,
task arithmetic, TIES and DARE-TIES given one coefficient per task. A second family, one 96x160 float32
layer and one bias with four tasks, is merged with every method at a size that reaches
numpy's blocked loops. The SHA-256 of each output bundle is compared
with a recorded value; refactors and speed-ups must leave these hashes
unchanged, and a serial run must write the same bytes as a pooled one. A
third family, one 48x32 float64 layer of rank-2 adapter deltas and one
bias with four tasks, is merged with drm-h and drm-v, also dropping half
the rank; its stacks are rank-deficient, so it pins the ``gesdd`` route
of the stacked SVD, which the dense families never take. The small
family is analyzed with every report kind, and its sign agreement in
every tally space, and a small synthetic suite is tuned over the default
grids with six methods, as are, with drm-h, the benchmark's ``tune-grid``
suite at seeds 0 and 1 and a nine-task suite; their JSON outputs are
pinned the same way, and each is checked against the point-by-point tune
oracle of ``tests/oracles.py`` (scores to 1e-12 relative, the same best
point). The
drm-h and drm-v hashes depend on the LAPACK/BLAS build; after an
intended output change, or on a platform whose BLAS rounds differently,
print the current values with
``PYTHONPATH=src python tests/test_golden.py``, which marks every hash
that differs from its recorded value.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from drm.bundle import TensorBundle, materialize_low_rank, read_bundle, write_bundle
from drm.cli import _CLI_METHODS, build_parser, main
from drm.harness import default_grids, synth_suite
from oracles import tune_oracle, tune_score_close

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
    "drm-h-rank-drop": ["--method", "drm-h", "--rank-drop", "0.5"],
    "drm-v-rank-drop": ["--method", "drm-v", "--rank-drop", "0.5"],
    "dare-ties-drop-half": ["--method", "dare-ties", "--dare-drop", "0.5"],
    "dare-ties-no-drop": ["--method", "dare-ties", "--dare-drop", "0"],
    "dare-ties-no-disjoint": ["--method", "dare-ties", "--no-disjoint"],
    "ties-no-sign-elect": ["--method", "ties", "--no-sign-elect"],
    "avg-lambda": ["--method", "avg", "--lambda", "0.5"],
    "drm-h-lambda-list": ["--method", "drm-h", "--lambda", "0.5,1,1.5"],
    "ta-lambda-list": ["--method", "ta", "--lambda", "0.5,1,1.5"],
    "ties-lambda-list": ["--method", "ties", "--lambda", "0.5,1,1.5"],
    "dare-ties-lambda-list": ["--method", "dare-ties", "--lambda", "0.5,1,1.5"],
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
    "drm-h-rank-drop": "ec8811cd2ab77ceeebc3feeb996d11ac832304f2b5a6ff4b53459ebfe441de80",
    "drm-v-rank-drop": "5f124e938fe954a901e628792678e3f25581a1e3e993ded36edabcbaae931ba2",
    "dare-ties-drop-half": "ecaea122624af77883b4aaa806dfbe739aa45c15ed72475ac3a8e4a643940142",
    "dare-ties-no-drop": "0c2d781a12ecba54e6416fc3996e7585bb7f8595509d6f04594faaca62c71d2a",
    "dare-ties-no-disjoint": "62c73c669e9d8d4a59575c10beb6caafa3a46ea2122ea58034be94d1fa41f9b7",
    "ties-no-sign-elect": "c997e5ab1b80d6bf40a37fe6707c5d3f039666933f664eaa19f8ae958869b532",
    "avg-lambda": "ab14b323210a000f1b8a5a1d32f410dfd02b1618299a456a4793328dc4111e65",
    "drm-h-lambda-list": "3c6a160b3dcc36b189ed2cc96ad83874d3ddff6c9c76eebc4f7cee3ddbfcde71",
    "ta-lambda-list": "2aa269c0833f9266eae6b85ecaeb7a234336fbb665705e70191b85e682fbfe00",
    "ties-lambda-list": "1275f395879112e74ebd579ef6d376c79d3210f0c4e460298ab8db7fd5af915d",
    "dare-ties-lambda-list": "a87c7df0c93f2007c5d9e694963674e2c986fabaa938bf3cf2ddfa8b15d0d3b0",
}

WIDE_SHAPES = {
    "blk.w": ((96, 160), np.float32),
    "blk.b": ((96,), np.float32),
}
WIDE_TASKS = 4
WIDE_METHODS = ("drm-h", "drm-v", "avg", "ta", "ties", "dare-ties")
WIDE_GOLDEN = {
    "drm-h": "4dc7b26aa99e4f8914c541a1c0afaa486a878ebad53ad765b40077b956fc1b29",
    "drm-v": "aebb7fd5228048402920f4597f3386179a07b8910fb5f9edec9e86ea12e6f2b2",
    "avg": "8cbda1693a238b3767f2c6f892877dcce65715d9768268366cdb67b6170fd970",
    "ta": "4b6793733289964acda09a8d8c0dc902deb898df21d4288d0dfd52f44b08c3d9",
    "ties": "a64a5a8fba29352f5577daa79b281193d15c1e46110a073974fa3d529e0ffcf8",
    "dare-ties": "8b9f6ea7b4d5b8b045f537392db4c9840b64506b905db49495f5b5e3e45a4b60",
}

LOW_RANK_SHAPE = (48, 32)
LOW_RANK_TASKS = 4
LOW_RANK = 2
LOW_RANK_METHODS = ("drm-h", "drm-v", "drm-h-rank-drop", "drm-v-rank-drop")
LOW_RANK_GOLDEN = {
    "drm-h": "7b3f55a80653d295744f8b613963779824e667a5c31613f84622982ad3a2c69c",
    "drm-v": "ef10ae9be0ca52b952f0646cbb2e14079b5c04f58007aa4bcaed3401b18673b9",
    "drm-h-rank-drop": "afd6c7ba6e2b9122020dff5513e324f051d2319caa42b75276a88a16a383f211",
    "drm-v-rank-drop": "7c50c3b57ce73e78f39a0c3a284157c51bde7b9c0dc7e46f1a04c0d97a60f7d3",
}

TUNE_METHODS = ("drm-h", "drm-v", "ties", "dare-ties", "ta", "avg")
# The benchmark's tune-grid suite. The nine-task case hands np.mean eight or
# more per-task scores, which it sums pairwise.
TUNE_BENCH = ["--tasks", "4", "--dim", "128,96", "--samples", "400", "--noise", "0.02"]
TUNE_CASES = {
    **{m: ["--method", m, "--tasks", "3", "--dim", "12,8"] for m in TUNE_METHODS},
    "drm-h-bench-seed0": ["--method", "drm-h", *TUNE_BENCH, "--seed", "0"],
    "drm-h-bench-seed1": ["--method", "drm-h", *TUNE_BENCH, "--seed", "1"],
    "drm-h-9-tasks": ["--method", "drm-h", "--tasks", "9", "--dim", "12,8"],
}
TUNE_GOLDEN = {
    "drm-h": "dd04e312b0b8280ee4da7e61ad19d94b4489740f0e1b7df53060fe8bd218b2ec",
    "drm-v": "88525785c1270144d4d07be843030f3a89cdc794acc4ac585d483232fc5d3c9b",
    "ties": "e8a8ab9e23e6eea44c33e744cbf56c01c3abb87959153526af21c5be6c976053",
    "dare-ties": "cf2c6e22d15b6f08551060c7bbab069c4c25aa834e02a04e6ce544ebfd46a6d5",
    "ta": "22965d005fb1a2b1b1ea96f70b0749d94ead4be3ea0e6d167d5d522f18da2da0",
    "avg": "632668465638a767ae7f81650cba251492ea1c400a5e30ffc23d0a1dcf6b0998",
    "drm-h-bench-seed0": "0cd9368628d9404a8f8fc3baeaafa20fb3f34dec266ac7989100f40fbf6ccd12",
    "drm-h-bench-seed1": "3884d78880dbd0c382598eefbf510a3a37fcad0636f2ba9e3be565de1bd8b750",
    "drm-h-9-tasks": "3576daa9c941661fb59fc7c86ea12ef5bef2d2fa6b715a5dc74cc983c1eda382",
}

ANALYSIS_KINDS = ("prune-density", "sign-agreement", "svd-bound", "spectrum")
ANALYSIS_GOLDEN = {
    "prune-density": "df7f55de315b5968c78d87344f59b64c4cf10432c06d69181b052d2df752c574",
    "sign-agreement": "0fd8af63765410fbd241a9450baea48f164543a425ede4532f42f9fc4f68e146",
    "svd-bound": "63efc5bde9105b71118bff26ae495261906a9c5cfbd38446867228fd07a2166d",
    "spectrum": "d9d4cae8a2f2d66b2f0f947130d779683955bfe0c7025b93952f40c8c60572f2",
}

SPACES = ("original", "decomposed-h", "decomposed-v", "backprojected-h", "backprojected-v")
SPACE_GOLDEN = {
    "original": "0fd8af63765410fbd241a9450baea48f164543a425ede4532f42f9fc4f68e146",
    "decomposed-h": "adec3b66896178366a483c146db70f4003efa85349cd0cd3c53aa9902e068fce",
    "decomposed-v": "987fbff8eae4de62b91c583989742c7bb4f58b08e345028424bc306fd63fd6be",
    "backprojected-h": "4ef3d974cd51754ab0241b626bfa89ae6148985a60d212ce9379ddc98b6681d3",
    "backprojected-v": "bd7c745f8a4398f41f1ec7b8e0ca562a6da7b75ff81711c92aa6a69a39e86fdb",
}


def write_family(
    directory: Path, shapes: dict = SHAPES, n_tasks: int = N_TASKS
) -> tuple[str, list[str]]:
    rng = np.random.default_rng(20260)
    base = TensorBundle(metadata={"family": "golden"})
    for name, (shape, dtype) in shapes.items():
        base.add(name, rng.standard_normal(shape).astype(dtype))
    base_path = directory / "base.drmb"
    write_bundle(base, base_path)
    task_paths = []
    for t in range(n_tasks):
        task = TensorBundle()
        for name, (shape, dtype) in shapes.items():
            task.add(name, (base[name] + 0.1 * rng.standard_normal(shape)).astype(dtype))
        path = directory / f"t{t}.drmb"
        write_bundle(task, path)
        task_paths.append(str(path))
    return str(base_path), task_paths


def write_low_rank_family(directory: Path) -> tuple[str, list[str]]:
    """A float64 layer whose task deltas are rank-2 adapters, plus a bias."""
    rng = np.random.default_rng(20261)
    m, n = LOW_RANK_SHAPE
    base = TensorBundle(metadata={"family": "golden-low-rank"})
    base.add("lr.w", rng.standard_normal((m, n)))
    base.add("lr.b", rng.standard_normal(m))
    base_path = directory / "lr-base.drmb"
    write_bundle(base, base_path)
    task_paths = []
    for t in range(LOW_RANK_TASKS):
        adapter = materialize_low_rank(
            rng.standard_normal((LOW_RANK, n)), rng.standard_normal((m, LOW_RANK)), 0.5
        )
        task = TensorBundle()
        task.add("lr.w", base["lr.w"] + adapter)
        task.add("lr.b", base["lr.b"] + 0.1 * rng.standard_normal(m))
        path = directory / f"lr-t{t}.drmb"
        write_bundle(task, path)
        task_paths.append(str(path))
    return str(base_path), task_paths


def run_merge(directory: Path, case: str, base: str, tasks: list[str]) -> str:
    out = directory / f"{case}.drmb"
    argv = ["merge", "--base", base, "--out", str(out), *CASES[case]]
    for task in tasks:
        argv += ["--task", task]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def merged_sha256(
    directory: Path, case: str, shapes: dict = SHAPES, n_tasks: int = N_TASKS
) -> str:
    return run_merge(directory, case, *write_family(directory, shapes, n_tasks))


def wide_sha256(directory: Path, method: str) -> str:
    return merged_sha256(directory, method, WIDE_SHAPES, WIDE_TASKS)


def low_rank_sha256(directory: Path, method: str) -> str:
    return run_merge(directory, method, *write_low_rank_family(directory))


def space_sha256(directory: Path, space: str) -> str:
    return analysis_sha256(directory, "sign-agreement", "--space", space)


def tune_sha256(directory: Path, case: str) -> str:
    out = directory / f"tune-{case}.json"
    argv = ["tune", *TUNE_CASES[case], "--out", str(out)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def analysis_sha256(directory: Path, kind: str, *extra: str) -> str:
    base, tasks = write_family(directory)
    out = directory / f"{kind}.json"
    argv = ["analyze", kind, "--base", base, "--out", str(out), *extra]
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
    # An explicit cap: left unset, drm-h/drm-v would merge serially too.
    monkeypatch.setenv("DRM_THREADS", "2")
    pooled = merged_sha256(tmp_path, case)
    monkeypatch.setenv("DRM_THREADS", "1")
    assert merged_sha256(tmp_path, case) == pooled


@pytest.mark.parametrize("method", WIDE_METHODS)
def test_wide_output_hash_unchanged(method, tmp_path, monkeypatch):
    monkeypatch.delenv("DRM_THREADS", raising=False)
    assert wide_sha256(tmp_path, method) == WIDE_GOLDEN[method]


@pytest.mark.parametrize("method", LOW_RANK_METHODS)
def test_low_rank_output_hash_unchanged(method, tmp_path, monkeypatch, gesdd_calls):
    monkeypatch.delenv("DRM_THREADS", raising=False)
    base, tasks = write_low_rank_family(tmp_path)
    base_w = read_bundle(base)["lr.w"]
    deltas = [read_bundle(task)["lr.w"] - base_w for task in tasks]
    if method.startswith("drm-v"):
        deltas = [delta.T for delta in deltas]
    stack = np.concatenate(deltas, axis=1)
    assert np.linalg.matrix_rank(stack) == LOW_RANK_TASKS * LOW_RANK < min(stack.shape)

    # A rank-deficient stack fails the Gram route's gate, so the stacked SVD
    # is LAPACK's gesdd, which factors the wide stack's tall transpose.
    digest = run_merge(tmp_path, method, base, tasks)
    assert gesdd_calls == [stack.T.shape]
    assert digest == LOW_RANK_GOLDEN[method]


@pytest.mark.parametrize("case", TUNE_CASES)
def test_tune_hash_unchanged(case, tmp_path):
    assert tune_sha256(tmp_path, case) == TUNE_GOLDEN[case]


@pytest.mark.parametrize("case", TUNE_CASES)
def test_tune_case_matches_point_by_point_oracle(case, tmp_path):
    # What a tune hash pins: every score within 1e-12 relative of merging
    # at the point and scoring base + delta, and the oracle's best point.
    args = build_parser().parse_args(["tune", *TUNE_CASES[case]])
    m, n = (int(v) for v in args.dim.split(","))
    base, tasks = synth_suite(args.seed, args.tasks, m, n, args.samples,
                              ridge=args.ridge, noise=args.noise)
    method = _CLI_METHODS[args.method]
    grid, best, per_task = tune_oracle(base, tasks, method, *default_grids(method), args.seed)
    out = tmp_path / "tune.json"
    assert main(["tune", *TUNE_CASES[case], "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))

    assert [(row["retain"], row["lambda"]) for row in data["grid"]] == [row[:2] for row in grid]
    assert all(tune_score_close(row["score"], want[2]) for row, want in zip(data["grid"], grid))
    assert (data["best"]["retain"], data["best"]["lambda"]) == best[:2]
    assert tune_score_close(data["best"]["score"], best[2])
    assert len(data["per_task_scores"]) == len(per_task)
    assert all(map(tune_score_close, data["per_task_scores"], per_task))


@pytest.mark.parametrize("kind", ANALYSIS_KINDS)
def test_analysis_hash_unchanged(kind, tmp_path):
    assert analysis_sha256(tmp_path, kind) == ANALYSIS_GOLDEN[kind]


@pytest.mark.parametrize("space", SPACES)
def test_sign_agreement_space_hash_unchanged(space, tmp_path):
    assert space_sha256(tmp_path, space) == SPACE_GOLDEN[space]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    # Prints every table as it should now read; a hash that differs from
    # the recorded one is marked with the recorded value.
    with tempfile.TemporaryDirectory() as tmp:
        for title, hasher, keys, recorded in (
            ("GOLDEN", merged_sha256, CASES, GOLDEN),
            ("WIDE_GOLDEN", wide_sha256, WIDE_METHODS, WIDE_GOLDEN),
            ("LOW_RANK_GOLDEN", low_rank_sha256, LOW_RANK_METHODS, LOW_RANK_GOLDEN),
            ("TUNE_GOLDEN", tune_sha256, TUNE_CASES, TUNE_GOLDEN),
            ("ANALYSIS_GOLDEN", analysis_sha256, ANALYSIS_KINDS, ANALYSIS_GOLDEN),
            ("SPACE_GOLDEN", space_sha256, SPACES, SPACE_GOLDEN),
        ):
            print(f"{title} = {{")
            for key in keys:
                with contextlib.redirect_stdout(io.StringIO()):
                    digest = hasher(Path(tmp), key)
                mark = "" if digest == recorded.get(key) else f"  # CHANGED, was {recorded.get(key)}"
                print(f'    "{key}": "{digest}",{mark}')
            print("}")

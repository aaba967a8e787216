"""Golden output hashes: `drm merge`, `drm tune` and `drm analyze` must keep
writing the same bytes.

A small fixed family (float32 and float64 tensors, biases, four matrix
layers so the layer pool runs) is merged with every method, with TIES
and drm-h keeping every entry (``--retain 1.0``), with drm-h and drm-v dropping half
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
that differs from its recorded value. Each method's merge of the small
family also pins its calls per matrix layer of the stacked SVD, the
prune and the disjoint-merge tail.
"""

import collections
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
    "ties-no-prune": ["--method", "ties", "--retain", "1.0"],
    "drm-h-no-prune": ["--method", "drm-h", "--retain", "1.0"],
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
    "drm-h": "47dcb5d62d5b88cc7bf71fed144d7b4e44681824094df980ba98f5ad123a4336",
    "drm-v": "2a8cba853056b9a61fa168d9a497e5a104369fd18565bd7e47778de190a10ec0",
    "avg": "89da0149c15aa7549dc6be4252775370ca72397300825e34ddba539142225fd1",
    "ta": "a5f800e2e6f3413c3704a8fc63d73daef2143d90d2eb923b65aace8aab1fa7a6",
    "ties": "e50cda2d331c32934dd64c38cc6728afeca56d0c9d2e385f1d78d420e080a732",
    "dare-ties": "239a50814f207d139ce8a624e8471a265beb607afae650f5d5cb61238baa1b01",
    "ties-no-prune": "73b00d19c226df0d4e16998ac4eb55a616a682f7ac29c1dd8625efe2d34c211e",
    "drm-h-no-prune": "44bcbeddf3de7bf8bbd50d2fbb2ec26c91a87e99a0b9be870d9fb3c3d12426bc",
    "drm-h-rank-drop": "622b2eb01f22fa613d8914a02ce966ce58d08a682413382bad0cf2909ae98e74",
    "drm-v-rank-drop": "43200f66f7ae1258446cea696b0c258fda96ad16ff308f10fdfe31ba0a08961a",
    "dare-ties-drop-half": "d4f3691ce80c8b14e0752ff5a79513519b76f9fe6b6e0731d4ae1c824f6dcbd7",
    "dare-ties-no-drop": "3c74ae48730deabccaab9c168a83f51aa583dd68e87b32967d354b82d563bad5",
    "dare-ties-no-disjoint": "0905564cf554ceec3acda824bd054e7ade793b19064bb40357d6773ec461641b",
    "ties-no-sign-elect": "cfcfdf2664b94cec987ef110b409862a22d512347cc5e885b69d61f481320cd4",
    "avg-lambda": "c57444aaebb8ec96cc090420b7b21d23fca2ee331b5fef5b142534d1d7f2e5d9",
    "drm-h-lambda-list": "629dac36a328625466a6c9e094c6f415cf872832ff721fd39568d9760999b7c4",
    "ta-lambda-list": "50c7f8d50a1989b6cef337d764996cb4ea921a7c37f9ca81cd704d5f165c1038",
    "ties-lambda-list": "b197d3a18eaf81faf723b84d45d94ab0a4f4fb560dcb087ec5af82bdad7aca5c",
    "dare-ties-lambda-list": "235957d4efae8736b5b272d1b66e7ce575deb4c3c24802ba48deedc0734ce9f7",
}

WIDE_SHAPES = {
    "blk.w": ((96, 160), np.float32),
    "blk.b": ((96,), np.float32),
}
WIDE_TASKS = 4
WIDE_METHODS = ("drm-h", "drm-v", "avg", "ta", "ties", "dare-ties")
WIDE_GOLDEN = {
    "drm-h": "b8ce274edb9ffa109d2863f87a90909ec025a15e333c1acd2d26000558fac917",
    "drm-v": "d32a64fc473e1237e468ce38b8fadd7d3e9e98350dbe05d8241d5b97273faf2d",
    "avg": "2539e9e62fdd43caf21ff0896a333c45c4fad59f68204ee4fd1e3475d80d1b9e",
    "ta": "ccf9f7fa96325b8cd8bf4816be4e5018436e7efbae70e781e4c6f0a2bc5d843f",
    "ties": "19c169a30dcf00630f1858373f3c599bce363db7b5fb14cf07fcc845efaddc30",
    "dare-ties": "6044da5c6fb6e27fde29f97e0330a13b02caf97c06654d48b44b9d762f626b09",
}

LOW_RANK_SHAPE = (48, 32)
LOW_RANK_TASKS = 4
LOW_RANK = 2
LOW_RANK_METHODS = ("drm-h", "drm-v", "drm-h-rank-drop", "drm-v-rank-drop")
LOW_RANK_GOLDEN = {
    "drm-h": "7495610e744dc2c068755b431699449b4c8104e8c348ed7c9dff68f2bd77108d",
    "drm-v": "e92d31fefdf9d7256dd3274bd94d019618a9002a666d23bb4433d005cb53c57b",
    "drm-h-rank-drop": "1000d210c83e13dcefef5206fa364a7bd6def61aaf0dd08f886d01100107f36c",
    "drm-v-rank-drop": "cd535968de957d5da1dc1575cd148c8d7c6172254091b50592a5ce61eca3a220",
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


# Calls per matrix layer of a bundle merge: thin_svd, prune_topk and
# disjoint_average (the disjoint-merge tail).
WORK_PER_LAYER = {
    "drm-h": (1, 1, 1),
    "drm-v": (1, 1, 1),
    "ties": (0, 1, 1),
    "dare-ties": (0, 0, 1),
    "ta": (0, 0, 0),
    "avg": (0, 0, 0),
}
# The prune's selection passes: _partition_cutoff once per pool of the
# family's small layers, _bracket_mask only on a pool of more than
# 4 * drm.engine._SAMPLE entries.
SELECTION = ("_partition_cutoff", "_bracket_mask")


@pytest.mark.parametrize("method", WORK_PER_LAYER)
def test_merge_work_counts_per_layer(method, tmp_path, monkeypatch, call_counts):
    # Left unset, DRM_THREADS runs the baselines' layers on a pool.
    monkeypatch.delenv("DRM_THREADS", raising=False)
    work_counts = call_counts("thin_svd", "prune_topk", "disjoint_average", *SELECTION)
    base, tasks = write_family(tmp_path)
    layers = sum(len(shape) == 2 for shape, _ in SHAPES.values())
    svds, prunes, tails = WORK_PER_LAYER[method]
    # TIES prunes each task on its own, the drm methods all tasks at once.
    pools = prunes * (N_TASKS if method == "ties" else 1)
    # At --retain 1.0 the prune takes its keep-all fill and selects nothing.
    for retain, partitions in (("0.2", pools * layers), ("1.0", 0)):
        work_counts.clear()
        argv = ["merge", "--method", method, "--retain", retain, "--base", base,
                "--out", str(tmp_path / "merged.drmb")]
        assert main(argv + [arg for task in tasks for arg in ("--task", task)]) == 0
        # A name the table leaves out, _bracket_mask here, ran no time.
        assert work_counts == collections.Counter({
            "thin_svd": svds * layers,
            "prune_topk": prunes * layers,
            "disjoint_average": tails * layers,
            "_partition_cutoff": partitions,
        }), retain


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

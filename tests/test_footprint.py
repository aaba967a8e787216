"""What each ``drm`` command loads, read from ``sys.modules`` of a fresh
interpreter once the command has returned.

``import drm`` loads everything a merge runs (bundle I/O, the engine and
its linear algebra), so a merge pays for its code before the command
starts. Code that only other commands run (the analyses, the synthetic
harness, the DARE key hash, the layer pool's ``concurrent.futures``) loads
in the command that runs it.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from drm.bundle import TensorBundle, write_bundle

MERGE_MODULES = ("drm.bundle", "drm.engine", "drm.linalg", "drm.errors")
NOT_IN_A_DRM_MERGE = ("drm.analysis", "drm.harness", "hashlib", "concurrent.futures", "logging")

# Runs one command, then prints its exit code and the loaded modules as
# the last line of stdout.
RUN_COMMAND = (
    "import json, sys\n"
    "from drm import cli\n"
    "rc = cli.main(sys.argv[1:])\n"
    "print(json.dumps({'rc': rc, 'modules': sorted(sys.modules)}))\n"
)


def fresh_python(code, *args, **env):
    """The last stdout line of ``code``, run in a fresh interpreter that
    imports drm from this checkout's ``src``, as JSON."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=60, env=child_env(**env))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_command(*argv, **env):
    """(exit code, loaded modules) of one ``drm`` command in a fresh interpreter."""
    result = fresh_python(RUN_COMMAND, *argv, **env)
    return result["rc"], set(result["modules"])


@pytest.fixture()
def bundles(tmp_path):
    """``--base``/``--task`` arguments for a base and two tasks, each with
    two matrices and a bias, and an ``--out`` path."""
    rng = np.random.default_rng(5)
    shapes = {"a.w": (6, 5), "b.w": (5, 4), "a.b": (6,)}
    argv = []
    for flag, name in (("--base", "base"), ("--task", "t0"), ("--task", "t1")):
        path = tmp_path / f"{name}.drmb"
        write_bundle(TensorBundle({k: rng.standard_normal(s) for k, s in shapes.items()}), path)
        argv += [flag, str(path)]
    return argv + ["--out", str(tmp_path / "out")]


def test_import_drm_loads_what_a_merge_runs():
    # The benchmark's setup_s ends when ``import drm`` returns; a merge
    # module first loaded later would move its cost out of that clock.
    modules = fresh_python("import json, sys, drm\nprint(json.dumps(sorted(sys.modules)))")
    assert set(MERGE_MODULES) <= set(modules)


def test_drm_merge_loads_no_analysis_harness_hash_or_pool(bundles):
    rc, modules = run_command("merge", "--method", "drm-h", *bundles)
    assert rc == 0
    assert sorted(modules & set(NOT_IN_A_DRM_MERGE)) == []


def test_ties_merge_still_runs_its_layer_pool(bundles):
    # Two matrix layers and DRM_THREADS=2: the pool starts, and with it
    # its executor module.
    rc, modules = run_command("merge", "--method", "ties", *bundles, DRM_THREADS="2")
    assert rc == 0
    assert "concurrent.futures.thread" in modules


def test_dare_ties_merge_loads_the_key_hash(bundles):
    rc, modules = run_command("merge", "--method", "dare-ties", *bundles, DRM_THREADS="1")
    assert rc == 0
    assert "hashlib" in modules
    assert "concurrent.futures" not in modules


def test_analyze_loads_analysis_only(bundles):
    rc, modules = run_command("analyze", "spectrum", *bundles)
    assert rc == 0
    assert "drm.analysis" in modules
    assert "drm.harness" not in modules


@pytest.mark.parametrize("argv", [
    ["tune", "--method", "ties", "--grid-retain", "0.5", "--grid-lambda", "1.0"],
    ["bench", "synthetic"],
], ids=["tune", "bench"])
def test_tune_and_bench_load_harness_only(argv):
    rc, modules = run_command(*argv, "--tasks", "2", "--dim", "5,4", "--samples", "40")
    assert rc == 0
    assert "drm.harness" in modules
    assert "drm.analysis" not in modules


def test_every_exported_name_resolves_and_is_listed():
    # In a fresh interpreter, so that the names of modules loaded on first
    # use resolve through the package and not through an earlier import.
    result = fresh_python(
        "import json, sys, drm\n"
        "resolved = [n for n in drm.__all__ if getattr(drm, n, None) is not None]\n"
        "modules = [drm.analysis.__name__, drm.harness.__name__]\n"
        "same = drm.grid_tune is drm.harness.grid_tune and drm.SpectrumReport is "
        "drm.analysis.SpectrumReport\n"
        "try:\n"
        "    drm.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'all': drm.__all__, 'resolved': resolved, 'dir': dir(drm),\n"
        "                  'modules': modules, 'same': same, 'missing': missing}))\n"
    )
    assert result["resolved"] == result["all"]
    assert set(result["all"]) <= set(result["dir"])
    assert {"analysis", "harness"} <= set(result["dir"])
    assert result["modules"] == ["drm.analysis", "drm.harness"]
    assert result["same"] is True
    assert result["missing"] == "module 'drm' has no attribute 'no_such_name'"

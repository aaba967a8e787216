import collections
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import drm.baselines
import drm.engine
from drm import linalg

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**env):
    """The environment of a child interpreter that imports drm from this
    checkout's ``src``: the parent's, without ``DRM_THREADS``, on one BLAS
    thread, with ``env`` on top."""
    child = {k: v for k, v in os.environ.items() if k != "DRM_THREADS"}
    child.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", **env)
    return child


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the call's result and the peak, in
    bytes, of the memory tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture()
def call_counts(monkeypatch):
    """``call_counts(*names)`` counts, from then on and from any layer
    worker, the calls of each named function of drm.engine, and returns the
    Counter. A name that drm.baselines holds too is counted there, since
    the baselines call the engine's prune and tail by their own names."""
    counts, lock = collections.Counter(), threading.Lock()

    def count(*names):
        for name in names:
            real = getattr(drm.engine, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                with lock:
                    counts[_name] += 1
                return _real(*args, **kwargs)

            for module in (drm.engine, drm.baselines):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        return counts

    return count


@pytest.fixture()
def gesdd_calls(monkeypatch):
    """Shapes of the matrices handed to LAPACK's gesdd, one per
    factorization: at the direct dgesdd call (its workspace query is not
    counted), and at np.linalg.svd, which thin_svd calls only where the
    direct call is unavailable."""
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    real_dgesdd = linalg._dgesdd()
    if real_dgesdd is not None:

        @linalg._DGESDD
        def counting_dgesdd(jobz, m, n, *rest):
            if rest[8][0] != -1:  # lwork; -1 asks for the workspace size
                calls.append((m[0], n[0]))
            real_dgesdd(jobz, m, n, *rest)

        monkeypatch.setattr(linalg, "_dgesdd", lambda: counting_dgesdd)
    return calls

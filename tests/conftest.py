import numpy as np
import pytest

from drm import linalg


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

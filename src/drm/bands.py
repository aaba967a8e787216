"""Row bands: one layer's element-wise stages split over the rows of its
stack and run on a few threads.

A stage hands :meth:`BandPool.map` a kernel that works on a range of rows
(the second axis of an N x r x n stack, the first of an r x n plane). Each
kernel does, for every entry, the floating-point operations the whole-stack
code does, so a stage's bytes never depend on how many bands it ran in.
numpy releases the interpreter lock inside its loops, so the bands run at
once. Kernels call numpy only: no BLAS, and nothing the layer's own thread
would record or time.
"""

from __future__ import annotations

import concurrent.futures
import threading

# A stack with fewer entries than this runs as one band on the calling
# thread. Below it, handing a band to another thread and waiting for it
# costs about what the band saves: on a 2-core VM two bands of a 4 x 256 x
# 256 stack (2 MiB of float64) ran the sign election faster than one band
# and the agreement mask, the average and the prune slower, while two bands
# of a 4 x 256 x 512 stack ran none of them slower.
FLOOR = 1 << 19


class BandPool:
    """The threads that run one layer's stages over row bands.

    A stage on a stack of at least :data:`FLOOR` entries runs in up to
    ``width`` bands of at least two rows: the calling thread runs the first
    and pool threads the rest. ``helpers`` is how many pool threads may
    exist, shared by every layer in flight (``width - 1`` for one layer).
    The threads start with the first banded stage, so a pool of width 1,
    or one that only sees small stacks, starts none. Use it as a context
    manager, which joins its threads.
    """

    def __init__(self, width: int, helpers: int | None = None):
        helpers = width - 1 if helpers is None else helpers
        self.width = max(1, width) if helpers > 0 else 1
        self._helpers = helpers
        self._executor = None  # made by the first banded stage
        self._lock = threading.Lock()

    def bands(self, n_rows: int, entries: int) -> list:
        """The row ranges, as slices, of the bands of a stack of ``entries``
        entries with ``n_rows`` rows. Every band has at least two rows,
        because numpy may sum a row reduction over a one-row band of a
        strided array in another order than over the whole array."""
        count = 1 if entries < FLOOR else min(self.width, n_rows // 2)
        if count <= 1:
            return [slice(None)]
        bounds = [n_rows * i // count for i in range(count + 1)]
        return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]

    def map(self, kernel, n_rows: int, entries: int) -> list:
        """``kernel(rows)`` for each of :meth:`bands`, in band order: the
        first band on this thread, the rest on pool threads. Every band has
        finished when this returns or raises."""
        first, *rest = self.bands(n_rows, entries)
        if not rest:
            return [kernel(first)]
        with self._lock:
            if self._executor is None:
                self._executor = concurrent.futures.ThreadPoolExecutor(
                    self._helpers, thread_name_prefix="drm-band"
                )
        futures = [self._executor.submit(kernel, rows) for rows in rest]
        try:
            head = kernel(first)
        finally:
            concurrent.futures.wait(futures)
        return [head, *(future.result() for future in futures)]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()

    def __enter__(self) -> "BandPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# The pool of a stage called without one: every stack is one band.
INLINE = BandPool(1)

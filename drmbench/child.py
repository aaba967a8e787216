"""One benchmark sample: import drm, run one ``drm.cli.main`` command, report.

Usage::

    python3 drmbench/child.py RESULT_JSON T0 MODE [drm argument ...]

``T0`` is the parent's ``time.monotonic()`` just before it started this
process; ``setup_s`` is measured from it to the return of ``import drm``.
``MODE`` is ``setup`` (import only), ``run`` (one untraced command) or
``trace:SPANS_JSONL`` (one command with the span wrappers of
``tracing.py`` installed, spans written to SPANS_JSONL at the end).
The result JSON holds the timings, the exit code and where drm came from;
it is written once after the import and again when the command returns.
"""

import time
import sys


def main() -> int:
    result_path, t0, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    import drm

    setup_s = time.monotonic() - t0

    import resource
    import traceback

    from drm import cli

    result = {"setup_s": setup_s, "drm_file": drm.__file__}
    # Written now and again at the end: a sample that dies mid-command still
    # shows that the import worked.
    _write(result_path, result)
    if mode != "setup":
        tracer = None
        if mode.startswith("trace:"):
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            rc = cli.main(sys.argv[4:])
        except Exception:  # a crash is a failed sample, reported like an exit code
            traceback.print_exc()
            rc = -1
        end = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            run_s=end - start,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        )
        if tracer is not None:
            tracer.finish(start, end, mode.split(":", 1)[1])
    _write(result_path, result)
    return 0


def _write(path: str, result: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())

"""Run one nsflab command in this fresh interpreter and report how it went.

    python3 child.py SRC RESULT [--trace TRACE_ID] -- <nsflab arguments>

``SRC`` is the ``src`` directory nsflab must be imported from.  With no
arguments after ``--`` the process only imports ``nsflab.cli`` (a set-up
probe).  ``RESULT`` receives a JSON object: the monotonic clock reading once
``nsflab.cli`` is imported (the parent subtracts its spawn time), the
seconds from ``cli.main`` entry to return, its exit code, and the peak
resident memory and CPU seconds of this process.  With ``--trace`` the
layers are wrapped after the import and the spans go to ``RESULT`` with
``.spans`` appended.
"""

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    head, cli_args = argv[:split], argv[split + 1:]
    src, result = head[0], head[1]
    trace_id = head[head.index("--trace") + 1] if "--trace" in head else None

    import nsflab.cli
    ready = time.monotonic()
    if os.path.dirname(os.path.dirname(os.path.abspath(nsflab.cli.__file__))) != os.path.abspath(src):
        print(f"nsflab was imported from {nsflab.cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    entry = nsflab.cli.main
    tracer = None
    if trace_id is not None:
        import tracer as tracing  # this script's directory leads sys.path
        tracer = tracing.Tracer(trace_id)
        entry = tracing.install(tracer)

    rc, study = 0, 0.0
    if cli_args:
        start = time.perf_counter()
        rc = entry(cli_args)
        study = time.perf_counter() - start
    if tracer is not None:
        tracer.save(result + ".spans")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "study_s": study, "rc": rc,
                   "maxrss_kb": usage.ru_maxrss, "cpu_s": usage.ru_utime + usage.ru_stime}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run the fqdist CLI once in this process and record what the benchmark needs.

Usage: python3 child.py RECORD {plain|trace} -- CLI-ARGUMENTS...

The CLI writes its report to stdout as usual.  RECORD receives a JSON object
with the exit code, the seconds spent inside ``fqdist.cli.main``, the peak
resident memory and, in trace mode, the spans and per-layer numbers.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    """High-water resident memory of this process image, in KiB.

    ru_maxrss can carry the spawning parent's high-water mark across exec, so
    the kernel's per-image VmHWM is preferred where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    record_path, mode = sys.argv[1], sys.argv[2]
    if mode not in ("plain", "trace") or sys.argv[3] != "--":
        sys.exit("usage: child.py RECORD {plain|trace} -- CLI-ARGUMENTS...")
    import fqdist.cli

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
        spans.install(tracer)
    cli_main = sys.modules["fqdist.cli"].main  # the wrapper, in trace mode
    start = time.perf_counter()
    try:
        code = cli_main(sys.argv[4:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    solve_s = time.perf_counter() - start
    sys.stdout.flush()
    record = {
        "exit": code,
        "solve_s": solve_s,
        "peak_rss_kb": peak_rss_kb(),
        "fqdist_file": fqdist.__file__,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["self_s"] = spans.self_times(tracer.spans)
        record["counts"] = spans.exact_counts(tracer.spans, tracer.errors)
        record["counter_s"] = tracer.counter_s
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()

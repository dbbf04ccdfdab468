"""One pass of one workload in a fresh interpreter; spawned by ``run.py``.

Reads the job as JSON on stdin and writes the pass as one JSON line on
stdout.  A fresh process per pass means every process-global cache (trial
costs, engine lowerings, synthesized designs) starts cold, as it does for
a command-line user.  Job keys:

``workload``, ``seed``
    what to run;
``names``
    circuit subset (tests pass a reduced list; ``null`` = all);
``setup_only``
    stop after set-up (extra ``setup_s`` samples);
``trace``
    wrap every layer (``tracer.POINTS``) and report self times;
``deep``
    also run the expensive independent checks;
``trace_path``
    where a traced pass writes its Chrome trace.

Timestamps are ``time.monotonic()`` (system-wide on Linux), so the parent
can time set-up from the moment it spawned this process.  Durations come
both raw (without the speed probe's own samples) and in reference seconds
(``speed.py``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe

SRC = Path(__file__).resolve().parents[2] / "src"


def main() -> int:
    launched = time.monotonic()
    probe = SpeedProbe()
    probe.start()
    try:
        return run_pass(json.load(sys.stdin), probe, launched)
    finally:
        probe.stop()


def run_pass(job: dict, probe: SpeedProbe, launched: float) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[job["workload"]]
    state = workload.setup(job["seed"], tuple(job["names"] or workload.names))
    ready = time.monotonic()
    result = {
        "launched": launched,
        "ready": ready,
        "setup_ref_s": probe.normalized(launched, ready),
    }
    if job["setup_only"]:
        print(json.dumps(result))
        return 0

    tracer = None
    if job["trace"]:
        from tracer import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        probe.on_sample = tracer.exclude
    try:
        start = time.monotonic()
        records = workload.run(state, tracer)
        end = time.monotonic()
    finally:
        if tracer is not None:
            probe.on_sample = None
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    workload.check(state, records, job["deep"])
    result.update(
        wall_ref_s=probe.normalized(start, end),
        wall_raw_s=end - start - probe.sampling_time(start, end),
        peak_rss_mb=peak_rss_mb,
        records=records,
        summary=workload.summary(state, records),
    )
    if tracer is not None:
        result["layers"] = {
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": tracer.counts,
            "sites": tracer.site_calls,
        }
        _write_chrome_trace(tracer, job["trace_path"])
    print(json.dumps(result))
    return 0


def _write_chrome_trace(tracer, path: str) -> None:
    from repro.obs.export import chrome_trace, validate_chrome_trace

    trace = chrome_trace(tracer.chrome_records())
    validate_chrome_trace(trace)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(trace) + "\n")


if __name__ == "__main__":
    sys.exit(main())

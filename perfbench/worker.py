"""One run of one workload in a fresh interpreter; prints one JSON line.

Usage: worker.py ROOT WORKLOAD SEED WORKDIR SPAWN_TIME MODE
MODE is ``setup`` (stop when the inputs are ready), ``run`` or ``trace``.
SPAWN_TIME is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is system-wide on Linux, so set-up time counts
interpreter start.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    root, name, seed, workdir, spawned, mode = sys.argv[1:7]
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    jobs = workloads.build(name, int(seed), workdir)
    ready = time.monotonic()
    result = {"setup_s": ready - float(spawned)}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    start = time.perf_counter()
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    returned = []
    for job in jobs:
        try:
            returned.append(job.run())
        except Exception as exc:  # noqa: BLE001 - recorded as a failed job
            returned.append(exc)
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = {}
    for job, value in zip(jobs, returned):
        if isinstance(value, Exception):
            outputs[job.spec] = {"status": f"{type(value).__name__}: {value}"}
        else:
            outputs[job.spec] = job.outputs(value)
    result["outputs"] = outputs
    if tracer is not None:
        result["layers"] = tracer.layers()
        path = os.path.join(root, ".perfbench", f"spans-{name}-seed{seed}.tsv")
        tracer.write_spans(path)
        result["spans_path"] = os.path.relpath(path, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

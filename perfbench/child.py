"""One run of one workload in a fresh process; started by ``run.py``.

Set-up (interpreter start, ``import extremal.*`` and making the inputs) is
timed from the moment the parent started this process.  Then the jobs (the
first ``--jobs`` of them, where given) run one after another in this single
thread, sharing the program's caches as a script or a test session would,
and each output goes through the workload's reference check, while
``clock.Sampler`` samples the host's speed.  The last line of standard
output is one JSON object with the job outcomes, the intervals of set-up, of
the whole run and of each job on the monotonic clock, the speed samples
(``run.py`` converts the intervals to reference seconds with them) and, with
``--trace``, the per-layer metrics; spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import clock
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--workdir", required=True, help="parent directory for the inputs")
    parser.add_argument("--jobs", type=int, default=None,
                        help="run only the workload's first JOBS jobs (0: set-up only)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="CSV file for the spans of a traced run")
    args = parser.parse_args()

    import extremal.cli  # noqa: F401  (set-up imports every module the CLI reaches)

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        result = {"setup": [args.started, time.monotonic()]}
        sampler = clock.Sampler().start()
        try:
            jobs = workload.jobs[:args.jobs] if args.jobs is not None else workload.jobs
            if jobs:
                result.update(run_jobs(workload, jobs, args.trace, args.spans))
        finally:
            result["samples"] = sampler.stop()
            result["burst"] = sampler.burst
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_jobs(workload: workloads.Workload, jobs: list[workloads.Job], trace: bool,
             spans_path: str | None) -> dict:
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    intervals = []
    failures = []
    first = time.monotonic()
    for job in jobs:
        start = time.monotonic()
        try:
            output = job.call()
        except Exception:  # any raise fails the job; the run goes on
            failures.append(f"{job.name}: {traceback.format_exc(limit=3)}")
            continue
        finally:
            intervals.append([start, time.monotonic()])
        try:
            job.check(output)
        except workloads.ReferenceMismatch as exc:
            failures.append(f"{job.name}: {exc}")
        except Exception:  # a check that cannot read the output fails the job too
            failures.append(f"{job.name}: {traceback.format_exc(limit=3)}")
    out = {
        "wall": [first, time.monotonic()],
        "jobs": intervals,
        "attempted": len(jobs),
        "failures": failures,
        "tally": workload.tally,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["per_layer"] = tracer.metrics(workload.tally)
        out["absent"] = tracer.absent
        out["spans"] = len(tracer.spans)
        if spans_path:
            tracer.write_spans(Path(spans_path))
    return out


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: import dmapreg.cli, run the warm-up job, then the jobs.

Started by run.py with the package's ``src`` directory first on sys.path.
Protocol on the standard streams:

1. after the import and the untimed warm-up job, print ``ready``;
2. with ``--setup-only``, exit there;
3. otherwise read a JSON list of job documents from stdin, run each through
   ``dmapreg.cli.main`` in this process, one job per call, and print one
   JSON object with every exit code, output and call time, the wall time of
   the whole list and the peak resident set.  With ``--trace PATH`` the
   per-layer metrics are added and the spans are written to PATH.

Usage: python3 worker.py --src SRC --warmup JOB_JSON [--setup-only] [--trace PATH]
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback


def run_job(main, document: str):
    """(exit code, stdout, stderr, seconds) of one cli.main call on a job document.

    An exception escaping cli.main is a fault of the program: it is reported
    as exit code -1 with its traceback, and the run goes on.
    """
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(document), out, err
    start = time.perf_counter()
    try:
        code = main([])
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), seconds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--warmup", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from dmapreg import cli

    code, _, err, _ = run_job(cli.main, args.warmup)
    if code != 0:
        sys.stderr.write(f"warm-up job failed with exit {code}: {err}")
        return 1
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    documents = [json.dumps(job) for job in json.load(sys.stdin)]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    start = time.perf_counter()
    for index, document in enumerate(documents):
        if tracer:
            tracer.job = index
        # Look main up each time: with tracing on, it is the traced wrapper.
        results.append(run_job(cli.main, document))
    wall = time.perf_counter() - start
    report = {
        "results": results,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        report["layers"] = tracer.metrics()
        report["missing"] = tracer.missing
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["job", "span", "start_s", "end_s", "depth"], "spans": tracer.spans}, handle)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded benchmark of dmapreg on fixed job lists, with checked outputs.

Usage:
    python3 bench/run.py --workload geometry|classify|oracle --seed N --seconds S --trace 0|1

Run from the root of a dmapreg checkout; the package is imported from its
``src`` directory.  The seed and --seconds fix the job list (see job_count):
every run with the same arguments does exactly the same jobs, with no time
budget.  The jobs go one per call through ``dmapreg.cli.main`` in one fresh
worker process, and every result is checked against how its job was built.

With --trace 0 the last line of stdout is the end-to-end metrics; set-up is
also timed over several fresh worker starts.  With --trace 1 the functions of
each dmapreg module are wrapped and the per-layer metrics are printed
instead.  Each run writes its record, and with --trace 1 its spans, under
bench/out/.  Exit 0 after printing the result line; 2 on a bad argument or a
checkout without dmapreg; 3 when a worker fails or runs past the deadline.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Jobs per second of --seconds: about what the reference machine in README.md
#: runs, so a list takes about --seconds of work.  Never fewer than MIN_JOBS,
#: so that the p90 has at least ten samples beyond it.
JOB_RATE = {"geometry": 40.0, "classify": 16.0, "oracle": 1.2}
MIN_JOBS = 100
#: Set-up-only starts timed before and again after the workload process, whose
#: own start is timed too.  Spreading them over the run evens out the machine's
#: slower and faster spells.
SETUP_STARTS_EACH_SIDE = 4
#: Every worker must have ended this long after the run started.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def job_count(workload: str, seconds: int) -> int:
    return max(MIN_JOBS, round(seconds * JOB_RATE[workload]))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _left(deadline: float) -> float:
    return max(deadline - time.monotonic(), 0.0)


def start_worker(
    workload: str, deadline: float, setup_only: bool, trace_path: Optional[Path] = None
) -> Tuple[subprocess.Popen, float]:
    """Start a fresh worker; return it once ready, with the seconds that took."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--src", str(SRC),
        "--warmup", json.dumps(workloads.WARMUP_JOBS[workload]),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    # Kills a worker that hangs before it is ready; finish() waits with a timeout.
    watchdog = threading.Timer(_left(deadline), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    watchdog.cancel()
    setup = time.perf_counter() - start
    if line != "ready\n":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float, stdin: Optional[str] = None) -> str:
    try:
        out, _ = proc.communicate(stdin, timeout=_left(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def run(workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    deadline = time.monotonic() + DEADLINE_S
    jobs = workloads.build(workload, seed, job_count(workload, seconds))
    setups: List[float] = []

    def time_setups() -> None:
        for _ in range(0 if trace else SETUP_STARTS_EACH_SIDE):
            proc, setup = start_worker(workload, deadline, setup_only=True)
            finish(proc, deadline)
            setups.append(setup)

    time_setups()
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    spans_path = OUT / f"{stem}-spans.json" if trace else None
    proc, setup = start_worker(workload, deadline, setup_only=False, trace_path=spans_path)
    setups.append(setup)
    report = json.loads(finish(proc, deadline, json.dumps([job.doc for job in jobs])))
    time_setups()

    failed = 0
    problems = []
    times = []
    for index, (job, (code, out, err, call_s)) in enumerate(zip(jobs, report["results"])):
        if checks.is_quadrature_failure(code, err):
            failed += 1
            times.append(math.inf)  # a failed call ranks as the slowest
            continue
        times.append(call_s)
        problem = checks.check(job, code, out, err)
        if problem:
            problems.append(f"job {index} ({job.doc['command']}): {problem}")
    if trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report["layers"].items()}
    else:
        metrics = {
            "jobs_per_s": {"value": len(jobs) / report["wall_s"], "unit": "1/s"},
            "job_p50_s": {"value": percentile(times, 0.5), "unit": "s"},
            "job_p90_s": {"value": percentile(times, 0.9), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, problems=problems,
                  wall_s=report["wall_s"], setup_samples_s=setups, call_s=[r[3] for r in report["results"]],
                  exit_codes=[r[0] for r in report["results"]], missing=report.get("missing", []))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for line in problems:
        sys.stderr.write(f"wrong: {line}\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dmapreg benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dmapreg" / "cli.py").is_file():
        sys.stderr.write(f"bench: no dmapreg package under {SRC}; run from a dmapreg checkout\n")
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The traced benchmark worker against this package.

``bench/tracing.py`` wraps functions of dmapreg by name and reads some of
their arguments, so a change to a traced function can break every traced
run of the benchmark.  This runs the worker with tracing on, one small job
per workload and one order-2 ``verify`` job, and checks that every per-layer
metric of ``BENCHMARK.json`` comes out.  The order-2 job is there because no
warm-up job reaches ``sobolev.quotient_second``, whose quotient the tracer
reads too.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _tree(path):
    return sorted((str(p), p.stat().st_mtime_ns) for p in path.rglob("*"))


def test_traced_worker_reports_every_per_layer_metric(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    before = _tree(BENCH)
    jobs = subprocess.run(
        [sys.executable, "-c", "import json, workloads; print(json.dumps(workloads.WARMUP_JOBS))"],
        cwd=BENCH, env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    warmup = json.loads(jobs.stdout)
    documents = [*warmup.values(), dict(warmup["oracle"], k=2, j_max=4)]
    worker = subprocess.run(
        [
            sys.executable, str(BENCH / "worker.py"),
            "--src", str(ROOT / "src"),
            "--warmup", json.dumps(warmup["oracle"]),
            "--trace", str(tmp_path / "spans.json"),
        ],
        input=json.dumps(documents),
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert worker.returncode == 0, worker.stderr
    ready, line = worker.stdout.splitlines()
    report = json.loads(line)
    assert ready == "ready"
    assert [code for code, *_ in report["results"]] == [0] * len(documents), report["results"]
    assert report["missing"] == []
    assert report["layers"]["sobolev.quotient_second_calls"][0] >= 1
    assert report["layers"]["sobolev.quotient_terms"][0] > 0
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        value, unit = report["layers"][metric["name"]]
        assert math.isfinite(value) and unit == metric["unit"], metric
    assert (tmp_path / "spans.json").is_file()
    assert _tree(BENCH) == before

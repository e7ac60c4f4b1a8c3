"""Summarise a spans file written by a traced run: calls, median and total per span.

Usage: python3 bench/spans.py bench/out/<workload>-seed<n>-trace1-spans.json
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def main(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    durations = defaultdict(list)
    for _, name, start, end, _ in spans:
        durations[name].append(end - start)
    print(f"{'span':40} {'calls':>7} {'median_ms':>10} {'total_s':>9}")
    for name, values in sorted(durations.items()):
        print(f"{name:40} {len(values):7d} {1000 * statistics.median(values):10.2f} {sum(values):9.3f}")


if __name__ == "__main__":
    main(sys.argv[1])

"""Spans and counters around the public functions of each dmapreg module.

``Tracer.install`` replaces each traced function with a wrapper wherever a
dmapreg module holds it by name (``cli`` imports ``classify`` by name, so
``dmapreg.cli.classify`` is replaced too), and ``Tracer.metrics`` turns what
the wrappers recorded into the per-layer metrics.  Busy time is counted at
the outermost call of a function, so recursion is not counted twice.  A
traced name that the package no longer has is skipped, and the metrics that
need it are left out instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Called too often to keep one span each; they are counted and timed only.
_UNSPANNED = {"poly2.mul", "verify._panel"}


class Tracer:
    """Busy time, call counts and spans of the traced dmapreg functions."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.job = -1
        self._active: Counter = Counter()
        self._stack: List[List[float]] = []  # per active call: time in its traced callees
        self._first_pass: Counter = Counter()
        self._split4: Optional[Callable] = None

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, before=None, after=None, name_of=None) -> Callable:
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            span = name_of(args, kwargs) if name_of else name
            if before:
                before(args, kwargs)
            self.calls[span] += 1
            outermost = self._active[span] == 0
            self._active[span] += 1
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._active[span] -= 1
                duration = end - start
                if outermost:
                    self.busy[span] += duration
                if self._stack:
                    self._stack[-1][0] += duration
                if span == "cli.main":
                    self.busy["cli.self"] += duration - frame[0]
                if span not in _UNSPANNED:
                    self.spans.append((self.job, span, start, end, len(self._stack)))
            if after:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the traced functions in every loaded dmapreg module."""
        import dmapreg.cli  # noqa: F401  loads every module of the package

        for name, module_name, attr, hooks in self._targets():
            module = importlib.import_module(module_name)
            if attr.startswith("Poly2."):
                cls = getattr(module, "Poly2", None)
                original = getattr(cls, attr.split(".")[1], None) if cls else None
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original, **hooks)
                cls.__mul__ = wrapper
                cls.__rmul__ = wrapper
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, **hooks)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "dmapreg" or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)
        verify = importlib.import_module("dmapreg.verify")
        self._split4 = getattr(verify, "_split4", None)
        if self._split4 is None:
            self.missing.append("verify._split4")

    def _targets(self):
        def standardized(args, kwargs, record):
            self.counts["accepted"] += 1
            self.counts["certified"] += bool(record.positivity_certified)

        def validated(args, kwargs, report):
            if report.accepted:
                self.counts["accepted"] += 1
                self.counts["certified"] += report.jacobian_positive == "certified"

        def multiplied(args, kwargs, result):
            if result is not NotImplemented:
                self.counts["poly2.mul_terms"] += len(result.terms)

        def quotient(args, kwargs, result):
            self.counts["sobolev.quotient_terms"] += len(result.P.terms)

        def region(args, kwargs):
            # The initial tiling and its quarters: what the first pass evaluates.
            rects = args[1] if len(args) > 1 else kwargs["rects"]
            if self._split4 is not None:
                for rect in rects:
                    self._first_pass[rect] += 1
                    for child in self._split4(rect):
                        self._first_pass[child] += 1

        def panel(args, kwargs):
            rect = args[1] if len(args) > 1 else kwargs["rect"]
            if self._first_pass[rect] > 0:
                self._first_pass[rect] -= 1
                self.counts["verify.panels_first_pass"] += 1

        def classify_name(args, kwargs):
            k = args[2] if len(args) > 2 else kwargs.get("k")
            return f"sobolev.classify_k{k}"

        return [
            ("cli.main", "dmapreg.cli", "main", {}),
            ("dmap.standardize", "dmapreg.dmap", "standardize", {"after": standardized}),
            ("dmap.validate", "dmapreg.dmap", "validate", {"after": validated}),
            ("bernstein.certify_positive_on_box", "dmapreg.bernstein", "certify_positive_on_box", {}),
            ("bernstein.restrict_to_box", "dmapreg.bernstein", "restrict_to_box", {}),
            ("bernstein.bernstein_coefficients", "dmapreg.bernstein", "bernstein_coefficients", {}),
            ("poly2.mul", "dmapreg.poly2", "Poly2.__mul__", {"after": multiplied}),
            ("sobolev.classify", "dmapreg.sobolev", "classify", {"name_of": classify_name}),
            ("sobolev.quotient_first", "dmapreg.sobolev", "quotient_first", {"after": quotient}),
            ("sobolev.quotient_second", "dmapreg.sobolev", "quotient_second", {"after": quotient}),
            ("constraints.constraints_for", "dmapreg.constraints", "constraints_for", {}),
            ("constraints.admissible_basis", "dmapreg.constraints", "admissible_basis", {}),
            ("verify.truncated_norm", "dmapreg.verify", "truncated_norm", {}),
            ("verify._integrate_region", "dmapreg.verify", "_integrate_region", {"before": region}),
            ("verify._panel", "dmapreg.verify", "_panel", {"before": panel}),
        ]

    # -- metrics -----------------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}, leaving out those whose
        traced function is missing."""
        busy, calls, counts = self.busy, self.calls, self.counts
        table = [
            ("cli.self_s", ["cli.main"], busy["cli.self"], "s"),
            ("dmap.standardize_s", ["dmap.standardize"], busy["dmap.standardize"], "s"),
            ("dmap.standardize_calls", ["dmap.standardize"], calls["dmap.standardize"], "count"),
            ("dmap.validate_s", ["dmap.validate"], busy["dmap.validate"], "s"),
            (
                "dmap.certified_per_accepted",
                ["dmap.standardize", "dmap.validate"],
                counts["certified"] / counts["accepted"] if counts["accepted"] else None,
                "ratio",
            ),
            ("bernstein.boxes", ["bernstein.certify_positive_on_box"], calls["bernstein.certify_positive_on_box"], "count"),
            ("bernstein.restrict_s", ["bernstein.restrict_to_box"], busy["bernstein.restrict_to_box"], "s"),
            ("bernstein.coefficients_s", ["bernstein.bernstein_coefficients"], busy["bernstein.bernstein_coefficients"], "s"),
            ("poly2.mul_calls", ["poly2.mul"], calls["poly2.mul"], "count"),
            ("poly2.mul_s", ["poly2.mul"], busy["poly2.mul"], "s"),
            ("poly2.mul_terms", ["poly2.mul"], counts["poly2.mul_terms"], "count"),
            ("sobolev.classify_k1_s", ["sobolev.classify"], busy["sobolev.classify_k1"], "s"),
            ("sobolev.classify_k2_s", ["sobolev.classify"], busy["sobolev.classify_k2"], "s"),
            ("sobolev.quotient_second_s", ["sobolev.quotient_second"], busy["sobolev.quotient_second"], "s"),
            ("sobolev.quotient_second_calls", ["sobolev.quotient_second"], calls["sobolev.quotient_second"], "count"),
            (
                "sobolev.quotient_terms",
                ["sobolev.quotient_first", "sobolev.quotient_second"],
                counts["sobolev.quotient_terms"],
                "count",
            ),
            ("constraints.constraints_for_s", ["constraints.constraints_for"], busy["constraints.constraints_for"], "s"),
            ("constraints.admissible_basis_s", ["constraints.admissible_basis"], busy["constraints.admissible_basis"], "s"),
            ("verify.truncated_norm_s", ["verify.truncated_norm"], busy["verify.truncated_norm"], "s"),
            ("verify.truncated_norm_calls", ["verify.truncated_norm"], calls["verify.truncated_norm"], "count"),
            ("verify.panels", ["verify._panel"], calls["verify._panel"], "count"),
            (
                "verify.panels_first_pass",
                ["verify._integrate_region", "verify._panel", "verify._split4"],
                counts["verify.panels_first_pass"],
                "count",
            ),
        ]
        return {
            name: (value, unit)
            for name, needs, value, unit in table
            if value is not None and not any(n in self.missing for n in needs)
        }

"""Spans around the library's public calls, recorded from outside it.

The tracer swaps each traced function, wherever a ``toricbundles`` module
binds it, for a wrapper that records a span, and restores the originals
afterwards.  Calls the library makes to a traced function from inside
another one are caught too, so spans nest: ``build_ring`` is a child of
``total_chern_bundle_formula`` and ``minimal_nonfaces`` a child of
``build_ring``.  Self time is a span's duration minus its children's.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

PACKAGE = "toricbundles"

# span name -> the functions it times, as (module, attribute path).
SPANS = {
    "formats.parse": [
        ("formats", "parse_fan"),
        ("formats", "parse_plmap"),
        ("formats", "parse_pair"),
        ("formats", "parse_base_presentation"),
        ("formats", "parse_twisting"),
    ],
    "fan.validate": [("fan", "validate")],
    "twist.twisted_fan": [("twist", "twisted_fan")],
    "cohomology.build_ring": [("cohomology", "build_ring")],
    "cohomology.minimal_nonfaces": [("cohomology", "minimal_nonfaces")],
    "chern.total_chern_intrinsic": [("chern", "total_chern_intrinsic")],
    "chern.total_chern_bundle_formula": [("chern", "total_chern_bundle_formula")],
    "chern.chern_numbers": [("chern", "chern_numbers")],
    "bundlering.build_bundle_ring": [("bundlering", "build_bundle_ring")],
    "bundlering.total_chern_general": [("bundlering", "total_chern_general")],
    "bundlering.chern_numbers_bundle": [("bundlering", "chern_numbers_bundle")],
    "equivariant.masuda_check": [("equivariant", "masuda_check")],
    "equivariant.equivariant_total_chern": [
        ("equivariant", "equivariant_total_chern"),
    ],
    # The report: machine payload, human lines, polynomial text, JSON.
    "cli.emit": [
        ("cli", "_emit"),
        ("cli", "_class_payload"),
        ("cli", "_numbers_payload"),
        ("cli", "_class_lines"),
        ("cli", "_numbers_lines"),
        ("chern", "ComparisonReport.to_dict"),
        ("equivariant", "MasudaReport.to_dict"),
        ("equivariant", "WeightPolynomial.__repr__"),
    ],
}
REQUEST = "request"


class Tracer:
    """Records spans as [name, start, end, parent index, request id, error]."""

    def __init__(self):
        self.spans = []
        self.request_id = None
        self._stack = []
        self._patches = self._plan()

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to swap."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        patches = []
        for span, targets in SPANS.items():
            for module, path in targets:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue  # absent in this version of the library
                wrapper = self._wrap(span, original)
                if parents:
                    patches.append((owner, attr, original, wrapper))
                    continue
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            patches.append((m, name, original, wrapper))
        return patches

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.request_id, False]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            record[5] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()


def layer_metrics(spans, untraced_latencies):
    """Per-layer metrics from the spans of the traced requests.

    Per span name: median self time per request (ms), share of traced
    request time, calls per request and failed calls.  Plus the share of
    request time inside any span and traced over untraced median latency.
    """
    self_time = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            self_time[parent] -= end - start
    requests = {}
    for i, (name, start, end, _, rid, _) in enumerate(spans):
        if name == REQUEST:
            requests[rid] = {"total": end - start, "self": self_time[i]}
    per_request = {name: {rid: 0.0 for rid in requests} for name in SPANS}
    calls = dict.fromkeys(SPANS, 0)
    errors = dict.fromkeys(SPANS, 0)
    for i, (name, _, _, _, rid, error) in enumerate(spans):
        if name in SPANS:
            per_request[name][rid] += self_time[i]
            calls[name] += 1
            errors[name] += error
    traced_total = sum(r["total"] for r in requests.values())
    n = len(requests)
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.self_ms"] = (
            statistics.median(per_request[name].values()) * 1e3, "ms")
        metrics[f"{name}.share"] = (
            sum(per_request[name].values()) / traced_total, "ratio")
        metrics[f"{name}.calls"] = (calls[name] / n, "calls/req")
        metrics[f"{name}.errors"] = (errors[name], "count")
    uncovered = sum(r["self"] for r in requests.values())
    metrics["trace.coverage"] = (1 - uncovered / traced_total, "ratio")
    traced_p50 = statistics.median(r["total"] for r in requests.values())
    metrics["trace.overhead_ratio"] = (
        traced_p50 / statistics.median(untraced_latencies), "ratio")
    return metrics


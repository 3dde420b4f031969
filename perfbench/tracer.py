"""Spans and counters around calls into cyclebench, from outside the package.

The tracer wraps package functions by rebinding the names that calling
modules hold (``cyclebench.bench.propagate_through_cycles``, ...), and the
methods of ``Executor`` on the class.  Span probes record (name, start, end,
parent, op) in memory; counter probes only count calls, for functions called
hundreds of thousands of times per op.  ``uninstall`` restores every binding.

A span's layer is the module part of its name.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

# (probe name, module, attribute) for spans.  A dotted attribute names a
# method on a class in that module.
SPAN_PROBES = [
    ("bench.make_cb", "bench", "make_cb"),
    ("circuits.propagate_through_cycles", "circuits", "propagate_through_cycles"),
    ("sim.rng_from", "sim", "rng_from"),
    ("bench.execute_collection", "bench", "execute_collection"),
    ("bench.fit_all_decays", "bench", "fit_all_decays"),
    ("bench.estimate_process_infidelity", "bench", "estimate_process_infidelity"),
    ("bench.cb_process_infidelity", "bench", "cb_process_infidelity"),
    ("bench.run_rb", "bench", "run_rb"),
    ("pauli.clifford_group", "pauli", "clifford_group"),
    ("pauli.clifford_inverse_word", "pauli", "clifford_inverse_word"),
    ("engine.Executor.run", "engine", "Executor.run"),
    ("engine.Executor.measured_expectation", "engine", "Executor.measured_expectation"),
    ("sim.sample_counts", "sim", "sample_counts"),
    ("qcap.qcap_cb_curve", "qcap", "qcap_cb_curve"),
    ("qcap.qcap_rb_curve", "qcap", "qcap_rb_curve"),
    ("noise.drift_params_at", "noise", "drift_params_at"),
    ("ingest.write_decays", "ingest", "write_decays"),
    ("ingest.write_fits", "ingest", "write_fits"),
    ("ingest.write_estimates", "ingest", "write_estimates"),
    ("ingest.write_curves", "ingest", "write_curves"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.run_cb_all_cycles", "cli", "run_cb_all_cycles"),
    ("cli.run_rb_all_pairs", "cli", "run_rb_all_pairs"),
    ("cli.build_curves", "cli", "build_curves"),
    ("cli.simulate_occupations", "cli", "simulate_occupations"),
    ("cli._write_occupations", "cli", "_write_occupations"),
]

COUNT_PROBES = [
    ("circuits.build_tfim_circuit", "circuits", "build_tfim_circuit"),
    ("pauli.conjugate_gate", "pauli", "conjugate_gate"),
    ("engine.superop_apply", "engine", "Executor._apply_kraus"),
    ("engine.unitary_apply", "engine", "Executor._apply_unitary"),
    ("noise.pauli_channel", "noise", "pauli_channel"),
    ("noise.damping_channel", "noise", "damping_channel"),
]

LAYERS = ("sim", "pauli", "noise", "circuits", "engine", "bench", "qcap", "ingest", "cli")


def _after_run(counts: Counter, args, result) -> None:
    if type(result).__name__ == "DensityMatrix":
        counts["engine.Executor.run.density"] += 1


def _after_superop(counts: Counter, args, result) -> None:
    # args = (executor, rho, key, channel, positions); the superop is D x D
    # with D = dim(rho)^2 = 4^n.
    d = args[1].shape[0] ** 2
    counts["engine.superop_dim2"] += d * d
    counts["engine.superop_dim"] += d


def _after_write(counts: Counter, args, result) -> None:
    counts["ingest.bytes_written"] += os.path.getsize(args[0])


AFTER = {
    "engine.Executor.run": _after_run,
    "engine.superop_apply": _after_superop,
    "ingest.write_decays": _after_write,
    "ingest.write_fits": _after_write,
    "ingest.write_estimates": _after_write,
    "ingest.write_curves": _after_write,
}


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent span index or -1, op index or -1)
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op = -1  # -1 while setting up
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        after = AFTER.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            counts[name + ".calls"] += 1
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "cyclebench" or k.startswith("cyclebench."))]
        for probes, make in ((SPAN_PROBES, self._span), (COUNT_PROBES, self._counter)):
            for name, module, attr in probes:
                owner = sys.modules[f"cyclebench.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, meth, make(name, cls.__dict__[meth]))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")

    def span_stats(self, ops: set[int]) -> tuple[Counter, Counter, dict[int, int]]:
        """Inclusive time per span name, self time per layer, and root-span
        time per op, in ns, over the spans of the given ops."""
        spans = self.spans
        inclusive: Counter = Counter()
        child: Counter = Counter()
        roots: dict[int, int] = {op: 0 for op in ops}
        for name, start, end, parent, op in spans:
            if op not in ops:
                continue
            inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
            else:
                roots[op] += end - start
        self_by_layer: Counter = Counter()
        for idx, (name, start, end, parent, op) in enumerate(spans):
            if op in ops:
                self_by_layer[name.split(".")[0]] += end - start - child[idx]
        return inclusive, self_by_layer, roots


# Per-layer metrics: name -> (unit, better).  See NOTES.md for which
# end-to-end metric each should move, and on which workload.
LAYER_METRICS = {
    "bench.make_cb.s": ("s", "lower"),
    "circuits.propagate_through_cycles.calls": ("count", "lower"),
    "pauli.conjugate_gate.calls": ("count", "lower"),
    "sim.rng_from.calls": ("count", "lower"),
    "bench.execute_collection.s": ("s", "lower"),
    "engine.Executor.run.s": ("s", "lower"),
    "engine.Executor.run.calls": ("count", "lower"),
    "engine.superop_apply.calls": ("count", "lower"),
    "engine.superop_gflop": ("GFLOP_computed", "lower"),
    "engine.superop_gb": ("GB_computed", "lower"),
    "engine.density_frac": ("fraction", "lower"),
    "engine.unitary_apply.calls": ("count", "lower"),
    "circuits.cycle_unitary.misses": ("count", "lower"),
    "circuits.cycle_unitary.hit_ratio": ("fraction", "higher"),
    "engine.measured_expectation.s": ("s", "lower"),
    "sim.sample_counts.s": ("s", "lower"),
    "bench.run_rb.s": ("s", "lower"),
    "pauli.clifford_inverse_word.s": ("s", "lower"),
    "pauli.clifford_group.s": ("s", "lower"),
    "bench.fit_all_decays.s": ("s", "lower"),
    "qcap.curves.s": ("s", "lower"),
    "cli.load_config.s": ("s", "lower"),
    "cli.run_cb_all_cycles.s": ("s", "lower"),
    "cli.run_rb_all_pairs.s": ("s", "lower"),
    "cli.build_curves.s": ("s", "lower"),
    "cli.simulate_occupations.s": ("s", "lower"),
    "circuits.build_tfim_circuit.calls": ("count", "lower"),
    "noise.drift_params_at.s": ("s", "lower"),
    "noise.channel_builds": ("count", "lower"),
    "ingest.write.s": ("s", "lower"),
    "ingest.bytes_written": ("bytes", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.top_coverage_frac": ("fraction", "higher"),
    "trace.overhead_frac": ("fraction", "lower"),
}

# Time metrics: the inclusive time of these spans, summed.
_TIME_METRICS = {
    "bench.make_cb.s": ("bench.make_cb",),
    "bench.execute_collection.s": ("bench.execute_collection",),
    "engine.Executor.run.s": ("engine.Executor.run",),
    "engine.measured_expectation.s": ("engine.Executor.measured_expectation",),
    "sim.sample_counts.s": ("sim.sample_counts",),
    "bench.run_rb.s": ("bench.run_rb",),
    "pauli.clifford_inverse_word.s": ("pauli.clifford_inverse_word",),
    "pauli.clifford_group.s": ("pauli.clifford_group",),
    "bench.fit_all_decays.s": ("bench.fit_all_decays",),
    "qcap.curves.s": ("qcap.qcap_cb_curve", "qcap.qcap_rb_curve"),
    "cli.load_config.s": ("cli.load_config",),
    "cli.run_cb_all_cycles.s": ("cli.run_cb_all_cycles",),
    "cli.run_rb_all_pairs.s": ("cli.run_rb_all_pairs",),
    "cli.build_curves.s": ("cli.build_curves",),
    "cli.simulate_occupations.s": ("cli.simulate_occupations",),
    "noise.drift_params_at.s": ("noise.drift_params_at",),
    "ingest.write.s": ("ingest.write_decays", "ingest.write_fits",
                       "ingest.write_estimates", "ingest.write_curves"),
}


def layer_metrics(
    tracer: Tracer, traced_ops: dict[int, float], plain_op_s: list[float]
) -> dict[str, float]:
    """Per-op means of the traced ops' spans and counters.

    ``traced_ops`` maps op index to traced wall seconds; ``plain_op_s`` holds
    the untraced times of the same ops.  ``pauli.clifford_group.s`` also
    includes the set-up phase, where the group tables are built.  The caller
    adds the ``_cycle_unitary_cached`` hit and miss deltas of the traced ops
    to ``tracer.counts`` as ``cache.hits`` and ``cache.misses``.
    """
    n = len(traced_ops)
    inclusive, self_by_layer, roots = tracer.span_stats(set(traced_ops))
    setup_inclusive, _, _ = tracer.span_stats({-1})
    counts = tracer.counts
    out: dict[str, float] = {}
    for name, probes in _TIME_METRICS.items():
        out[name] = sum(inclusive[p] for p in probes) / n / 1e9
    out["pauli.clifford_group.s"] += setup_inclusive["pauli.clifford_group"] / 1e9
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer] / n / 1e9
    for name in LAYER_METRICS:
        if name.endswith(".calls"):
            out[name] = counts[name] / n
    runs = counts["engine.Executor.run.calls"]
    dim2, dim = counts["engine.superop_dim2"], counts["engine.superop_dim"]
    out["engine.superop_gflop"] = 8 * dim2 / n / 1e9
    out["engine.superop_gb"] = (16 * dim2 + 32 * dim) / n / 1e9
    out["engine.density_frac"] = counts["engine.Executor.run.density"] / runs if runs else 0.0
    hits, misses = counts["cache.hits"], counts["cache.misses"]
    out["circuits.cycle_unitary.misses"] = misses / n
    out["circuits.cycle_unitary.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["noise.channel_builds"] = (
        counts["noise.pauli_channel.calls"] + counts["noise.damping_channel.calls"]
    ) / n
    out["ingest.bytes_written"] = counts["ingest.bytes_written"] / n
    out["trace.top_coverage_frac"] = min(
        roots[op] / 1e9 / traced_ops[op] for op in traced_ops
    )
    out["trace.overhead_frac"] = (
        statistics.median(traced_ops.values()) / statistics.median(plain_op_s) - 1.0
    )
    return out

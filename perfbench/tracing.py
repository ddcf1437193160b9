"""In-memory span tracing for the traced benchmark run.

Spans are recorded around calls into each layer's public functions by
temporarily rebinding those names wherever the ``ffsparse`` modules bind them
(and the ensemble methods on their class).  Nothing inside the package is
edited; :meth:`Tracer.restore` puts every original object back.

A span is (name, start, end, parent, info).  The run is single-threaded, so
the parent is the innermost span open when the call began.  A span's self
time is its duration minus the part of its interval that child spans cover.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (span name, owner, attribute).  Owner "module:<name>" means: the function
# that module defines under that attribute, rebound in every ffsparse module
# that imported it.  Owner "class:<module>.<Class>" means a method.
TARGETS = (
    ("frames.random_frame", "module:ffsparse.frames", "random_frame"),
    ("frames.incoherence", "module:ffsparse.frames", "incoherence"),
    ("frames.lambda_eff", "module:ffsparse.frames", "lambda_eff"),
    ("measurement.draw_matrix", "module:ffsparse.measurement", "draw_matrix"),
    ("measurement.add_noise", "module:ffsparse.measurement", "add_noise"),
    ("measurement.measure", "class:ffsparse.measurement.MeasurementEnsemble", "measure"),
    ("measurement.coefficient_matrix", "class:ffsparse.measurement.MeasurementEnsemble",
     "coefficient_matrix"),
    ("measurement.blockwise_matrix", "class:ffsparse.measurement.MeasurementEnsemble",
     "blockwise_matrix"),
    ("signals.random_support", "module:ffsparse.signals", "random_support"),
    ("signals.sparse_signal", "module:ffsparse.signals", "sparse_signal"),
    ("solver.solve_l1_equality", "module:ffsparse.solver", "solve_l1_equality"),
    ("solver.solve_l1_noisy", "module:ffsparse.solver", "solve_l1_noisy"),
    ("solver.solve_block_baseline", "module:ffsparse.solver", "solve_block_baseline"),
    ("solver.relative_error", "module:ffsparse.solver", "relative_error"),
    ("certificate.gram_conditions", "module:ffsparse.certificate", "gram_conditions"),
    ("certificate.golfing_build", "module:ffsparse.certificate", "golfing_build"),
    ("certificate.verify_inexact", "module:ffsparse.certificate", "verify_inexact"),
)

SOLVERS = ("solver.solve_l1_equality", "solver.solve_l1_noisy", "solver.solve_block_baseline")
ROOT_SPAN = "experiments.run_experiment"
LAYERS = ("frames", "measurement", "signals", "solver", "certificate", "experiments")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: Any = None


def _info(name: str, args: tuple, kwargs: dict, result) -> Any:
    if name in SOLVERS:
        return result.iterations
    if name == "frames.random_frame":
        return repr((args, sorted(kwargs.items())))
    return None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
        span.info = _info(name, args, kwargs, result)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every target; :meth:`restore` undoes exactly these edits."""
        for name, owner, attr in TARGETS:
            kind, path = owner.split(":")
            if kind == "class":
                module_name, cls_name = path.rsplit(".", 1)
                holders = [getattr(sys.modules[module_name], cls_name)]
                original = holders[0].__dict__[attr]
            else:
                original = getattr(sys.modules[path], attr)
                holders = [mod for mod_name, mod in list(sys.modules.items())
                           if (mod_name == "ffsparse" or mod_name.startswith("ffsparse."))
                           and getattr(mod, attr, None) is original]
            wrapper = self._wrap(name, original)
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)


def self_times(spans: list) -> list:
    """Per span: duration minus the union of its children's intervals."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def layer_metrics(spans: list, max_iter: int) -> dict:
    """Per-function and per-layer counts and times from one traced pass."""
    selfs = self_times(spans)
    by_name: dict = {}
    for span, self_s in zip(spans, selfs):
        by_name.setdefault(span.name, []).append((span, self_s))

    metrics: dict = {}
    for name in [t[0] for t in TARGETS] + [ROOT_SPAN]:
        entries = by_name.get(name, [])
        metrics[f"{name}.calls"] = len(entries)
        metrics[f"{name}.s"] = sum(s.end - s.start for s, _ in entries)
        metrics[f"{name}.self_s"] = sum(x for _, x in entries)
    for name in SOLVERS:
        entries = by_name.get(name, [])
        iters = [s.info for s, _ in entries]
        capped = [s for s, _ in entries if s.info >= max_iter]
        metrics[f"{name}.iters"] = sum(iters)
        metrics[f"{name}.iters_p50"] = statistics.median(iters) if iters else 0
        metrics[f"{name}.iters_max"] = max(iters, default=0)
        metrics[f"{name}.s_per_iter"] = metrics[f"{name}.s"] / sum(iters) if iters else 0.0
        metrics[f"{name}.capped"] = len(capped)
        metrics[f"{name}.capped_s"] = sum(s.end - s.start for s in capped)

    frames = [s.info for s, _ in by_name.get("frames.random_frame", [])]
    metrics["frames.distinct_frame_ratio"] = len(set(frames)) / len(frames) if frames else 0.0

    # layer totals: self time of every span in the layer; the experiments
    # layer is the root span alone, so its self time is the harness's own work
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(x for s, x in zip(spans, selfs)
                                         if s.name.split(".")[0] == layer)
    metrics["signals.s"] = sum(metrics[f"{t[0]}.s"] for t in TARGETS if t[0].startswith("signals."))
    metrics["solver.s"] = sum(metrics[f"{n}.s"] for n in SOLVERS)
    solver_iters = sum(metrics[f"{n}.iters"] for n in SOLVERS)
    metrics["solver.iters"] = solver_iters
    metrics["solver.s_per_iter"] = metrics["solver.s"] / solver_iters if solver_iters else 0.0
    metrics["solver.capped"] = sum(metrics[f"{n}.capped"] for n in SOLVERS)
    return metrics


def format_table(metrics: dict, total_s: float) -> list:
    """Human-readable per-layer lines: calls, total and self time, share."""
    lines = [f"{'span':38s} {'calls':>7s} {'s':>9s} {'self_s':>9s} {'self%':>6s}"]
    for name in [ROOT_SPAN] + [t[0] for t in TARGETS]:
        calls = metrics[f"{name}.calls"]
        if not calls:
            continue
        self_s = metrics[f"{name}.self_s"]
        lines.append(f"{name:38s} {calls:7d} {metrics[f'{name}.s']:9.4f} {self_s:9.4f} "
                     f"{100 * self_s / total_s:6.2f}")
    for layer in LAYERS:
        lines.append(f"{'layer ' + layer:38s} {'':7s} {'':9s} {metrics[f'{layer}.self_s']:9.4f} "
                     f"{100 * metrics[f'{layer}.self_s'] / total_s:6.2f}")
    for name in SOLVERS:
        if metrics[f"{name}.calls"]:
            lines.append(
                f"{name}: iters={metrics[f'{name}.iters']} p50={metrics[f'{name}.iters_p50']} "
                f"max={metrics[f'{name}.iters_max']} s_per_iter={metrics[f'{name}.s_per_iter']:.3e} "
                f"capped={metrics[f'{name}.capped']} capped_s={metrics[f'{name}.capped_s']:.4f}")
    return lines

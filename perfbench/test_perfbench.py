"""Self-tests for the benchmark's arithmetic: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

import pytest

import checks
import tracing
from tracing import Span

SRC = Path(__file__).resolve().parent.parent / "src"


def test_self_times_synthetic_tree():
    spans = [
        Span("experiments.run_experiment", 0.0, 10.0, -1),
        Span("solver.solve_l1_equality", 1.0, 4.0, 0),
        Span("measurement.coefficient_matrix", 2.0, 3.0, 1),
        Span("frames.random_frame", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_overlapping_and_overhanging_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 5.0, 0),
        Span("b", 3.0, 7.0, 0),     # overlaps a: only 5..7 is new
        Span("c", 9.0, 12.0, 0),    # runs past the parent: clipped at 10
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_counts_and_sum():
    spans = [
        Span("experiments.run_experiment", 0.0, 20.0, -1),
        Span("frames.random_frame", 0.0, 1.0, 0, "(60, 6, 2, 7)"),
        Span("frames.random_frame", 1.0, 2.0, 0, "(60, 6, 2, 7)"),
        Span("solver.solve_l1_equality", 2.0, 5.0, 0, 100),
        Span("measurement.coefficient_matrix", 2.0, 2.5, 3),
        Span("solver.solve_l1_equality", 5.0, 15.0, 0, 50000),
        Span("solver.solve_l1_equality", 15.0, 16.0, 0, 20),
    ]
    m = tracing.layer_metrics(spans, max_iter=50000)
    assert m["solver.solve_l1_equality.calls"] == 3
    assert m["solver.solve_l1_equality.iters"] == 50120
    assert m["solver.solve_l1_equality.iters_p50"] == 100
    assert m["solver.solve_l1_equality.iters_max"] == 50000
    assert m["solver.solve_l1_equality.capped"] == 1
    assert m["solver.solve_l1_equality.capped_s"] == pytest.approx(10.0)
    assert m["solver.solve_l1_equality.self_s"] == pytest.approx(13.5)
    assert m["measurement.coefficient_matrix.s"] == pytest.approx(0.5)
    assert m["frames.distinct_frame_ratio"] == pytest.approx(0.5)
    assert m["experiments.self_s"] == pytest.approx(4.0)
    assert m["solver.s_per_iter"] == pytest.approx(14.0 / 50120)
    assert m["solver.solve_l1_noisy.calls"] == 0
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(20.0)


@pytest.mark.parametrize("n, index, percentile", [
    (11, 0, 100 / 11), (20, 9, 50.0), (100, 89, 90.0), (1000, 989, 99.0), (510, 499, 100 * 500 / 510),
])
def test_tail_latency_has_ten_samples_beyond(n, index, percentile):
    values = [float(v) for v in range(n)][::-1]  # order must not matter
    value, pct, count = checks.tail_latency(values)
    assert value == index
    assert pct == pytest.approx(percentile)
    assert count == n
    assert sum(v > value for v in values) == 10


def test_tail_latency_needs_eleven_samples():
    with pytest.raises(ValueError):
        checks.tail_latency([1.0] * 10)


def test_spread_is_quartile_distance_over_median():
    assert checks.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)


def _trial(call, cell, trial, program, objective, iterations=100, success=True, rel_err=1e-6):
    return {"call": call, "cell": cell, "trial": trial, "program": program, "seed": cell,
            "success": success, "objective": objective, "iterations": iterations,
            "capped": iterations >= 50000, "rel_err": rel_err}


def test_check_trials_capped_and_reference_failures():
    reference = [
        _trial(0, 0, 0, "FF", 1.0),
        _trial(0, 1, 0, "FF", 2.0),
        _trial(0, 2, 0, "FF", 3.0, iterations=50000),   # capped: not a minimizer
        _trial(0, 3, 0, "FF", 4.0),
        _trial(0, 4, 0, "FF", 5.0, success=False, rel_err=0.5),
        _trial(0, 5, 0, "FF", 6.0),
    ]
    trials = [
        _trial(0, 0, 0, "FF", 1.0 * (1 + 1e-3)),            # worse: rejected
        _trial(0, 1, 0, "FF", 2.0 * (1 - 1e-3)),            # lower: passes
        _trial(0, 2, 0, "FF", 3.5, iterations=50000),       # capped, worse than capped ref
        _trial(0, 3, 0, "FF", 4.0 * (1 + 1e-8)),            # within tolerance
        _trial(0, 4, 0, "FF", 5.0),                         # label flip: counted, not failed
        # cell 5 missing
    ]
    v = checks.check_trials(trials, reference, success_rel_err=1e-4)
    assert v.attempted == 5
    assert v.capped == 1
    assert v.rejected == 1
    assert v.missing == 1
    assert v.failed_solves == 2
    assert v.failed_frac == pytest.approx(2 / 5)
    assert v.label_flips == 1
    assert v.objective_max_rel_dev == pytest.approx(1e-3)


def test_check_trials_invariants_without_reference():
    trials = [
        _trial(0, 0, 0, "FF", 2.0),
        _trial(0, 1, 0, "FF", 2.0, iterations=50000),      # capped: counted, not rejected
        _trial(0, 2, 0, "FF", 1.0, success=True, rel_err=0.3),  # label disagrees
        _trial(0, 3, 0, "FF", 1.0, success=False, rel_err=0.3),
        _trial(0, 4, 0, "FF", float("nan")),
    ]
    v = checks.check_trials(trials, None, success_rel_err=1e-4)
    assert v.rejected == 2
    assert v.capped == 1
    assert v.failed_solves == 3
    assert v.failed_frac == pytest.approx(3 / 5)
    assert v.missing == 0
    assert v.label_flips == 0


def test_tracer_restores_every_name():
    sys.path.insert(0, str(SRC))
    try:
        import ffsparse
        import ffsparse.experiments
        from ffsparse.measurement import MeasurementEnsemble
    finally:
        sys.path.remove(str(SRC))
    before = {(id(mod), name): obj for mod in (ffsparse, ffsparse.experiments)
              for name, obj in vars(mod).items()}
    method = MeasurementEnsemble.__dict__["coefficient_matrix"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = ffsparse.experiments.solve_l1_equality
        assert wrapped.__wrapped__ is before[(id(ffsparse.experiments), "solve_l1_equality")]
        assert ffsparse.solve_l1_equality is wrapped  # the package re-export too
        assert MeasurementEnsemble.__dict__["coefficient_matrix"] is not method
    finally:
        tracer.restore()
    after = {(id(mod), name): obj for mod in (ffsparse, ffsparse.experiments)
             for name, obj in vars(mod).items()}
    assert after == before
    assert MeasurementEnsemble.__dict__["coefficient_matrix"] is method
    assert not hasattr(ffsparse.experiments.solve_l1_equality, "__wrapped__")

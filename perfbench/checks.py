"""The benchmark's own arithmetic: latency percentiles and trial checks.

A trial is a dict with the keys of :data:`REFERENCE_KEYS` plus ``rel_err``;
``call`` is the index of the run_experiment call in the workload's cycle.
A frozen reference stores the :data:`REFERENCE_KEYS` of every trial.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

REFERENCE_KEYS = ("call", "cell", "trial", "program", "seed", "success", "objective",
                  "iterations", "capped")

# a solve fails when its objective exceeds the reference objective by more
# than this share
OBJECTIVE_RTOL = 1e-6


def tail_latency(values: list) -> tuple:
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, sample count).  With n sorted samples that is
    the (n-10)-th smallest, the percentile 100*(n-10)/n.  Needs n >= 11.
    """
    n = len(values)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail with 10 beyond it, got {n}")
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def spread(values: list) -> float:
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _key(trial: dict) -> tuple:
    return trial["call"], trial["cell"], trial["trial"], trial["program"]


@dataclass
class Verdict:
    attempted: int = 0
    capped: int = 0
    rejected: int = 0          # solves that failed a check
    missing: int = 0           # reference solves the run did not produce
    failed_solves: int = 0     # capped or rejected
    label_flips: int = 0
    objective_max_rel_dev: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def failed_frac(self) -> float:
        return self.failed_solves / self.attempted if self.attempted else 0.0


def check_trials(trials: list, reference, success_rel_err: float,
                 rtol: float = OBJECTIVE_RTOL) -> Verdict:
    """Check one run's trials; ``reference`` is a list of reference trials
    for the same seed, or None when the seed has no frozen reference.

    Every seed: objectives and errors are finite and the success label
    agrees with rel_err.  Seeds with a reference:
    every reference solve is present, and no objective is worse than the
    reference unless the reference solve was itself capped.  Label flips and
    the largest deviation from non-capped reference objectives are counted,
    not failed.
    """
    verdict = Verdict(attempted=len(trials))
    rejected = set()

    def reject(trial, why):
        rejected.add(_key(trial))
        verdict.problems.append(f"{_key(trial)}: {why}")

    for t in trials:
        if not (math.isfinite(t["objective"]) and t["objective"] >= 0
                and math.isfinite(t["rel_err"])):
            reject(t, "non-finite or negative objective/error")
        elif bool(t["success"]) != (t["rel_err"] <= success_rel_err):
            reject(t, "success label disagrees with rel_err")

    if reference is not None:
        ref_rows = {_key(r): r for r in reference}
        seen = set()
        for t in trials:
            ref = ref_rows.get(_key(t))
            if ref is None:
                reject(t, "not in the reference")
                continue
            seen.add(_key(t))
            if bool(t["success"]) != bool(ref["success"]):
                verdict.label_flips += 1
            if ref["capped"]:
                continue
            dev = (t["objective"] - ref["objective"]) / max(abs(ref["objective"]), 1e-300)
            verdict.objective_max_rel_dev = max(verdict.objective_max_rel_dev, abs(dev))
            if dev > rtol:
                reject(t, f"objective {t['objective']!r} worse than reference {ref['objective']!r}")
        verdict.missing = len(set(ref_rows) - seen)
        if verdict.missing:
            verdict.problems.append(f"{verdict.missing} reference solves missing")

    capped = {_key(t) for t in trials if t["capped"]}
    verdict.capped = len(capped)
    verdict.rejected = len(rejected)
    verdict.failed_solves = len(capped | rejected)
    return verdict

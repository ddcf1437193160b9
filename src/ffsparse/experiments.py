"""Desk-scale experiment harness: sweeps, trial records, CSV emission.

Every experiment is described by a JSON spec (grids, trial counts, seeds)
and emits one CSV of per-trial rows plus a gnuplot-friendly ``.dat`` summary
next to it.  Output is fully deterministic: trial seeds are derived as
base_seed * 10^6 + cell_index * 10^3 + trial_index, rows are sorted before
writing, and floats are printed as shortest round-trip decimals, so the same
spec and seed produce byte-identical files for a fixed BLAS thread count
(the last digits of some solves depend on it).

Each experiment is one entry of the ``_EXPERIMENTS`` table: the grids it
needs, how its grid expands into cells, the signal it recovers, the
(row label, program) pairs each trial solves, the one summary function that
adds its keys to the summary and returns its ``.dat`` and echo lines, and
the CSV columns it writes.  The three programs (``equality_program``,
``baseline_program``, ``noisy_program``) are the ones ``ffsparse solve``
runs too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .blocks import BlockSupport, BlockVector
from .certificate import golfing_build, gram_conditions, verify_inexact
from .frames import FusionFrame, lambda_eff, random_frame
from .measurement import MeasurementEnsemble, add_noise, draw_matrix
from .signals import compressible_signal, power_law_signal, random_support, sparse_signal
from .solver import relative_error, solve_block_baseline, solve_l1_equality, solve_l1_noisy

__all__ = [
    "ExperimentSpec",
    "TrialRecord",
    "ExperimentResult",
    "SpecValidationError",
    "InfeasibleConfigError",
    "EXPERIMENT_NAMES",
    "SIGNAL_SEED_OFFSET",
    "TRIAL_COLUMNS",
    "AUDIT_COLUMNS",
    "spec_from_dict",
    "spec_from_json",
    "seeded_instance",
    "equality_program",
    "baseline_program",
    "noisy_program",
    "run_experiment",
]

SCHEMA_VERSION = 2

TRIAL_COLUMNS = (
    "experiment", "seed", "N", "d", "k", "s", "m", "lambda_eff", "kind",
    "program", "success", "rel_err", "objective", "iterations", "y_hash", "converged",
)
AUDIT_COLUMNS = TRIAL_COLUMNS[:-1] + (
    "deviation", "inv_norm", "cross_max", "on_support_gap", "off_support_max",
    "h_norm", "cert_pass", "converged",
)

_MAX_CELLS = 999
_MAX_TRIALS = 999
_NOISE_SEED_OFFSET = 10**12
# seeded_instance draws the signal with default_rng(seed + SIGNAL_SEED_OFFSET)
# next to a matrix drawn with seed: the same seed for both would tie the
# matrix entries to the support
SIGNAL_SEED_OFFSET = 5 * 10**11


class SpecValidationError(ValueError):
    """The experiment spec does not match the schema."""


class InfeasibleConfigError(ValueError):
    """The experiment spec is well formed but cannot be run."""


@dataclass
class ExperimentSpec:
    name: str
    N: int
    d: int
    k: int
    s_list: list = field(default_factory=list)
    m_list: list = field(default_factory=list)
    d_list: list = field(default_factory=list)
    sigma_list: list = field(default_factory=list)
    q_list: list = field(default_factory=list)
    theta: float = 0.12
    trials: int = 50
    base_seed: int = 1
    success_rel_err: float = 1e-4
    success_threshold: float = 0.96
    kind: str = "bernoulli"
    notes: str = ""


_SPEC_FIELDS = {f.name for f in dataclasses.fields(ExperimentSpec)}
_REQUIRED_FIELDS = {"name", "N", "d", "k"}
_GRIDS = tuple(f.name for f in dataclasses.fields(ExperimentSpec) if f.name.endswith("_list"))


def spec_from_dict(doc: dict) -> ExperimentSpec:
    unknown = set(doc) - _SPEC_FIELDS
    if unknown:
        raise SpecValidationError(f"unknown spec fields: {sorted(unknown)}")
    missing = _REQUIRED_FIELDS - set(doc)
    if missing:
        raise SpecValidationError(f"missing spec fields: {sorted(missing)}")
    try:
        return ExperimentSpec(**doc)
    except TypeError as exc:
        raise SpecValidationError(str(exc)) from exc


def spec_from_json(text: str) -> ExperimentSpec:
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecValidationError("spec must be a JSON object")
    return spec_from_dict(doc)


# (fields, types, what each must be), checked before any value is used; no
# bool passes, though Python counts it as an int, and no NaN or infinity
_FIELD_TYPES = (
    (("N", "d", "k", "trials", "base_seed"), int, "an integer"),
    (("theta", "success_rel_err", "success_threshold"), (int, float), "a finite number"),
    (("s_list", "m_list", "d_list"), int, "a list of integers"),
    (("sigma_list", "q_list"), (int, float), "a list of finite numbers"),
)


def validate_spec(spec: ExperimentSpec) -> None:
    if spec.name not in EXPERIMENT_NAMES:
        raise SpecValidationError(f"unknown experiment {spec.name!r}")
    for names, types, what in _FIELD_TYPES:
        for name in names:
            value = getattr(spec, name)
            values = value if name.endswith("_list") else [value]
            if not isinstance(values, list) or any(
                    isinstance(v, bool) or not isinstance(v, types)
                    or (isinstance(v, float) and not math.isfinite(v)) for v in values):
                raise SpecValidationError(f"{name} must be {what}")
    if spec.kind not in ("bernoulli", "gaussian"):
        raise SpecValidationError(f"unknown matrix kind {spec.kind!r}")
    if spec.trials < 1:
        raise SpecValidationError("trials must be >= 1")
    if spec.base_seed < 0:
        raise SpecValidationError("base_seed must be >= 0")
    if not 0 < spec.success_threshold <= 1:
        raise SpecValidationError("success_threshold must lie in (0, 1]")
    if spec.success_rel_err <= 0:
        raise SpecValidationError("success_rel_err must be positive")
    if spec.N < 1 or spec.d < 1 or spec.k < 1:
        raise SpecValidationError("N, d, k must be >= 1")
    if spec.theta < 0:
        raise SpecValidationError("theta must be nonnegative")

    if spec.k > spec.d:
        raise InfeasibleConfigError(f"subspace dimension k={spec.k} exceeds ambient d={spec.d}")
    for dd in spec.d_list:
        if spec.k > dd:
            raise InfeasibleConfigError(f"subspace dimension k={spec.k} exceeds ambient d={dd}")
    if spec.trials > _MAX_TRIALS:
        raise InfeasibleConfigError(f"trials must be <= {_MAX_TRIALS} for collision-free seeding")

    experiment = _EXPERIMENTS[spec.name]
    for grid_name in experiment.grids:
        if not getattr(spec, grid_name):
            raise SpecValidationError(f"{spec.name} requires a nonempty {grid_name}")
    for grid_name in _GRIDS:
        values = getattr(spec, grid_name)
        if values and grid_name not in experiment.grids + experiment.optional_grids:
            raise SpecValidationError(f"{spec.name} does not read {grid_name}")
        if len(values) > 1 and grid_name in experiment.single:
            raise SpecValidationError(f"{spec.name} reads one value of {grid_name}, "
                                      f"got {len(values)}")
    for rejects, message in experiment.rejects:
        if rejects(spec):
            raise SpecValidationError(message)

    for s in spec.s_list:
        if s < 0 or s > spec.N:
            raise InfeasibleConfigError(f"sparsity s={s} out of range for N={spec.N}")
    cells = _cells(spec)
    if len(cells) > _MAX_CELLS:
        raise InfeasibleConfigError(f"grid has more than {_MAX_CELLS} cells")
    # auxiliary seed slots: signals live below 500, frames at 500 and above
    if cells and max(c["signal_slot"] for c in cells) >= 500:
        raise InfeasibleConfigError("grid needs more than 500 distinct signals")
    if cells and max(c["group"] for c in cells) >= 499:
        raise InfeasibleConfigError("grid needs more than 499 frame groups")


@dataclass
class TrialRecord:
    experiment: str
    seed: int
    N: int
    d: int
    k: int
    s: int
    m: int
    lambda_eff: float
    kind: str
    program: str
    success: bool
    rel_err: float
    objective: float
    iterations: int
    y_hash: str
    converged: bool  # False: the solve ended without meeting its stopping test
    deviation: Optional[float] = None
    inv_norm: Optional[float] = None
    cross_max: Optional[float] = None
    on_support_gap: Optional[float] = None
    off_support_max: Optional[float] = None
    h_norm: Optional[float] = None
    cert_pass: Optional[bool] = None
    wall_time: float = 0.0  # never serialized: CSV output must be reproducible
    cell_index: int = 0
    trial_index: int = 0


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list
    summary: dict
    csv_path: Optional[Path] = None
    dat_path: Optional[Path] = None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _trial_seed(base_seed: int, cell_index: int, trial_index: int) -> int:
    return base_seed * 1_000_000 + cell_index * 1_000 + trial_index


def _aux_seed(base_seed: int, slot: int) -> int:
    # 999_xxx block is reserved: cell indices are validated to stay below 999
    return base_seed * 1_000_000 + 999_000 + slot


def _frame_seed(base_seed: int, group_index: int) -> int:
    return _aux_seed(base_seed, 500 + group_index)


def _hash_blocks(y: BlockVector) -> str:
    return hashlib.sha256(np.ascontiguousarray(y.blocks).tobytes()).hexdigest()[:12]


def _wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _linear_fit(xs, ys) -> Optional[dict]:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2 or float(np.var(xs)) == 0.0:
        return None
    design = np.vstack([np.ones_like(xs), xs]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"intercept": float(coef[0]), "slope": float(coef[1]), "r2": r2}


def _fit_text(fit: dict) -> str:
    return f"slope={_fmt(fit['slope'])} intercept={_fmt(fit['intercept'])} r2={_fmt(fit['r2'])}"


def seeded_instance(frame: FusionFrame, kind: str, m: int, s: int,
                    seed: int) -> tuple[BlockSupport, BlockVector, MeasurementEnsemble]:
    """A random s-block support, a unit-norm sparse signal on it (both drawn
    from default_rng(seed + SIGNAL_SEED_OFFSET)) and an m-row ensemble of
    the given kind drawn with seed."""
    rng = np.random.default_rng(seed + SIGNAL_SEED_OFFSET)
    support = random_support(frame.n_subspaces, s, rng)
    x = sparse_signal(frame, support, rng)
    ensemble = draw_matrix(kind, m, frame.n_subspaces, seed, frame)
    return support, x, ensemble


def _trial_record(spec: ExperimentSpec, cell: dict, trial: int, seed: int, leff: float,
                  program: str, report, x: BlockVector, y: BlockVector,
                  **extras) -> TrialRecord:
    rel = relative_error(report.x_hat, x)
    return TrialRecord(
        experiment=spec.name, seed=seed, N=spec.N, d=cell["d"], k=spec.k,
        s=cell["s"], m=cell["m"], lambda_eff=leff, kind=spec.kind, program=program,
        success=rel <= spec.success_rel_err, rel_err=rel, objective=report.objective,
        iterations=report.iterations, y_hash=_hash_blocks(y), converged=report.converged,
        wall_time=report.wall_time, cell_index=cell["index"], trial_index=trial, **extras,
    )


# ---------------------------------------------------------------------------
# per-experiment parts: cells, checks, signals, programs, summaries
#
# Every function below calls the layer functions (random_frame, draw_matrix,
# solve_l1_*, golfing_build, ...) by their module-level names when it runs,
# so rebinding those names (span tracing, test doubles) reaches every call.


def _cell(d, s, m, group: int, signal_slot: int, **grid) -> dict:
    return {"d": d, "s": s, "m": m, **grid, "group": group, "signal_slot": signal_slot}


def _transition_cells(spec: ExperimentSpec) -> list[dict]:
    """s x m grid on one frame, one signal per s."""
    return [_cell(spec.d, int(s), int(m), 0, s_idx)
            for s_idx, s in enumerate(spec.s_list) for m in spec.m_list]


def _group_cells(spec: ExperimentSpec) -> list[dict]:
    """One frame and one signal per ambient dimension, each swept over m."""
    s = int(spec.s_list[0])
    return [_cell(int(dd), s, int(m), g_idx, g_idx)
            for g_idx, dd in enumerate(spec.d_list or [spec.d]) for m in spec.m_list]


def _noise_cells(spec: ExperimentSpec) -> list[dict]:
    s, m = int(spec.s_list[0]), int(spec.m_list[0])
    return [_cell(int(dd), s, m, g_idx, g_idx, sigma=float(sigma))
            for g_idx, dd in enumerate(spec.d_list or [spec.d]) for sigma in spec.sigma_list]


def _power_law_cells(spec: ExperimentSpec) -> list[dict]:
    m, n_q = int(spec.m_list[0]), len(spec.q_list)
    return [_cell(int(dd), spec.N, m, g_idx, g_idx * n_q + q_idx, q=float(q))
            for g_idx, dd in enumerate(spec.d_list or [spec.d])
            for q_idx, q in enumerate(spec.q_list)]


def _audit_cells(spec: ExperimentSpec) -> list[dict]:
    s = int(spec.s_list[0])
    return [_cell(spec.d, s, int(m), 0, 0) for m in spec.m_list]


def _sparse(spec, cell, frame, rng) -> BlockVector:
    return sparse_signal(frame, random_support(spec.N, cell["s"], rng), rng)


def _compressible(spec, cell, frame, rng) -> BlockVector:
    return compressible_signal(frame, random_support(spec.N, cell["s"], rng), spec.theta, rng)


def _power_law(spec, cell, frame, rng) -> BlockVector:
    return power_law_signal(frame, cell["q"], rng)


# programs: (ensemble, y, sigma, seed) -> (report, measurements solved), where
# sigma is the noise level and seed the seed the ensemble was drawn with


def equality_program(ensemble, y, sigma, seed):
    """The (2,1)-norm program subject to y."""
    return solve_l1_equality(ensemble, y), y


def baseline_program(ensemble, y, sigma, seed):
    """The block-sparsity baseline, blind to the subspaces."""
    return solve_block_baseline(ensemble, y), y


def noisy_program(ensemble, y, sigma, seed):
    """The sigma-ball program on y plus noise drawn from seed + _NOISE_SEED_OFFSET."""
    sample = add_noise(y, sigma, seed + _NOISE_SEED_OFFSET)
    return solve_l1_noisy(ensemble, sample.y, sigma), sample.y


def _signal_lambda_eff(frame: FusionFrame, x: BlockVector) -> float:
    active = np.nonzero(x.block_norms() > 0)[0]
    if active.size == 0:
        return 0.0
    return lambda_eff(frame, BlockSupport(active))


def _run_sweep_cell(spec: ExperimentSpec, cell: dict, frame: FusionFrame) -> list[TrialRecord]:
    """One signal per cell, a fresh matrix per trial, every program of the
    experiment on each trial's measurements."""
    experiment = _EXPERIMENTS[spec.name]
    x = _cell_signal(spec, cell, frame)
    leff = _signal_lambda_eff(frame, x)
    rows = []
    for trial in range(spec.trials):
        seed = _trial_seed(spec.base_seed, cell["index"], trial)
        ensemble = draw_matrix(spec.kind, cell["m"], spec.N, seed, frame)
        y = ensemble.measure(x)
        for label, program in experiment.programs:
            report, y_solved = program(ensemble, y, cell.get("sigma", 0.0), seed)
            rows.append(_trial_record(spec, cell, trial, seed, leff, label, report, x, y_solved))
    return rows


def _run_audit_cell(spec: ExperimentSpec, cell: dict, frame: FusionFrame) -> list[TrialRecord]:
    """A fresh seeded signal per trial, audited by the Gram conditions and
    the golfing certificate before the equality program solves it."""
    rows = []
    for trial in range(spec.trials):
        seed = _trial_seed(spec.base_seed, cell["index"], trial)
        support, x, ensemble = seeded_instance(frame, spec.kind, cell["m"], cell["s"], seed)
        y = ensemble.measure(x)
        gram = gram_conditions(ensemble, support)
        cert = golfing_build(ensemble, x)
        passed, _ = verify_inexact(cert, gram)
        report = solve_l1_equality(ensemble, y)
        rows.append(_trial_record(
            spec, cell, trial, seed, lambda_eff(frame, support), "FF", report, x, y,
            deviation=gram.deviation, inv_norm=gram.inv_norm, cross_max=gram.cross_max,
            on_support_gap=cert.on_support_gap, off_support_max=cert.off_support_max,
            h_norm=cert.h_norm, cert_pass=passed,
        ))
    return rows


# summaries: (spec, summary, rows) -> (.dat lines, echo lines); each adds the
# experiment's keys (and notes) to the summary


def _no_summary(spec, summary, rows) -> tuple[list, list]:
    return [], []


def _minimal_m_summary(spec, summary, rows) -> tuple[list, list]:
    minimal: dict = {}
    for label, _ in _EXPERIMENTS[spec.name].programs:
        for s in spec.s_list:
            hits = [e["m"] for e in summary["cells"]
                    if e["program"] == label and e["s"] == s
                    and e["rate"] >= spec.success_threshold]
            minimal[(label, int(s))] = min(hits, default=None)
    summary["minimal_m"] = minimal
    items = sorted(minimal.items())
    return (
        [f"# minimal_m program={label} s={s} m={'none' if m is None else m}"
         for (label, s), m in items],
        [f"minimal m for >= {spec.success_threshold:.0%} success, "
         f"program={label}, s={s}: {'none' if m is None else m}" for (label, s), m in items],
    )


def _trend_summary(spec, summary, rows) -> tuple[list, list]:
    points = []
    for g_idx, dd in enumerate(spec.d_list):
        entries = [e for e in summary["cells"] if e["group"] == g_idx]
        m_min = min((e["m"] for e in entries if e["rate"] >= spec.success_threshold),
                    default=None)
        leff = entries[0]["lambda_eff"] if entries else 0.0
        points.append({"group": g_idx, "d": dd, "lambda_eff": leff, "minimal_m": m_min})
        if m_min is None:
            summary["notes"].append(
                f"group {g_idx} (d={dd}): no m in grid reaches "
                f"{spec.success_threshold:.0%} success")
    summary["trend_points"] = points
    usable = [(p["lambda_eff"], p["minimal_m"]) for p in points if p["minimal_m"] is not None]
    fit = _linear_fit([u[0] for u in usable], [u[1] for u in usable]) if len(usable) >= 2 else None
    summary["fit"] = fit
    if fit is None:
        summary["notes"].append("linear fit refused: fewer than two usable trend points")
        return [], []
    return ([f"# fit {_fit_text(fit)}"],
            [f"trend fit: slope={fit['slope']:.3f} intercept={fit['intercept']:.3f} "
             f"r2={fit['r2']:.3f}"])


def _noise_fit_summary(spec, summary, rows) -> tuple[list, list]:
    fits = {}
    for g_idx in range(len(spec.d_list or [spec.d])):
        entries = [e for e in summary["cells"] if e["group"] == g_idx]
        fit = _linear_fit([e["sigma"] for e in entries], [e["mean_rel_err"] for e in entries])
        fits[g_idx] = fit
        if fit is None:
            summary["notes"].append(f"group {g_idx}: error-vs-sigma fit refused")
    summary["fits"] = fits
    return [f"# fit group={g_idx} {_fit_text(fit)}" for g_idx, fit in fits.items() if fit], []


def _contingency_summary(spec, summary, rows) -> tuple[list, list]:
    table = {"pass_success": 0, "pass_fail": 0, "fail_success": 0, "fail_fail": 0}
    for row in rows:
        key = ("pass" if row.cert_pass else "fail") + ("_success" if row.success else "_fail")
        table[key] += 1
    summary["contingency"] = table
    return (["# contingency " + " ".join(f"{k}={v}" for k, v in sorted(table.items()))],
            [f"contingency: {table}"])


@dataclass(frozen=True)
class _Experiment:
    grids: tuple  # spec grids that must be nonempty, checked in this order
    cells: Callable  # spec -> cell dicts in cell-index order
    single: tuple = ()  # grids of which only the first value is read: one allowed
    optional_grids: tuple = ()  # grids also read when nonempty; any other must be empty
    rejects: tuple = ()  # (spec -> bool, message): grid checks past nonemptiness
    signal: Callable = _sparse  # (spec, cell, frame, rng) -> the cell's signal
    programs: tuple = (("FF", equality_program),)  # (row label, program) per trial
    run_cell: Callable = _run_sweep_cell  # (spec, cell, frame) -> rows
    summarize: Callable = _no_summary  # (spec, summary, rows) -> (.dat lines, echo lines)
    columns: tuple = TRIAL_COLUMNS
    # run each group's cells in ascending m and stop at the first that
    # reaches the success threshold
    minimal_m_search: bool = False


_EXPERIMENTS = {
    "phase_transition": _Experiment(
        grids=("s_list", "m_list"), cells=_transition_cells, summarize=_minimal_m_summary),
    "ff_vs_block": _Experiment(
        grids=("s_list", "m_list"), cells=_transition_cells,
        programs=(("FF", equality_program), ("block", baseline_program)),
        summarize=_minimal_m_summary),
    "m_vs_lambda_eff": _Experiment(
        grids=("d_list", "m_list", "s_list"), single=("s_list",), cells=_group_cells,
        summarize=_trend_summary, minimal_m_search=True),
    "stable_theta": _Experiment(
        grids=("s_list", "m_list"), single=("s_list",), optional_grids=("d_list",),
        cells=_group_cells, signal=_compressible),
    "noisy_sigma": _Experiment(
        grids=("s_list", "m_list", "sigma_list"), single=("s_list", "m_list"),
        optional_grids=("d_list",), cells=_noise_cells,
        rejects=((lambda spec: any(v < 0 for v in spec.sigma_list),
                  "sigma values must be nonnegative"),),
        programs=(("FF", noisy_program),), summarize=_noise_fit_summary),
    "power_law_q": _Experiment(
        grids=("q_list", "m_list"), single=("m_list",), optional_grids=("d_list",),
        cells=_power_law_cells,
        rejects=((lambda spec: any(v <= 0 for v in spec.q_list), "q values must be positive"),),
        signal=_power_law),
    "certificate_audit": _Experiment(
        grids=("s_list", "m_list"), single=("s_list",), cells=_audit_cells,
        rejects=((lambda spec: spec.s_list[0] < 1, "certificate_audit needs s >= 1"),),
        run_cell=_run_audit_cell, summarize=_contingency_summary, columns=AUDIT_COLUMNS),
}

EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


# ---------------------------------------------------------------------------
# cell enumeration and execution


def _cells(spec: ExperimentSpec) -> list[dict]:
    """Flat, ordered cell descriptors; the position is the cell index."""
    cells = _EXPERIMENTS[spec.name].cells(spec)
    for index, cell in enumerate(cells):
        cell["index"] = index
    return cells


def _group_frame(spec: ExperimentSpec, cell: dict) -> FusionFrame:
    return random_frame(spec.N, cell["d"], spec.k, _frame_seed(spec.base_seed, cell["group"]))


def _cell_signal(spec: ExperimentSpec, cell: dict, frame: FusionFrame) -> BlockVector:
    rng = np.random.default_rng(_aux_seed(spec.base_seed, cell["signal_slot"]))
    return _EXPERIMENTS[spec.name].signal(spec, cell, frame, rng)


# ---------------------------------------------------------------------------
# aggregation and output


def _aggregate(spec: ExperimentSpec, cells: list[dict], rows: list[TrialRecord]) -> dict:
    experiment = _EXPERIMENTS[spec.name]
    summary: dict = {"experiment": spec.name, "notes": [], "cells": [],
                     "capped": sum(not r.converged for r in rows)}
    by_cell: dict[tuple, list[TrialRecord]] = {}
    for row in rows:
        by_cell.setdefault((row.cell_index, row.program), []).append(row)

    for cell in cells:
        if cell["m"] < 1:
            summary["notes"].append(f"cell {cell['index']} skipped: m={cell['m']} infeasible")
            continue
        for program, _ in experiment.programs:
            cell_rows = by_cell.get((cell["index"], program))
            if not cell_rows:
                continue  # above its group's minimal m: skipped by the search
            n = len(cell_rows)
            successes = sum(r.success for r in cell_rows)
            lo, hi = _wilson_interval(successes, n)
            entry = {
                "cell_index": cell["index"], "group": cell["group"], "program": program,
                "d": cell["d"], "s": cell["s"], "m": cell["m"], "trials": n,
                "successes": successes, "rate": successes / n,
                "wilson_lo": lo, "wilson_hi": hi,
                "mean_rel_err": float(np.mean([r.rel_err for r in cell_rows])),
                "lambda_eff": cell_rows[0].lambda_eff,
            }
            for key in ("sigma", "q"):
                if key in cell:
                    entry[key] = cell[key]
            summary["cells"].append(entry)
    return summary


def _write_csv(path: Path, spec: ExperimentSpec, rows: list[TrialRecord]) -> None:
    columns = _EXPERIMENTS[spec.name].columns
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_dat(path: Path, spec: ExperimentSpec, summary: dict, summary_lines: list) -> None:
    lines = [f"# {spec.name} summary (schema v{SCHEMA_VERSION})"]
    cols = ["group", "program", "d", "s", "m", "lambda_eff", "trials", "successes",
            "rate", "wilson_lo", "wilson_hi", "mean_rel_err"]
    extra = [c for c in ("sigma", "q") if any(c in e for e in summary["cells"])]
    lines.append("# " + " ".join(cols + extra))
    for entry in summary["cells"]:
        values = [entry[c] for c in cols] + [entry.get(c, "") for c in extra]
        lines.append(" ".join(_fmt(v) for v in values))
    lines += summary_lines
    lines.append(f"# capped {summary['capped']}")
    lines += [f"# note {note}" for note in summary["notes"]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _run_job(args) -> list[TrialRecord]:
    """Run a job's cells in ascending m.  A job is one cell, or one frame
    group under the minimal-m search, which stops after the first cell that
    reaches the success threshold.  Cell indices (and therefore seeds) are
    fixed by the full grid, so the visited cells' rows are those of a full
    sweep."""
    spec, cells, frame = args
    experiment = _EXPERIMENTS[spec.name]
    needed = math.ceil(spec.success_threshold * spec.trials - 1e-9)
    rows: list[TrialRecord] = []
    for cell in sorted(cells, key=lambda c: c["m"]):
        cell_rows = experiment.run_cell(spec, cell, frame)
        rows.extend(cell_rows)
        if experiment.minimal_m_search and sum(r.success for r in cell_rows) >= needed:
            break
    return rows


def run_experiment(spec: ExperimentSpec, out_csv=None, threads: int = 1,
                   echo=None) -> ExperimentResult:
    """Run all cells of an experiment, write the CSV (and ``.dat`` summary)
    when a path is given, and return rows plus aggregates.

    Cells execute independently; with ``threads`` > 1 they are distributed
    over worker processes.  Row order, and therefore output bytes, do not
    depend on scheduling.
    """
    validate_spec(spec)
    experiment = _EXPERIMENTS[spec.name]
    cells = _cells(spec)
    # one frame per group, shared by its cells; cells with m < 1 are left
    # out (_aggregate notes them)
    frames: dict[int, FusionFrame] = {}
    jobs: dict[int, tuple] = {}
    for cell in cells:
        if cell["m"] < 1:
            continue
        if cell["group"] not in frames:
            frames[cell["group"]] = _group_frame(spec, cell)
        key = cell["group"] if experiment.minimal_m_search else cell["index"]
        jobs.setdefault(key, (spec, [], frames[cell["group"]]))[1].append(cell)

    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_job, jobs.values()))
    else:
        results = [_run_job(job) for job in jobs.values()]

    rows = [row for cell_rows in results for row in cell_rows]
    rows.sort(key=lambda r: (r.cell_index, r.trial_index, r.program))
    summary = _aggregate(spec, cells, rows)
    dat_lines, echo_lines = experiment.summarize(spec, summary, rows)

    csv_path = dat_path = None
    if out_csv is not None:
        csv_path = Path(out_csv)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(csv_path, spec, rows)
        dat_path = csv_path.with_suffix(".dat")
        _write_dat(dat_path, spec, summary, dat_lines)

    if echo is not None:
        for note in summary["notes"]:
            echo(f"note: {note}")
        for line in echo_lines:
            echo(line)
        echo(f"capped solves: {summary['capped']}")

    return ExperimentResult(spec=spec, rows=rows, summary=summary,
                            csv_path=csv_path, dat_path=dat_path)

"""Desk-scale experiment harness: sweeps, trial records, CSV emission.

Every experiment is described by a JSON spec (grids, trial counts, seeds)
and emits one CSV of per-trial rows plus a gnuplot-friendly ``.dat`` summary
next to it.  Output is fully deterministic: trial seeds are derived as
base_seed * 10^6 + cell_index * 10^3 + trial_index, rows are sorted before
writing, and floats are printed as shortest round-trip decimals, so the same
spec and seed always produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .blocks import BlockSupport, BlockVector
from .certificate import golfing_build, gram_conditions, verify_inexact
from .frames import FusionFrame, incoherence, lambda_eff, random_frame
from .measurement import add_noise, draw_matrix
from .signals import compressible_signal, power_law_signal, random_support, sparse_signal
from .solver import (
    SolverConfig,
    relative_error,
    solve_block_baseline,
    solve_l1_equality,
    solve_l1_noisy,
)

__all__ = [
    "ExperimentSpec",
    "TrialRecord",
    "ExperimentResult",
    "SpecValidationError",
    "InfeasibleConfigError",
    "EXPERIMENT_NAMES",
    "TRIAL_COLUMNS",
    "AUDIT_COLUMNS",
    "spec_from_dict",
    "spec_from_json",
    "run_experiment",
]

EXPERIMENT_NAMES = (
    "phase_transition",
    "ff_vs_block",
    "m_vs_lambda_eff",
    "stable_theta",
    "noisy_sigma",
    "power_law_q",
    "certificate_audit",
)

SCHEMA_VERSION = 1

TRIAL_COLUMNS = (
    "experiment", "seed", "N", "d", "k", "s", "m", "lambda_eff", "kind",
    "program", "success", "rel_err", "objective", "iterations", "y_hash",
)
AUDIT_COLUMNS = TRIAL_COLUMNS + (
    "deviation", "inv_norm", "cross_max", "on_support_gap", "off_support_max",
    "h_norm", "cert_pass",
)

_MAX_CELLS = 999
_MAX_TRIALS = 999
_NOISE_SEED_OFFSET = 10**12
_AUDIT_SIGNAL_OFFSET = 5 * 10**11


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


def _needs(spec: ExperimentSpec, grid_name: str) -> list:
    grid = getattr(spec, grid_name)
    if not grid:
        raise SpecValidationError(f"{spec.name} requires a nonempty {grid_name}")
    return grid


def validate_spec(spec: ExperimentSpec) -> None:
    if spec.name not in EXPERIMENT_NAMES:
        raise SpecValidationError(f"unknown experiment {spec.name!r}")
    if spec.kind not in ("bernoulli", "gaussian"):
        raise SpecValidationError(f"unknown matrix kind {spec.kind!r}")
    if spec.trials < 1:
        raise SpecValidationError("trials must be >= 1")
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

    if spec.name in ("phase_transition", "ff_vs_block"):
        _needs(spec, "s_list")
        _needs(spec, "m_list")
    elif spec.name == "m_vs_lambda_eff":
        _needs(spec, "d_list")
        _needs(spec, "m_list")
        _needs(spec, "s_list")
    elif spec.name == "stable_theta":
        _needs(spec, "s_list")
        _needs(spec, "m_list")
    elif spec.name == "noisy_sigma":
        _needs(spec, "s_list")
        _needs(spec, "m_list")
        _needs(spec, "sigma_list")
        if any(v < 0 for v in spec.sigma_list):
            raise SpecValidationError("sigma values must be nonnegative")
    elif spec.name == "power_law_q":
        _needs(spec, "q_list")
        _needs(spec, "m_list")
        if any(v <= 0 for v in spec.q_list):
            raise SpecValidationError("q values must be positive")
    elif spec.name == "certificate_audit":
        _needs(spec, "s_list")
        _needs(spec, "m_list")
        if spec.s_list[0] < 1:
            raise SpecValidationError("certificate_audit needs s >= 1")

    for grid_name in ("s_list", "m_list", "d_list"):
        for value in getattr(spec, grid_name):
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecValidationError(f"{grid_name} entries must be integers")
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


def _signal_seed(base_seed: int, slot: int) -> int:
    return _aux_seed(base_seed, slot)


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


# ---------------------------------------------------------------------------
# cell enumeration and execution


def _cells(spec: ExperimentSpec) -> list[dict]:
    """Flat, ordered cell descriptors; the position is the cell index."""
    cells = []
    if spec.name in ("phase_transition", "ff_vs_block"):
        for s_idx, s in enumerate(spec.s_list):
            for m in spec.m_list:
                cells.append({"d": spec.d, "s": int(s), "m": int(m),
                              "group": 0, "signal_slot": s_idx})
    elif spec.name == "m_vs_lambda_eff":
        s = int(spec.s_list[0])
        for g_idx, dd in enumerate(spec.d_list):
            for m in spec.m_list:
                cells.append({"d": int(dd), "s": s, "m": int(m),
                              "group": g_idx, "signal_slot": g_idx})
    elif spec.name == "stable_theta":
        s = int(spec.s_list[0])
        groups = spec.d_list or [spec.d]
        for g_idx, dd in enumerate(groups):
            for m in spec.m_list:
                cells.append({"d": int(dd), "s": s, "m": int(m),
                              "group": g_idx, "signal_slot": g_idx})
    elif spec.name == "noisy_sigma":
        s = int(spec.s_list[0])
        m = int(spec.m_list[0])
        groups = spec.d_list or [spec.d]
        for g_idx, dd in enumerate(groups):
            for sigma in spec.sigma_list:
                cells.append({"d": int(dd), "s": s, "m": m, "sigma": float(sigma),
                              "group": g_idx, "signal_slot": g_idx})
    elif spec.name == "power_law_q":
        m = int(spec.m_list[0])
        groups = spec.d_list or [spec.d]
        for g_idx, dd in enumerate(groups):
            for q_idx, q in enumerate(spec.q_list):
                cells.append({"d": int(dd), "s": spec.N, "m": m, "q": float(q),
                              "group": g_idx,
                              "signal_slot": g_idx * len(spec.q_list) + q_idx})
    elif spec.name == "certificate_audit":
        s = int(spec.s_list[0])
        for m in spec.m_list:
            cells.append({"d": spec.d, "s": s, "m": int(m), "group": 0, "signal_slot": 0})
    for index, cell in enumerate(cells):
        cell["index"] = index
    return cells


def _group_frame(spec: ExperimentSpec, cell: dict) -> FusionFrame:
    return random_frame(spec.N, cell["d"], spec.k, _frame_seed(spec.base_seed, cell["group"]))


def _cell_signal(spec: ExperimentSpec, cell: dict, frame: FusionFrame) -> BlockVector:
    rng = np.random.default_rng(_signal_seed(spec.base_seed, cell["signal_slot"]))
    if spec.name == "stable_theta":
        support = random_support(spec.N, cell["s"], rng)
        return compressible_signal(frame, support, spec.theta, rng)
    if spec.name == "power_law_q":
        return power_law_signal(frame, cell["q"], rng)
    support = random_support(spec.N, cell["s"], rng)
    return sparse_signal(frame, support, rng)


def _signal_lambda_eff(frame: FusionFrame, x: BlockVector) -> float:
    active = np.nonzero(x.block_norms() > 0)[0]
    if active.size == 0:
        return 0.0
    return lambda_eff(incoherence(frame), BlockSupport(active))


def _run_cell(spec: ExperimentSpec, cell: dict, frame: FusionFrame) -> list[TrialRecord]:
    if cell["m"] < 1:
        return []
    cfg = SolverConfig(success_rel_err=spec.success_rel_err)
    if spec.name == "certificate_audit":
        return _run_audit_cell(spec, cell, frame, cfg)

    x = _cell_signal(spec, cell, frame)
    leff = _signal_lambda_eff(frame, x)
    rows = []
    for trial in range(spec.trials):
        seed = _trial_seed(spec.base_seed, cell["index"], trial)
        ensemble = draw_matrix(spec.kind, cell["m"], spec.N, seed, frame, normalized=True)
        y = ensemble.measure(x)

        if spec.name == "noisy_sigma":
            sample = add_noise(y, cell["sigma"], seed + _NOISE_SEED_OFFSET, ensemble.scale)
            report = solve_l1_noisy(ensemble, sample.y, cell["sigma"], cfg)
            y_used = sample.y
        else:
            report = solve_l1_equality(ensemble, y, cfg)
            y_used = y
        rel = relative_error(report.x_hat, x)
        rows.append(TrialRecord(
            experiment=spec.name, seed=seed, N=spec.N, d=cell["d"], k=spec.k,
            s=cell["s"], m=cell["m"], lambda_eff=leff, kind=spec.kind, program="FF",
            success=rel <= spec.success_rel_err, rel_err=rel, objective=report.objective,
            iterations=report.iterations, y_hash=_hash_blocks(y_used),
            wall_time=report.wall_time, cell_index=cell["index"], trial_index=trial,
        ))
        if spec.name == "ff_vs_block":
            base = solve_block_baseline(ensemble, y, cfg)
            rel_b = relative_error(base.x_hat, x)
            rows.append(TrialRecord(
                experiment=spec.name, seed=seed, N=spec.N, d=cell["d"], k=spec.k,
                s=cell["s"], m=cell["m"], lambda_eff=leff, kind=spec.kind, program="block",
                success=rel_b <= spec.success_rel_err, rel_err=rel_b, objective=base.objective,
                iterations=base.iterations, y_hash=_hash_blocks(y),
                wall_time=base.wall_time, cell_index=cell["index"], trial_index=trial,
            ))
    return rows


def _run_audit_cell(spec: ExperimentSpec, cell: dict, frame: FusionFrame,
                    cfg: SolverConfig) -> list[TrialRecord]:
    incoh = incoherence(frame)
    rows = []
    for trial in range(spec.trials):
        seed = _trial_seed(spec.base_seed, cell["index"], trial)
        rng = np.random.default_rng(seed + _AUDIT_SIGNAL_OFFSET)
        support = random_support(spec.N, cell["s"], rng)
        x = sparse_signal(frame, support, rng)
        ensemble = draw_matrix(spec.kind, cell["m"], spec.N, seed, frame, normalized=True)
        y = ensemble.measure(x)

        gram = gram_conditions(ensemble, support)
        cert = golfing_build(ensemble, x)
        passed, _ = verify_inexact(cert, gram)
        report = solve_l1_equality(ensemble, y, cfg)
        rel = relative_error(report.x_hat, x)
        rows.append(TrialRecord(
            experiment=spec.name, seed=seed, N=spec.N, d=cell["d"], k=spec.k,
            s=cell["s"], m=cell["m"], lambda_eff=lambda_eff(incoh, support),
            kind=spec.kind, program="FF",
            success=rel <= spec.success_rel_err, rel_err=rel, objective=report.objective,
            iterations=report.iterations, y_hash=_hash_blocks(y),
            deviation=gram.deviation, inv_norm=gram.inv_norm, cross_max=gram.cross_max,
            on_support_gap=cert.on_support_gap, off_support_max=cert.off_support_max,
            h_norm=cert.h_norm, cert_pass=passed,
            wall_time=report.wall_time, cell_index=cell["index"], trial_index=trial,
        ))
    return rows


# ---------------------------------------------------------------------------
# aggregation and output


def _aggregate(spec: ExperimentSpec, cells: list[dict], rows: list[TrialRecord]) -> dict:
    summary: dict = {"experiment": spec.name, "notes": [], "cells": []}
    by_cell: dict[tuple, list[TrialRecord]] = {}
    for row in rows:
        by_cell.setdefault((row.cell_index, row.program), []).append(row)

    for cell in cells:
        if cell["m"] < 1:
            summary["notes"].append(f"cell {cell['index']} skipped: m={cell['m']} infeasible")
            continue
        programs = ("FF", "block") if spec.name == "ff_vs_block" else ("FF",)
        for program in programs:
            cell_rows = by_cell.get((cell["index"], program), [])
            n = len(cell_rows)
            if n == 0 and spec.name == "m_vs_lambda_eff":
                continue  # cell above the group's minimal m: skipped by design
            successes = sum(r.success for r in cell_rows)
            lo, hi = _wilson_interval(successes, n)
            entry = {
                "cell_index": cell["index"], "group": cell["group"], "program": program,
                "d": cell["d"], "s": cell["s"], "m": cell["m"], "trials": n,
                "successes": successes, "rate": successes / n if n else 0.0,
                "wilson_lo": lo, "wilson_hi": hi,
                "mean_rel_err": float(np.mean([r.rel_err for r in cell_rows])) if n else 0.0,
                "lambda_eff": cell_rows[0].lambda_eff if n else 0.0,
            }
            if "sigma" in cell:
                entry["sigma"] = cell["sigma"]
            if "q" in cell:
                entry["q"] = cell["q"]
            summary["cells"].append(entry)

    if spec.name in ("phase_transition", "ff_vs_block"):
        minimal: dict = {}
        for program in ("FF", "block") if spec.name == "ff_vs_block" else ("FF",):
            for s in spec.s_list:
                hits = [e for e in summary["cells"]
                        if e["program"] == program and e["s"] == s
                        and e["rate"] >= spec.success_threshold]
                key = (program, int(s))
                minimal[key] = min((e["m"] for e in hits), default=None)
        summary["minimal_m"] = minimal

    if spec.name == "m_vs_lambda_eff":
        points = []
        for g_idx in range(len(spec.d_list)):
            entries = [e for e in summary["cells"] if e["group"] == g_idx]
            hits = [e for e in entries if e["rate"] >= spec.success_threshold]
            m_min = min((e["m"] for e in hits), default=None)
            leff = entries[0]["lambda_eff"] if entries else 0.0
            points.append({"group": g_idx, "d": spec.d_list[g_idx],
                           "lambda_eff": leff, "minimal_m": m_min})
            if m_min is None:
                summary["notes"].append(
                    f"group {g_idx} (d={spec.d_list[g_idx]}): no m in grid reaches "
                    f"{spec.success_threshold:.0%} success")
        summary["trend_points"] = points
        usable = [(p["lambda_eff"], p["minimal_m"]) for p in points if p["minimal_m"] is not None]
        fit = _linear_fit([u[0] for u in usable], [u[1] for u in usable]) if len(usable) >= 2 else None
        if fit is None:
            summary["notes"].append("linear fit refused: fewer than two usable trend points")
        summary["fit"] = fit

    if spec.name == "noisy_sigma":
        fits = {}
        groups = spec.d_list or [spec.d]
        for g_idx in range(len(groups)):
            entries = [e for e in summary["cells"] if e["group"] == g_idx]
            fit = _linear_fit([e["sigma"] for e in entries],
                              [e["mean_rel_err"] for e in entries])
            fits[g_idx] = fit
            if fit is None:
                summary["notes"].append(f"group {g_idx}: error-vs-sigma fit refused")
        summary["fits"] = fits

    if spec.name == "certificate_audit":
        table = {"pass_success": 0, "pass_fail": 0, "fail_success": 0, "fail_fail": 0}
        for row in rows:
            key = ("pass" if row.cert_pass else "fail") + ("_success" if row.success else "_fail")
            table[key] += 1
        summary["contingency"] = table

    return summary


def _columns_for(spec: ExperimentSpec) -> tuple[str, ...]:
    return AUDIT_COLUMNS if spec.name == "certificate_audit" else TRIAL_COLUMNS


def _write_csv(path: Path, spec: ExperimentSpec, rows: list[TrialRecord]) -> None:
    columns = _columns_for(spec)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_dat(path: Path, spec: ExperimentSpec, summary: dict) -> None:
    lines = [f"# {spec.name} summary (schema v{SCHEMA_VERSION})"]
    cols = ["group", "program", "d", "s", "m", "lambda_eff", "trials", "successes",
            "rate", "wilson_lo", "wilson_hi", "mean_rel_err"]
    extra = [c for c in ("sigma", "q") if any(c in e for e in summary["cells"])]
    lines.append("# " + " ".join(cols + extra))
    for entry in summary["cells"]:
        values = [entry["group"], entry["program"], entry["d"], entry["s"], entry["m"],
                  entry["lambda_eff"], entry["trials"], entry["successes"], entry["rate"],
                  entry["wilson_lo"], entry["wilson_hi"], entry["mean_rel_err"]]
        values += [entry.get(c, "") for c in extra]
        lines.append(" ".join(_fmt(v) for v in values))
    if "minimal_m" in summary:
        for (program, s), m in sorted(summary["minimal_m"].items()):
            lines.append(f"# minimal_m program={program} s={s} m={'none' if m is None else m}")
    if summary.get("fit"):
        fit = summary["fit"]
        lines.append(
            f"# fit slope={_fmt(fit['slope'])} intercept={_fmt(fit['intercept'])} r2={_fmt(fit['r2'])}")
    for g_idx, fit in summary.get("fits", {}).items():
        if fit:
            lines.append(
                f"# fit group={g_idx} slope={_fmt(fit['slope'])} "
                f"intercept={_fmt(fit['intercept'])} r2={_fmt(fit['r2'])}")
    if "contingency" in summary:
        table = summary["contingency"]
        lines.append("# contingency " + " ".join(f"{k}={v}" for k, v in sorted(table.items())))
    for note in summary["notes"]:
        lines.append(f"# note {note}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _run_cell_job(args) -> list[TrialRecord]:
    return _run_cell(*args)


def _run_trend_group(args) -> list[TrialRecord]:
    """One minimal-m search: run the group's cells in ascending-m order and
    stop after the first cell that reaches the success threshold.  Cell
    indices (and therefore seeds) are fixed by the full grid, so the rows are
    identical to what a full sweep would have produced for the visited cells.
    """
    spec, cells, frame = args
    needed = math.ceil(spec.success_threshold * spec.trials - 1e-9)
    rows: list[TrialRecord] = []
    for cell in sorted(cells, key=lambda c: c["m"]):
        if cell["m"] < 1:
            continue
        cell_rows = _run_cell(spec, cell, frame)
        rows.extend(cell_rows)
        if sum(r.success for r in cell_rows) >= needed:
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
    cells = _cells(spec)
    # one frame per group, shared by its cells; its incoherence is cached
    # before dispatch, so worker processes unpickle it with the frame
    frames: dict[int, FusionFrame] = {}
    for cell in cells:
        if cell["m"] >= 1 and cell["group"] not in frames:
            frames[cell["group"]] = frame = _group_frame(spec, cell)
            incoherence(frame)
    if spec.name == "m_vs_lambda_eff":
        # minimal-m search per group: ascending m with early stop
        groups: dict[int, list[dict]] = {}
        for cell in cells:
            groups.setdefault(cell["group"], []).append(cell)
        jobs = [(spec, group_cells, frames[g_idx])
                for g_idx, group_cells in sorted(groups.items()) if g_idx in frames]
        worker = _run_trend_group
    else:
        jobs = [(spec, cell, frames[cell["group"]]) for cell in cells if cell["m"] >= 1]
        worker = _run_cell_job

    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, jobs))
    else:
        results = [worker(job) for job in jobs]

    rows = [row for cell_rows in results for row in cell_rows]
    rows.sort(key=lambda r: (r.cell_index, r.trial_index, r.program))
    summary = _aggregate(spec, cells, rows)

    csv_path = dat_path = None
    if out_csv is not None:
        csv_path = Path(out_csv)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(csv_path, spec, rows)
        dat_path = csv_path.with_suffix(".dat")
        _write_dat(dat_path, spec, summary)

    if echo is not None:
        for note in summary["notes"]:
            echo(f"note: {note}")
        if "minimal_m" in summary:
            for (program, s), m in sorted(summary["minimal_m"].items()):
                echo(f"minimal m for >= {spec.success_threshold:.0%} success, "
                     f"program={program}, s={s}: {'none' if m is None else m}")
        if summary.get("fit"):
            fit = summary["fit"]
            echo(f"trend fit: slope={fit['slope']:.3f} intercept={fit['intercept']:.3f} "
                 f"r2={fit['r2']:.3f}")
        if "contingency" in summary:
            echo(f"contingency: {summary['contingency']}")

    return ExperimentResult(spec=spec, rows=rows, summary=summary,
                            csv_path=csv_path, dat_path=dat_path)

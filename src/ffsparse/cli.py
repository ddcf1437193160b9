"""Command-line interface.

Exit codes: 0 on success, 2 for spec/input validation errors, 3 for
infeasible configurations.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys

import click
import numpy as np

from . import bounds as bounds_mod
from .blocks import norm_l0_block, norm_l21
from .certificate import golfing_build, gram_conditions, verify_inexact
from .experiments import (
    EXPERIMENT_NAMES,
    InfeasibleConfigError,
    SpecValidationError,
    run_experiment,
    seeded_instance,
    spec_from_json,
    validate_spec,
)
from .frames import (
    frame_bounds,
    incoherence,
    lambda_eff,
    lambda_max,
    load_frame,
    random_frame,
    restricted_norms,
    save_frame,
)
from .measurement import add_noise
from .signals import random_support
from .solver import (
    SolverConfig,
    relative_error,
    solve_block_baseline,
    solve_l1_equality,
    solve_l1_noisy,
)

EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main():
    """Block-sparse recovery over fusion frames: frames, solves, bounds,
    certificates, and reproducible experiments."""


@main.group()
def frame():
    """Construct and inspect fusion frames."""


@frame.command("gen")
@click.option("--subspaces", "-n", "n_subspaces", type=int, required=True)
@click.option("--ambient-dim", "-d", type=int, required=True)
@click.option("--subspace-dim", "-k", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def frame_gen(n_subspaces, ambient_dim, subspace_dim, seed, out):
    """Draw a random fusion frame and write it as JSON."""
    try:
        fr = random_frame(n_subspaces, ambient_dim, subspace_dim, seed)
    except ValueError as exc:
        _fail(EXIT_INFEASIBLE, str(exc))
    save_frame(fr, out)
    click.echo(f"wrote frame N={n_subspaces} d={ambient_dim} k={subspace_dim} to {out}")


@frame.command("info")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--support-size", "-s", type=int, default=None,
              help="Also report norms for a seeded random support of this size.")
@click.option("--support-seed", type=int, default=0, show_default=True)
def frame_info(path, support_size, support_seed):
    """Print frame bounds and incoherence diagnostics."""
    try:
        fr = load_frame(path)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail(EXIT_VALIDATION, f"cannot load frame: {exc}")
    lo, hi = frame_bounds(fr)
    incoh = incoherence(fr)
    click.echo(f"N={fr.n_subspaces} d={fr.dim_ambient} k={fr.dim_subspace} seed={fr.seed}")
    click.echo(f"frame bounds: lower={lo!r} upper={hi!r}")
    click.echo(f"max pairwise coherence: {lambda_max(incoh)!r}")
    if support_size is not None:
        if not 1 <= support_size <= fr.n_subspaces:
            _fail(EXIT_INFEASIBLE, f"support size must lie in [1, {fr.n_subspaces}]")
        rng = np.random.default_rng(support_seed)
        support = random_support(fr.n_subspaces, support_size, rng)
        norms = restricted_norms(incoh, support)
        click.echo(f"support (seed {support_seed}): {list(support)}")
        click.echo(f"row_sum={norms.row_sum!r} row_sum_sub={norms.row_sum_sub!r}")
        click.echo(f"row_rms={norms.row_rms!r} row_rms_sub={norms.row_rms_sub!r}")
        click.echo(f"spectral_sub={norms.spectral_sub!r}")
        click.echo(f"lambda_eff={lambda_eff(incoh, support)!r}")


def _load_or_draw_frame(frame_path, n_subspaces, ambient_dim, subspace_dim, frame_seed):
    if frame_path is not None:
        try:
            return load_frame(frame_path)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            _fail(EXIT_VALIDATION, f"cannot load frame: {exc}")
    if None in (n_subspaces, ambient_dim, subspace_dim):
        _fail(EXIT_VALIDATION, "provide --frame or all of -n/-d/-k")
    try:
        return random_frame(n_subspaces, ambient_dim, subspace_dim, frame_seed)
    except ValueError as exc:
        _fail(EXIT_INFEASIBLE, str(exc))


_FRAME_OPTIONS = (
    click.option("--frame", "frame_path", type=click.Path(exists=True, dir_okay=False),
                 default=None),
    click.option("--subspaces", "-n", "n_subspaces", type=int, default=None),
    click.option("--ambient-dim", "-d", type=int, default=None),
    click.option("--subspace-dim", "-k", type=int, default=None),
    click.option("--frame-seed", type=int, default=0, show_default=True),
)


def _frame_options(command):
    """Add the frame options (a --frame file, or -n/-d/-k and --frame-seed
    for a random one) ahead of the command's own options, and call the
    command with the loaded or drawn frame as its first argument."""

    @functools.wraps(command)
    def with_frame(frame_path, n_subspaces, ambient_dim, subspace_dim, frame_seed, **kwargs):
        fr = _load_or_draw_frame(frame_path, n_subspaces, ambient_dim, subspace_dim, frame_seed)
        return command(fr, **kwargs)

    for option in reversed(_FRAME_OPTIONS):
        with_frame = option(with_frame)
    return with_frame


def _check_sizes(fr, sparsity: int, measurements: int = 1) -> None:
    if not 1 <= sparsity <= fr.n_subspaces:
        _fail(EXIT_INFEASIBLE, f"sparsity must lie in [1, {fr.n_subspaces}]")
    if measurements < 1:
        _fail(EXIT_INFEASIBLE, "need at least one measurement")


@main.command()
@_frame_options
@click.option("--kind", type=click.Choice(["bernoulli", "gaussian"]), default="bernoulli",
              show_default=True)
@click.option("--measurements", "-m", type=int, required=True)
@click.option("--sparsity", "-s", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--eta", type=float, default=None,
              help="Noise level; switches to the noisy program.")
@click.option("--program", type=click.Choice(["subspace", "block"]), default="subspace",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the full report as JSON.")
def solve(fr, kind, measurements, sparsity, seed, eta, program, out):
    """Generate a seeded instance, solve it, and report the outcome."""
    _check_sizes(fr, sparsity, measurements)
    _, x, ensemble = seeded_instance(fr, kind, measurements, sparsity, seed)
    y = ensemble.measure(x)
    cfg = SolverConfig()
    if eta is not None:
        sample = add_noise(y, eta, seed + 1, ensemble.scale)
        report = solve_l1_noisy(ensemble, sample.y, eta, cfg)
    elif program == "block":
        report = solve_block_baseline(ensemble, y, cfg)
    else:
        report = solve_l1_equality(ensemble, y, cfg)
    rel = relative_error(report.x_hat, x)
    doc = {
        "program": "noisy" if eta is not None else program,
        "kind": kind,
        "N": fr.n_subspaces, "d": fr.dim_ambient, "k": fr.dim_subspace,
        "m": measurements, "s": sparsity, "seed": seed,
        "objective": report.objective,
        "true_objective": norm_l21(x),
        "constraint_residual": report.constraint_residual,
        "iterations": report.iterations,
        "converged": report.converged,
        "rel_err": rel,
        "recovered_blocks": norm_l0_block(report.x_hat, 1e-6),
        "wall_time": report.wall_time,
    }
    click.echo(json.dumps(doc, indent=2))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)


@main.command("bounds")
@_frame_options
@click.option("--sparsity", "-s", type=int, required=True)
@click.option("--support-seed", type=int, default=0, show_default=True)
@click.option("--eps", type=float, default=0.1, show_default=True)
@click.option("--const", type=float, default=1.0, show_default=True,
              help="Stand-in for the unspecified universal constant.")
@click.option("--delta", type=float, default=0.5, show_default=True)
def bounds_cmd(fr, sparsity, support_seed, eps, const, delta):
    """Print required-m evaluations for every recovery statement."""
    _check_sizes(fr, sparsity)
    rng = np.random.default_rng(support_seed)
    support = random_support(fr.n_subspaces, sparsity, rng)
    incoh = incoherence(fr)
    norms = restricted_norms(incoh, support)
    try:
        table = bounds_mod.complexity_table(
            fr.n_subspaces, sparsity, fr.dim_subspace, eps,
            incoh_row_sum=norms.row_sum, max_coherence=lambda_max(incoh),
            incoh_row_rms=norms.row_rms, incoh_row_rms_sub=norms.row_rms_sub,
            incoh_spectral_sub=norms.spectral_sub, const=const, delta=delta)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    width = max(len(row.theorem_id) for row in table)
    click.echo(f"{'statement':<{width}}  m_required  inputs")
    for row in table:
        inputs = " ".join(f"{key}={_short(val)}" for key, val in sorted(row.inputs.items()))
        click.echo(f"{row.theorem_id:<{width}}  {row.m_required:>10.2f}  {inputs}")


def _short(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    return value


@main.command()
@_frame_options
@click.option("--kind", type=click.Choice(["bernoulli", "gaussian"]), default="bernoulli",
              show_default=True)
@click.option("--measurements", "-m", type=int, required=True)
@click.option("--sparsity", "-s", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def certificate(fr, kind, measurements, sparsity, seed, out):
    """Build the golfing dual certificate for a seeded instance and dump the
    per-step residuals and condition values as JSON."""
    _check_sizes(fr, sparsity, measurements)
    support, x, ensemble = seeded_instance(fr, kind, measurements, sparsity, seed)
    gram = gram_conditions(ensemble, support)
    cert = golfing_build(ensemble, x)
    passed, reasons = verify_inexact(cert, gram)
    doc = {
        "N": fr.n_subspaces, "d": fr.dim_ambient, "k": fr.dim_subspace,
        "m": measurements, "s": sparsity, "seed": seed, "kind": kind,
        "partition": list(cert.partition),
        "residual_norms_l2": list(cert.residual_norms_l2),
        "residual_norms_l2inf": list(cert.residual_norms_l2inf),
        "on_support_gap": cert.on_support_gap,
        "off_support_max": cert.off_support_max,
        "h_norm": cert.h_norm,
        "gram": dataclasses.asdict(gram),
        "passed": passed,
        "reasons": list(reasons),
    }
    click.echo(json.dumps(doc, indent=2))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)


@main.command()
@click.argument("name", type=click.Choice(EXPERIMENT_NAMES))
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--trials", type=int, default=None, help="Override the spec's trial count.")
@click.option("--base-seed", type=int, default=None, help="Override the spec's base seed.")
@click.option("--threads", type=int, default=1, show_default=True)
def experiment(name, spec_path, out, trials, base_seed, threads):
    """Run one experiment from a JSON spec and write trial rows as CSV
    (plus a .dat summary next to it)."""
    with open(spec_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        spec = spec_from_json(text)
        if spec.name != name:
            raise SpecValidationError(
                f"spec file is for {spec.name!r}, command asked for {name!r}")
        if trials is not None:
            spec.trials = trials
        if base_seed is not None:
            spec.base_seed = base_seed
        validate_spec(spec)
    except InfeasibleConfigError as exc:
        _fail(EXIT_INFEASIBLE, str(exc))
    except SpecValidationError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    result = run_experiment(spec, out_csv=out, threads=threads, echo=click.echo)
    click.echo(f"wrote {len(result.rows)} rows to {result.csv_path}")
    click.echo(f"wrote summary to {result.dat_path}")


if __name__ == "__main__":
    main()

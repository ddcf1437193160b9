import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ffsparse import (
    ExperimentSpec,
    InfeasibleConfigError,
    SpecValidationError,
    draw_matrix,
    random_frame,
    random_support,
    run_experiment,
    sparse_signal,
    spec_from_dict,
    spec_from_json,
)
from ffsparse.experiments import AUDIT_COLUMNS, TRIAL_COLUMNS, validate_spec

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"


def tiny_spec(**overrides):
    base = dict(name="phase_transition", N=8, d=3, k=1, s_list=[1], m_list=[2, 4],
                trials=3, base_seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)


# -- spec parsing and validation ------------------------------------------------

def test_spec_rejects_unknown_fields():
    with pytest.raises(SpecValidationError, match="unknown"):
        spec_from_dict({"name": "phase_transition", "N": 8, "d": 3, "k": 1,
                        "bogus_field": 1})


def test_spec_requires_core_fields():
    with pytest.raises(SpecValidationError, match="missing"):
        spec_from_dict({"name": "phase_transition"})


def test_spec_from_json_rejects_garbage():
    with pytest.raises(SpecValidationError):
        spec_from_json("{not json")
    with pytest.raises(SpecValidationError):
        spec_from_json("[1, 2]")


def test_validate_rejects_unknown_name():
    with pytest.raises(SpecValidationError):
        validate_spec(tiny_spec(name="mystery"))


def test_validate_rejects_empty_grids():
    with pytest.raises(SpecValidationError):
        validate_spec(tiny_spec(m_list=[]))
    with pytest.raises(SpecValidationError):
        validate_spec(tiny_spec(s_list=[]))


def test_validate_rejects_bad_trials_and_kind():
    with pytest.raises(SpecValidationError):
        validate_spec(tiny_spec(trials=0))
    with pytest.raises(SpecValidationError):
        validate_spec(tiny_spec(kind="uniform"))


def test_validate_infeasible_dimensions():
    with pytest.raises(InfeasibleConfigError):
        validate_spec(tiny_spec(k=5))
    with pytest.raises(InfeasibleConfigError):
        validate_spec(tiny_spec(s_list=[9]))
    with pytest.raises(InfeasibleConfigError):
        validate_spec(tiny_spec(trials=1500))


def test_bundled_specs_parse():
    for path in sorted(SPECS_DIR.glob("*.json")):
        spec = spec_from_json(path.read_text(encoding="utf-8"))
        validate_spec(spec)


def test_bundled_full_scale_settings_are_pinned():
    spec = spec_from_json((SPECS_DIR / "full_scale_phase_transition.json").read_text())
    assert spec.N == 200
    assert spec.s_list[0] == 5 and spec.s_list[-1] == 35
    assert spec.trials == 100
    assert spec.success_threshold == 0.96
    noisy = spec_from_json((SPECS_DIR / "full_scale_noisy_sigma.json").read_text())
    assert noisy.N == 200 and noisy.s_list == [30] and noisy.m_list == [50]
    assert 0.06 in noisy.sigma_list
    trend = spec_from_json((SPECS_DIR / "full_scale_m_vs_lambda_eff.json").read_text())
    assert trend.N == 180 and trend.k == 3 and trend.s_list == [25]
    stable = spec_from_json((SPECS_DIR / "full_scale_stable_theta.json").read_text())
    assert stable.theta == 0.12 and stable.trials == 20


# -- trial rows and determinism ----------------------------------------------------

def test_phase_transition_rows_and_seeds(tmp_path):
    spec = tiny_spec()
    result = run_experiment(spec, out_csv=tmp_path / "out.csv")
    assert len(result.rows) == 2 * 3  # cells x trials
    for row in result.rows:
        assert row.seed == spec.base_seed * 10**6 + row.cell_index * 10**3 + row.trial_index
        assert row.experiment == "phase_transition"
        assert row.program == "FF"
        assert (row.rel_err <= spec.success_rel_err) == row.success
    header = (tmp_path / "out.csv").read_text().splitlines()[0]
    assert header == ",".join(TRIAL_COLUMNS)


def test_csv_is_byte_deterministic(tmp_path):
    spec = tiny_spec()
    run_experiment(spec, out_csv=tmp_path / "a.csv")
    run_experiment(spec, out_csv=tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.dat").read_bytes() == (tmp_path / "b.dat").read_bytes()


def test_threads_do_not_change_output(tmp_path):
    spec = tiny_spec(s_list=[1, 2])
    run_experiment(spec, out_csv=tmp_path / "serial.csv", threads=1)
    run_experiment(spec, out_csv=tmp_path / "pooled.csv", threads=2)
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()


def test_zero_sparsity_cell_trivially_succeeds():
    spec = tiny_spec(s_list=[0], m_list=[1])
    result = run_experiment(spec)
    assert all(row.success for row in result.rows)
    assert result.summary["minimal_m"][("FF", 0)] == 1


def test_infeasible_cells_are_skipped_with_note():
    spec = tiny_spec(m_list=[0, 2])
    result = run_experiment(spec)
    assert all(row.m == 2 for row in result.rows)
    assert any("skipped" in note for note in result.summary["notes"])


def test_csv_uses_lf_and_roundtrip_floats(tmp_path):
    spec = tiny_spec()
    run_experiment(spec, out_csv=tmp_path / "out.csv")
    raw = (tmp_path / "out.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    rel_err_col = TRIAL_COLUMNS.index("rel_err")
    for line in lines[1:]:
        value = line.split(",")[rel_err_col]
        assert repr(float(value)) == value  # shortest round-trip form


def test_capped_solves_are_reported(tmp_path, monkeypatch):
    import ffsparse.experiments as experiments
    from ffsparse import SolverConfig
    from ffsparse.cli import main

    monkeypatch.setattr(experiments, "SolverConfig",
                        lambda **kwargs: SolverConfig(max_iter=1, **kwargs))
    # m <= 2 keeps both operators wide (at most 6 rows against 8 subspace and
    # 24 block coefficients), so no program is solved without iterating
    spec = tiny_spec(name="ff_vs_block", m_list=[1, 2], trials=2)
    result = run_experiment(spec, out_csv=tmp_path / "out.csv")
    assert len(result.rows) == 8 and not any(row.converged for row in result.rows)
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "converged"
    assert all(line.split(",")[-1] == "0" for line in lines[1:])
    dat = (tmp_path / "out.dat").read_text().splitlines()
    assert dat[0].endswith("(schema v2)")
    assert "# capped 8" in dat

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dataclasses.asdict(spec)))
    echo = CliRunner().invoke(main, ["experiment", "ff_vs_block", "--spec", str(spec_path),
                                     "--out", str(tmp_path / "cli.csv")])
    assert echo.exit_code == 0, echo.output
    assert "capped solves: 8" in echo.output


# -- paired baseline comparison ------------------------------------------------------

def test_ff_vs_block_rows_are_paired(tmp_path):
    spec = tiny_spec(name="ff_vs_block", m_list=[3], trials=2)
    result = run_experiment(spec, out_csv=tmp_path / "out.csv")
    assert len(result.rows) == 4
    by_trial = {}
    for row in result.rows:
        by_trial.setdefault(row.trial_index, []).append(row)
    for rows in by_trial.values():
        assert {r.program for r in rows} == {"FF", "block"}
        assert len({r.y_hash for r in rows}) == 1  # identical measurements


def test_ff_vs_block_full_subspaces_agree():
    # k = d: the two programs coincide, so paired success must match
    spec = tiny_spec(name="ff_vs_block", d=2, k=2, s_list=[1], m_list=[2, 3], trials=4)
    result = run_experiment(spec)
    outcomes = {}
    for row in result.rows:
        outcomes.setdefault((row.cell_index, row.trial_index), {})[row.program] = row.success
    for pair in outcomes.values():
        assert pair["FF"] == pair["block"]


# -- incoherence trend ------------------------------------------------------------------

def test_m_vs_lambda_eff_early_stop_and_fit():
    spec = ExperimentSpec(name="m_vs_lambda_eff", N=10, d=3, k=1,
                          s_list=[1], d_list=[3, 6], m_list=[2, 3, 4, 5],
                          trials=4, base_seed=3)
    result = run_experiment(spec)
    points = result.summary["trend_points"]
    assert len(points) == 2
    for point in points:
        if point["minimal_m"] is not None:
            # no rows recorded beyond the group's minimal m
            group_rows = [r for r in result.rows
                          if r.cell_index in range(4 * point["group"], 4 * point["group"] + 4)]
            assert max(r.m for r in group_rows) == point["minimal_m"]
    assert result.summary["fit"] is None or "slope" in result.summary["fit"]


def test_m_vs_lambda_eff_single_group_refuses_fit():
    spec = ExperimentSpec(name="m_vs_lambda_eff", N=10, d=3, k=1,
                          s_list=[1], d_list=[3], m_list=[2, 3],
                          trials=3, base_seed=3)
    result = run_experiment(spec)
    assert result.summary["fit"] is None
    assert any("fit refused" in note for note in result.summary["notes"])


# -- compressible, noisy, power-law ------------------------------------------------------

def test_stable_theta_zero_reduces_to_exact_recovery():
    spec = ExperimentSpec(name="stable_theta", N=10, d=4, k=1, s_list=[1],
                          m_list=[6], theta=0.0, trials=3, base_seed=5,
                          kind="gaussian")
    result = run_experiment(spec)
    assert all(row.rel_err <= 1e-4 for row in result.rows)


def test_stable_theta_error_decreases_with_m():
    spec = spec_from_json((SPECS_DIR / "desk_stable_theta.json").read_text())
    spec.trials = 10
    result = run_experiment(spec)
    errs = [e["mean_rel_err"] for e in result.summary["cells"]]
    assert errs[0] > errs[-1]  # more measurements, better reconstruction


def test_noisy_sigma_zero_exact_past_transition():
    spec = ExperimentSpec(name="noisy_sigma", N=10, d=4, k=1, s_list=[1],
                          m_list=[6], sigma_list=[0.0, 0.05], trials=3,
                          base_seed=5, kind="gaussian")
    result = run_experiment(spec)
    zero_rows = [r for r in result.rows if r.cell_index == 0]
    assert all(row.rel_err <= 1e-4 for row in zero_rows)
    assert "fits" in result.summary


def test_power_law_rows(tmp_path):
    spec = ExperimentSpec(name="power_law_q", N=8, d=4, k=1, q_list=[0.5, 1.0],
                          m_list=[4], trials=2, base_seed=9, kind="gaussian")
    result = run_experiment(spec, out_csv=tmp_path / "out.csv")
    assert len(result.rows) == 4
    assert all(row.s == 8 for row in result.rows)  # every block active
    dat = (tmp_path / "out.dat").read_text()
    assert "q" in dat.splitlines()[1]


# -- certificate audit -------------------------------------------------------------------

def test_certificate_audit_schema_and_contingency(tmp_path):
    spec = ExperimentSpec(name="certificate_audit", N=8, d=4, k=1, s_list=[1],
                          m_list=[6], trials=1, base_seed=11)
    result = run_experiment(spec, out_csv=tmp_path / "audit.csv")
    header = (tmp_path / "audit.csv").read_text().splitlines()[0]
    assert header == ",".join(AUDIT_COLUMNS)
    row = result.rows[0]
    assert row.cert_pass in (True, False)
    assert row.deviation is not None and row.h_norm is not None
    table = result.summary["contingency"]
    assert sum(table.values()) == 1


# -- frame reuse -------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    ExperimentSpec(name="noisy_sigma", N=8, d=4, k=1, s_list=[1], m_list=[5], d_list=[3, 4],
                   sigma_list=[0.0, 0.05, 0.1], trials=2, base_seed=13, kind="gaussian"),
    ExperimentSpec(name="certificate_audit", N=8, d=4, k=1, s_list=[1], m_list=[3, 6, 9],
                   trials=2, base_seed=14),
], ids=["noisy_sigma", "certificate_audit"])
def test_each_group_frame_is_built_once(spec, tmp_path, monkeypatch):
    import ffsparse.experiments as experiments

    calls = []
    original = experiments.random_frame

    def counting_random_frame(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "random_frame", counting_random_frame)
    groups = len(spec.d_list) or 1
    outputs = {}
    for threads in (1, 2):
        calls.clear()
        run_experiment(spec, out_csv=tmp_path / f"t{threads}.csv", threads=threads)
        assert len(calls) == groups
        outputs[threads] = [(tmp_path / f"t{threads}{ext}").read_bytes() for ext in (".csv", ".dat")]
    assert outputs[1] == outputs[2]


def test_frames_reach_jobs_with_incoherence_cached(monkeypatch):
    # worker processes unpickle each group frame together with its cache
    import ffsparse.experiments as experiments

    cached = []
    original = experiments._run_cell_job

    def recording_job(args):
        cached.append(args[2]._incoherence_cache is not None)
        return original(args)

    monkeypatch.setattr(experiments, "_run_cell_job", recording_job)
    run_experiment(tiny_spec(s_list=[1, 2]))
    assert cached and all(cached)


# -- shared seeded instances ------------------------------------------------------------

@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_seeded_instance_matches_hand_written_draws(kind):
    from ffsparse.experiments import seeded_instance

    frame = random_frame(12, 4, 2, 3)
    support, x, ensemble = seeded_instance(frame, kind, 7, 3, seed=11)
    rng = np.random.default_rng(11 + 5 * 10**11)
    expected_support = random_support(12, 3, rng)
    expected_x = sparse_signal(frame, expected_support, rng)
    expected = draw_matrix(kind, 7, 12, 11, frame, normalized=True)
    assert np.array_equal(support.indices, expected_support.indices)
    assert np.array_equal(x.blocks, expected_x.blocks)
    assert np.array_equal(ensemble.matrix, expected.matrix)
    assert ensemble.scale == expected.scale

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ffsparse import relative_error
from ffsparse.cli import main

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_frame_gen_and_info_roundtrip(tmp_path):
    path = tmp_path / "frame.json"
    result = run("frame", "gen", "-n", "6", "-d", "4", "-k", "2",
                 "--seed", "3", "--out", str(path))
    assert result.exit_code == 0, result.output
    doc = json.loads(path.read_text())
    assert doc["N"] == 6 and doc["d"] == 4 and doc["k"] == 2 and doc["seed"] == 3

    info = run("frame", "info", str(path), "-s", "2")
    assert info.exit_code == 0, info.output
    assert "frame bounds" in info.output
    assert "lambda_eff" in info.output


def test_frame_gen_infeasible_dims(tmp_path):
    result = run("frame", "gen", "-n", "4", "-d", "2", "-k", "3",
                 "--out", str(tmp_path / "f.json"))
    assert result.exit_code == 3


def test_frame_info_invalid_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"N\": 2}")
    result = run("frame", "info", str(path))
    assert result.exit_code == 2


_MALFORMED_FRAMES = {  # a frame document and the field its error names
    "array": ([1, 2], "object"),
    "N null": ({"N": None, "d": 2, "k": 1, "bases": [[1, 0]]}, "N"),
    "N bool": ({"N": True, "d": 2, "k": 1, "bases": [[1, 0]]}, "N"),
    "d float": ({"N": 1, "d": 2.5, "k": 1, "bases": [[1, 0]]}, "d"),
    "k string": ({"N": 1, "d": 2, "k": "1", "bases": [[1, 0]]}, "k"),
    "bases string": ({"N": 1, "d": 2, "k": 1, "bases": "10"}, "bases"),
    "basis object": ({"N": 1, "d": 2, "k": 1, "bases": [{}]}, "bases"),
    "weights object": ({"N": 1, "d": 2, "k": 1, "bases": [[1, 0]], "weights": {}}, "weights"),
}


@pytest.mark.parametrize("doc,field", _MALFORMED_FRAMES.values(), ids=_MALFORMED_FRAMES)
@pytest.mark.parametrize("command", [("frame", "info", "{path}"),
                                     ("solve", "--frame", "{path}", "-m", "2", "-s", "1")],
                         ids=["frame info", "solve"])
def test_malformed_frame_file_is_an_input_error(tmp_path, command, doc, field):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(doc))
    result = run(*(arg.format(path=path) for arg in command))
    assert result.exit_code == 2, result.output
    assert "cannot load frame" in result.output and field in result.output


@pytest.mark.parametrize("args", [
    ("frame", "gen", "-n", "4", "-d", "2", "-k", "1", "--seed", "-3", "--out", "{out}"),
    ("frame", "info", "{frame}", "-s", "1", "--support-seed", "-1"),
    ("solve", "-n", "4", "-d", "2", "-k", "1", "-m", "2", "-s", "1", "--seed", "-1"),
    ("solve", "-n", "4", "-d", "2", "-k", "1", "--frame-seed", "-2", "-m", "2", "-s", "1"),
    ("bounds", "-n", "4", "-d", "2", "-k", "1", "-s", "1", "--support-seed", "-1"),
    ("certificate", "-n", "4", "-d", "2", "-k", "1", "-m", "2", "-s", "1", "--seed", "-1"),
    ("experiment", "phase_transition", "--spec", "{spec}", "--out", "{out}", "--base-seed", "-1"),
], ids=["frame gen", "frame info", "solve", "frame-seed", "bounds", "certificate",
        "experiment"])
def test_negative_seed_is_an_input_error(tmp_path, args):
    frame, spec, out = tmp_path / "frame.json", tmp_path / "spec.json", tmp_path / "out.csv"
    assert run("frame", "gen", "-n", "4", "-d", "2", "-k", "1", "--out", str(frame)).exit_code == 0
    spec.write_text(json.dumps({"name": "phase_transition", "N": 8, "d": 3, "k": 1,
                                "s_list": [1], "m_list": [2], "trials": 1}))
    result = run(*(arg.format(frame=frame, spec=spec, out=out) for arg in args))
    assert result.exit_code == 2, result.output
    assert not out.exists()


def test_experiment_rejects_negative_base_seed_in_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "phase_transition", "N": 8, "d": 3, "k": 1,
                                     "s_list": [1], "m_list": [2], "base_seed": -1}))
    out = tmp_path / "o.csv"
    result = run("experiment", "phase_transition", "--spec", str(spec_path), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert "base_seed" in result.output
    assert not out.exists()


@pytest.mark.parametrize("field", ["bases", "weights"])
def test_frame_info_rejects_non_finite_frame(tmp_path, field):
    path = tmp_path / "frame.json"
    assert run("frame", "gen", "-n", "3", "-d", "2", "-k", "1", "--out", str(path)).exit_code == 0
    doc = json.loads(path.read_text())
    if field == "bases":
        doc["bases"][1][0] = float("nan")
    else:
        doc["weights"][1] = float("nan")
    path.write_text(json.dumps(doc))
    result = run("frame", "info", str(path))
    assert result.exit_code == 2
    assert "cannot load frame" in result.output


def test_solve_reports_recovery(tmp_path):
    out = tmp_path / "report.json"
    result = run("solve", "-n", "10", "-d", "4", "-k", "1", "--frame-seed", "2",
                 "-m", "8", "-s", "1", "--seed", "5", "--out", str(out))
    assert result.exit_code == 0, result.output
    assert result.output == out.read_text() + "\n"
    doc = json.loads(out.read_text())
    assert doc["rel_err"] <= 1e-4
    assert doc["converged"]


@pytest.mark.parametrize("eta", [None, "1e-10"])
def test_solve_reports_polish_attempts(eta):
    # a wide program (12 x 40) takes steps and ends at a certified polish;
    # so does a ball too small for its own steps, through the equality program
    result = run("solve", "-n", "20", "-d", "4", "-k", "2", "-m", "3", "-s", "1", "--seed", "3",
                 *(("--eta", eta) if eta else ()))
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["converged"] and 1 <= doc["polish_attempts"] <= doc["iterations"] + 1


def test_solve_noisy_program():
    result = run("solve", "-n", "8", "-d", "4", "-k", "1", "-m", "6", "-s", "1",
                 "--eta", "0.05")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["program"] == "noisy"


def test_solve_block_program():
    result = run("solve", "-n", "8", "-d", "3", "-k", "1", "-m", "7", "-s", "1",
                 "--program", "block")
    assert result.exit_code == 0, result.output


def test_solve_noisy_program_is_the_harness_program():
    # the same noise draw (seed + the harness's noise offset) as a noisy_sigma trial
    from ffsparse import random_frame
    from ffsparse.experiments import noisy_program, seeded_instance

    result = run("solve", "-n", "10", "-d", "4", "-k", "1", "--frame-seed", "2",
                 "-m", "6", "-s", "1", "--seed", "9", "--eta", "0.05")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    _, x, ensemble = seeded_instance(random_frame(10, 4, 1, 2), "bernoulli", 6, 1, 9)
    report, _ = noisy_program(ensemble, ensemble.measure(x), 0.05, 9)
    assert doc["objective"] == report.objective
    assert doc["rel_err"] == relative_error(report.x_hat, x)


@pytest.mark.parametrize("options", [("--eta", "-0.1"), ("--eta", "nan"),
                                     ("--eta", "0.01", "--program", "block")],
                         ids=["negative eta", "nan eta", "eta with block"])
def test_solve_rejects_bad_noise_options(options):
    result = run("solve", "-n", "8", "-d", "3", "-k", "1", "-m", "7", "-s", "1", *options)
    assert result.exit_code == 2, result.output


def test_solve_infeasible_sparsity():
    result = run("solve", "-n", "5", "-d", "3", "-k", "1", "-m", "4", "-s", "9")
    assert result.exit_code == 3


def test_solve_on_frame_file_matches_drawn_frame(tmp_path):
    path = tmp_path / "frame.json"
    assert run("frame", "gen", "-n", "10", "-d", "4", "-k", "1", "--seed", "2",
               "--out", str(path)).exit_code == 0
    docs = []
    for frame_args in (["--frame", str(path)], ["-n", "10", "-d", "4", "-k", "1", "--frame-seed", "2"]):
        result = run("solve", *frame_args, "-m", "8", "-s", "1", "--seed", "5")
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        del doc["wall_time"]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_solve_signal_is_independent_of_the_matrix():
    # the signal seed is offset from the matrix seed: with one seed for both,
    # the support block's entry in the first row is +1 in 44.3% of seeds
    from ffsparse import norm_l21, random_frame
    from ffsparse.experiments import seeded_instance

    fr = random_frame(10, 4, 1, 0)
    plus = 0
    for seed in range(4000):
        support, _, ensemble = seeded_instance(fr, "bernoulli", 4, 1, seed)
        plus += ensemble.matrix[0, support.indices[0]] > 0
    assert abs(plus / 4000 - 0.5) <= 0.03
    result = run("solve", "-n", "10", "-d", "4", "-k", "1", "-m", "8", "-s", "2", "--seed", "5")
    assert result.exit_code == 0, result.output
    _, x, _ = seeded_instance(fr, "bernoulli", 8, 2, 5)
    assert json.loads(result.output)["true_objective"] == norm_l21(x)


def test_solve_requires_frame_parameters():
    result = run("solve", "-m", "4", "-s", "1")
    assert result.exit_code == 2


def test_bounds_table():
    result = run("bounds", "-n", "30", "-d", "5", "-k", "2", "-s", "3")
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("statement")
    body = "\n".join(lines[1:])
    for statement in ("bernoulli_fixed_support", "gaussian_fixed_support",
                      "bernoulli_max_coherence", "gram_conditioning", "cross_gram"):
        assert statement in body


def test_bounds_rejects_bad_eps():
    result = run("bounds", "-n", "30", "-d", "5", "-k", "2", "-s", "3",
                 "--eps", "1.5")
    assert result.exit_code == 2


def test_certificate_dump(tmp_path):
    out = tmp_path / "cert.json"
    result = run("certificate", "-n", "12", "-d", "4", "-k", "1", "-m", "30",
                 "-s", "2", "--seed", "4", "--out", str(out))
    assert result.exit_code == 0, result.output
    assert result.output == out.read_text() + "\n"
    doc = json.loads(out.read_text())
    assert sum(doc["partition"]) == 30
    assert len(doc["residual_norms_l2"]) == len(doc["partition"]) + 1
    assert "deviation" in doc["gram"]
    assert isinstance(doc["passed"], bool)


@pytest.mark.parametrize("command", [
    ("frame", "gen", "-n", "6", "-d", "4", "-k", "2"),
    ("solve", "-n", "10", "-d", "4", "-k", "1", "-m", "8", "-s", "1"),
    ("certificate", "-n", "12", "-d", "4", "-k", "1", "-m", "30", "-s", "2"),
], ids=["frame gen", "solve", "certificate"])
def test_out_creates_a_missing_directory(tmp_path, command):
    out = tmp_path / "new" / "deeper" / "out.json"
    result = run(*command, "--out", str(out))
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())


@pytest.mark.parametrize("sizes", [("-s", "0", "-m", "4"), ("-s", "7", "-m", "4"),
                                   ("-s", "1", "-m", "0")], ids=["s=0", "s>N", "m=0"])
def test_certificate_infeasible_sizes(sizes):
    result = run("certificate", "-n", "6", "-d", "3", "-k", "1", *sizes)
    assert result.exit_code == 3


def test_experiment_runs_tiny_spec(tmp_path):
    spec = {
        "name": "phase_transition", "N": 8, "d": 3, "k": 1,
        "s_list": [1], "m_list": [2, 4], "trials": 2, "base_seed": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    result = run("experiment", "phase_transition", "--spec", str(spec_path),
                 "--out", str(out))
    assert result.exit_code == 0, result.output
    assert out.exists()
    assert (tmp_path / "rows.dat").exists()
    assert "minimal m" in result.output


def test_experiment_overrides(tmp_path):
    spec = {
        "name": "phase_transition", "N": 8, "d": 3, "k": 1,
        "s_list": [1], "m_list": [2], "trials": 2, "base_seed": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    result = run("experiment", "phase_transition", "--spec", str(spec_path),
                 "--out", str(out), "--trials", "4", "--base-seed", "9")
    assert result.exit_code == 0, result.output
    body = out.read_text().splitlines()
    assert len(body) == 1 + 4  # header + trials
    assert body[1].split(",")[1] == str(9 * 10**6)


def test_experiment_rejects_unknown_field(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "phase_transition", "N": 8, "d": 3,
                                     "k": 1, "surprise": True}))
    result = run("experiment", "phase_transition", "--spec", str(spec_path),
                 "--out", str(tmp_path / "o.csv"))
    assert result.exit_code == 2


@pytest.mark.parametrize("field", [{"N": 10.5}, {"theta": "x"}, {"success_threshold": "0.9"},
                                   {"sigma_list": ["a"]}, {"theta": float("nan")}],
                         ids=["N", "theta", "success_threshold", "sigma_list", "theta_nan"])
def test_experiment_rejects_mistyped_spec_fields(tmp_path, field):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "noisy_sigma", "N": 10, "d": 3, "k": 1,
                                     "s_list": [1], "m_list": [4], "sigma_list": [0.01],
                                     "trials": 1, **field}))
    result = run("experiment", "noisy_sigma", "--spec", str(spec_path),
                 "--out", str(tmp_path / "o.csv"))
    assert result.exit_code == 2, result.output


def test_experiment_name_mismatch(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "ff_vs_block", "N": 8, "d": 3, "k": 1,
                                     "s_list": [1], "m_list": [2]}))
    result = run("experiment", "phase_transition", "--spec", str(spec_path),
                 "--out", str(tmp_path / "o.csv"))
    assert result.exit_code == 2


def test_experiment_infeasible_config(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "phase_transition", "N": 8, "d": 3,
                                     "k": 5, "s_list": [1], "m_list": [2]}))
    result = run("experiment", "phase_transition", "--spec", str(spec_path),
                 "--out", str(tmp_path / "o.csv"))
    assert result.exit_code == 3


@pytest.mark.parametrize("spec_name, fields", [
    ("desk_noisy_sigma", {"m_list": [16, 32]}),
    ("desk_certificate_audit", {"s_list": [4, 8], "sigma_list": [0.0, 0.1]}),
], ids=["two_m_values", "two_s_values_and_sigmas"])
def test_experiment_rejects_grids_it_would_ignore(tmp_path, spec_name, fields):
    # noisy_sigma reads one m, and certificate_audit one s and no sigma: a
    # run would drop the extra values without a word
    doc = json.loads((SPECS_DIR / f"{spec_name}.json").read_text())
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**doc, **fields}))
    result = run("experiment", doc["name"], "--spec", str(spec_path),
                 "--out", str(tmp_path / "o.csv"))
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_experiment_rejects_nonpositive_threads(tmp_path, threads):
    result = run("experiment", "phase_transition", "--spec",
                 str(SPECS_DIR / "desk_phase_transition.json"),
                 "--out", str(tmp_path / "o.csv"), "--threads", threads)
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "o.csv").exists()

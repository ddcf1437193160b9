"""ffsparse benchmark: seeded experiment sweeps timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload desk_audit --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced
    python3 perfbench/run.py --workload desk_audit --seed 1 --write-reference

A workload (``perfbench/workloads.json``) is a frozen experiment spec and a
number of ``run_experiment`` calls; call j of a run with seed s uses
``base_seed = s * 1000 + j``.  A run makes one pass over all the calls, then
repeats them in order while the next call is expected to end within
``--seconds``, in one process with ``threads=1`` and BLAS pinned to one
thread.

End-to-end metrics (``--trace 0``, tracing off):

* ``wall_s``: median wall time of one ``run_experiment`` call over every
  call the run timed, repeats included, CSV and ``.dat`` writing included;
* ``setup_s``: median over fresh interpreters of ``import ffsparse`` plus
  loading and validating the spec;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` makes the one pass only, running every call untraced and then
traced, back to back, and reports per-layer counts and times
(``tracing.py``) instead, together with the per-solve latency median and
tail (``TrialRecord.wall_time``) and the failed fraction.

Every trial is checked (``checks.py``); seeds with a file under
``perfbench/reference/`` are also checked against that frozen reference.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record (environment,
per-call times, reference report, spans) goes to ``perfbench/out/``.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE_DIR = HERE / "reference"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
SEED_STRIDE = 1000
SETUP_STARTS = 7

SETUP_CODE = """\
import json, sys
import ffsparse
from ffsparse.experiments import spec_from_dict, validate_spec
doc = json.loads(open(sys.argv[1]).read())[sys.argv[2]]["spec"]
validate_spec(spec_from_dict(dict(doc, base_seed=int(sys.argv[3]))))
"""


def load_ffsparse():
    """Import ffsparse from this checkout's sources, or stop."""
    package = SRC / "ffsparse"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ffsparse sources at {package}")
    sys.path.insert(0, str(SRC))
    import ffsparse
    import ffsparse.experiments

    if Path(ffsparse.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported ffsparse from {ffsparse.__file__}, not {package}")
    return ffsparse


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": _loadavg(), "seed": seed,
    }


def measure_setup(workload: str, seed: int) -> list:
    """Wall times of fresh interpreters importing ffsparse and validating the
    spec; one untimed start first so bytecode caches are written."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, str(HERE / "workloads.json"), workload, str(seed)]
    subprocess.run(cmd, env=env, check=True)
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def workload_specs(ffsparse, workload: str, seed: int) -> list:
    entry = WORKLOADS[workload]
    return [ffsparse.experiments.spec_from_dict(dict(entry["spec"], base_seed=seed * SEED_STRIDE + j))
            for j in range(entry["calls"])]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_call(run_experiment, spec, csv_path: Path, tracer=None) -> dict:
    """One run_experiment call: its wall time, rows and output hashes.  With
    a tracer, the layer functions are rebound for this call only."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        if tracer is None:
            result = run_experiment(spec, out_csv=csv_path, threads=1)
        else:
            result = tracer.call(tracing.ROOT_SPAN, run_experiment, spec, out_csv=csv_path, threads=1)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    return {"wall_s": wall, "rows": result.rows, "csv_sha256": _sha256(result.csv_path),
            "dat_sha256": _sha256(result.dat_path)}


def run_pass(run_experiment, specs: list, out_dir: Path) -> list:
    return [run_call(run_experiment, spec, out_dir / f"call{j}.csv") for j, spec in enumerate(specs)]


def run_timed(run_experiment, specs: list, out_dir: Path, seconds: float) -> tuple:
    """One pass over every call, then the calls again in order while the
    next one is expected to end within ``seconds``.  Returns (first pass,
    [(call index, repeat), ...])."""
    t0 = time.perf_counter()
    first = run_pass(run_experiment, specs, out_dir)
    repeats = []
    while True:
        done = len(first) + len(repeats)
        if (time.perf_counter() - t0) * (done + 1) / done > seconds:
            return first, repeats
        j = len(repeats) % len(specs)
        repeats.append((j, run_call(run_experiment, specs[j], out_dir / f"call{j}.csv")))


def run_paired_pass(run_experiment, specs: list, out_dir: Path) -> tuple:
    """Each call untraced and then traced, back to back, so that drift in
    machine speed cancels out of the tracing overhead.  Returns (untraced
    calls, traced calls, spans)."""
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for j, spec in enumerate(specs):
        untraced.append(run_call(run_experiment, spec, out_dir / f"call{j}.csv"))
        traced.append(run_call(run_experiment, spec, out_dir / f"call{j}.csv", tracer))
    return untraced, traced, tracer.spans


def trials_of(calls: list, max_iter: int) -> list:
    return [{"call": j, "cell": r.cell_index, "trial": r.trial_index, "program": r.program,
             "seed": r.seed, "success": bool(r.success), "objective": float(r.objective),
             "iterations": int(r.iterations), "capped": int(r.iterations) >= max_iter,
             "rel_err": float(r.rel_err)}
            for j, call in enumerate(calls) for r in call["rows"]]


def hashes_of(calls: list) -> list:
    return [(c["csv_sha256"], c["dat_sha256"]) for c in calls]


def end_to_end(first: list, repeats: list) -> dict:
    """``wall_s`` over every timed call; per-solve latencies from the first
    pass, one per distinct solve."""
    walls = [c["wall_s"] for c in first] + [c["wall_s"] for _, c in repeats]
    latencies = [r.wall_time for c in first for r in c["rows"]]
    tail, pct, n = checks.tail_latency(latencies)
    return {"wall_s": statistics.median(walls), "solve_p50_ms": 1e3 * statistics.median(latencies),
            "solve_tail_ms": 1e3 * tail, "solve_tail_percentile": pct, "solves": n,
            "timed_calls": len(walls), "per_call_wall_s": [c["wall_s"] for c in first],
            "repeat_wall_s": [[j, c["wall_s"]] for j, c in repeats]}


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def write_reference(ffsparse, workload: str, seed: int) -> None:
    specs = workload_specs(ffsparse, workload, seed)
    max_iter = ffsparse.SolverConfig().max_iter
    calls = run_pass(ffsparse.experiments.run_experiment, specs, OUT / workload / f"seed{seed}")
    trials = trials_of(calls, max_iter)
    doc = {"workload": workload, "seed": seed, "max_iter": max_iter,
           "calls": [{"base_seed": s.base_seed, "csv_sha256": c["csv_sha256"],
                      "dat_sha256": c["dat_sha256"]} for s, c in zip(specs, calls)],
           "columns": checks.REFERENCE_KEYS,
           "trials": [[t[k] for k in checks.REFERENCE_KEYS] for t in trials]}
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = reference_path(workload, seed)
    lines = ",\n".join(json.dumps(row) for row in doc.pop("trials"))
    path.write_text(json.dumps(doc)[:-1] + ', "trials": [\n' + lines + "\n]}\n")
    capped = sum(t["capped"] for t in trials)
    print(f"wrote {path.relative_to(ROOT)}: {len(trials)} trials, {capped} capped")


def run_workload(ffsparse, workload: str, seed: int, seconds: float, trace: bool,
                 benchmark: dict) -> dict:
    env = environment(seed)
    setup = measure_setup(workload, seed)
    specs = workload_specs(ffsparse, workload, seed)
    out_dir = OUT / workload / f"seed{seed}"
    max_iter = ffsparse.SolverConfig().max_iter
    run_experiment = ffsparse.experiments.run_experiment
    if trace:
        first, traced, spans = run_paired_pass(run_experiment, specs, out_dir)
        repeats = []
    else:
        first, repeats = run_timed(run_experiment, specs, out_dir, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = end_to_end(first, repeats)
    e2e.update(setup_s=statistics.median(setup), peak_rss_mb=peak_rss_mb)

    reference = None
    if reference_path(workload, seed).is_file():
        reference = json.loads(reference_path(workload, seed).read_text())
    verdict = checks.check_trials(
        trials_of(first, max_iter),
        [dict(zip(reference["columns"], row)) for row in reference["trials"]] if reference else None,
        specs[0].success_rel_err)
    hashes = hashes_of(first)
    deterministic = all(hashes_of([c]) == [hashes[j]] for j, c in repeats)
    byte_identical = None
    if reference:
        byte_identical = hashes == [(c["csv_sha256"], c["dat_sha256"]) for c in reference["calls"]]

    layer = None
    if trace:
        deterministic = deterministic and hashes_of(traced) == hashes
        layer = tracing.layer_metrics(spans, max_iter)
        traced_per_call = [c["wall_s"] for c in traced]
        e2e["traced_per_call_wall_s"] = traced_per_call
        layer["trace.wall_s"] = statistics.median(traced_per_call)
        # per call traced over untraced: the pairs ran back to back
        layer["trace_overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced_per_call, e2e["per_call_wall_s"])) - 1.0
        layer["failed_frac"] = verdict.failed_frac
        layer["solve_p50_ms"] = e2e["solve_p50_ms"]
        layer["solve_tail_ms"] = e2e["solve_tail_ms"]

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": dict(env, loadavg_end=_loadavg()),
        "calls": len(specs), "timed_calls": e2e["timed_calls"],
        "base_seeds": [s.base_seed for s in specs],
        "setup_s_samples": setup, "end_to_end": e2e,
        "checks": {"attempted": verdict.attempted, "capped": verdict.capped,
                   "rejected": verdict.rejected, "missing": verdict.missing,
                   "failed_frac": verdict.failed_frac, "deterministic": deterministic,
                   "reference": reference_path(workload, seed).name if reference else None,
                   "label_flips": verdict.label_flips if reference else None,
                   "objective_max_rel_dev": verdict.objective_max_rel_dev if reference else None,
                   "byte_identical": byte_identical, "problems": verdict.problems[:50]},
        "per_layer": layer,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.info] for s in spans]) + "\n")

    report(record, benchmark, layer)
    wanted = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    values = layer if trace else e2e
    return {
        "correct": verdict.rejected == 0 and verdict.missing == 0 and deterministic,
        "attempted": verdict.attempted,
        "failed": verdict.rejected + verdict.missing,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def report(record: dict, benchmark: dict, layer) -> None:
    e2e, chk, env = record["end_to_end"], record["checks"], record["environment"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"calls={record['calls']} timed calls={record['timed_calls']}")
    print(f"env: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"blas {env['blas']} {env['blas_version']} threads=1 nproc={env['nproc']} "
          f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    walls = sorted(e2e["per_call_wall_s"] + [w for _, w in e2e["repeat_wall_s"]])
    print(f"call wall_s over {len(walls)} timed calls: min {walls[0]:.4f} "
          f"median {statistics.median(walls):.4f} max {walls[-1]:.4f}")
    for metric in benchmark["end_to_end"]:
        print(f"{metric['name']:>14s} = {e2e[metric['name']]:.6g} {metric['unit']}")
    print(f"{'solve_p50_ms':>14s} = {e2e['solve_p50_ms']:.6g} ms")
    print(f"{'solve_tail_ms':>14s} = {e2e['solve_tail_ms']:.6g} ms  "
          f"(p{e2e['solve_tail_percentile']:.2f} of {e2e['solves']} solves)")
    print(f"{'failed_frac':>14s} = {chk['failed_frac']:.6g} ratio  "
          f"({chk['capped']} capped, {chk['rejected']} rejected, {chk['missing']} missing "
          f"of {chk['attempted']} solves)")
    if chk["reference"]:
        print(f"reference {chk['reference']}: solver.label_flips={chk['label_flips']} "
              f"solver.objective_max_rel_dev={chk['objective_max_rel_dev']:.3g} "
              f"byte_identical={chk['byte_identical']}")
    else:
        print("reference: none for this seed (invariant checks only)")
    print(f"deterministic across repeats: {chk['deterministic']}")
    for problem in chk["problems"]:
        print(f"problem: {problem}")
    if layer is not None:
        pass_wall = layer[f"{tracing.ROOT_SPAN}.s"]
        for line in tracing.format_table(layer, pass_wall):
            print(line)
        layer_sum = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
        print(f"layer self times sum {layer_sum:.4f} s; traced pass wall {pass_wall:.4f} s; "
              f"trace_overhead_frac {layer['trace_overhead_frac']:.4f}")


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="write the frozen reference for this workload and seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    ffsparse = load_ffsparse()
    for name in names:
        if args.write_reference:
            write_reference(ffsparse, name, args.seed)
            continue
        result = run_workload(ffsparse, name, args.seed, args.seconds, bool(args.trace), benchmark)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Sweep benchmark of trihybrid.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload power_sweep --seed 0 --seconds 10 --trace 0

Runs the workload's sweep through `trihybrid.experiments.run_experiment`,
the function `trihybrid run` calls, in this process with one worker, back to
back until `--seconds` have passed (at least twice).  The program is imported
from `src/` of the checkout.  With `--trace 0` it prints the end-to-end
metrics, with `--trace 1` it alternates untraced and traced runs and prints
the per-layer metrics.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line
before it records the machine, the unscaled times and the SHA-256 of the
results CSV.

Every run is checked: `audit_results` must pass every row, every rate must
be finite, each cell must have its row, and repeated runs must write
identical bytes.  Times are scaled by the machine speed sampled between
cells (see speed.py).  Inputs, results and timing files go to `.perfbench/`
in the checkout.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the setup probes inherit this.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

from speed import REFERENCE_NOMINAL_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60
WMMSE_METHODS = ("model1", "model2", "wmmse_fixed")
# Methods that choose antenna patterns, against the fixed-pattern WMMSE.
PATTERN_METHODS = ("model1", "model2")
# Methods every workload runs; each gets a time metric.
TIMED_METHODS = ("model1", "wmmse_fixed", "zf")


@dataclass
class Rep:
    """One `run_experiment` call and what its output files say."""

    wall: float  # seconds, the reference samples taken inside excluded
    attempted: int
    failed: int
    digest: str | None = None
    speed: float = 1.0  # multiplies seconds into scaled seconds
    sampled_s: float = 0.0  # reference time spent inside run_experiment
    scaled_wall: float = 0.0
    scaled_methods: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)  # name -> dimensionless value


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def run_rep(experiments, config_path: Path, expected_cells: int, probe: SpeedProbe) -> Rep:
    """One checked `run_experiment` call, with the machine speed sampled
    before every cell and after the run."""
    probe.samples.clear()
    start = perf_counter()
    try:
        with probe.before_each_cell(experiments):
            results_path = experiments.run_experiment(str(config_path), worker_count=1)
    except Exception:
        traceback.print_exc()
        return Rep(wall=perf_counter() - start, attempted=expected_cells, failed=expected_cells)
    sampled = sum(probe.samples)
    wall = perf_counter() - start - sampled
    probe.sample()

    data = Path(results_path).read_bytes()
    with open(results_path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    finite = [_finite(r["sum_rate_digital"]) and _finite(r["sum_rate_hybrid"]) for r in rows]
    bad_rows = {f"row {i + 1}" for i, ok in enumerate(finite) if not ok}
    failures, _ = experiments.audit_results(results_path)
    # Failure messages start with "row <n> (...)"; a row counts once.
    bad_rows |= {failure.split(" (")[0] for failure in failures}
    failed = len(bad_rows) + abs(expected_cells - len(rows))

    timing_path = os.path.splitext(results_path)[0] + "_timing.csv"
    with open(timing_path, newline="", encoding="ascii") as fh:
        timing = list(csv.DictReader(fh))
    cells = [float(row["seconds"]) for row in timing]
    scaled_cells = probe.scale(cells)
    scaled_methods = {}
    for row, seconds in zip(timing, scaled_cells):
        scaled_methods[row["method"]] = scaled_methods.get(row["method"], 0.0) + seconds
    speed = REFERENCE_NOMINAL_S / statistics.fmean(probe.samples)

    ratios = {}
    if rows and all(finite):
        hybrid = {}
        for row in rows:
            hybrid.setdefault(row["method"], []).append(float(row["sum_rate_hybrid"]))
        digital = sum(float(r["sum_rate_digital"]) for r in rows)
        if digital > 0.0:
            ratios["hybrid_frac"] = sum(float(r["sum_rate_hybrid"]) for r in rows) / digital
        pattern = [rate for method in PATTERN_METHODS for rate in hybrid.get(method, [])]
        if pattern and statistics.fmean(hybrid.get("wmmse_fixed", [0.0])) > 0.0:
            ratios["pattern_gain"] = statistics.fmean(pattern) / statistics.fmean(
                hybrid["wmmse_fixed"]
            )
    capped = [r["converged"] == "0" for r in rows if r["method"] in WMMSE_METHODS]
    if capped:
        ratios["capped_frac"] = sum(capped) / len(capped)
    return Rep(
        wall=wall,
        attempted=expected_cells,
        failed=failed,
        digest=hashlib.sha256(data).hexdigest(),
        speed=speed,
        sampled_s=sampled,
        # Time outside the cells (config load, CSV writing) at the mean speed.
        scaled_wall=sum(scaled_cells) + (wall - sum(cells)) * speed,
        scaled_methods=scaled_methods,
        ratios=ratios,
    )


def measure_setup(config_path: Path, probes: int) -> float:
    """Median seconds from starting a fresh interpreter to its first cell."""
    script = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(probes):
        started = monotonic()
        done = subprocess.run(
            [sys.executable, str(script), str(SRC), str(config_path)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]) - started)
    return statistics.median(samples)


def end_to_end(experiments, config_path: Path, expected: int, seconds: float, probes: int):
    """Set-up probes, then untraced runs; times are medians over the runs.

    There are at least two runs, so that every workload's results are
    checked for identical bytes.
    """
    setup_s = measure_setup(config_path, probes)
    probe = SpeedProbe()
    reps = []
    start = perf_counter()
    while len(reps) < 2 or perf_counter() - start < seconds:
        reps.append(run_rep(experiments, config_path, expected, probe))
        if reps[-1].digest is None:
            return reps, {}
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(rep.scaled_wall for rep in reps), "s_ref"),
    }
    for method in TIMED_METHODS:
        if method in reps[0].scaled_methods:
            value = statistics.median(rep.scaled_methods[method] for rep in reps)
            metrics[f"{method}_s"] = (value, "s_ref")
    # Deterministic for a fixed seed: every run of the process has them equal.
    for name in ("pattern_gain", "hybrid_frac", "capped_frac"):
        if name in reps[0].ratios:
            metrics[name] = (reps[0].ratios[name], "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return reps, metrics


def per_layer(experiments, config_path: Path, warmup_path: Path, expected: int, seconds: float):
    """Alternate untraced and traced runs; per-layer metrics are medians over
    the traced ones, times scaled by the speed sampled during each.

    A smoke-size run first fills the program's lazy caches, so that neither
    side of the first pair pays for them and the overhead compares like with
    like.
    """
    from tracer import Tracer, layer_metrics, traced

    probe = SpeedProbe()
    run_rep(experiments, warmup_path, 0, probe)
    reps, samples = [], []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        plain = run_rep(experiments, config_path, expected, probe)
        tracer = Tracer()
        with traced(tracer):
            # The speed samples wrap the traced cells, outside their spans.
            traced_rep = run_rep(experiments, config_path, expected, probe)
        reps += [plain, traced_rep]
        if plain.digest is None or traced_rep.digest is None:
            return reps, {}
        raw = layer_metrics(tracer)
        # The run's span holds the speed samples taken between its cells.
        for name in ("experiments.run.s", "experiments.write_s"):
            if name in raw:
                raw[name] = (raw[name][0] - traced_rep.sampled_s, "s")
        sample = {
            name: (value * traced_rep.speed, f"{unit}_ref") if unit in ("s", "ms") else (value, unit)
            for name, (value, unit) in raw.items()
        }
        sample["trace_overhead_frac"] = (traced_rep.scaled_wall / plain.scaled_wall - 1.0, "ratio")
        samples.append(sample)
    return reps, {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }


def machine_info() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="a corner of the sweep at 3 iterations, for tests"
    )
    args = parser.parse_args(argv)

    if not (SRC / "trihybrid" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'trihybrid'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from trihybrid import experiments

    if not Path(experiments.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: trihybrid was imported from {experiments.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (workdir / "warmup").mkdir(parents=True, exist_ok=True)
    config_path = workdir / "bench.ini"
    config_path.write_text(workload.ini(args.seed, args.smoke), encoding="ascii")
    expected = workload.cells(args.seed, args.smoke)

    if args.trace:
        warmup_path = workdir / "warmup" / "bench.ini"
        warmup_path.write_text(workload.ini(args.seed, smoke=True), encoding="ascii")
        reps, metrics = per_layer(experiments, config_path, warmup_path, expected, args.seconds)
    else:
        probes = 1 if args.smoke else SETUP_PROBES
        try:
            reps, metrics = end_to_end(experiments, config_path, expected, args.seconds, probes)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    digests = sorted({rep.digest for rep in reps if rep.digest is not None})
    failed = sum(rep.failed for rep in reps)
    correct = failed == 0 and len(digests) == 1 and all(rep.digest for rep in reps)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "runs": len(reps),
        "results_sha256": digests,
        "raw_wall_s": [rep.wall for rep in reps],
        "reference_ms": [1e3 * REFERENCE_NOMINAL_S / rep.speed for rep in reps],
        "machine": machine_info(),
    }
    result = {
        "correct": correct,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

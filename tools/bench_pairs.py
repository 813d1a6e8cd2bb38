"""Record alternating base/change runs of perfbench into one BENCH file.

Usage, from anywhere:

    python3 tools/bench_pairs.py --base PARENT_CHECKOUT --change CHANGE_CHECKOUT \
        --workload power_sweep --seeds 11 12 13 --trace 0 --out BENCH_7.json

For each workload seed, runs `python3 perfbench/run.py` once in each
checkout: one pair per seed, the first pair base first, the next change
first, and so on.  Both checkouts run their own perfbench with the same
options and its own run length.  Before the first pair, every `__pycache__`
directory under each checkout's `src/` is deleted, so that both sides
compile the package alike instead of one importing bytecode that an earlier
run left behind.  Every run's record line (workload, seed, machine, results
digest) and result line (metrics) go into the `runs` list of `--out`, with
the side, the pair number, which side ran first and `pycache_removed`, the
number of cache directories deleted from that side's `src/` before the
first pair.  An existing file is extended, so
one file collects every workload and the traced runs.

The file's `summary` is recomputed from all its runs.  Per workload, `runs`
gives each side's totals over every run, traced ones included: cells
attempted, cells failed, and runs perfbench did not report correct.
`metrics` gives, from the untraced runs, each end-to-end metric's median and
quartiles per side, the number of pairs the change won by the direction
`BENCHMARK.json` gives the metric (ties count for neither side), and
`max_rel_diff`, the largest |change - base| / |base| over the pairs (the
absolute difference where base is 0), which shows whether a metric moved
by more than its last bits.  Two flags judge each metric: `gain_holds`
when the change won at least 9 of 10 pairs and its median beats the
parent's by more than the parent's quartile spread (q3 - q1),
`within_bound` when the change median is worse than the parent's by at
most the metric's relative `bound` in `BENCHMARK.json`, and `unresolved`
when the parent's quartile spread is wider than that bound, relative to
the parent's median, unless every run of the change reads better than
every run of the parent: such a metric cannot tell a change within its
bound from one beyond it, so read it as unresolved, not as unchanged.
`digest_mismatches` counts the untraced pairs
whose two sides wrote different results CSVs (different `results_sha256`),
so 0 means the change kept the results byte-identical on every seed.
`layers` reads which layer moved: from the traced runs, each per-layer
metric's median per side and `ratio`, change over base, or `difference`,
change minus base, where the base median is 0.  The medians include every
run.  `phases` reads which solver phase moved: after each untraced run the
script reads that checkout's timing sidecar,
`.perfbench/<workload>-seed<s>-trace0/results_timing.csv`, sums each
method's `receivers_s`, `sweep_s`, `objective_s` and `decomp_s` over its
rows, and scales the sums by 2 ms over the run's last `reference_ms` (the
reference timing taken after that run's sweep), as perfbench scales its
seconds; a run with no sidecar records no phases.  The summary gives, per
method and phase, each side's median over the untraced runs and the
:func:`_layer` comparison.  The script exits 1 after writing the file when
any run in it is incorrect.

Given the same checkout as `--base` and `--change`, the file is an A/A
record: its summary shows how far the host alone moves each metric between
two runs of one program.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")
PHASES = ("receivers_s", "sweep_s", "objective_s", "decomp_s")
REFERENCE_MS = 2.0  # perfbench's nominal reference timing


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} in {checkout} failed:\n{done.stderr}")
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def read_phases(checkout: Path, record: dict) -> dict | None:
    """Each method's phase seconds in the timing sidecar that the untraced
    perfbench run of `record` left in the checkout, summed over the
    method's rows and scaled by `REFERENCE_MS` over the run's last
    reference timing; None when the checkout holds no sidecar or the record
    no reference timing."""
    name = f"{record['workload']}-seed{record['seed']}-trace0"
    path = checkout / ".perfbench" / name / "results_timing.csv"
    if not path.exists() or not record.get("reference_ms"):
        return None
    phases: dict = {}
    with open(path, newline="", encoding="ascii") as fh:
        for row in csv.DictReader(fh):
            sums = phases.setdefault(row["method"], dict.fromkeys(PHASES, 0.0))
            for phase in PHASES:
                sums[phase] += float(row[phase])
    scale = REFERENCE_MS / record["reference_ms"][-1]
    return {
        method: {phase: seconds * scale for phase, seconds in sums.items()}
        for method, sums in phases.items()
    }


def clear_bytecode(checkout: Path) -> int:
    """Delete every `__pycache__` directory under the checkout's `src/` and
    return how many there were."""
    caches = sorted((checkout / "src").rglob("__pycache__"))
    for cache in caches:
        shutil.rmtree(cache)
    return len(caches)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _relative_difference(base: float, change: float) -> float:
    """|change - base| / |base|, or the absolute difference where base is 0."""
    return abs(change - base) / (abs(base) or 1.0)


def _verdicts(entry: dict, values: dict, better: str, bound: float | None) -> dict:
    """`gain_holds` and, given a relative bound, `within_bound` and
    `unresolved` of one summarized metric, whose runs per side are
    `values`."""
    sign = 1.0 if better == "lower" else -1.0
    base = entry["base"]
    gain = sign * (base["median"] - entry["change"]["median"])  # > 0 when the change is better
    spread = base["q3"] - base["q1"]
    verdicts = {"gain_holds": 10 * entry["change_wins"] >= 9 * entry["pairs"] and gain > spread}
    if bound is not None:
        verdicts["within_bound"] = -gain <= bound * abs(base["median"])
        separated = max(sign * v for v in values["change"]) < min(sign * v for v in values["base"])
        verdicts["unresolved"] = spread > bound * abs(base["median"]) and not separated
    return verdicts


def _layer(values: dict) -> dict:
    """Each side's median of one per-layer metric, and how the change moved it."""
    base, change = (statistics.median(values[side]) for side in SIDES)
    if base == 0.0:
        return {"base": base, "change": change, "difference": change - base}
    return {"base": base, "change": change, "ratio": change / base}


def summarize(runs: list[dict], directions: dict, bounds: dict | None = None) -> dict:
    """Per workload: each side's run totals, the pairs whose results
    digests differ, per metric each side's quartiles, the pairs won, the
    largest relative pair difference and the verdicts of :func:`_verdicts`,
    per traced metric the :func:`_layer` comparison, and per method and
    sidecar phase of the untraced runs the :func:`_layer` comparison;
    `bounds` maps a metric to its relative bound."""
    summary: dict = {}
    pairs: dict = {}  # (workload, pair) -> side -> run
    traced: dict = {}  # workload -> metric -> side -> values
    phases: dict = {}  # workload -> method -> phase -> side -> values
    for run in runs:
        workload = run["record"]["workload"]
        result = run["result"]
        sides = summary.setdefault(
            workload,
            {"runs": {}, "digest_mismatches": 0, "metrics": {}, "layers": {}, "phases": {}},
        )["runs"]
        totals = sides.setdefault(
            run["side"], {"runs": 0, "attempted": 0, "failed": 0, "incorrect": 0}
        )
        totals["runs"] += 1
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["incorrect"] += not result["correct"]
        if not run["record"]["trace"]:
            pairs.setdefault((workload, run["pair"]), {})[run["side"]] = run
            for method, sums in (run.get("phases") or {}).items():
                for phase, value in sums.items():
                    values = phases.setdefault(workload, {}).setdefault(method, {})
                    values.setdefault(phase, {side: [] for side in SIDES})[run["side"]].append(value)
            continue
        for name, metric in result["metrics"].items():
            values = traced.setdefault(workload, {}).setdefault(name, {side: [] for side in SIDES})
            values[run["side"]].append(metric["value"])
    for (workload, _), sides in sorted(pairs.items()):
        if set(sides) != set(SIDES):
            continue
        # A process that runs the sweep several times records one digest per
        # run; they all agree unless the run is incorrect.
        digests = {side: set(sides[side]["record"]["results_sha256"]) for side in SIDES}
        summary[workload]["digest_mismatches"] += digests["base"] != digests["change"]
        metrics = {side: sides[side]["result"]["metrics"] for side in SIDES}
        for name, better in directions.items():
            if name not in metrics["base"] or name not in metrics["change"]:
                continue
            base = metrics["base"][name]["value"]
            change = metrics["change"][name]["value"]
            entry = summary[workload]["metrics"].setdefault(
                name,
                {"base": [], "change": [], "change_wins": 0, "base_wins": 0, "max_rel_diff": 0.0},
            )
            entry["base"].append(base)
            entry["change"].append(change)
            entry["max_rel_diff"] = max(entry["max_rel_diff"], _relative_difference(base, change))
            if base != change:
                change_better = change < base if better == "lower" else change > base
                entry["change_wins" if change_better else "base_wins"] += 1
    for workload, metrics in traced.items():
        summary[workload]["layers"] = {
            name: _layer(values) for name, values in sorted(metrics.items()) if all(values.values())
        }
    for workload, methods in phases.items():
        summary[workload]["phases"] = {
            method: {
                phase: _layer(values) for phase, values in sorted(sums.items()) if all(values.values())
            }
            for method, sums in sorted(methods.items())
        }
    for workload in summary.values():
        for name, entry in workload["metrics"].items():
            entry["pairs"] = len(entry["base"])
            values = {side: entry[side] for side in SIDES}
            for side in SIDES:
                entry[side] = dict(zip(("q1", "median", "q3"), _quartiles(values[side])))
            entry.update(_verdicts(entry, values, directions[name], (bounds or {}).get(name)))
    return summary


def incorrect_runs(summary: dict) -> int:
    return sum(
        totals["incorrect"]
        for workload in summary.values()
        for totals in workload["runs"].values()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"] if "bound" in m}
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    first_pair = 1 + max((run["pair"] for run in data["runs"]), default=0)
    checkouts = {"base": args.base, "change": args.change}
    removed = {side: clear_bytecode(checkouts[side]) for side in SIDES}
    for offset, seed in enumerate(args.seeds):
        pair = first_pair + offset
        order = SIDES if offset % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            run = run_once(checkouts[side], args.workload, seed, args.trace)
            if not args.trace:
                run["phases"] = read_phases(checkouts[side], run["record"])
            data["runs"].append(
                {
                    "pair": pair, "side": side, "first": position == 0,
                    "pycache_removed": removed[side], **run,
                }
            )
            print(f"pair {pair} seed {seed} {side}: correct={run['result']['correct']}", flush=True)
        data["summary"] = summarize(data["runs"], directions, bounds)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    incorrect = incorrect_runs(data["summary"])
    if incorrect:
        print(f"error: {incorrect} run(s) in {args.out} are not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

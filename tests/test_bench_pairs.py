"""Summary of the paired benchmark runs that tools/bench_pairs.py records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"wall_s": "lower", "pattern_gain": "higher"}


def _run(
    pair, side, wall, gain=1.0, trace=0, correct=True, attempted=4, failed=0, digests=("aa",)
):
    return {
        "pair": pair,
        "side": side,
        "first": side == "base",
        "record": {
            "workload": "power_sweep",
            "seed": pair,
            "trace": trace,
            "results_sha256": list(digests),
        },
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "wall_s": {"value": wall, "unit": "s_ref"},
                "pattern_gain": {"value": gain, "unit": "ratio"},
            },
        },
    }


def test_totals_count_failed_and_incorrect_runs_per_side():
    runs = [
        _run(1, "base", 3.0),
        _run(1, "change", 2.0, correct=False, failed=1),
        _run(2, "change", 2.5),
        _run(2, "base", 3.5),
        _run(3, "base", 9.0, trace=1),
        _run(3, "change", 9.0, trace=1, correct=False, failed=2, attempted=5),
    ]
    summary = bench_pairs.summarize(runs, DIRECTIONS)["power_sweep"]
    assert summary["runs"] == {
        "base": {"runs": 3, "attempted": 12, "failed": 0, "incorrect": 0},
        "change": {"runs": 3, "attempted": 13, "failed": 3, "incorrect": 2},
    }
    assert bench_pairs.incorrect_runs({"power_sweep": summary}) == 2


def test_metrics_from_untraced_pairs_only():
    runs = [
        _run(1, "base", 3.0, gain=1.1),
        _run(1, "change", 2.0, gain=1.0),
        _run(2, "change", 2.5, gain=1.1),
        _run(2, "base", 3.5, gain=1.1),
        _run(3, "base", 1.0, trace=1),
        _run(3, "change", 9.0, trace=1),
        _run(4, "base", 1.0),  # no change side: not a pair
    ]
    metrics = bench_pairs.summarize(runs, DIRECTIONS)["power_sweep"]["metrics"]
    wall = metrics["wall_s"]
    assert wall["pairs"] == 2
    assert (wall["change_wins"], wall["base_wins"]) == (2, 0)
    assert wall["base"]["median"] == pytest.approx(3.25)
    assert wall["change"] == {"q1": 2.125, "median": 2.25, "q3": 2.375}
    gain = metrics["pattern_gain"]
    assert (gain["change_wins"], gain["base_wins"]) == (0, 1)  # a tie counts for neither
    assert bench_pairs.incorrect_runs({"power_sweep": {"runs": {}, "metrics": metrics}}) == 0


def test_largest_relative_pair_difference():
    runs = [
        _run(1, "base", 3.0, gain=1.0),
        _run(1, "change", 2.0, gain=1.0 + 6.5e-9),
        _run(2, "change", 3.3, gain=1.25),
        _run(2, "base", 3.0, gain=1.25),
        _run(3, "base", 1.0, trace=1),  # traced pairs do not count
        _run(3, "change", 9.0, trace=1),
    ]
    metrics = bench_pairs.summarize(runs, DIRECTIONS)["power_sweep"]["metrics"]
    assert metrics["wall_s"]["max_rel_diff"] == pytest.approx(1.0 / 3.0)
    gain = metrics["pattern_gain"]
    assert (gain["change_wins"], gain["base_wins"]) == (1, 0)  # a last-bit win
    assert gain["max_rel_diff"] == pytest.approx(6.5e-9, rel=1e-6)
    # Where base is 0 the difference is taken as it is.
    runs += [_run(4, "base", 0.0, gain=0.0), _run(4, "change", 0.5, gain=0.0)]
    metrics = bench_pairs.summarize(runs, DIRECTIONS)["power_sweep"]["metrics"]
    assert metrics["wall_s"]["max_rel_diff"] == 0.5
    assert metrics["pattern_gain"]["max_rel_diff"] == pytest.approx(6.5e-9, rel=1e-6)


def test_digest_mismatches_count_untraced_pairs_with_different_results():
    runs = [
        _run(1, "base", 3.0, digests=("aa", "aa")),
        _run(1, "change", 2.0, digests=("aa",)),  # fewer runs, same results
        _run(2, "change", 2.5, digests=("bb", "bb")),
        _run(2, "base", 3.5, digests=("aa", "aa")),
        _run(3, "base", 1.0, trace=1, digests=("cc",)),  # traced pairs do not count
        _run(3, "change", 9.0, trace=1, digests=("dd",)),
        _run(4, "change", 1.0, digests=("ee",)),  # no base side: not a pair
    ]
    summary = bench_pairs.summarize(runs, DIRECTIONS)["power_sweep"]
    assert summary["digest_mismatches"] == 1
    assert bench_pairs.summarize(runs[:2], DIRECTIONS)["power_sweep"]["digest_mismatches"] == 0


def _pairs(walls, gains=None):
    """Untraced pairs with the given (base, change) walls and gains."""
    gains = gains or [(1.0, 1.0)] * len(walls)
    runs = []
    for pair, ((base, change), (base_gain, change_gain)) in enumerate(zip(walls, gains), 1):
        runs += [
            _run(pair, "base", base, gain=base_gain),
            _run(pair, "change", change, gain=change_gain),
        ]
    return runs


def test_gain_holds_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_spread():
    base = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]  # q1 3.225, median 3.45, q3 3.675
    metrics = bench_pairs.summarize(_pairs([(b, b - 1.0) for b in base]), DIRECTIONS)
    wall = metrics["power_sweep"]["metrics"]["wall_s"]
    assert wall["change_wins"] == 10 and wall["gain_holds"] is True
    # Nine wins and one tie still hold; eight wins do not.
    nine = [(b, b - 1.0) for b in base[:9]] + [(base[9], base[9])]
    assert bench_pairs.summarize(_pairs(nine), DIRECTIONS)["power_sweep"]["metrics"]["wall_s"][
        "gain_holds"
    ]
    eight = [(b, b - 1.0) for b in base[:8]] + [(b, b + 1.0) for b in base[8:]]
    assert not bench_pairs.summarize(_pairs(eight), DIRECTIONS)["power_sweep"]["metrics"][
        "wall_s"
    ]["gain_holds"]
    # Ten wins by a median gap of 0.4, inside the parent's spread of 0.45.
    small = [(b, b - 0.4) for b in base]
    wall = bench_pairs.summarize(_pairs(small), DIRECTIONS)["power_sweep"]["metrics"]["wall_s"]
    assert wall["change_wins"] == 10 and wall["gain_holds"] is False
    # For a higher-is-better metric the change must rise.
    gains = [(1.0 + i / 100, 1.5 + i / 100) for i in range(10)]
    gain = bench_pairs.summarize(_pairs([(3.0, 3.0)] * 10, gains), DIRECTIONS)["power_sweep"][
        "metrics"
    ]["pattern_gain"]
    assert gain["gain_holds"] is True


def test_within_bound_compares_medians_with_the_relative_bound():
    bounds = {"wall_s": 0.25, "pattern_gain": 0.08}
    walls = [(4.0, 4.9)] * 5 + [(4.0, 5.0)] * 5  # change median 4.95: 23.75 % worse
    gains = [(1.0, 0.93)] * 10  # 7 % worse
    metrics = bench_pairs.summarize(_pairs(walls, gains), DIRECTIONS, bounds)["power_sweep"][
        "metrics"
    ]
    assert metrics["wall_s"]["within_bound"] is True
    assert metrics["pattern_gain"]["within_bound"] is True
    walls = [(4.0, 5.1)] * 10  # 27.5 % worse
    gains = [(1.0, 0.91)] * 10  # 9 % worse
    metrics = bench_pairs.summarize(_pairs(walls, gains), DIRECTIONS, bounds)["power_sweep"][
        "metrics"
    ]
    assert metrics["wall_s"]["within_bound"] is False
    assert metrics["pattern_gain"]["within_bound"] is False
    # A metric without a bound gets no within_bound flag.
    metrics = bench_pairs.summarize(_pairs(walls), DIRECTIONS)["power_sweep"]["metrics"]
    assert "within_bound" not in metrics["wall_s"]


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    bounds = {"wall_s": 0.25, "pattern_gain": 0.08}
    # Parent walls 3.0-5.25: q1 3.5625, median 4.125, q3 4.6875, a spread
    # of 1.125, 27 % of the median.  The change reads 4.0 and 4.2 alike.
    base = [3.0 + 0.25 * i for i in range(10)]
    walls = [(b, 4.0 + 0.2 * (i % 2)) for i, b in enumerate(base)]
    # Gains spread by 1 % of their median, inside the bound of 8 %.
    gains = [(1.0 + 0.002 * i, 1.0) for i in range(10)]
    metrics = bench_pairs.summarize(_pairs(walls, gains), DIRECTIONS, bounds)["power_sweep"][
        "metrics"
    ]
    assert metrics["wall_s"]["within_bound"] is True
    assert metrics["wall_s"]["unresolved"] is True
    assert metrics["pattern_gain"]["unresolved"] is False
    # Every change run below every parent run resolves it, in either direction.
    walls = [(b, 2.9 - 0.1 * (i % 2)) for i, b in enumerate(base)]
    gains = [(1.0 + 0.1 * i, 2.0) for i in range(10)]  # spread 31 % of the median, all beaten
    metrics = bench_pairs.summarize(_pairs(walls, gains), DIRECTIONS, bounds)["power_sweep"][
        "metrics"
    ]
    assert metrics["wall_s"]["unresolved"] is False
    assert metrics["pattern_gain"]["unresolved"] is False
    # One change run that does not beat every parent run leaves it unresolved.
    walls[0] = (base[0], 3.1)
    metrics = bench_pairs.summarize(_pairs(walls), DIRECTIONS, bounds)["power_sweep"]["metrics"]
    assert metrics["wall_s"]["unresolved"] is True
    # A metric without a bound gets no unresolved flag.
    metrics = bench_pairs.summarize(_pairs(walls), DIRECTIONS)["power_sweep"]["metrics"]
    assert "unresolved" not in metrics["wall_s"]


def _traced(pair, side, metrics):
    run = _run(pair, side, 0.0, trace=1)
    run["result"]["metrics"] = {
        name: {"value": value, "unit": "count"} for name, value in metrics.items()
    }
    return run


def test_layers_compare_traced_medians_per_side():
    runs = [
        _traced(1, "base", {"decomp.s": 0.30, "decomp.calls": 120, "zf.s": 0.0, "only": 1.0}),
        _traced(1, "change", {"decomp.s": 0.10, "decomp.calls": 0, "zf.s": 0.02}),
        _traced(2, "change", {"decomp.s": 0.14, "decomp.calls": 0, "zf.s": 0.04}),
        _traced(2, "base", {"decomp.s": 0.50, "decomp.calls": 120, "zf.s": 0.0}),
        _traced(3, "base", {"decomp.s": 0.40, "decomp.calls": 120, "zf.s": 0.0}),
        _run(4, "base", 3.0),  # untraced runs do not count
        _run(4, "change", 2.0),
    ]
    layers = bench_pairs.summarize(runs, DIRECTIONS)["power_sweep"]["layers"]
    assert layers["decomp.s"] == pytest.approx({"base": 0.40, "change": 0.12, "ratio": 0.3})
    assert layers["decomp.calls"] == {"base": 120, "change": 0, "ratio": 0.0}
    # Where the base median is 0 the change is given as a difference.
    assert layers["zf.s"] == pytest.approx({"base": 0.0, "change": 0.03, "difference": 0.03})
    assert "only" not in layers  # traced on one side only
    assert "wall_s" not in layers
    untraced = bench_pairs.summarize(runs[-2:], DIRECTIONS)["power_sweep"]
    assert untraced["layers"] == {}


def test_exits_1_after_writing_when_a_run_is_incorrect(tmp_path, monkeypatch):
    outcomes = iter([_run(1, "base", 3.0), _run(1, "change", 2.0, correct=False, failed=1)])
    monkeypatch.setattr(
        bench_pairs,
        "run_once",
        lambda checkout, workload, seed, trace: {
            key: value for key, value in next(outcomes).items() if key in ("record", "result")
        },
    )
    out = tmp_path / "BENCH.json"
    root = str(_PATH.parents[1])
    code = bench_pairs.main(
        ["--base", root, "--change", root, "--workload", "power_sweep", "--seeds", "1",
         "--out", str(out)]
    )
    assert code == 1
    data = json.loads(out.read_text())
    assert len(data["runs"]) == 2
    assert data["summary"]["power_sweep"]["runs"]["change"]["incorrect"] == 1


def _checkout(root: Path) -> Path:
    """A checkout with bytecode caches inside and outside `src/`."""
    for cache in ("src/pkg/__pycache__", "src/pkg/sub/__pycache__", "tools/__pycache__"):
        (root / cache).mkdir(parents=True)
        (root / cache / "mod.cpython-311.pyc").write_bytes(b"stale")
    (root / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]})
    )
    return root


def test_bytecode_under_src_is_cleared_before_the_first_pair(tmp_path, monkeypatch):
    base, change = _checkout(tmp_path / "base"), _checkout(tmp_path / "change")
    seen = []

    def run_once(checkout, workload, seed, trace):
        # Every run finds no cache under either side's src/.
        seen.append([cache for root in (base, change) for cache in (root / "src").rglob("__pycache__")])
        run = _run(seed, "base", 1.0)
        return {"record": run["record"], "result": run["result"]}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    argv = ["--base", str(base), "--change", str(change), "--workload", "power_sweep",
            "--out", str(out), "--seeds"]
    assert bench_pairs.main(argv + ["1", "2"]) == 0
    assert seen == [[]] * 4
    for root in (base, change):
        assert (root / "tools" / "__pycache__" / "mod.cpython-311.pyc").exists()
    runs = json.loads(out.read_text())["runs"]
    assert [run["pycache_removed"] for run in runs] == [2] * 4
    # A later invocation records what it found then.
    assert bench_pairs.main(argv + ["3"]) == 0
    assert [run["pycache_removed"] for run in json.loads(out.read_text())["runs"]][4:] == [0, 0]
    assert bench_pairs.clear_bytecode(tmp_path / "nowhere") == 0


def _sidecar(checkout: Path, seed: int, rows) -> None:
    """A timing sidecar as an untraced perfbench run of power_sweep leaves it."""
    folder = checkout / ".perfbench" / f"power_sweep-seed{seed}-trace0"
    folder.mkdir(parents=True)
    lines = ["sweep_value,method,scenario_seed,seconds,receivers_s,sweep_s,objective_s,decomp_s"]
    lines += [f"{value},{method},1,1.0,{r},{s},{o},{d}" for value, method, r, s, o, d in rows]
    (folder / "results_timing.csv").write_text("\n".join(lines) + "\n")


def test_read_phases_sums_each_method_and_scales_by_the_last_reference(tmp_path):
    _sidecar(
        tmp_path, 7,
        [(-20.0, "zf", 0.1, 0.0, 0.2, 0.4), (-10.0, "zf", 0.3, 0.0, 0.2, 0.8),
         (-20.0, "model1", 1.0, 2.0, 3.0, 4.0)],
    )
    record = {"workload": "power_sweep", "seed": 7, "reference_ms": [1.0, 4.0]}
    phases = bench_pairs.read_phases(tmp_path, record)  # scaled by 2 ms / 4 ms
    assert phases["zf"] == pytest.approx(
        {"receivers_s": 0.2, "sweep_s": 0.0, "objective_s": 0.2, "decomp_s": 0.6}
    )
    assert phases["model1"] == pytest.approx(
        {"receivers_s": 0.5, "sweep_s": 1.0, "objective_s": 1.5, "decomp_s": 2.0}
    )
    assert bench_pairs.read_phases(tmp_path, {**record, "seed": 8}) is None  # no sidecar
    assert bench_pairs.read_phases(tmp_path, {**record, "reference_ms": []}) is None


def test_phases_compare_untraced_medians_per_method_and_phase():
    def with_phases(run, decomp, sweep=1.0):
        run["phases"] = {"zf": {"decomp_s": decomp, "sweep_s": sweep}}
        return run

    runs = [
        with_phases(_run(1, "base", 3.0), 0.30),
        with_phases(_run(1, "change", 2.0), 0.10),
        with_phases(_run(2, "change", 2.5), 0.14),
        with_phases(_run(2, "base", 3.5), 0.50),
        with_phases(_run(3, "base", 3.5), 0.40),
        _run(3, "change", 2.5),  # no sidecar: skipped
        with_phases(_run(4, "base", 1.0, trace=1), 9.0),  # traced runs do not count
        with_phases(_run(4, "change", 1.0, trace=1), 9.0),
        with_phases(_run(5, "base", 1.0), 0.4, sweep=0.0),
        with_phases(_run(5, "change", 1.0), 0.12, sweep=0.5),
    ]
    phases = bench_pairs.summarize(runs, DIRECTIONS)["power_sweep"]["phases"]
    assert phases["zf"]["decomp_s"] == pytest.approx({"base": 0.40, "change": 0.12, "ratio": 0.3})
    assert phases["zf"]["sweep_s"] == {"base": 1.0, "change": 1.0, "ratio": 1.0}
    assert bench_pairs.summarize(runs[5:6], DIRECTIONS)["power_sweep"]["phases"] == {}


def test_main_records_each_untraced_runs_phases(tmp_path, monkeypatch):
    base, change = _checkout(tmp_path / "base"), _checkout(tmp_path / "change")
    _sidecar(base, 1, [(0.0, "zf", 0.0, 0.0, 0.0, 0.4)])
    _sidecar(change, 1, [(0.0, "zf", 0.0, 0.0, 0.0, 0.2)])

    def run_once(checkout, workload, seed, trace):
        run = _run(seed, "base", 1.0, trace=trace)
        run["record"]["reference_ms"] = [2.0]
        return {"record": run["record"], "result": run["result"]}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    argv = ["--base", str(base), "--change", str(change), "--workload", "power_sweep",
            "--out", str(out), "--seeds", "1"]
    assert bench_pairs.main(argv) == 0
    assert bench_pairs.main(argv[:-2] + ["--trace", "1", "--seeds", "2"]) == 0
    data = json.loads(out.read_text())
    assert [run.get("phases") for run in data["runs"][2:]] == [None, None]  # traced
    assert {run["side"]: run["phases"]["zf"]["decomp_s"] for run in data["runs"][:2]} == {
        "base": 0.4, "change": 0.2
    }
    assert data["summary"]["power_sweep"]["phases"]["zf"]["decomp_s"]["ratio"] == 0.5

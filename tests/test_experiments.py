import configparser
import csv
import gc
import hashlib
import os
import re
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from helpers import row_numbers_one
from trihybrid import channel, experiments, wmmse
from trihybrid.cli import main
from trihybrid.exceptions import ConfigurationError, GenerationError, SweepError
from trihybrid.experiments import audit_results, emit_plotdata, load_config, run_experiment

MINI = """
[scenario]
users = 2
bs_rows = 3
bs_cols = 3
ue_rows = 2
ue_cols = 1
paths_per_user = 3

[solver]
streams_per_user = 2
candidates = 4
sh_degree = 1
max_outer_iterations = 6
objective_tol = 1e-6
rf_chains_offset = 2
seed = 0

[sweep]
axis = power
values = 0
methods = model1 model2 wmmse_fixed zf
seeds = 1
output = results.csv
"""


CONFIG_DOC = Path(__file__).resolve().parents[1] / "docs" / "config.md"


def write_config(tmp_path: Path, text: str = MINI, name: str = "config.ini") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# Two sweep values by two scenario seeds, every method, warm-started.
GRID = MINI.replace("values = 0", "values = -10 0").replace("seeds = 1", "seeds = 1 2").replace(
    "seed = 0", "seed = 0\nwarm_start = true"
)


class TestConfig:
    def test_defaults_parse(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.axis == "power"
        assert config.methods == ("model1", "model2", "wmmse_fixed", "zf")
        assert config.scenario.bs_shape == (3, 3)

    def test_unknown_key_rejected(self, tmp_path):
        # A typo, and a key the runner no longer has.
        for line, key in (
            ("candidats = 4", "candidats"),
            ("candidates = 4\nmanifold_restarts = 1", "manifold_restarts"),
        ):
            bad = MINI.replace("candidates = 4", line)
            with pytest.raises(ConfigurationError, match=key):
                load_config(write_config(tmp_path, bad))

    def test_unknown_method_rejected(self, tmp_path):
        bad = MINI.replace("methods = model1 model2 wmmse_fixed zf", "methods = magic")
        with pytest.raises(ConfigurationError, match="magic"):
            load_config(write_config(tmp_path, bad))

    def test_bad_axis_rejected(self, tmp_path):
        bad = MINI.replace("axis = power", "axis = bananas")
        with pytest.raises(ConfigurationError):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize(
        "word, expected", [("on", True), ("TRUE", True), ("1", True), ("off", False), ("No", False)]
    )
    def test_warm_start_takes_configparser_booleans(self, tmp_path, word, expected):
        text = MINI.replace("seed = 0", f"seed = 0\nwarm_start = {word}")
        assert load_config(write_config(tmp_path, text)).warm_start is expected

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.ini")

    def test_every_documented_key_is_read(self, tmp_path):
        # The keys of the [scenario], [solver] and [sweep] tables of the
        # config reference, each set to junk in its own section: the loader
        # may reject the value, but never the key.
        documented, section = [], None
        for line in CONFIG_DOC.read_text().splitlines():
            if line.startswith("## "):
                section = line[4:-1] if line.startswith("## [") else None
            elif section and line.startswith("| `"):
                documented += [(section, key) for key in re.findall(r"`(\w+)`", line.split("|")[1])]
        assert {section for section, _ in documented} == {"scenario", "solver", "sweep"}
        for section, key in documented:
            parser = configparser.ConfigParser()
            parser.read_string(MINI)
            parser[section][key] = "junk"
            path = tmp_path / f"{key}.ini"
            with open(path, "w") as fh:
                parser.write(fh)
            try:
                load_config(path)
            except ConfigurationError as exc:
                assert "unknown keys" not in str(exc), (section, key)


class TestRun:
    def test_minimal_row_count(self, tmp_path):
        out = run_experiment(write_config(tmp_path))
        rows = read_rows(out)
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"model1", "model2", "wmmse_fixed", "zf"}

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out = run_experiment(cfg)
        first = Path(out).read_bytes()
        out = run_experiment(cfg)
        assert Path(out).read_bytes() == first

    def test_power_sweep_monotone_mean(self, tmp_path):
        text = MINI.replace("values = 0", "values = -10 0 10").replace(
            "methods = model1 model2 wmmse_fixed zf", "methods = wmmse_fixed zf"
        ).replace("seeds = 1", "seeds = 1 2")
        out = run_experiment(write_config(tmp_path, text))
        rows = read_rows(out)
        for method in ("wmmse_fixed", "zf"):
            means = []
            for value in ("-10.0", "0.0", "10.0"):
                sel = [
                    float(r["sum_rate_digital"])
                    for r in rows
                    if r["method"] == method and r["sweep_value"] == value
                ]
                means.append(np.mean(sel))
            assert means[0] < means[1] < means[2]

    def test_traces_written(self, tmp_path):
        text = MINI + "traces_dir = traces\n"
        run_experiment(write_config(tmp_path, text))
        traces = sorted((tmp_path / "traces").glob("*.csv"))
        assert len(traces) == 3  # zf has no iterative trace
        header = traces[0].read_text().splitlines()[0]
        assert header == "iter,objective,sum_rate_bps_hz,max_power_violation,extrapolated"

    def test_traces_record_kept_trials(self, tmp_path):
        # The fifth column says whether the run went on from the iteration's
        # extrapolated trial: never in the first iteration, where Nesterov's
        # t starts at 1, nor in the last, which the run leaves with its
        # plain iterate.
        text = MINI.replace("max_outer_iterations = 6", "max_outer_iterations = 30")
        run_experiment(write_config(tmp_path, text + "traces_dir = traces\n"))
        rows = read_rows(tmp_path / "results.csv")
        kept = []
        for path in sorted((tmp_path / "traces").glob("*.csv")):
            flags = [row["extrapolated"] for row in read_rows(path)]
            assert set(flags) <= {"0", "1"}
            assert flags[0] == flags[-1] == "0"
            method = path.stem.split("_", 2)[2].rsplit("_", 1)[0]
            assert [len(flags)] == [
                int(r["outer_iterations"]) for r in rows if r["method"] == method
            ]
            kept += flags
        assert "1" in kept

    def test_rfchains_axis(self, tmp_path):
        text = MINI.replace("axis = power", "axis = rfchains").replace(
            "values = 0", "values = 0 2"
        ).replace("methods = model1 model2 wmmse_fixed zf", "methods = wmmse_fixed")
        out = run_experiment(write_config(tmp_path, text))
        rows = read_rows(out)
        assert [r["rf_chains"] for r in rows] == ["4", "6"]

    def test_antennas_axis(self, tmp_path):
        text = MINI.replace("axis = power", "axis = antennas").replace(
            "values = 0", "values = 9 16"
        ).replace("methods = model1 model2 wmmse_fixed zf", "methods = wmmse_fixed")
        out = run_experiment(write_config(tmp_path, text))
        rows = read_rows(out)
        assert [r["n_antennas"] for r in rows] == ["9", "16"]

    def test_antennas_sweep_solves_one_batch_per_method(self, tmp_path, monkeypatch):
        # The cells of every antenna count share one batch per method and
        # pattern width, and a worker that holds cells of two antenna
        # counts batches them together, so worker counts agree byte for byte.
        calls = []
        text = MINI.replace("axis = power", "axis = antennas").replace(
            "values = 0", "values = 9 16"
        ).replace("seeds = 1", "seeds = 1 2")
        cfg = write_config(tmp_path, text)
        with monkeypatch.context() as patch:
            for name in ("iterate_selection", "iterate_synthesis", "_zero_forcing"):
                solve = getattr(experiments, name)

                def counted(runs, *args, _name=name, _solve=solve, **kwargs):
                    sizes = sorted(run.effs[0].n_antennas for run in runs)
                    calls.append((_name, runs[0].effs[0].block_width, sizes))
                    return _solve(runs, *args, **kwargs)

                patch.setattr(experiments, name, counted)
            serial = Path(run_experiment(cfg, worker_count=1)).read_bytes()
        sizes = [9, 9, 16, 16]
        assert sorted(calls) == [
            ("_zero_forcing", 1, sizes),
            ("iterate_selection", 1, sizes),  # wmmse_fixed
            ("iterate_selection", 4, sizes),  # model1
            ("iterate_synthesis", 4, sizes),  # model2
        ]
        assert Path(run_experiment(cfg, worker_count=2)).read_bytes() == serial
        rows = read_rows(tmp_path / "results.csv")
        assert [r["n_antennas"] for r in rows] == ["9"] * 8 + ["16"] * 8

    def test_timing_sidecar(self, tmp_path):
        out = run_experiment(write_config(tmp_path))
        sidecar = Path(out).with_name("results_timing.csv")
        assert sidecar.exists()
        phases = ["receivers_s", "sweep_s", "objective_s", "decomp_s"]
        with open(sidecar) as fh:
            header = next(csv.reader(fh))
        assert header == ["sweep_value", "method", "scenario_seed", "seconds", *phases]
        rows = read_rows(sidecar)
        assert len(rows) == 4
        assert all(float(r["seconds"]) > 0 for r in rows)
        for row in rows:
            spent = [float(row[p]) for p in phases]
            if row["method"] == "zf":  # its share of its decomposition call only
                assert spent[:3] == [0.0] * 3 and spent[3] > 0, row
                assert spent[3] <= float(row["seconds"]), row
            else:  # each solve is timed inside its own row here
                assert all(t > 0 for t in spent), row
                assert sum(spent) <= float(row["seconds"]) + 1e-5, row
        assert not set(phases) & set(read_rows(out)[0])  # timings stay out of the results

    def test_results_in_sweep_order_timing_in_execution_order(self, tmp_path):
        out = run_experiment(write_config(tmp_path, GRID))
        methods = ("model1", "model2", "wmmse_fixed", "zf")
        values, seeds = ("-10.0", "0.0"), ("1", "2")
        rows = read_rows(out)
        assert [(r["sweep_value"], r["method"], r["scenario_seed"]) for r in rows] == [
            (v, m, s) for v in values for m in methods for s in seeds
        ]
        timing = read_rows(Path(out).with_name("results_timing.csv"))
        assert [(r["sweep_value"], r["scenario_seed"], r["method"]) for r in timing] == [
            (v, s, m) for v in values for s in seeds for m in methods
        ]

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, GRID)
        serial = Path(run_experiment(cfg, worker_count=1)).read_bytes()
        parallel = Path(run_experiment(cfg, worker_count=2)).read_bytes()
        assert serial == parallel

    def test_results_independent_of_blas_thread_count(self, tmp_path):
        # At N = 100 a full SVD of the zero-forcing step changed its last
        # bits between one and two OpenBLAS threads.  The fixed-pattern and
        # zero-forcing rows (their precoders and their batched
        # decompositions) must be byte-identical under both, each run in
        # one of exactly two subprocesses.
        text = (
            MINI.replace("bs_rows = 3", "bs_rows = 10")
            .replace("bs_cols = 3", "bs_cols = 10")
            .replace("max_outer_iterations = 6", "max_outer_iterations = 3")
            .replace("methods = model1 model2 wmmse_fixed zf", "methods = wmmse_fixed zf")
            .replace("seeds = 1", "seeds = 1 2 3")
        )
        cfg = write_config(tmp_path, text)
        package_root = str(Path(experiments.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        command = "from trihybrid.cli import main; raise SystemExit(main())"
        digests = []
        for threads in ("1", "2"):
            subprocess.run(
                [sys.executable, "-c", command, "run", str(cfg), "--workers", "1"],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                check=True, capture_output=True,
            )
            digests.append(hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "methods", ["model1 model2 wmmse_fixed zf", "model1 model2 zf"]
    )
    def test_one_fixed_solve_per_cell(self, tmp_path, monkeypatch, methods):
        # The fixed-pattern runs are the selection runs over one candidate.
        # Only the runs of a row are decomposed: without a wmmse_fixed row
        # the warm starts are not.
        calls, decomposed = [], []
        solve, decompose = experiments.iterate_selection, experiments.decompose_states

        def counted(runs, *args, **kwargs):
            calls.extend(run for run in runs if run.effs[0].block_width == 1)
            return solve(runs, *args, **kwargs)

        def counted_decompose(iterates):
            decomposed.extend(iterates)
            return decompose(iterates)

        monkeypatch.setattr(experiments, "iterate_selection", counted)
        monkeypatch.setattr(experiments, "decompose_states", counted_decompose)
        text = GRID.replace("methods = model1 model2 wmmse_fixed zf", f"methods = {methods}")
        rows = read_rows(run_experiment(write_config(tmp_path, text)))
        assert len(calls) == 4  # 2 values x 2 seeds
        assert len(decomposed) == len(rows) == 4 * len(methods.split())
        monkeypatch.setattr(experiments, "iterate_selection", solve)
        reference = read_rows(run_experiment(write_config(tmp_path, GRID, "all.ini")))
        warm = [r for r in rows if r["method"] in ("model1", "model2")]
        assert warm == [r for r in reference if r["method"] in ("model1", "model2")]

    def test_each_channel_lifted_once_per_scenario(self, tmp_path, monkeypatch):
        # Two powers by two seeds: the two cells of a seed share its
        # scenario and its lifts, whatever their power.
        lifts, seeds = [], []
        lift, generate = channel._lift, experiments.generate_scenario

        def counted(geom, gains, mode):
            lifts.append((mode, geom))
            return lift(geom, gains, mode)

        def generated(config, seed):
            seeds.append(seed)
            return generate(config, seed)

        monkeypatch.setattr(channel, "_lift", counted)
        monkeypatch.setattr(experiments, "generate_scenario", generated)
        run_experiment(write_config(tmp_path, GRID), worker_count=1)
        assert seeds == [1, 2]
        geometries = {id(geom): geom for _, geom in lifts}
        assert len(geometries) == 2 * 2  # two seeds by two users
        # Per user channel: the candidate grid and the baseline pattern
        # (selection), the harmonic basis (synthesis); the warm starts and
        # the wmmse_fixed and zf rows share the baseline lift.
        for geom in geometries.values():
            assert sorted(mode for mode, g in lifts if g is geom) == ["cof", "sel", "sel"]

    def test_zero_forcing_once_per_drop(self, tmp_path, monkeypatch):
        # Two powers by two seeds: the two cells of a seed share its
        # zero-forcing directions, one call for both budgets, and each
        # row has the bits of its power swept alone.
        calls = []
        zero_forcing = experiments.bd_zero_forcing

        def counted(channels, stream_counts, powers):
            calls.append(len(powers))
            return zero_forcing(channels, stream_counts, powers)

        monkeypatch.setattr(experiments, "bd_zero_forcing", counted)
        text = MINI.replace("values = 0", "values = -10 0").replace(
            "seeds = 1", "seeds = 1 2"
        ).replace("methods = model1 model2 wmmse_fixed zf", "methods = zf")
        rows = read_rows(run_experiment(write_config(tmp_path, text)))
        assert calls == [2, 2]
        alone = [
            row
            for value in ("-10", "0")
            for row in read_rows(run_experiment(write_config(
                tmp_path, text.replace("values = -10 0", f"values = {value}"), f"{value}.ini"
            )))
        ]
        assert calls[2:] == [1] * 4
        assert [(r["sweep_value"], r["scenario_seed"]) for r in rows] == [
            ("-10.0", "1"), ("-10.0", "2"), ("0.0", "1"), ("0.0", "2")
        ]
        assert rows == alone

    def test_zero_forcing_split_once_per_drop(self, tmp_path, monkeypatch):
        # Three powers by two seeds: the decomposition call stacks the six
        # wmmse_fixed precoders and one target per drop, its zero-forcing
        # directions, so every zf row of a seed writes the same residual and
        # the bits of its power swept alone, with any worker count.
        stacks = []
        decompose = wmmse.decompose_precoders

        def counted(f_d, n_rf, *args, **kwargs):
            stacks.append(len(f_d))
            return decompose(f_d, n_rf, *args, **kwargs)

        monkeypatch.setattr(wmmse, "decompose_precoders", counted)
        text = MINI.replace("values = 0", "values = -10 0 10").replace(
            "seeds = 1", "seeds = 1 2"
        ).replace("methods = model1 model2 wmmse_fixed zf", "methods = wmmse_fixed zf")
        path = Path(run_experiment(write_config(tmp_path, text)))
        serial = path.read_bytes()
        assert stacks == [6 + 2]
        rows = read_rows(path)
        zf = [r for r in rows if r["method"] == "zf"]
        assert len(zf) == 6
        for seed in ("1", "2"):
            assert len({r["decomp_residual"] for r in zf if r["scenario_seed"] == seed}) == 1
        alone = [
            row
            for value in ("-10", "0", "10")
            for row in read_rows(run_experiment(write_config(
                tmp_path, text.replace("values = -10 0 10", f"values = {value}"), f"{value}.ini"
            )))
            if row["method"] == "zf"
        ]
        assert zf == alone
        assert Path(run_experiment(write_config(tmp_path, text), worker_count=2)).read_bytes() == (
            serial
        )

    def test_baseline_rows_read_their_drops_channels(self, tmp_path, monkeypatch):
        # Two powers by two seeds: each drop's users are composed on the
        # baseline pattern once, for its zero forcing and for every
        # wmmse_fixed and zf row; the model1 rows of a drop compose their
        # own selections, stacked, in one call per user.
        composed = []
        compose = experiments.compose

        def counted(eff, antenna_matrix):
            composed.append((eff.block_width, np.shape(antenna_matrix)[:-2]))
            return compose(eff, antenna_matrix)

        monkeypatch.setattr(experiments, "compose", counted)
        text = MINI.replace("values = 0", "values = -10 0").replace(
            "seeds = 1", "seeds = 1 2"
        ).replace("methods = model1 model2 wmmse_fixed zf", "methods = model1 wmmse_fixed zf")
        rows = read_rows(run_experiment(write_config(tmp_path, text)))
        assert len(rows) == 12
        assert sorted(composed) == [(1, ())] * 2 * 2 + [(4, (2,))] * 2 * 2  # drops x users

    def test_sweep_freed_without_the_cycle_collector(self, tmp_path):
        # The sweep keeps every scenario and lift of its cells.  Held in a
        # reference cycle, they would outlive the run until the cycle
        # collector happens to run, and memory would grow run after run.
        config = load_config(write_config(tmp_path, GRID))
        keys = [(value, seed) for value in config.values for seed in config.seeds]
        gc.disable()
        try:
            cells = experiments._solve_cells(config, keys)
            sweep = weakref.ref(cells[0].sweep)
            assert sweep().lifts
            del cells
            assert sweep() is None
        finally:
            gc.enable()

    def test_candidate_grid_built_once_per_sweep_after_the_first_scenario(
        self, tmp_path, monkeypatch
    ):
        events = []
        grid, generate = experiments.gaussian_beam_grid, experiments.generate_scenario

        def counted_grid(*args, **kwargs):
            events.append("grid")
            return grid(*args, **kwargs)

        def counted_scenario(*args, **kwargs):
            events.append("scenario")
            return generate(*args, **kwargs)

        monkeypatch.setattr(experiments, "gaussian_beam_grid", counted_grid)
        monkeypatch.setattr(experiments, "generate_scenario", counted_scenario)
        run_experiment(write_config(tmp_path, GRID), worker_count=1)
        assert events.count("grid") == 1
        assert events.count("scenario") == 2  # one per seed, shared by both powers
        assert events[0] == "scenario"

    @pytest.mark.parametrize("text", [MINI, GRID], ids=["cold", "warm"])
    def test_every_timing_row_phases_within_its_seconds(self, tmp_path, text):
        # Each batched solve's seconds and phase seconds land in the one row
        # that first reads it: with warm starts, model1 pays for the
        # fixed-pattern solve and the wmmse_fixed row holds no solve.  A zf
        # row holds its share of its decomposition call.
        out = run_experiment(write_config(tmp_path, text.replace("seeds = 1\n", "seeds = 1 2\n")))
        phases = ["receivers_s", "sweep_s", "objective_s", "decomp_s"]
        timing = read_rows(Path(out).with_name("results_timing.csv"))
        assert len(timing) == len(read_rows(out))
        for row in timing:
            spent = [float(row[p]) for p in phases]
            assert sum(spent) <= float(row["seconds"]) + 1e-5, row
            if row["method"] == "zf":
                assert spent[:3] == [0.0] * 3, row
                assert 0.0 < spent[3] <= float(row["seconds"]), row
                continue
            paid = row["method"] in ("model1", "model2") or (
                row["method"] == "wmmse_fixed" and text is MINI
            )
            assert all(t > 0 for t in spent) if paid else spent == [0.0] * 4, row

    def test_one_decomposition_per_chain_count_of_a_batch(self, tmp_path, monkeypatch):
        # Four cells of one array shape: the wmmse_fixed runs make one batch
        # and all leave in their last iteration, and so do the zero-forcing
        # precoders; the runs of both batches are decomposed together, one
        # call per chain count.
        calls = []
        decompose = wmmse.decompose_precoders

        def counted(f_d, n_rf, *args, **kwargs):
            calls.append((n_rf, len(f_d)))
            return decompose(f_d, n_rf, *args, **kwargs)

        monkeypatch.setattr(wmmse, "decompose_precoders", counted)
        text = MINI.replace("axis = power", "axis = rfchains").replace(
            "values = 0", "values = 0 2"
        ).replace("methods = model1 model2 wmmse_fixed zf", "methods = wmmse_fixed zf").replace(
            "objective_tol = 1e-6", "objective_tol = 0"
        ).replace("seeds = 1", "seeds = 1 2")
        rows = read_rows(run_experiment(write_config(tmp_path, text)))
        assert calls == [(4, 4), (6, 4)]
        assert [r["rf_chains"] for r in rows] == ["4"] * 4 + ["6"] * 4
        assert {r["outer_iterations"] for r in rows if r["method"] == "wmmse_fixed"} == {"6"}

    def test_example_decomposes_once_per_batch(self, tmp_path, monkeypatch):
        # The example's three WMMSE methods each solve their 21 cells in
        # one batch, whose runs leave in many different iterations, and the
        # zero-forcing precoders make a fourth; all 84 runs share a chain
        # count and an antenna count, so the sweep decomposes them in one
        # call, which stacks 63 WMMSE precoders and the directions of the
        # three drops.
        # The results are pinned byte for byte: a change that alters them
        # updates this hash and lists every changed number in CHANGES.md.
        calls = []
        decompose = wmmse.decompose_precoders

        def counted(f_d, n_rf, *args, **kwargs):
            calls.append(len(f_d))
            return decompose(f_d, n_rf, *args, **kwargs)

        monkeypatch.setattr(wmmse, "decompose_precoders", counted)
        text = (Path(__file__).resolve().parents[1] / "docs" / "example.ini").read_text()
        path = run_experiment(write_config(tmp_path, text))
        rows = read_rows(path)
        assert calls == [66]
        assert len(rows) == 84
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == (
            "89af9f234e3099630c5a386c412bdfdb01a750797ae41f57de53317e8173caf7"
        )
        assert len({r["outer_iterations"] for r in rows if r["method"] == "model2"}) > 2

    def test_antennas_sweep_decomposes_once_per_antenna_count(self, tmp_path, monkeypatch):
        # Every method's runs of one antenna count share a decomposition
        # call.  The results are pinned byte for byte, as the runner wrote
        # them when each zero-forcing run's directions became its target.
        calls = []
        decompose = wmmse.decompose_precoders

        def counted(f_d, n_rf, *args, **kwargs):
            calls.append((n_rf, f_d.shape[1], len(f_d)))
            return decompose(f_d, n_rf, *args, **kwargs)

        monkeypatch.setattr(wmmse, "decompose_precoders", counted)
        text = MINI.replace("axis = power", "axis = antennas").replace(
            "values = 0", "values = 9 16"
        ).replace(
            "methods = model1 model2 wmmse_fixed zf", "methods = model1 wmmse_fixed zf"
        ).replace("seeds = 1", "seeds = 1 2").replace(
            "max_outer_iterations = 6", "max_outer_iterations = 3"
        )
        path = run_experiment(write_config(tmp_path, text), worker_count=1)
        assert calls == [(6, 9, 6), (6, 16, 6)]  # 3 methods x 2 seeds each
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == (
            "296ac6e3d089d5b0d0a965f786c672509c6cbb941dadc0eac066bc01da83496f"
        )

    def test_run_whose_decomposition_raises_is_named_and_others_written(
        self, tmp_path, capsys, monkeypatch
    ):
        # The -10 dBm zero-forcing run (no iterations, one pattern column)
        # fails its decomposition: the call of all twelve runs raises, each
        # run is decomposed again alone, and only its cell is lost.
        calls = []
        decompose = experiments.decompose_states

        def flaky(iterates):
            calls.append(len(iterates))
            for iterate in iterates:
                zero_forcing = iterate.trace.n_iterations == 0
                if zero_forcing and iterate.config.power < 1.0:
                    raise FloatingPointError("no factorization")
            return decompose(iterates)

        text = MINI.replace("values = 0", "values = -10 0 10")
        reference = Path(run_experiment(write_config(tmp_path, text, "reference.ini")))
        expected = [line for line in reference.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"power,-10.0,")]
        monkeypatch.setattr(experiments, "decompose_states", flaky)
        assert main(["run", str(write_config(tmp_path, text))]) == 1
        assert calls == [12] + [1] * 12
        err = capsys.readouterr().err
        assert "1 of 3 sweep cells failed" in err
        assert "value -10.0, seed 1: FloatingPointError: no factorization" in err
        assert "value 0.0" not in err and "value 10.0" not in err
        assert (tmp_path / "results.csv").read_bytes().splitlines(keepends=True) == expected
        assert len(expected) == 1 + 8

    @pytest.mark.parametrize("fault", ["none", "batch", "scenario"])
    def test_rows_build_nothing_and_solve_nothing(self, tmp_path, monkeypatch, fault):
        # Every scenario, lift and solve happens in the batch stage, also
        # when a batch raises (the -10 dBm runs) or a scenario does (seed 2).
        def fails(name, args):
            if fault == "batch" and name == "iterate_selection":
                return any(run.config.power < 1.0 for run in args[0])
            return fault == "scenario" and name == "generate_scenario" and args[1] == 2

        in_row, calls = [], []

        def spy(name):
            original = getattr(experiments, name)

            def spied(*args, **kwargs):
                if in_row:
                    calls.append(name)
                if fails(name, args):
                    raise FloatingPointError(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(experiments, name, spied)

        for name in ("generate_scenario", "selection_effective_channel",
                     "synthesis_effective_channel", "iterate_selection", "iterate_synthesis",
                     "_zero_forcing", "decompose_states"):
            spy(name)
        row = experiments.run_point

        def reading(*args, **kwargs):
            in_row.append(True)
            try:
                return row(*args, **kwargs)
            finally:
                in_row.pop()

        monkeypatch.setattr(experiments, "run_point", reading)
        cfg = write_config(tmp_path, GRID)
        if fault == "none":
            assert len(read_rows(run_experiment(cfg))) == 16
        else:
            with pytest.raises(SweepError, match="2 of 4 sweep cells failed"):
                run_experiment(cfg)
        assert calls == []

    def test_output_directory_made_before_any_cell(self, tmp_path, monkeypatch):
        made = []
        row = experiments.run_point

        def checked(*args, **kwargs):
            made.append((tmp_path / "nodir").is_dir())
            return row(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_point", checked)
        text = MINI.replace("output = results.csv", "output = nodir/results.csv")
        out = run_experiment(write_config(tmp_path, text))
        assert Path(out) == tmp_path / "nodir" / "results.csv"
        assert made == [True] * 4
        assert len(read_rows(out)) == 4
        assert (tmp_path / "nodir" / "results_timing.csv").exists()

    def test_satisfied_constraints_read_positive_zero(self, tmp_path):
        rows = read_rows(run_experiment(write_config(tmp_path)))
        for row in rows:
            for column in ("max_power_violation", "modulus_deviation", "antenna_deviation"):
                assert not row[column].startswith("-"), (row["method"], column)


# A power sweep of three powers and a sweep of two antenna counts, each over
# two seeds with every method: the evaluation stage's groups hold the six
# rows of a method, or the two rows of a method and antenna count.
EVALUATED = {
    "power": MINI.replace("values = 0", "values = -10 0 10").replace("seeds = 1", "seeds = 1 2"),
    "antennas": MINI.replace("axis = power", "axis = antennas").replace(
        "values = 0", "values = 9 16"
    ).replace("seeds = 1", "seeds = 1 2"),
}


def _solved(path):
    config = load_config(path)
    return config, experiments._solve_cells(
        config, [(value, seed) for value in config.values for seed in config.seeds]
    )


class TestEvaluationStage:
    @pytest.mark.parametrize("sweep", sorted(EVALUATED))
    def test_each_row_has_the_numbers_it_gets_alone(self, tmp_path, sweep):
        # Every row's rates, audit and leakage from the stage's stacked
        # calls carry the bits of the row evaluated on its own.
        config, cells = _solved(write_config(tmp_path, EVALUATED[sweep]))
        checked = 0
        for cell in cells:
            for method in config.methods:
                numbers = cell.numbers(method)
                digital, hybrid, report, leakage = row_numbers_one(cell, method)
                got = (numbers.digital, numbers.hybrid, *vars(numbers.report).values())
                want = (digital, hybrid, *vars(report).values())
                assert [repr(float(v)) for v in got] == [repr(float(v)) for v in want]
                assert repr(numbers.leakage) == repr(leakage)
                checked += 1
        assert checked == 6 * 4 if sweep == "power" else 4 * 4

    @pytest.mark.parametrize("sweep", sorted(EVALUATED))
    def test_two_workers_write_the_same_bytes(self, tmp_path, sweep):
        cfg = write_config(tmp_path, EVALUATED[sweep])
        serial = Path(run_experiment(cfg, worker_count=1)).read_bytes()
        assert Path(run_experiment(cfg, worker_count=2)).read_bytes() == serial

    def test_evaluation_that_raises_for_one_drop_names_its_cells(
        self, tmp_path, capsys, monkeypatch
    ):
        # Seed 2's leakage raises: the zf group's call raises, each row is
        # evaluated again alone, and only the cells of seed 2 fail.
        text = MINI.replace("values = 0", "values = -10 0").replace("seeds = 1", "seeds = 1 2")
        cfg = write_config(tmp_path, text)
        reference = Path(run_experiment(write_config(tmp_path, text, "reference.ini")))
        expected = [line for line in reference.read_bytes().splitlines(keepends=True)
                    if not re.match(rb"power,[^,]+,[^,]+,2,", line)]
        faulty = experiments._Sweep(load_config(cfg)).baseline_channels(0.0, 2)[0]
        leakage, calls = experiments.interference_leakage, []

        def flaky(channels, precoders, stream_counts):
            calls.append(len(precoders))
            if np.array_equal(channels[0], faulty):
                raise FloatingPointError("no leakage")
            return leakage(channels, precoders, stream_counts)

        monkeypatch.setattr(experiments, "interference_leakage", flaky)
        assert main(["run", str(cfg)]) == 1
        assert calls == [2, 2] + [1] * 4  # one call per drop, then each row alone
        err = capsys.readouterr().err
        assert "2 of 4 sweep cells failed" in err
        assert "value -10.0, seed 2: FloatingPointError: no leakage" in err
        assert "value 0.0, seed 2: FloatingPointError: no leakage" in err
        assert "seed 1" not in err
        assert (tmp_path / "results.csv").read_bytes().splitlines(keepends=True) == expected
        assert len(expected) == 1 + 2 * 4

    def test_evaluation_seconds_split_evenly_and_counted_once(self, tmp_path, monkeypatch):
        # On a clock that ticks once per reading, every evaluation call
        # lasts CALL ticks: the rows of a call each get CALL / len(call),
        # also when a call raises and its rows are evaluated again alone,
        # and every tick lands in exactly one row's seconds.
        CALL = 11
        config, cells = _solved(write_config(tmp_path, EVALUATED["antennas"]))
        rows = [(cell, method) for cell in cells for method in config.methods]
        before = {(id(cell), m): cell.owed.get(m, [0.0])[0] for cell, m in rows}
        clock = types.SimpleNamespace(now=0.0)

        def perf_counter():
            clock.now += 1.0
            return clock.now

        evaluate, calls = experiments._evaluate, []
        failing = rows[-1]  # the last zf row fails in its group's call

        def timed(group):
            calls.append([(id(cell), m) for cell, m in group])
            clock.now += CALL - 1
            if failing in group and len(group) > 1:
                raise FloatingPointError("once")
            return evaluate(group)

        monkeypatch.setattr(experiments, "time", types.SimpleNamespace(perf_counter=perf_counter))
        monkeypatch.setattr(experiments, "_evaluate", timed)
        for cell in cells:
            cell.numbered.clear()
        experiments._evaluate_all(cells)
        assert len(calls) == 4 * 2 + 2  # per method and antenna count, then a retry
        owed = {}
        for call in calls:
            for key in call:
                owed[key] = owed.get(key, 0.0) + CALL / len(call)
        by_id = {id(cell): cell for cell in cells}
        added = {key: by_id[key[0]].owed[key[1]][0] - spent for key, spent in before.items()}
        assert added == pytest.approx(owed, rel=1e-12, abs=1e-12)
        assert sum(added.values()) == pytest.approx(CALL * len(calls), rel=1e-12)
        results = experiments._cell_rows(config, cells)
        assert [error for _, error in results] == [None] * len(cells)
        for cell, (made, _) in zip(cells, results):
            for method, result in zip(config.methods, made):
                want = before[(id(cell), method)] + added[(id(cell), method)] + 1.0
                assert result.seconds == pytest.approx(want, rel=1e-12)  # its own tick too

    def test_run_point_called_once_per_sidecar_row_in_sidecar_order(
        self, tmp_path, monkeypatch
    ):
        # A benchmark samples the machine's speed before every run_point
        # call and pairs the samples with the sidecar's rows, so there is
        # one call per row, in the sidecar's order, with (config, sweep
        # value, method, scenario seed, cell).
        calls = []
        row = experiments.run_point

        def spied(*args, **kwargs):
            calls.append(args)
            return row(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_point", spied)
        out = run_experiment(write_config(tmp_path, GRID), worker_count=1)
        timing = read_rows(Path(out).with_name("results_timing.csv"))
        assert len(calls) == len(timing) == 16
        assert [(str(v), m, str(s)) for _, v, m, s, _ in calls] == [
            (r["sweep_value"], r["method"], r["scenario_seed"]) for r in timing
        ]
        for config, value, _, seed, cell in calls:
            assert isinstance(config, experiments.ExperimentConfig)
            assert isinstance(cell, experiments._Cell)
            assert (cell.value, cell.seed) == (value, seed)


class TestPlotdata:
    def test_single_row_stats(self, tmp_path):
        out = run_experiment(write_config(tmp_path))
        plot = emit_plotdata(out, "power")
        rows = read_rows(plot)
        assert len(rows) == 4
        for row in rows:
            assert float(row["digital_stderr"]) == 0.0
            assert row["n_runs"] == "1"

    def test_two_seed_stats_match_hand_computation(self, tmp_path):
        # Two iterations leave some fixed-pattern runs short of converging.
        text = MINI.replace("seeds = 1", "seeds = 1 2").replace(
            "methods = model1 model2 wmmse_fixed zf", "methods = wmmse_fixed zf"
        ).replace("max_outer_iterations = 6", "max_outer_iterations = 2")
        out = run_experiment(write_config(tmp_path, text))
        raw = read_rows(out)
        plot = read_rows(emit_plotdata(out, "power"))
        assert [row["method"] for row in plot] == ["wmmse_fixed", "zf"]
        for row in plot:
            runs = [r for r in raw if r["method"] == row["method"]]
            values = [float(r["sum_rate_digital"]) for r in runs]
            assert float(row["digital_mean"]) == pytest.approx(np.mean(values))
            expected_err = np.std(values, ddof=1) / np.sqrt(2)
            assert float(row["digital_stderr"]) == pytest.approx(expected_err)
            assert int(row["n_unconverged"]) == sum(r["converged"] == "0" for r in runs)
        assert [int(row["n_unconverged"]) for row in plot][0] > 0
        assert plot[1]["n_unconverged"] == "0"  # zero forcing is not iterative

    def test_rfchain_labels_offset_from_streams(self, tmp_path):
        text = MINI.replace("axis = power", "axis = rfchains").replace(
            "values = 0", "values = -1 0 1 2"
        ).replace("methods = model1 model2 wmmse_fixed zf", "methods = wmmse_fixed")
        out = run_experiment(write_config(tmp_path, text))
        plot = emit_plotdata(out, "rfchains")
        labels = [r["label"] for r in read_rows(plot)]
        assert labels == ["D-1", "D", "D+1", "D+2"]

    def test_wrong_axis_rejected(self, tmp_path):
        out = run_experiment(write_config(tmp_path))
        with pytest.raises(ConfigurationError):
            emit_plotdata(out, "antennas")

    def test_missing_columns_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigurationError):
            emit_plotdata(bad, "power")
        rows = read_rows(run_experiment(write_config(tmp_path)))

        def rewritten(name, rows, dropped=None):
            path = tmp_path / name
            with open(path, "w", newline="") as fh:
                columns = [c for c in rows[0] if c != dropped]
                writer = csv.DictWriter(fh, columns, extrasaction="ignore")
                writer.writeheader()
                writer.writerows(rows)
            return path

        with pytest.raises(ConfigurationError, match="converged"):
            emit_plotdata(rewritten("no_converged.csv", rows, "converged"), "power")
        # Through the CLI: each command names what it cannot read, in one
        # line, and exits 2.
        short = tmp_path / "short.csv"
        lines = rewritten("full.csv", rows[:2]).read_text().splitlines()
        short.write_text("\n".join([*lines[:2], lines[2].rsplit(",", 1)[0]]) + "\n")
        accented = tmp_path / "accented.csv"
        accented.write_bytes(
            rewritten("ascii.csv", rows).read_bytes().replace(b"model1", "mod\u00e9l1".encode(), 1)
        )
        cases = [
            (bad, "missing columns"),
            (accented, f"{accented}: byte 0xc3 is not ASCII"),
            (rewritten("no_method.csv", rows, "method"), "missing columns ['method']"),
            (rewritten("malformed.csv", [rows[0], {**rows[1], "sum_rate_digital": "x"}]),
             "row 2, column sum_rate_digital: 'x' is not a number"),
            (short, "row 2 does not have one value per column"),
        ]
        for path, says in cases:
            for argv in (["audit", str(path)], ["plotdata", str(path), "--figure", "power"]):
                assert main(argv) == 2
                out, err = capsys.readouterr()
                assert out == ""
                assert err.startswith("configuration error: ") and err.count("\n") == 1
                assert says in err


class TestAuditCommand:
    def test_clean_results_pass(self, tmp_path):
        out = run_experiment(write_config(tmp_path))
        failures, _ = audit_results(out)
        assert failures == []

    def test_capped_wmmse_rows_warn_only(self, tmp_path, capsys):
        text = MINI.replace("max_outer_iterations = 6", "max_outer_iterations = 2")
        out = run_experiment(write_config(tmp_path, text))
        rows = read_rows(out)
        capped = [
            i + 1
            for i, r in enumerate(rows)
            if r["method"] != "zf" and r["converged"] == "0"
        ]
        assert capped  # two iterations cannot meet the tolerance
        failures, warnings = audit_results(out)
        assert failures == []
        cap_warnings = [w for w in warnings if "without converging" in w]
        assert [int(w.split()[1]) for w in cap_warnings] == capped
        assert all("cap of 2 outer iterations" in w for w in cap_warnings)
        assert main(["audit", str(out)]) == 0
        assert "without converging" in capsys.readouterr().out

    def test_tampered_power_flagged(self, tmp_path):
        out = run_experiment(write_config(tmp_path))
        text = Path(out).read_text().splitlines()
        header = text[0].split(",")
        idx = header.index("max_power_violation")
        parts = text[1].split(",")
        parts[idx] = "0.5"
        Path(out).write_text("\n".join([text[0], ",".join(parts)] + text[2:]) + "\n")
        failures, _ = audit_results(out)
        assert failures


    @pytest.mark.parametrize(
        "column", ["max_power_violation", "modulus_deviation", "antenna_deviation", "min_pattern_gain"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_constraint_fails_its_row(self, tmp_path, capsys, column, value):
        # A comparison with NaN is False, so each check needs its own
        # finiteness test; the failure keeps the "row N (" prefix that
        # counts one bad row.
        out = run_experiment(write_config(tmp_path))
        capsys.readouterr()
        text = Path(out).read_text().splitlines()
        header, parts = text[0].split(","), text[2].split(",")
        parts[header.index(column)] = value
        Path(out).write_text("\n".join([*text[:2], ",".join(parts), *text[3:]]) + "\n")
        failures, _ = audit_results(out)
        assert [f"{column} is {float(value)!r}, not a finite number" in f for f in failures].count(
            True
        ) == 1
        assert {failure.split(" (")[0] for failure in failures} == {"row 2"}
        assert main(["audit", str(out)]) == 1
        stdout, stderr = capsys.readouterr()
        assert "all constraint audits pass" not in stdout
        assert stderr.startswith(f"row 2 ({parts[header.index('method')]}, ")
        assert column in stderr


class TestCli:
    def test_run_and_audit_exit_codes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        assert main(["audit", str(tmp_path / "results.csv")]) == 0
        assert main(["plotdata", str(tmp_path / "results.csv"), "--figure", "power"]) == 0

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        bad = write_config(tmp_path, MINI.replace("axis = power", "axis = nope"))
        assert main(["run", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("seeds = 1", "seeds = 1 x"),
            ("seeds = 1", "seeds ="),
            ("values = 0", "values ="),
            ("paths_per_user = 3", "paths_per_user = 4 x"),
            ("paths_per_user = 3", "paths_per_user = 3 3 3"),  # 3 counts, 2 users
            ("paths_per_user = 3", "paths_per_user = 3\nuser_positions = 30 0 -10; 40 5"),
            # 1 row, 2 users
            ("paths_per_user = 3", "paths_per_user = 3\nuser_positions = 30 0 -10"),
            ("users = 2", "users = 0"),
            ("streams_per_user = 2", "streams_per_user = 0"),
            ("paths_per_user = 3", "paths_per_user = 0"),
            ("paths_per_user = 3", "paths_per_user = 3 0"),
            ("ue_rows = 2", "ue_rows = 0"),
            ("max_outer_iterations = 6", "max_outer_iterations = 0"),
            ("rf_chains_offset = 2", "rf_chains_offset = -5"),  # 4 streams - 5 chains
            ("values = 0", "values = nan"),
            ("values = 0", "values = 0 inf"),
            ("objective_tol = 1e-6", "objective_tol = nan"),
            ("seed = 0", "seed = -1"),
            ("seeds = 1", "seeds = 1 -1"),
            ("seed = 0", "seed = 0\nbeamwidth_deg = 180"),
            ("users = 2", "users = 2\ncarrier_hz = 0"),
            ("users = 2", "users = 2\ncarrier_hz = -3e9"),
            ("seed = 0", "seed = 0\nwarm_start = ture"),
            ("axis = power\nvalues = 0", "axis = antennas\nvalues = 16.7"),
            ("axis = power\nvalues = 0", "axis = rfchains\nvalues = 1.9"),
            ("objective_tol = 1e-6", "objective_tol = -1"),
            ("users = 2", "users = 2\nuser_box = 60 25 -20 20 -20 -5"),
            ("users = 2", "users = 2\nscatterer_box = 5 70 30 -30 -25 0"),
            ("streams_per_user = 2", "streams_per_user = 3"),  # 2-antenna users
            ("values = 0", "values = 0 4000"),  # inf mW
            ("seed = 0", "seed = 0\nnoise_dbm = -4000"),  # 0 mW
            ("seed = 0", "seed = 0\nnoise_dbm = 4000"),  # inf mW
            ("values = 0", "values = 0 0.0"),
            ("methods = model1 model2 wmmse_fixed zf", "methods = model1 model1 zf"),
            ("seeds = 1", "seeds = 1 1"),
            ("output = results.csv", "output ="),
            ("output = results.csv", "output = sub/"),
            ("output = results.csv", "output = ."),
            ("output = results.csv", "output = taken"),  # an existing directory
            ("output = results.csv", "output = held.csv"),  # its sidecar is a directory
            ("output = results.csv", "output = results.csv\ntraces_dir = occupied"),  # a file
        ],
        ids=[
            "seeds",
            "no_seeds",
            "no_values",
            "paths_per_user",
            "path_count",
            "ragged_positions",
            "position_rows",
            "zero_users",
            "zero_streams",
            "zero_paths",
            "one_zero_path_count",
            "zero_ue_rows",
            "zero_iterations",
            "no_chains",
            "nan_value",
            "inf_value",
            "nan_tol",
            "negative_solver_seed",
            "negative_seed",
            "beamwidth",
            "zero_carrier",
            "negative_carrier",
            "warm_start_typo",
            "fractional_antennas",
            "fractional_offset",
            "negative_tol",
            "inverted_user_box",
            "inverted_scatterer_box",
            "streams_above_user_antennas",
            "infinite_power",
            "zero_noise",
            "infinite_noise",
            "repeated_value",
            "repeated_method",
            "repeated_seed",
            "empty_output",
            "output_ends_in_separator",
            "output_dot",
            "output_names_directory",
            "timing_sidecar_names_directory",
            "traces_dir_names_file",
        ],
    )
    def test_malformed_value_exits_2(self, tmp_path, capsys, monkeypatch, old, new):
        calls = []
        (tmp_path / "taken").mkdir()
        (tmp_path / "held_timing.csv").mkdir()
        (tmp_path / "occupied").touch()
        monkeypatch.setattr(experiments, "run_point", lambda *args, **kw: calls.append(args))
        assert main(["run", str(write_config(tmp_path, MINI.replace(old, new)))]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "results.csv").exists()
        assert not (tmp_path / "held.csv").exists()

    def test_more_streams_than_antennas_exits_2_before_any_cell(
        self, tmp_path, capsys, monkeypatch
    ):
        # 4 streams on a 1 x 3 array; 4 - 2 chains alone would pass.
        calls = []
        monkeypatch.setattr(experiments, "run_point", lambda *args, **kw: calls.append(args))
        text = MINI.replace("bs_rows = 3", "bs_rows = 1").replace(
            "rf_chains_offset = 2", "rf_chains_offset = -2"
        )
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert "4 streams exceed 3 antennas" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("flag", ["0", "-1"], ids=["flag_zero", "flag_negative"])
    def test_bad_worker_count_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch, flag):
        calls = []
        monkeypatch.setattr(experiments, "run_point", lambda *args, **kw: calls.append(args))
        assert main(["run", str(write_config(tmp_path)), "--workers", flag]) == 2
        assert "configuration error: worker count" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "results.csv").exists()
        with pytest.raises(ConfigurationError):
            run_experiment(write_config(tmp_path), int(flag))

    @pytest.mark.parametrize(
        "sweep",
        [
            "axis = rfchains\nvalues = 0 1 2 9",  # 4 streams + 9 > 9 antennas
            "axis = antennas\nvalues = 9 16 4",  # 4 streams + 2 > 4 antennas
        ],
        ids=["rfchains", "antennas"],
    )
    def test_bad_sweep_value_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch, sweep):
        calls = []
        monkeypatch.setattr(experiments, "run_point", lambda *args, **kw: calls.append(args))
        text = MINI.replace("axis = power\nvalues = 0", sweep)
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert "chains exceed" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "results.csv").exists()

    def test_run_that_raises_in_a_batch_is_named_and_others_written(
        self, tmp_path, capsys, monkeypatch
    ):
        batches = []
        solve = experiments.iterate_selection

        def flaky(runs, *args, **kwargs):
            batches.append(len(runs))
            if any(run.config.power < 1.0 for run in runs):  # the -10 dBm cell
                raise FloatingPointError("diverged")
            return solve(runs, *args, **kwargs)

        monkeypatch.setattr(experiments, "iterate_selection", flaky)
        text = MINI.replace("values = 0", "values = -10 0").replace(
            "methods = model1 model2 wmmse_fixed zf", "methods = model1 zf"
        )
        assert main(["run", str(write_config(tmp_path, text))]) == 1
        assert batches == [2, 1, 1]  # the batch, then each run alone
        err = capsys.readouterr().err
        assert "1 of 2 sweep cells failed" in err
        assert "value -10.0, seed 1: FloatingPointError: diverged" in err
        rows = read_rows(tmp_path / "results.csv")
        assert [(r["sweep_value"], r["method"]) for r in rows] == [("0.0", "model1"), ("0.0", "zf")]
        alone = read_rows(run_experiment(write_config(
            tmp_path, text.replace("values = -10 0", "values = 0"), "alone.ini"
        )))
        assert rows == alone

    def test_zero_forcing_that_raises_is_named_and_others_written(
        self, tmp_path, capsys, monkeypatch
    ):
        # Zero-forcing directions do not depend on power, so the fault is
        # in one seed's drop: seed 2's channels, at both powers.
        zero_forcing = experiments.bd_zero_forcing
        text = MINI.replace("values = 0", "values = -10 0").replace(
            "seeds = 1", "seeds = 1 2"
        ).replace("methods = model1 model2 wmmse_fixed zf", "methods = wmmse_fixed zf")
        cfg = write_config(tmp_path, text)
        lift = experiments._Sweep(load_config(cfg)).effs(0.0, 2, "zf")[0]
        faulty = channel.compose(lift, np.ones((lift.n_antennas, 1)))
        batches = []

        def flaky(channels, stream_counts, powers):
            batches.append(len(powers))
            if np.array_equal(channels[0], faulty):
                raise FloatingPointError("no null space")
            return zero_forcing(channels, stream_counts, powers)

        monkeypatch.setattr(experiments, "bd_zero_forcing", flaky)
        assert main(["run", str(cfg)]) == 1
        # The batch, one call per drop until seed 2's raises, then each cell alone.
        assert batches == [2, 2, 1, 1, 1, 1]
        err = capsys.readouterr().err
        assert "2 of 4 sweep cells failed" in err
        assert "value -10.0, seed 2: FloatingPointError: no null space" in err
        assert "value 0.0, seed 2: FloatingPointError: no null space" in err
        rows = read_rows(tmp_path / "results.csv")
        assert [(r["sweep_value"], r["method"], r["scenario_seed"]) for r in rows] == [
            (value, method, "1") for value in ("-10.0", "0.0") for method in ("wmmse_fixed", "zf")
        ]
        alone = read_rows(run_experiment(write_config(
            tmp_path, text.replace("seeds = 1 2", "seeds = 1"), "alone.ini"
        )))
        assert rows == alone

    def test_shared_split_that_raises_fails_each_row_that_reads_it(
        self, tmp_path, capsys, monkeypatch
    ):
        # Seed 2's zero-forcing directions fail their split: the call of
        # every run raises, each run is decomposed again alone, and the
        # zf runs of seed 2 fail at both powers.  Their cells are named and
        # every other row keeps its bytes.
        text = MINI.replace("values = 0", "values = -10 0").replace(
            "seeds = 1", "seeds = 1 2"
        ).replace("methods = model1 model2 wmmse_fixed zf", "methods = wmmse_fixed zf")
        cfg = write_config(tmp_path, text)
        reference = Path(run_experiment(write_config(tmp_path, text, "reference.ini")))
        expected = [line for line in reference.read_bytes().splitlines(keepends=True)
                    if not re.match(rb"power,[^,]+,[^,]+,2,", line)]
        channels = experiments._Sweep(load_config(cfg)).baseline_channels(0.0, 2)
        faulty = experiments.bd_zero_forcing(channels, (2, 2), []).directions
        decompose, stacks = wmmse.decompose_precoders, []

        def flaky(f_d, n_rf, *args):
            stacks.append(len(f_d))
            if any(np.array_equal(target, faulty) for target in f_d):
                raise FloatingPointError("no analog stage")
            return decompose(f_d, n_rf, *args)

        monkeypatch.setattr(wmmse, "decompose_precoders", flaky)
        assert main(["run", str(cfg)]) == 1
        assert stacks == [4 + 2] + [1] * 8  # the call, then each run alone
        err = capsys.readouterr().err
        assert "2 of 4 sweep cells failed" in err
        assert "value -10.0, seed 2: FloatingPointError: no analog stage" in err
        assert "value 0.0, seed 2: FloatingPointError: no analog stage" in err
        assert (tmp_path / "results.csv").read_bytes().splitlines(keepends=True) == expected
        assert len(expected) == 1 + 4

    def test_failed_cell_named_and_others_written(self, tmp_path, capsys, monkeypatch):
        generate = experiments.generate_scenario

        def flaky(config, seed):
            if seed == 2:
                raise GenerationError("no room for the users")
            return generate(config, seed)

        monkeypatch.setattr(experiments, "generate_scenario", flaky)
        cfg = write_config(tmp_path, MINI.replace("seeds = 1", "seeds = 1 2"))
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "1 of 2 sweep cells failed" in err
        assert "value 0.0, seed 2: GenerationError: no room for the users" in err
        rows = read_rows(tmp_path / "results.csv")
        assert [(r["method"], r["scenario_seed"]) for r in rows] == [
            (method, "1") for method in ("model1", "model2", "wmmse_fixed", "zf")
        ]
        timing = read_rows(tmp_path / "results_timing.csv")
        assert [r["scenario_seed"] for r in timing] == ["1"] * 4

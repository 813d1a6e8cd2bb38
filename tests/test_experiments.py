import csv
from pathlib import Path

import numpy as np
import pytest

from trihybrid import experiments
from trihybrid.cli import main
from trihybrid.exceptions import ConfigurationError, GenerationError
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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.ini")


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
        assert header == "iter,objective,sum_rate_bps_hz,max_power_violation"

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
            if row["method"] == "zf":
                assert spent == [0.0] * 4
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

    @pytest.mark.parametrize(
        "methods", ["model1 model2 wmmse_fixed zf", "model1 model2 zf"]
    )
    def test_one_fixed_solve_per_cell(self, tmp_path, monkeypatch, methods):
        calls = []
        solve = experiments.fixed_pattern_wmmse

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(experiments, "fixed_pattern_wmmse", counted)
        text = GRID.replace("methods = model1 model2 wmmse_fixed zf", f"methods = {methods}")
        rows = read_rows(run_experiment(write_config(tmp_path, text)))
        assert len(calls) == 4  # 2 values x 2 seeds
        monkeypatch.setattr(experiments, "fixed_pattern_wmmse", solve)
        reference = read_rows(run_experiment(write_config(tmp_path, GRID, "all.ini")))
        warm = [r for r in rows if r["method"] in ("model1", "model2")]
        assert warm == [r for r in reference if r["method"] in ("model1", "model2")]

    def test_satisfied_constraints_read_positive_zero(self, tmp_path):
        rows = read_rows(run_experiment(write_config(tmp_path)))
        for row in rows:
            for column in ("max_power_violation", "modulus_deviation", "antenna_deviation"):
                assert not row[column].startswith("-"), (row["method"], column)


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
        text = MINI.replace("seeds = 1", "seeds = 1 2").replace(
            "methods = model1 model2 wmmse_fixed zf", "methods = zf"
        )
        out = run_experiment(write_config(tmp_path, text))
        raw = read_rows(out)
        values = [float(r["sum_rate_digital"]) for r in raw]
        plot = emit_plotdata(out, "power")
        row = read_rows(plot)[0]
        assert float(row["digital_mean"]) == pytest.approx(np.mean(values))
        expected_err = np.std(values, ddof=1) / np.sqrt(2)
        assert float(row["digital_stderr"]) == pytest.approx(expected_err)

    def test_rfchain_labels_offset_from_streams(self, tmp_path):
        text = MINI.replace("axis = power", "axis = rfchains").replace(
            "values = 0", "values = 0 1 2"
        ).replace("methods = model1 model2 wmmse_fixed zf", "methods = wmmse_fixed")
        out = run_experiment(write_config(tmp_path, text))
        plot = emit_plotdata(out, "rfchains")
        labels = [r["label"] for r in read_rows(plot)]
        assert labels == ["D", "D+1", "D+2"]

    def test_wrong_axis_rejected(self, tmp_path):
        out = run_experiment(write_config(tmp_path))
        with pytest.raises(ConfigurationError):
            emit_plotdata(out, "antennas")

    def test_missing_columns_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigurationError):
            emit_plotdata(bad, "power")


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

    def test_failed_cell_named_and_others_written(self, tmp_path, capsys, monkeypatch):
        generate = experiments.generate_scenario

        def flaky(config, seed):
            if seed == 2:
                raise GenerationError("no room for the users")
            return generate(config, seed)

        monkeypatch.setattr(experiments, "generate_scenario", flaky)
        monkeypatch.delenv(experiments.WORKER_ENV, raising=False)
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

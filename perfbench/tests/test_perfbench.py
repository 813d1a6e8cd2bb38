"""Tests of the sweep benchmark: result format, tracer restore, failure modes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics, traced  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    record = json.loads(done.stdout.strip().splitlines()[-2])
    assert len(record["results_sha256"]) == 1
    assert record["machine"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "trihybrid" or name.startswith("trihybrid.")
        for attr, value in vars(module).items()
    }


def test_wrappers_restore_every_binding_even_on_error():
    from trihybrid import experiments, sphere_opt, wmmse

    before = _bindings()
    original = sphere_opt.minimize_on_sphere
    with pytest.raises(RuntimeError):
        with traced(Tracer()), SpeedProbe().before_each_cell(experiments):
            assert wmmse.minimize_on_sphere is not original
            assert wmmse.minimize_on_sphere.__wrapped__ is original
            assert experiments.run_point is not before[("trihybrid.experiments", "run_point")]
            raise RuntimeError("stop")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_missing_function_leaves_its_metrics_out():
    import trihybrid.experiments  # noqa: F401  (the tracer wraps loaded modules only)

    layers = dict(LAYERS, sphere_opt=(("sphere_opt", "no_such_function"),))
    tracer = Tracer()
    with traced(tracer, layers=layers):
        pass
    assert tracer.missing == ["sphere_opt.no_such_function"]
    metrics = layer_metrics(tracer)
    assert not any(name.startswith("sphere_opt.") for name in metrics)
    assert "decomp.calls" in metrics


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "power_sweep", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_power_sweep_default_seed_is_the_example_config():
    import configparser

    from workloads import WORKLOADS

    def sections(text):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read_string(text)
        return {name: dict(parser[name]) for name in parser.sections()}

    example = (ROOT / "docs" / "example.ini").read_text()
    assert sections(WORKLOADS["power_sweep"].ini(0)) == sections(example)
    assert sections(WORKLOADS["power_sweep"].ini(1))["sweep"]["seeds"] == "4 5 6"
    for workload in WORKLOADS.values():
        assert "manifold" not in workload.ini(0)

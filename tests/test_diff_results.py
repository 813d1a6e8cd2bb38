"""The changed-cell report of tools/diff_results.py."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "diff_results.py"
_spec = importlib.util.spec_from_file_location("diff_results", _PATH)
diff_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_results)

HEADER = "axis,sweep_value,method,scenario_seed,sum_rate_digital,outer_iterations,zf_leakage"


def _write(path, rows):
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    return path


def test_identical_files_report_nothing(tmp_path, capsys):
    rows = ["power,-20.0,model1,1,1.5,9,", "power,-20.0,zf,1,1.25,0,1e-16"]
    old = _write(tmp_path / "old.csv", rows)
    new = _write(tmp_path / "new.csv", rows[::-1])
    assert diff_results.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == ""


def test_every_changed_cell_and_the_largest_move(tmp_path, capsys):
    old = _write(tmp_path / "old.csv", [
        "power,-20.0,model2,1,2.0,9,",
        "power,-20.0,model2,2,4.0,9,",
        "power,-20.0,zf,1,0.0,0,1e-16",
        "power,-15.0,model1,1,1.0,3,",
    ])
    new = _write(tmp_path / "new.csv", [
        "power,-20.0,model2,2,4.000000000000001,9,",
        "power,-20.0,model2,1,2.5,10,",
        "power,-20.0,zf,1,0.25,0,1e-16",
        "power,-10.0,model1,1,1.0,3,",
    ])
    assert diff_results.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "(-20.0, model2, 1): sum_rate_digital 2.0 → 2.5",
        "(-20.0, model2, 1): outer_iterations 9 → 10",
        "(-20.0, model2, 2): sum_rate_digital 4.0 → 4.000000000000001",
        "(-20.0, zf, 1): sum_rate_digital 0.0 → 0.25",
        f"(-15.0, model1, 1): only in {old}",
        f"(-10.0, model1, 1): only in {new}",
        "largest relative move per (method, column):",
        "model2 outer_iterations: 0.111 (absolute 1)",
        "model2 sum_rate_digital: 0.25 (absolute 0.5)",
        "zf sum_rate_digital: 0.25 (absolute 0.25)",
    ]


def test_columns_of_one_file_and_cells_that_are_not_numbers(tmp_path):
    old = tmp_path / "old.csv"
    old.write_text("sweep_value,method,scenario_seed,note,gone\n0,model1,1,a,1\n")
    new = tmp_path / "new.csv"
    new.write_text("sweep_value,method,scenario_seed,note,added\n0,model1,1,b,1\n")
    lines, largest = diff_results.compare(old, new)
    assert lines == [
        "(0, model1, 1): note a → b",
        f"column gone: only in {old}",
        f"column added: only in {new}",
    ]
    assert all(math.isnan(move) for move in largest[("model1", "note")])


def test_repeated_key_rejected(tmp_path):
    path = _write(tmp_path / "old.csv", ["power,0,zf,1,1.0,0,", "power,0,zf,1,2.0,0,"])
    with pytest.raises(ValueError, match="more than one row"):
        diff_results.read_rows(path)


def test_iteration_totals_and_capped_counts_per_method(tmp_path, capsys):
    header = "sweep_value,method,scenario_seed,outer_iterations,converged"
    old = tmp_path / "old.csv"
    old.write_text("\n".join([
        header, "0,model1,1,50,0", "0,model1,2,12,1", "0,zf,1,0,1", "5,model2,1,50,0",
    ]) + "\n")
    new = tmp_path / "new.csv"
    new.write_text("\n".join([
        header, "0,model1,1,31,1", "0,model1,2,12,1", "0,zf,1,0,1", "5,wmmse_fixed,1,,0",
    ]) + "\n")
    assert diff_results.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "(0, model1, 1): outer_iterations 50 → 31",
        "(0, model1, 1): converged 0 → 1",
        f"(5, model2, 1): only in {old}",
        f"(5, wmmse_fixed, 1): only in {new}",
    ]
    # After the per-cell lines, every method of either file; a count that
    # is not an integer adds nothing.
    assert lines[4:8] == [
        "model1 outer_iterations 62 → 43, capped 1 → 0",
        "model2 outer_iterations 50 → 0, capped 1 → 0",
        "wmmse_fixed outer_iterations 0 → 0, capped 0 → 1",
        "zf outer_iterations 0 → 0, capped 0 → 0",
    ]
    assert lines[8] == "largest relative move per (method, column):"

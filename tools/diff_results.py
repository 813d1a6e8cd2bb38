"""List every cell that differs between two results CSVs of `trihybrid run`.

Usage, from anywhere:

    python3 tools/diff_results.py OLD.csv NEW.csv

Rows are matched by (sweep value, method, scenario seed).  For every cell
that differs, one line:

    (sweep_value, method, scenario_seed): column old → new

then a line for each row and each column that only one file has.  When
both files have the `outer_iterations` and `converged` columns, each
method's total outer iterations and its count of capped rows
(`converged = 0`) follow, old and new:

    model1 outer_iterations 7187 → 2362, capped 14 → 0

Last comes the largest relative move per (method, column) over the changed
cells: |new - old| / |old|, or |new - old| where old is 0, and `nan` where
a changed cell is not a number; beside it the largest absolute move
|new - old|, so that a move in the last bits of a value near 0 does not
read as a large one.  Cells are compared as the text the runner
wrote, so a move in the last bit shows.  Exits 0 when the two files hold
the same cells and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

KEY = ("sweep_value", "method", "scenario_seed")


def read_rows(path: Path) -> tuple[list[str], dict[tuple, dict]]:
    """The columns of a results CSV and its rows by key; a repeated key
    raises ValueError."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        rows = {}
        for row in reader:
            key = tuple(row[name] for name in KEY)
            if key in rows:
                raise ValueError(f"{path}: more than one row for {key}")
            rows[key] = row
        return list(reader.fieldnames or []), rows


def moves(old: str, new: str) -> tuple[float, float]:
    """The relative move, |new - old| / |old| or |new - old| where old is
    0, and the absolute move |new - old|; both NaN for a cell that is not
    a number."""
    try:
        old_value, new_value = float(old), float(new)
    except ValueError:
        return math.nan, math.nan
    difference = abs(new_value - old_value)
    return difference / abs(old_value) if old_value != 0.0 else difference, difference


def totals(rows: dict[tuple, dict]) -> dict[str, tuple[int, int]]:
    """Each method's total `outer_iterations` and its count of rows with
    `converged = 0`; a count that is not an integer adds nothing."""
    sums: dict[str, tuple[int, int]] = {}
    for (_, method, _), row in rows.items():
        iterations, capped = sums.get(method, (0, 0))
        count = row["outer_iterations"]
        sums[method] = (
            iterations + (int(count) if count.isdigit() else 0),
            capped + (row["converged"] == "0"),
        )
    return sums


def compare(
    old_path: Path, new_path: Path
) -> tuple[list[str], dict[tuple, tuple[float, float]]]:
    """The report lines of every difference, and the largest relative and
    the largest absolute move of each (method, column) that changed."""
    old_columns, old_rows = read_rows(old_path)
    new_columns, new_rows = read_rows(new_path)
    shared = [name for name in old_columns if name in new_columns]
    lines, largest = [], {}
    for key, old in old_rows.items():
        new = new_rows.get(key)
        if new is None:
            lines.append(f"({', '.join(key)}): only in {old_path}")
            continue
        for name in shared:
            if old[name] != new[name]:
                lines.append(f"({', '.join(key)}): {name} {old[name]} → {new[name]}")
                previous = largest.get((key[1], name), (-math.inf, -math.inf))
                # A cell that is not a number leaves NaN for its column.
                largest[key[1], name] = tuple(
                    move if math.isnan(move) or move > most else most
                    for move, most in zip(moves(old[name], new[name]), previous)
                )
    lines += [f"({', '.join(key)}): only in {new_path}" for key in new_rows if key not in old_rows]
    lines += [f"column {name}: only in {old_path}" for name in old_columns if name not in new_columns]
    lines += [f"column {name}: only in {new_path}" for name in new_columns if name not in old_columns]
    if lines and {"outer_iterations", "converged"} <= set(shared):
        old_totals, new_totals = totals(old_rows), totals(new_rows)
        for method in sorted(old_totals.keys() | new_totals.keys()):
            (old_sum, old_capped), (new_sum, new_capped) = (
                sums.get(method, (0, 0)) for sums in (old_totals, new_totals)
            )
            lines.append(
                f"{method} outer_iterations {old_sum} → {new_sum}, capped {old_capped} → {new_capped}"
            )
    return lines, largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="results CSV before the change")
    parser.add_argument("new", type=Path, help="results CSV after the change")
    args = parser.parse_args(argv)
    lines, largest = compare(args.old, args.new)
    for line in lines:
        print(line)
    if largest:
        print("largest relative move per (method, column):")
        for (method, name), (relative, absolute) in sorted(largest.items()):
            print(f"{method} {name}: {relative:.3g} (absolute {absolute:.3g})")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

"""Child process that measures set-up: start, imports, config load, first cell.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG.ini

Imports `trihybrid` from SRC_DIR, starts `run_experiment` on the config and
ends the process when the first cell asks for its scenario, printing the
monotonic clock at that moment; the parent subtracts the moment it started
this process.  Nothing is written, because the process ends before any
output.
"""

from __future__ import annotations

import os
import sys
import time


def main(src_dir: str, config_path: str) -> int:
    sys.path.insert(0, src_dir)
    from trihybrid import channel, experiments

    def first_cell(*args, **kwargs):
        now = time.monotonic()
        sys.stdout.write(f"{now!r}\n")
        sys.stdout.flush()
        # Leave at once, so no handler in the runner can go on to other cells.
        os._exit(0)

    # Every cell starts by generating its scenario; replace the function
    # under each name the runner may call it by.
    original = channel.generate_scenario
    for module in (channel, experiments):
        if getattr(module, "generate_scenario", None) is original:
            module.generate_scenario = first_cell
    experiments.run_experiment(config_path, worker_count=1)
    print("the run finished without starting a cell", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))

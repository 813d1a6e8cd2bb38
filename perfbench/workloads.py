"""Sweep configs of the benchmark workloads, generated from a workload seed.

Every workload is the paper's desk scenario (the `[scenario]` and `[solver]`
sections of `docs/example.ini`) with its own sweep.  Only config keys that
the runner keeps long term are used: no `manifold_*` keys.

The workload seed shifts the scenario seeds by whole blocks: seed 0 gives
each workload's base seeds (for `power_sweep` exactly the seeds of
`docs/example.ini`), seed s adds s times the number of base seeds, so two
workload seeds never share a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_METHODS = ("model1", "model2", "wmmse_fixed", "zf")

_SCENARIO = """\
[scenario]
carrier_hz = 30e9
bs_rows = 4
bs_cols = 4
bs_spacing_wl = 0.5
ue_rows = 2
ue_cols = 1
ue_spacing_wl = 0.5
users = 2
paths_per_user = 4
user_box = 25 60 -20 20 -20 -5
scatterer_box = 5 70 -30 30 -25 0
pathloss_exponent = 2.0
"""

_SOLVER = {
    "streams_per_user": "2",
    "candidates": "8",
    "beamwidth_deg": "85",
    "sh_degree": "2",
    "rho": "0.7",
    "noise_dbm": "-90",
    "power_dbm": "0",
    "rf_chains_offset": "3",
    "max_outer_iterations": "50",
    "objective_tol": "1e-6",
    "seed": "0",
}


@dataclass(frozen=True)
class Workload:
    name: str
    axis: str
    values: tuple[float, ...]
    methods: tuple[str, ...]
    base_seeds: tuple[int, ...]
    solver: tuple[tuple[str, str], ...] = ()
    # Smoke size, for the benchmark's own tests: a corner of the sweep.
    smoke_values: tuple[float, ...] = ()
    smoke_seeds: int = 1

    def scenario_seeds(self, seed: int, smoke: bool = False) -> tuple[int, ...]:
        base = self.base_seeds[: self.smoke_seeds] if smoke else self.base_seeds
        shift = seed * len(self.base_seeds)
        return tuple(s + shift for s in base)

    def cells(self, seed: int, smoke: bool = False) -> int:
        values = self.smoke_values if smoke else self.values
        return len(values) * len(self.methods) * len(self.scenario_seeds(seed, smoke))

    def ini(self, seed: int, smoke: bool = False) -> str:
        """Config text of this workload for one workload seed."""
        solver = dict(_SOLVER)
        solver.update(self.solver)
        if smoke:
            solver["max_outer_iterations"] = "3"
        values = self.smoke_values if smoke else self.values
        lines = [_SCENARIO, "[solver]"]
        lines += [f"{key} = {value}" for key, value in solver.items()]
        lines += [
            "",
            "[sweep]",
            f"axis = {self.axis}",
            "values = " + " ".join(f"{v:g}" for v in values),
            "methods = " + " ".join(self.methods),
            "seeds = " + " ".join(str(s) for s in self.scenario_seeds(seed, smoke)),
            "output = results.csv",
            "",
        ]
        return "\n".join(lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="power_sweep",
            axis="power",
            values=(-20, -15, -10, -5, 0, 5, 10),
            methods=ALL_METHODS,
            base_seeds=(1, 2, 3),
            smoke_values=(-20, 10),
        ),
        Workload(
            name="antenna_scaling",
            axis="antennas",
            values=(16, 36, 64, 100),
            methods=("model1", "wmmse_fixed", "zf"),
            base_seeds=(1, 2, 3),
            smoke_values=(16, 36),
        ),
        Workload(
            name="warm_start",
            axis="power",
            values=(0,),
            methods=ALL_METHODS,
            base_seeds=tuple(range(6)),
            solver=(("warm_start", "true"), ("max_outer_iterations", "40"), ("seed", "17")),
            smoke_values=(0,),
            smoke_seeds=2,
        ),
    )
}

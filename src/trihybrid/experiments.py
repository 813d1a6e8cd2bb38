"""Configuration-driven experiment runner.

Reads a flat key-value config (INI sections: scenario, solver, sweep), runs
every sweep point x method x scenario seed, and appends one row per run to a
results CSV.  The methods of one (sweep point, scenario seed) cell share its
scenario, candidate grid and fixed-pattern solve.  Runs are deterministic
for a fixed config: scenario seeds are taken from the config, solver seeds
are fixed, and rows are written in sweep order regardless of worker count.
Wall-clock timings go to a sidecar file so the results CSV is
byte-reproducible.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .baselines import bd_zero_forcing, fixed_pattern_wmmse, interference_leakage
from .channel import (
    Scenario,
    ScenarioConfig,
    assemble_channel,
    compose,
    generate_scenario,
    selection_effective_channel,
    selection_matrix,
    synthesis_effective_channel,
)
from .decomp import decompose_precoder
from .exceptions import ConfigurationError, SweepError
from .metrics import audit_constraints
from .patterns import CandidateSet, gaussian_beam_grid, most_square_factors
from .units import dbm_to_milliwatts
from .wmmse import (
    PrecoderState,
    SolverConfig,
    Trace,
    run_selection,
    run_synthesis,
    split_precoder,
    weighted_sum_rate,
)

WORKER_ENV = "TRIHYBRID_WORKERS"

METHODS = ("model1", "model2", "wmmse_fixed", "zf")
_WMMSE_METHODS = ("model1", "model2", "wmmse_fixed")

RESULT_COLUMNS = (
    "axis",
    "sweep_value",
    "method",
    "scenario_seed",
    "n_antennas",
    "rf_chains",
    "sum_rate_digital",
    "sum_rate_hybrid",
    "objective",
    "outer_iterations",
    "converged",
    "max_power_violation",
    "modulus_deviation",
    "antenna_deviation",
    "min_pattern_gain",
    "decomp_residual",
)

_SCENARIO_KEYS = {
    "carrier_hz",
    "bs_rows",
    "bs_cols",
    "bs_spacing_wl",
    "ue_rows",
    "ue_cols",
    "ue_spacing_wl",
    "users",
    "paths_per_user",
    "user_positions",
    "user_box",
    "scatterer_box",
    "pathloss_exponent",
}

_SOLVER_KEYS = {
    "max_outer_iterations",
    "objective_tol",
    "rf_chains_offset",
    "candidates",
    "beamwidth_deg",
    "sh_degree",
    "rho",
    "noise_dbm",
    "power_dbm",
    "streams_per_user",
    "decomp_iterations",
    "seed",
    "warm_start",
}

_SWEEP_KEYS = {"axis", "values", "methods", "seeds", "output", "traces_dir"}

# Solver phase seconds of the timing sidecar, named as the `Trace` fields.
_PHASE_COLUMNS = ("receivers_s", "sweep_s", "objective_s", "decomp_s")

_AXES = ("power", "rfchains", "antennas")


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig
    streams_per_user: int
    candidates: int
    beamwidth_deg: float
    sh_degree: int
    rho: float
    power_dbm: float
    noise_dbm: float
    rf_chains_offset: int
    max_outer_iterations: int
    objective_tol: float
    decomp_iterations: int
    solver_seed: int
    warm_start: bool
    axis: str
    values: tuple[float, ...]
    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    output: str
    traces_dir: str | None = None


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split())


def _parse_box(text: str) -> tuple[float, ...]:
    values = _parse_floats(text)
    if len(values) != 6:
        raise ConfigurationError(
            f"boxes need 6 values (xmin xmax ymin ymax zmin zmax), got {len(values)}"
        )
    return values


def _check_keys(section: str, parser: configparser.ConfigParser, allowed) -> None:
    if not parser.has_section(section):
        return
    unknown = set(parser.options(section)) - allowed
    if unknown:
        raise ConfigurationError(
            f"[{section}] has unknown keys: {', '.join(sorted(unknown))}"
        )


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    for section, allowed in (
        ("scenario", _SCENARIO_KEYS),
        ("solver", _SOLVER_KEYS),
        ("sweep", _SWEEP_KEYS),
    ):
        _check_keys(section, parser, allowed)
    for section in parser.sections():
        if section not in ("scenario", "solver", "sweep"):
            raise ConfigurationError(f"unknown config section [{section}]")

    sc = parser["scenario"] if parser.has_section("scenario") else {}
    so = parser["solver"] if parser.has_section("solver") else {}
    sw = parser["sweep"] if parser.has_section("sweep") else {}

    def get(section, key, cast, default):
        if key in section:
            try:
                return cast(section[key])
            except (ValueError, ConfigurationError) as exc:
                raise ConfigurationError(f"bad value for {key}: {exc}") from exc
        return default

    user_positions = None
    if "user_positions" in sc:
        rows = [r.strip() for r in sc["user_positions"].split(";") if r.strip()]
        user_positions = np.array([_parse_floats(r) for r in rows])

    paths_raw = get(sc, "paths_per_user", str, "4").split()
    paths = int(paths_raw[0]) if len(paths_raw) == 1 else tuple(int(p) for p in paths_raw)

    scenario = ScenarioConfig(
        carrier_hz=get(sc, "carrier_hz", float, 30e9),
        bs_shape=(get(sc, "bs_rows", int, 4), get(sc, "bs_cols", int, 4)),
        bs_spacing_wavelengths=get(sc, "bs_spacing_wl", float, 0.5),
        ue_shape=(get(sc, "ue_rows", int, 2), get(sc, "ue_cols", int, 1)),
        ue_spacing_wavelengths=get(sc, "ue_spacing_wl", float, 0.5),
        n_users=get(sc, "users", int, 2),
        paths_per_user=paths,
        user_positions=user_positions,
        user_box=get(sc, "user_box", _parse_box, ScenarioConfig.user_box),
        scatterer_box=get(sc, "scatterer_box", _parse_box, ScenarioConfig.scatterer_box),
        pathloss_exponent=get(sc, "pathloss_exponent", float, 2.0),
    )

    axis = get(sw, "axis", str, "power").strip()
    if axis not in _AXES:
        raise ConfigurationError(f"sweep axis must be one of {_AXES}, got {axis!r}")
    methods = tuple(get(sw, "methods", str, " ".join(METHODS)).split())
    for m in methods:
        if m not in METHODS:
            raise ConfigurationError(f"unknown method {m!r}; choose from {METHODS}")
    values = get(sw, "values", _parse_floats, None)
    if values is None:
        values = (get(so, "power_dbm", float, 0.0),) if axis == "power" else (0.0,)
    seeds = tuple(int(s) for s in get(sw, "seeds", str, "1").split())

    config = ExperimentConfig(
        scenario=scenario,
        streams_per_user=get(so, "streams_per_user", int, 2),
        candidates=get(so, "candidates", int, 8),
        beamwidth_deg=get(so, "beamwidth_deg", float, 85.0),
        sh_degree=get(so, "sh_degree", int, 2),
        rho=get(so, "rho", float, 0.7),
        power_dbm=get(so, "power_dbm", float, 0.0),
        noise_dbm=get(so, "noise_dbm", float, -90.0),
        rf_chains_offset=get(so, "rf_chains_offset", int, 3),
        max_outer_iterations=get(so, "max_outer_iterations", int, 50),
        objective_tol=get(so, "objective_tol", float, 1e-6),
        decomp_iterations=get(so, "decomp_iterations", int, 30),
        solver_seed=get(so, "seed", int, 0),
        warm_start=get(so, "warm_start", lambda v: v.lower() in ("1", "true", "yes"), False),
        axis=axis,
        values=values,
        methods=methods,
        seeds=seeds,
        output=get(sw, "output", str, "results.csv"),
        traces_dir=get(sw, "traces_dir", str, None),
    )
    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    if config.candidates < 1:
        raise ConfigurationError("need at least one pattern candidate")
    if config.sh_degree < 0:
        raise ConfigurationError("sh_degree must be nonnegative")
    if not 0.0 < config.rho <= 1.0:
        raise ConfigurationError(f"rho must lie in (0, 1], got {config.rho}")
    if config.axis == "antennas" and any(int(v) < 1 for v in config.values):
        raise ConfigurationError("antenna counts must be positive")
    for value in config.values:
        rf_chains = _rf_chains_for(config, value)
        n_antennas = math.prod(_scenario_for(config, value).bs_shape)
        if rf_chains > n_antennas:
            raise ConfigurationError(
                f"{rf_chains} chains exceed {n_antennas} antennas at sweep value {value}"
            )


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    row: dict
    trace_rows: list = field(default_factory=list)
    seconds: float = 0.0
    phase_seconds: tuple[float, ...] = ()  # one per _PHASE_COLUMNS entry


def _float_repr(value) -> str:
    return repr(float(value))


def _scenario_for(config: ExperimentConfig, value: float) -> ScenarioConfig:
    scenario = config.scenario
    if config.axis == "antennas":
        scenario = replace(scenario, bs_shape=most_square_factors(int(value)))
    return scenario


def _rf_chains_for(config: ExperimentConfig, value: float) -> int:
    offset = int(value) if config.axis == "rfchains" else config.rf_chains_offset
    return config.streams_per_user * config.scenario.n_users + offset


def _solver_for(config: ExperimentConfig, value: float) -> SolverConfig:
    power_dbm = value if config.axis == "power" else config.power_dbm
    return SolverConfig(
        power=float(dbm_to_milliwatts(power_dbm)),
        noise=float(dbm_to_milliwatts(config.noise_dbm)),
        weights=None,
        rf_chains=_rf_chains_for(config, value),
        max_outer_iterations=config.max_outer_iterations,
        objective_tol=config.objective_tol,
        rho=config.rho,
        seed=config.solver_seed,
        decomp_iterations=config.decomp_iterations,
    )


@dataclass
class _Cell:
    """What every method of one (sweep value, scenario seed) cell shares.

    Each part is built on first use, inside the `run_point` call that first
    needs it, so its time counts in that row.  The fixed-pattern WMMSE solve
    serves both the `wmmse_fixed` row and the warm starts.
    """

    config: ExperimentConfig
    value: float
    seed: int

    @cached_property
    def scenario(self) -> Scenario:
        return generate_scenario(_scenario_for(self.config, self.value), self.seed)

    @cached_property
    def solver(self) -> SolverConfig:
        return _solver_for(self.config, self.value)

    @cached_property
    def streams(self) -> tuple[int, ...]:
        return (self.config.streams_per_user,) * self.config.scenario.n_users

    @cached_property
    def candidates(self) -> CandidateSet:
        return gaussian_beam_grid(
            self.config.candidates,
            beamwidth=np.deg2rad(self.config.beamwidth_deg),
            baseline_first=True,
        )

    @cached_property
    def fixed_channels(self) -> list[np.ndarray]:
        baseline = self.candidates.baseline
        return [assemble_channel(g, baseline) for g in self.scenario.geometries]

    @cached_property
    def fixed_solve(self) -> tuple[PrecoderState, Trace]:
        return fixed_pattern_wmmse(
            self.scenario, self.candidates.baseline, self.streams, self.solver
        )


def _zero_forcing_state(cell: _Cell) -> PrecoderState:
    """BD zero forcing on the baseline pattern, with its decomposition."""
    solver = cell.solver
    f_d = bd_zero_forcing(cell.fixed_channels, cell.streams, solver.power)
    decomp = decompose_precoder(
        f_d, solver.rf_chains, solver.power, solver.decomp_iterations, seed=solver.seed
    )
    n_antennas, n_users = f_d.shape[0], len(cell.streams)
    return PrecoderState(
        f_d=f_d,
        f_rf=decomp.f_rf,
        f_bb=decomp.f_bb,
        selection=np.zeros(n_antennas, dtype=int),
        coefficients=None,
        beta=np.ones(n_users) / n_users,
        noise=np.full(n_users, solver.noise),
        power=np.full(n_antennas, solver.power),
        decomp_residual=decomp.residual,
    )


def run_point(
    config: ExperimentConfig, value: float, method: str, seed: int, cell: _Cell | None = None
) -> RunResult:
    """Run one method on one (sweep value, scenario seed) cell.

    `cell` carries the inputs the cell's other methods already built; a
    fresh one is made when it is omitted.
    """
    started = time.perf_counter()
    if cell is None:
        cell = _Cell(config, value, seed)
    warm_f_d = None
    if config.warm_start and method in ("model1", "model2"):
        warm_f_d = cell.fixed_solve[0].f_d
    geometries = cell.scenario.geometries

    if method == "model1":
        effs = [selection_effective_channel(g, cell.candidates) for g in geometries]
        state, trace = run_selection(effs, cell.streams, cell.solver, init_f_d=warm_f_d)
        width = cell.candidates.size
        channels = [compose(e, selection_matrix(state.selection, width)) for e in effs]
        audit_set = cell.candidates
    elif method == "model2":
        effs = [synthesis_effective_channel(g, config.sh_degree) for g in geometries]
        state, trace = run_synthesis(effs, cell.streams, cell.solver, init_f_d=warm_f_d)
        channels = [compose(e, state.coefficients) for e in effs]
        audit_set = None
    elif method == "wmmse_fixed":
        state, trace = cell.fixed_solve
        channels = cell.fixed_channels
        audit_set = CandidateSet((cell.candidates.baseline,))
    elif method == "zf":
        state, trace = _zero_forcing_state(cell), Trace(converged=True)
        channels = cell.fixed_channels
        audit_set = CandidateSet((cell.candidates.baseline,))
    else:
        raise ConfigurationError(f"unknown method {method!r}")

    noise = cell.solver.noise
    digital, _ = weighted_sum_rate(channels, split_precoder(state.f_d, cell.streams), noise)
    hybrid, _ = weighted_sum_rate(
        channels, split_precoder(state.f_rf @ state.f_bb, cell.streams), noise
    )
    report = audit_constraints(state, audit_set)
    row = {
        "axis": config.axis,
        "sweep_value": _float_repr(value),
        "method": method,
        "scenario_seed": seed,
        "n_antennas": state.n_antennas,
        "rf_chains": cell.solver.rf_chains,
        "sum_rate_digital": _float_repr(digital),
        "sum_rate_hybrid": _float_repr(hybrid),
        "objective": _float_repr(trace.objective[-1]) if trace.objective else "",
        "outer_iterations": trace.n_iterations,
        "converged": int(trace.converged),
        "max_power_violation": _float_repr(report.max_power_violation()),
        "modulus_deviation": _float_repr(report.modulus_deviation()),
        "antenna_deviation": _float_repr(report.antenna_deviation()),
        "min_pattern_gain": _float_repr(
            report.positivity_min if report.positivity_min is not None else 0.0
        ),
        "decomp_residual": _float_repr(state.decomp_residual),
    }
    if method == "zf":
        row["zf_leakage"] = _float_repr(interference_leakage(channels, state.f_d, cell.streams))
    trace_rows = [
        (i, _float_repr(o), _float_repr(r), _float_repr(v))
        for (i, o, r, v) in trace.rows()
    ]
    return RunResult(
        row=row,
        trace_rows=trace_rows,
        seconds=time.perf_counter() - started,
        phase_seconds=tuple(getattr(trace, name) for name in _PHASE_COLUMNS),
    )


def _run_cell(args) -> tuple[list[RunResult], str | None]:
    """Every method of one (sweep value, scenario seed) cell, one
    `run_point` call per results row.

    Returns the rows in method order and no error, or no rows and the error
    of the run that raised.  A configuration error ends the whole sweep.
    """
    config, value, seed = args
    cell = _Cell(config, value, seed)
    try:
        return [run_point(config, value, method, seed, cell) for method in config.methods], None
    except ConfigurationError:
        raise
    except Exception as exc:  # any other failure is reported with its cell
        return [], f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Full experiments
# ---------------------------------------------------------------------------

def run_experiment(config_path, worker_count: int | None = None) -> str:
    """Run every sweep cell and write the results CSV.

    Returns the path of the results file.  The job unit is one (sweep
    value, scenario seed) cell.  Worker count comes from the
    TRIHYBRID_WORKERS environment variable unless given; results are merged
    in sweep order so the output does not depend on parallelism, and the
    timing sidecar lists the runs in the order they executed.  The rows of
    every cell that completed are written even when others fail; a
    SweepError naming each failed cell is raised afterwards.
    """
    config = load_config(config_path)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    out_path = os.path.join(base_dir, config.output)

    cells = [(config, value, seed) for value in config.values for seed in config.seeds]
    if worker_count is None:
        worker_count = int(os.environ.get(WORKER_ENV, "1"))
    if worker_count > 1:
        with ProcessPoolExecutor(max_workers=worker_count) as pool:
            outcomes = list(pool.map(_run_cell, cells))
    else:
        outcomes = [_run_cell(cell) for cell in cells]

    n_seeds = len(config.seeds)
    rows = [  # sweep order: value, then method, then seed
        results[m].row
        for start in range(0, len(cells), n_seeds)
        for m in range(len(config.methods))
        for results, error in outcomes[start : start + n_seeds]
        if error is None
    ]
    columns = list(RESULT_COLUMNS)
    if any("zf_leakage" in row for row in rows):
        columns.append("zf_leakage")
    with open(out_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})

    runs = [  # (value, method, seed, result) in the order the runs executed
        (value, method, seed, result)
        for (_, value, seed), (results, _) in zip(cells, outcomes)
        for method, result in zip(config.methods, results)
    ]
    timing_path = os.path.splitext(out_path)[0] + "_timing.csv"
    with open(timing_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep_value", "method", "scenario_seed", "seconds", *_PHASE_COLUMNS])
        for value, method, seed, result in runs:
            seconds = (result.seconds, *result.phase_seconds)
            writer.writerow([value, method, seed, *(f"{s:.6f}" for s in seconds)])

    if config.traces_dir:
        traces_dir = os.path.join(base_dir, config.traces_dir)
        os.makedirs(traces_dir, exist_ok=True)
        for value, method, seed, result in runs:
            if not result.trace_rows:
                continue
            name = f"trace_v{config.values.index(value)}_{method}_s{seed}.csv"
            with open(os.path.join(traces_dir, name), "w", newline="", encoding="ascii") as fh:
                writer = csv.writer(fh)
                writer.writerow(["iter", "objective", "sum_rate_bps_hz", "max_power_violation"])
                writer.writerows(result.trace_rows)

    failed = [
        f"value {value!r}, seed {seed}: {error}"
        for (_, value, seed), (_, error) in zip(cells, outcomes)
        if error is not None
    ]
    if failed:
        raise SweepError(
            f"{len(failed)} of {len(cells)} sweep cells failed; the rows of the others "
            f"are in {out_path}:\n  " + "\n  ".join(failed)
        )
    return out_path


# ---------------------------------------------------------------------------
# Aggregation and audits
# ---------------------------------------------------------------------------

_FIGURES = {"power": "power", "rfchains": "rfchains", "antennas": "antennas"}


def emit_plotdata(results_path, figure: str, out_path=None) -> str:
    """Aggregate a results CSV to mean and standard error per sweep point.

    Emits one row per (sweep value, method) with digital and hybrid columns;
    for the rfchains figure the sweep value is labeled as an offset from the
    total stream count D.
    """
    if figure not in _FIGURES:
        raise ConfigurationError(f"figure must be one of {sorted(_FIGURES)}")
    with open(results_path, "r", encoding="ascii") as fh:
        reader = csv.DictReader(fh)
        required = {"axis", "sweep_value", "method", "sum_rate_digital", "sum_rate_hybrid"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ConfigurationError(
                f"{results_path}: missing columns {sorted(required - set(reader.fieldnames or []))}"
            )
        rows = list(reader)
    if rows and rows[0]["axis"] != figure:
        raise ConfigurationError(
            f"results were swept over {rows[0]['axis']!r}, not {figure!r}"
        )

    groups: dict[tuple[float, str], list[tuple[float, float]]] = {}
    order: list[tuple[float, str]] = []
    for row in rows:
        key = (float(row["sweep_value"]), row["method"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(
            (float(row["sum_rate_digital"]), float(row["sum_rate_hybrid"]))
        )

    def stats(samples):
        arr = np.asarray(samples)
        mean = float(arr.mean())
        stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        return mean, stderr

    if out_path is None:
        out_path = os.path.splitext(results_path)[0] + f"_plot_{figure}.csv"
    with open(out_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "sweep_value",
                "label",
                "method",
                "n_runs",
                "digital_mean",
                "digital_stderr",
                "hybrid_mean",
                "hybrid_stderr",
            ]
        )
        for value, method in sorted(order, key=lambda k: (k[0], order.index(k))):
            samples = groups[(value, method)]
            d_mean, d_err = stats([s[0] for s in samples])
            h_mean, h_err = stats([s[1] for s in samples])
            if figure == "rfchains":
                offset = int(value)
                label = "D" if offset == 0 else f"D+{offset}"
            else:
                label = repr(value)
            writer.writerow(
                [
                    repr(value),
                    label,
                    method,
                    len(samples),
                    repr(d_mean),
                    repr(d_err),
                    repr(h_mean),
                    repr(h_err),
                ]
            )
    return out_path


def audit_results(results_path, power_tol: float = 1e-9) -> tuple[list[str], list[str]]:
    """Check recorded constraint columns.

    Returns (failures, warnings): power, modulus and pattern-constraint
    deviations are failures.  A non-positive synthesized pattern gain is
    reported as a warning only, since the solvers bound the constant
    component but do not enforce pointwise positivity; so is a WMMSE run
    that stopped at the iteration cap without converging.
    """
    failures = []
    warnings = []
    with open(results_path, "r", encoding="ascii") as fh:
        reader = csv.DictReader(fh)
        for i, row in enumerate(reader):
            where = f"row {i + 1} ({row['method']}, value {row['sweep_value']}, seed {row['scenario_seed']})"
            if float(row["max_power_violation"]) > power_tol:
                failures.append(f"{where}: per-antenna power violated")
            if float(row["modulus_deviation"]) > 1e-9:
                failures.append(f"{where}: analog stage modulus deviates")
            if float(row["antenna_deviation"]) > 1e-8:
                failures.append(f"{where}: pattern constraint deviates")
            if float(row["min_pattern_gain"]) <= 0.0:
                warnings.append(f"{where}: synthesized pattern dips non-positive")
            if row["method"] in _WMMSE_METHODS and row["converged"] == "0":
                warnings.append(
                    f"{where}: stopped at the cap of {row['outer_iterations']} "
                    "outer iterations without converging"
                )
    return failures, warnings

"""Configuration-driven experiment runner.

Reads a flat key-value config (INI sections: scenario, solver, sweep), runs
every sweep point x method x scenario seed, and appends one row per run to a
results CSV.  The methods of one (sweep point, scenario seed) cell share its
fixed-pattern solve; the cells of one array shape and scenario seed (a
drop) share their scenario, lifted channels, channels on the baseline
pattern and zero-forcing directions, and every cell shares the candidate
grid.  The WMMSE runs of all cells that share a solver, pattern width and
receive counts are solved in one lockstep batch whatever their antenna
counts, and the zero-forcing precoders in one more, which zero-forces each
drop once for all its cells; then every solved run that a row reports is
decomposed, one call per chain count and antenna count, in which the
zero-forcing runs of a drop share one split of its directions; then the
rates, audits and leakages of every row are evaluated, one call per method
and antenna count, before the rows are made; the rows only read.  Runs are
deterministic for a fixed config: scenario seeds are taken from the config,
solver seeds are fixed, a run's results do not depend on its batch, and
rows are written in sweep order regardless of worker count.  Wall-clock
timings go to a sidecar file so the results CSV is byte-reproducible.
"""

from __future__ import annotations

import configparser
import csv
import math
import numbers
import os
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .baselines import bd_zero_forcing, interference_leakage
from .channel import (
    EffectiveChannel,
    ScenarioConfig,
    compose,
    generate_scenario,
    selection_effective_channel,
    synthesis_effective_channel,
)
from .exceptions import ConfigurationError, SweepError
from .metrics import ConstraintReport, audit_constraints
from .patterns import CandidateSet, gaussian_beam_grid, most_square_factors
from .units import dbm_to_milliwatts
from .wmmse import (
    Iterate,
    Run,
    SolverConfig,
    Trace,
    decompose_states,
    iterate_selection,
    iterate_synthesis,
    received_covariances,
    stream_masks,
    weighted_sum_rate,
)

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
# The columns of :func:`metrics.audit_constraints`, which `audit` checks.
_CONSTRAINT_COLUMNS = (
    "max_power_violation", "modulus_deviation", "antenna_deviation", "min_pattern_gain"
)

# Solver phase seconds of the timing sidecar, named as the `Trace` fields.
_PHASE_COLUMNS = ("receivers_s", "sweep_s", "objective_s", "decomp_s")

_AXES = ("power", "rfchains", "antennas")


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig
    solver: SolverConfig  # template; each cell sets its power, noise and chain count
    streams_per_user: int
    candidates: int
    beamwidth_deg: float
    sh_degree: int
    power_dbm: float
    noise_dbm: float
    rf_chains_offset: int
    warm_start: bool
    axis: str
    values: tuple[float, ...]
    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    output: str
    traces_dir: str | None = None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(f"{text.strip()} is not a finite number")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ConfigurationError(f"counts must be at least 1, got {value}")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_finite(v) for v in text.split())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split())


def _parse_paths(text: str) -> int | tuple[int, ...]:
    counts = tuple(_count(v) for v in text.split())
    return counts[0] if len(counts) == 1 else counts


def _output_path(text: str) -> str:
    """A results file path: its last component names a file."""
    if os.path.basename(text) in ("", ".", ".."):
        raise ConfigurationError(f"{text!r} does not name a file")
    return text


def _parse_positions(text: str) -> np.ndarray:
    """`x y z` rows separated by semicolons."""
    rows = [_parse_floats(r) for r in text.split(";") if r.strip()]
    if any(len(r) != 3 for r in rows):
        raise ConfigurationError("every user position needs 3 values (x y z)")
    return np.array(rows).reshape(len(rows), 3)


def _parse_box(text: str) -> tuple[float, ...]:
    values = _parse_floats(text)
    if len(values) != 6:
        raise ConfigurationError(
            f"boxes need 6 values (xmin xmax ymin ymax zmin zmax), got {len(values)}"
        )
    if any(low > high for low, high in zip(values[0::2], values[1::2])):
        raise ConfigurationError(f"box {text.strip()} has a minimum above its maximum")
    return values


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    The `get` calls are the list of accepted keys: once every value has
    parsed, a key that no call read is rejected.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    sc, so, sw = "scenario", "solver", "sweep"
    asked: dict[str, set] = {sc: set(), so: set(), sw: set()}  # the keys `get` read
    for section in parser.sections():
        if section not in asked:
            raise ConfigurationError(f"unknown config section [{section}]")

    def get(section, key, cast, default):
        asked[section].add(key)
        if parser.has_option(section, key):
            try:
                return cast(parser[section][key])
            except (ValueError, KeyError, ConfigurationError) as exc:
                raise ConfigurationError(f"bad value for {key}: {exc}") from exc
        return default

    d, s = ScenarioConfig(), SolverConfig()  # the defaults of absent keys
    scenario = ScenarioConfig(
        carrier_hz=get(sc, "carrier_hz", _finite, d.carrier_hz),
        bs_shape=(get(sc, "bs_rows", _count, d.bs_shape[0]),
                  get(sc, "bs_cols", _count, d.bs_shape[1])),
        bs_spacing_wavelengths=get(sc, "bs_spacing_wl", _finite, d.bs_spacing_wavelengths),
        ue_shape=(get(sc, "ue_rows", _count, d.ue_shape[0]),
                  get(sc, "ue_cols", _count, d.ue_shape[1])),
        ue_spacing_wavelengths=get(sc, "ue_spacing_wl", _finite, d.ue_spacing_wavelengths),
        n_users=get(sc, "users", _count, d.n_users),
        paths_per_user=get(sc, "paths_per_user", _parse_paths, d.paths_per_user),
        user_positions=get(sc, "user_positions", _parse_positions, d.user_positions),
        user_box=get(sc, "user_box", _parse_box, d.user_box),
        scatterer_box=get(sc, "scatterer_box", _parse_box, d.scatterer_box),
        pathloss_exponent=get(sc, "pathloss_exponent", _finite, d.pathloss_exponent),
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
        values = (get(so, "power_dbm", _finite, 0.0),) if axis == "power" else (0.0,)
    seeds = get(sw, "seeds", _parse_ints, (1,))

    config = ExperimentConfig(
        scenario=scenario,
        solver=SolverConfig(
            max_outer_iterations=get(so, "max_outer_iterations", _count, s.max_outer_iterations),
            objective_tol=get(so, "objective_tol", _finite, s.objective_tol),
            rho=get(so, "rho", _finite, s.rho),
            seed=get(so, "seed", int, s.seed),
        ),
        streams_per_user=get(so, "streams_per_user", _count, 2),
        candidates=get(so, "candidates", _count, 8),
        beamwidth_deg=get(so, "beamwidth_deg", _finite, 85.0),
        sh_degree=get(so, "sh_degree", int, 2),
        power_dbm=get(so, "power_dbm", _finite, 0.0),
        noise_dbm=get(so, "noise_dbm", _finite, -90.0),
        rf_chains_offset=get(so, "rf_chains_offset", int, 3),
        warm_start=get(so, "warm_start", lambda v: parser.BOOLEAN_STATES[v.lower()], False),
        axis=axis,
        values=values,
        methods=methods,
        seeds=seeds,
        output=get(sw, "output", _output_path, "results.csv"),
        traces_dir=get(sw, "traces_dir", str, None),
    )
    for section, keys in asked.items():
        unknown = set(parser.options(section)) - keys if parser.has_section(section) else ()
        if unknown:
            raise ConfigurationError(f"[{section}] has unknown keys: {', '.join(sorted(unknown))}")
    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    scenario = config.scenario
    if scenario.carrier_hz <= 0.0:
        raise ConfigurationError(f"carrier_hz must be positive, got {scenario.carrier_hz}")
    n_users = scenario.n_users
    positions = scenario.user_positions
    if positions is not None and len(positions) != n_users:
        raise ConfigurationError(f"user_positions has {len(positions)} rows for {n_users} users")
    paths = scenario.paths_per_user
    if not isinstance(paths, int) and len(paths) != n_users:
        raise ConfigurationError(f"paths_per_user lists {len(paths)} counts for {n_users} users")
    if not config.values or not config.seeds:
        raise ConfigurationError("the sweep needs at least one value and one seed")
    for name in ("values", "methods", "seeds"):
        entries = getattr(config, name)
        repeated = [entry for i, entry in enumerate(entries) if entry in entries[:i]]
        if repeated:
            raise ConfigurationError(f"{name} lists {repeated[0]!r} more than once")
    solver = config.solver
    if solver.seed < 0 or min(config.seeds) < 0:
        raise ConfigurationError("seeds must be nonnegative")
    if solver.objective_tol < 0.0:
        raise ConfigurationError(f"objective_tol must be nonnegative, got {solver.objective_tol}")
    if not 0.0 < config.beamwidth_deg < 180.0:
        raise ConfigurationError(f"beamwidth_deg must lie in (0, 180), got {config.beamwidth_deg}")
    if config.sh_degree < 0:
        raise ConfigurationError("sh_degree must be nonnegative")
    if not 0.0 < solver.rho <= 1.0:
        raise ConfigurationError(f"rho must lie in (0, 1], got {solver.rho}")
    if config.axis != "power" and not all(v.is_integer() for v in config.values):
        raise ConfigurationError(f"{config.axis} values must be integers, got {config.values}")
    if config.axis == "antennas" and any(int(v) < 1 for v in config.values):
        raise ConfigurationError("antenna counts must be positive")
    if config.streams_per_user > math.prod(scenario.ue_shape):
        raise ConfigurationError("streams_per_user exceeds the antennas of a user")
    n_streams = config.streams_per_user * n_users
    for value in config.values:
        with np.errstate(over="ignore"):  # a power of inf mW is rejected below
            cell_solver = _solver_for(config, value)
        n_antennas = math.prod(_scenario_for(config, value).bs_shape)
        if not (0.0 < cell_solver.power < math.inf and 0.0 < cell_solver.noise < math.inf):
            raise ConfigurationError(f"power or noise is not finite and positive at {value}")
        if n_streams > n_antennas:
            raise ConfigurationError(f"{n_streams} streams exceed {n_antennas} antennas at {value}")
        rf_chains = cell_solver.rf_chains
        if rf_chains < 1:
            raise ConfigurationError(f"{rf_chains} chains at sweep value {value}; need 1 or more")
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
    trace: Trace
    seconds: float
    phases: tuple[float, ...]  # the _PHASE_COLUMNS of the solves timed in this row


def _float_repr(value) -> str:
    return repr(float(value))


def _scenario_for(config: ExperimentConfig, value: float) -> ScenarioConfig:
    scenario = config.scenario
    if config.axis == "antennas":
        scenario = replace(scenario, bs_shape=most_square_factors(int(value)))
    return scenario


def _solver_for(config: ExperimentConfig, value: float) -> SolverConfig:
    power_dbm = value if config.axis == "power" else config.power_dbm
    offset = int(value) if config.axis == "rfchains" else config.rf_chains_offset
    return replace(
        config.solver,
        power=float(dbm_to_milliwatts(power_dbm)),
        noise=float(dbm_to_milliwatts(config.noise_dbm)),
        rf_chains=config.streams_per_user * config.scenario.n_users + offset,
    )


@dataclass
class _Sweep:
    """What every cell of a sweep, or of one worker's share of it, shares,
    each built on first use: the config, the candidate grid and the set of
    its baseline pattern alone, so that the audit evaluates each
    candidate's gains once per sweep; and per array shape and scenario seed
    the scenario, its lifted channels and its channels on the baseline
    pattern, so that the cells of a power or chain-count sweep share them."""

    config: ExperimentConfig
    scenarios: dict = field(default_factory=dict)  # (array shape, scenario seed) -> scenario
    lifts: dict = field(default_factory=dict)  # (array shape, scenario seed, lift) -> channels
    composed: dict = field(default_factory=dict)  # (array shape, scenario seed) -> channels

    @cached_property
    def candidates(self) -> CandidateSet:
        return gaussian_beam_grid(
            self.config.candidates, beamwidth=np.deg2rad(self.config.beamwidth_deg)
        )

    @cached_property
    def baseline_set(self) -> CandidateSet:
        return CandidateSet((self.candidates.baseline,))

    def effs(self, value: float, seed: int, method: str) -> list[EffectiveChannel]:
        """The lifted channels of `method`'s run in the cell of `value` and
        `seed`: one per user, over the candidate grid (`model1`), the
        harmonic basis (`model2`) or the baseline pattern, which the
        `wmmse_fixed` and `zf` runs and the warm starts share.  The
        scenario comes first, so that it is the first thing a sweep builds;
        a build that raises is tried again by the next run that asks."""
        scenario = _scenario_for(self.config, value)
        drop = (scenario.bs_shape, seed)
        if drop not in self.scenarios:
            self.scenarios[drop] = generate_scenario(scenario, seed)
        key = (*drop, method if method in ("model1", "model2") else "baseline")
        if key not in self.lifts:
            geometries = self.scenarios[drop].geometries
            if method == "model1":
                effs = [selection_effective_channel(g, self.candidates) for g in geometries]
            elif method == "model2":
                effs = [synthesis_effective_channel(g, self.config.sh_degree) for g in geometries]
            else:
                effs = [selection_effective_channel(g, self.baseline_set) for g in geometries]
            self.lifts[key] = effs
        return self.lifts[key]

    def baseline_channels(self, value: float, seed: int) -> list[np.ndarray]:
        """The plain channels of the drop of `value` and `seed` with the
        baseline pattern on every antenna: its baseline lifts composed with
        the all-ones pattern matrix, once per drop.  Zero forcing and the
        `wmmse_fixed` and `zf` rows read them."""
        drop = (_scenario_for(self.config, value).bs_shape, seed)
        if drop not in self.composed:
            effs = self.effs(value, seed, "zf")
            matrix = np.ones((effs[0].n_antennas, 1))
            self.composed[drop] = [compose(e, matrix) for e in effs]
        return self.composed[drop]


@dataclass
class _Cell:
    """What every method of one (sweep value, scenario seed) cell shares.

    The runner's batch stage builds each method's run (`runs`) from the
    sweep's lifted channels and the cell's solver, and solves it in a
    batch with other cells' runs (`solved` holds its :class:`Iterate`); the
    decomposition stage then factors every solved run that a row reports
    and leaves its (state, trace) there, and the evaluation stage leaves
    each such row's :class:`_Numbers` in `numbered`, all before any of the
    cell's rows are made.  The fixed-pattern WMMSE solve serves both the
    `wmmse_fixed` row and the warm starts.  A run whose inputs, solve or
    decomposition raised holds the exception instead, and so do numbers
    whose evaluation raised; the row raises it again, and rows only read.
    The seconds the stages spend on the cell, building a run and the
    cell's share of each batch and decomposition it is in, wait in `owed`
    for the first row, in method order, that reads the run (`_payer`), and
    so do the phase seconds of its solve and decomposition; a row's share
    of its evaluation call waits there for the row itself.
    """

    sweep: _Sweep
    value: float
    seed: int
    runs: dict = field(default_factory=dict)  # method -> Run
    solved: dict = field(default_factory=dict)  # method -> Iterate, (state, trace) or exception
    numbered: dict = field(default_factory=dict)  # method -> _Numbers or exception
    owed: dict = field(default_factory=dict)  # method -> [seconds, *phase seconds]

    @cached_property
    def solver(self) -> SolverConfig:
        return _solver_for(self.sweep.config, self.value)

    @cached_property
    def streams(self) -> tuple[int, ...]:
        return (self.sweep.config.streams_per_user,) * self.sweep.config.scenario.n_users

    def run(self, method: str) -> Run:
        """Build `method`'s run: a WMMSE run, started from the solves it
        reads first (the fixed-pattern one under `warm_start`), or the
        zero-forcing one on the baseline channels."""
        effs = self.sweep.effs(self.value, self.seed, method)
        starts = _reads(self.sweep.config, method)[:-1]
        init_f_d = self.solution(starts[0]).f_d if starts else None
        return Run(effs, self.solver, init_f_d)

    def solution(self, method: str):
        """What `solved` holds for `method`: its iterate in the batch stage,
        its (state, trace) after the decomposition stage; or what building,
        solving or decomposing it raised."""
        return _held(self.solved[method])

    def numbers(self, method: str) -> "_Numbers":
        """The numbers of `method`'s row, or what evaluating them raised."""
        return _held(self.numbered[method])

    def owe(self, method: str, seconds: float, trace: Trace | None = None, phases=()) -> None:
        """Add seconds, and the named phase seconds of a trace, to `method`'s row."""
        owed = self.owed.setdefault(method, [0.0] * (1 + len(_PHASE_COLUMNS)))
        owed[0] += seconds
        if trace is not None:
            for i, phase in enumerate(_PHASE_COLUMNS, 1):
                if phase in phases:
                    owed[i] += getattr(trace, phase)


def _held(outcome):
    """A stage's outcome, or what the stage raised, raised again."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass
class _Numbers:
    """What a row reports of its run's state: the sum rates of its digital
    and of its hybrid precoder, its constraint report and, for a `zf`
    row, its cross-user leakage."""

    digital: float
    hybrid: float
    report: ConstraintReport
    leakage: float | None


def _drops(channel_lists) -> list[list[int]]:
    """The indices of the runs of each drop, given each run's per-drop
    channel list, which every run of the drop shares."""
    drops: dict = {}  # id of a drop's channel list -> indices of its runs
    for i, channels in enumerate(channel_lists):
        drops.setdefault(id(channels), []).append(i)
    return list(drops.values())


def _solve(method: str, cells: list[_Cell]) -> list[Iterate]:
    """`method`'s run of each of the cells, solved in one batch."""
    runs = [cell.runs[method] for cell in cells]
    if method == "zf":
        channels = [cell.sweep.baseline_channels(cell.value, cell.seed) for cell in cells]
        return _zero_forcing(runs, cells[0].streams, channels)
    solve = iterate_synthesis if method == "model2" else iterate_selection
    return solve(runs, cells[0].streams)


def _zero_forcing(runs: list[Run], stream_counts, channels) -> list[Iterate]:
    """BD zero forcing on the baseline pattern of each run of a batch,
    undecomposed; a trace records the decomposition's seconds only.

    `channels` holds each run's plain channels on the baseline pattern,
    one list per drop (:meth:`_Sweep.baseline_channels`), which its runs
    share: each drop is zero-forced in one call for the budgets of all its
    runs, and each run's iterate holds the drop's directions and its own
    factor, which the decomposition stage splits once per drop.
    """
    iterates = [None] * len(runs)
    for drop in _drops(channels):
        configs = [runs[i].config for i in drop]
        zf = bd_zero_forcing(channels[drop[0]], stream_counts, [c.power for c in configs])
        matrix = np.ones((len(zf.directions), 1))
        for i, config, f_d, factor in zip(drop, configs, zf, zf.factors):
            power = np.full(len(matrix), config.power)
            trace = Trace(converged=True)
            iterates[i] = Iterate(f_d, matrix, power, config, trace, zf.directions, factor)
    return iterates


def run_point(
    config: ExperimentConfig, value: float, method: str, seed: int, cell: _Cell
) -> RunResult:
    """Make one method's row of one (sweep value, scenario seed) cell.

    `cell` carries the run, its solve and its numbers, which the runner's
    stages made; the row only reads and formats them, and its seconds
    include what the stages spent on the runs this row pays for.
    """
    started = time.perf_counter()
    state, trace = cell.solution(method)
    numbers = cell.numbers(method)
    row = {
        "axis": config.axis,
        "sweep_value": _float_repr(value),
        "method": method,
        "scenario_seed": seed,
        "n_antennas": state.n_antennas,
        "rf_chains": cell.solver.rf_chains,
        "sum_rate_digital": _float_repr(numbers.digital),
        "sum_rate_hybrid": _float_repr(numbers.hybrid),
        "objective": _float_repr(trace.objective[-1]) if trace.objective else "",
        "outer_iterations": trace.n_iterations,
        "converged": int(trace.converged),
        **{name: _float_repr(v) for name, v in vars(numbers.report).items()},
        "decomp_residual": _float_repr(state.decomp_residual),
    }
    if numbers.leakage is not None:
        row["zf_leakage"] = _float_repr(numbers.leakage)
    owed = cell.owed.pop(method, [0.0] * (1 + len(_PHASE_COLUMNS)))
    seconds = time.perf_counter() - started + owed[0]
    return RunResult(row=row, trace=trace, seconds=seconds, phases=tuple(owed[1:]))


def _reads(config: ExperimentConfig, method: str) -> tuple[str, ...]:
    """The runs `method`'s row reads, in solve order: the fixed-pattern
    solve first when `warm_start` starts `method` from it, then its own."""
    if config.warm_start and method in ("model1", "model2"):
        return ("wmmse_fixed", method)
    return (method,)


def _payer(config: ExperimentConfig, method: str) -> str:
    """The first row, in method order, that reads `method`'s run: the row
    that pays for building, solving and decomposing it."""
    return next(m for m in config.methods if method in _reads(config, m))


def _in_batches(items: list, key, call, settle) -> None:
    """Make one `call` per group of `items` that share a `key`, and hand
    each group, its outcomes and the call's seconds to `settle`.

    The outcomes are what the call returned, one per item, or the
    exception it raised for every item; a configuration error ends the
    sweep.  A group of more than one item whose call raises is called
    again item by item, so one failing item loses only its own outcome.
    """
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    for group in groups.values():
        started = time.perf_counter()
        try:
            outcomes = call(group)
        except ConfigurationError:
            raise
        except Exception as exc:  # kept, unless the items are called again alone
            outcomes = [exc] * len(group)
        settle(group, outcomes, time.perf_counter() - started)
        if isinstance(outcomes[0], Exception) and len(group) > 1:
            for item in group:
                _in_batches([item], key, call, settle)


def _solve_batches(cells: list[_Cell], method: str) -> None:
    """Build and solve `method`'s run of every cell, one lockstep batch per
    :attr:`Run.shapes`: the runs' pattern width and receive counts, so that
    the cells of every antenna count share a batch.

    A run whose inputs or solve raise keeps the exception, which its row
    raises again.  The seconds spent on a cell are owed to the first row
    that reads the run: building it, its own iterations and their phases,
    and an even share of the rest of its batch call.
    """
    payer = _payer(cells[0].sweep.config, method)
    built = []
    for cell in cells:
        started = time.perf_counter()
        try:
            cell.runs[method] = cell.run(method)
        except ConfigurationError:
            raise
        except Exception as exc:  # raised again, and named, by the cell's rows
            cell.solved[method] = exc
        else:
            built.append(cell)
        finally:
            cell.owe(payer, time.perf_counter() - started)

    def settle(batch, outcomes, seconds):
        traces = [None if isinstance(it, Exception) else it.trace for it in outcomes]
        own = [sum(trace.iter_seconds) if trace else 0.0 for trace in traces]
        shared = (seconds - sum(own)) / len(batch)
        for cell, outcome, trace, spent in zip(batch, outcomes, traces, own):
            cell.solved[method] = outcome
            cell.owe(payer, spent + shared, trace, _PHASE_COLUMNS[:-1])  # all but decomp_s

    _in_batches(
        built,
        lambda cell: cell.runs[method].shapes,
        lambda batch: _solve(method, batch),
        settle,
    )


def _decompose_all(cells: list[_Cell]) -> None:
    """The decomposition stage: factor every solved run that a row reports,
    one :func:`decompose_states` call per chain count and antenna count.
    The zero-forcing runs of a drop share one target in the call, their
    directions, so each drop's directions are split once per chain count.

    A warm start that no row reports is not decomposed.  The row that pays
    for a run is owed the run's `decomp_s`, its share of its target's
    share of the call's seconds, and an equal share of the rest of the
    call, so that the rows' seconds add up to the call's.
    """
    config = cells[0].sweep.config
    runs = [  # (cell, method, iterate)
        (cell, method, iterate)
        for cell in cells
        for method, iterate in cell.solved.items()
        if method in config.methods and isinstance(iterate, Iterate)
    ]

    def settle(group, outcomes, seconds):
        traces = [None if isinstance(outcome, Exception) else outcome[1] for outcome in outcomes]
        own = [trace.decomp_s if trace else 0.0 for trace in traces]
        shared = (seconds - sum(own)) / len(group)
        for (cell, method, _), outcome, trace, spent in zip(group, outcomes, traces, own):
            cell.solved[method] = outcome
            cell.owe(_payer(config, method), spent + shared, trace, ("decomp_s",))

    _in_batches(
        runs,
        lambda run: (run[2].config.rf_chains, len(run[2].f_d)),
        lambda group: decompose_states([iterate for _, _, iterate in group]),
        settle,
    )


def _evaluate(rows: list[tuple[_Cell, str]]) -> list[_Numbers]:
    """The numbers of rows of one method and antenna count, each row a
    (cell, method) whose state is decomposed.

    Every row's digital and hybrid precoders go through one covariance
    pass and one rate call, 2R runs; the states through one audit; and
    the `zf` precoders of each drop through one leakage call.  A row's
    channels are its drop's baseline channels, or its drop's lifts
    composed with its own pattern matrix, one call per drop and user.
    Each operation is the one of a single row, stacked, so a row gets the
    same bits in any group.
    """
    method = rows[0][1]
    cells = [cell for cell, _ in rows]
    states = [cell.solution(method)[0] for cell in cells]
    first = cells[0]
    if method in ("model1", "model2"):
        audit_set = first.sweep.candidates if method == "model1" else None
        lifts = [cell.runs[method].effs for cell in cells]
        n_rx, n_antennas = lifts[0][0].n_rx, lifts[0][0].n_antennas
        channels = np.empty((len(rows), len(lifts[0]), n_rx, n_antennas), complex)
        for drop in _drops(lifts):
            matrices = np.stack([states[r].antenna_matrix for r in drop])
            for k, eff in enumerate(lifts[drop[0]]):
                channels[drop, k] = compose(eff, matrices)
    else:  # the baseline pattern on every antenna
        audit_set = first.sweep.baseline_set
        baseline = [cell.sweep.baseline_channels(cell.value, cell.seed) for cell in cells]
        channels = np.array(baseline)
    precoders = [state.f_d for state in states] + [state.f_rf @ state.f_bb for state in states]
    noise = np.array([cell.solver.noise for cell in cells] * 2).reshape(-1, 1, 1, 1)
    rates, _ = weighted_sum_rate(received_covariances(
        np.concatenate([channels, channels]), np.stack(precoders), stream_masks(first.streams),
        noise,
    ))
    reports = audit_constraints(states, audit_set)
    leakages = [None] * len(rows)
    if method == "zf":
        for drop in _drops(baseline):
            found = interference_leakage(
                baseline[drop[0]], [states[r].f_d for r in drop], first.streams
            )
            for r, leakage in zip(drop, found):
                leakages[r] = leakage
    return [
        _Numbers(digital, hybrid, report, leakage)
        for digital, hybrid, report, leakage in zip(
            rates[: len(rows)], rates[len(rows) :], reports, leakages
        )
    ]


def _evaluate_all(cells: list[_Cell]) -> None:
    """The evaluation stage: the numbers of every row whose run is
    decomposed, one :func:`_evaluate` call per method and antenna count.

    A row's share of its call's seconds, an even one, is owed to the row
    itself.  A call that raises is made again row by row, so only the
    failing row holds the exception, which it raises again.
    """
    config = cells[0].sweep.config
    rows = [
        (cell, method)
        for cell in cells
        for method in config.methods
        if isinstance(cell.solved[method], tuple)
    ]

    def settle(group, outcomes, seconds):
        for (cell, method), outcome in zip(group, outcomes):
            cell.numbered[method] = outcome
            cell.owe(method, seconds / len(group))

    _in_batches(
        rows,
        lambda row: (row[1], row[0].solution(row[1])[0].n_antennas),
        _evaluate,
        settle,
    )


def _solve_cells(config: ExperimentConfig, keys) -> list[_Cell]:
    """The runner's batch, decomposition and evaluation stages: the cells
    of the given (sweep value, scenario seed) keys, with every run their
    rows read solved in batches, then decomposed together, and the numbers
    of every row."""
    sweep = _Sweep(config)
    cells = [_Cell(sweep, value, seed) for value, seed in keys]
    reads = [_reads(config, m) for m in config.methods]
    # The runs that rows start from first, then each row's own, in method order.
    for method in dict.fromkeys([run for r in reads for run in r[:-1]] + [r[-1] for r in reads]):
        _solve_batches(cells, method)
    _decompose_all(cells)
    _evaluate_all(cells)
    return cells


def _cell_rows(
    config: ExperimentConfig, cells: list[_Cell]
) -> list[tuple[list[RunResult], str | None]]:
    """Every method's row of the solved cells, one `run_point` call each.

    Returns, per cell, its rows in method order and no error, or no rows
    and the error of the run that raised.  A configuration error ends the
    whole sweep.
    """
    outcomes = []
    for cell in cells:
        try:
            rows = [
                run_point(config, cell.value, method, cell.seed, cell)
                for method in config.methods
            ]
        except ConfigurationError:
            raise
        except Exception as exc:  # any other failure is reported with its cell
            outcomes.append(([], f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append((rows, None))
    return outcomes


def _run_cells(args) -> list[tuple[list[RunResult], str | None]]:
    """The batch stage and then the rows of the given (sweep value, scenario
    seed) cells, as `_cell_rows` returns them."""
    config, keys = args
    return _cell_rows(config, _solve_cells(config, keys))


# ---------------------------------------------------------------------------
# Full experiments
# ---------------------------------------------------------------------------

def run_experiment(config_path, worker_count: int = 1) -> str:
    """Run every sweep cell and write the results CSV.

    Returns the path of the results file.  The job unit is one (sweep
    value, scenario seed) cell.  A worker count that is not an integer of
    at least 1 raises ConfigurationError, and so do an output path or a
    timing sidecar path that names an existing directory and a
    `traces_dir` that names an existing file, all before any cell; each
    worker solves the WMMSE runs of its share of the cells in batches.
    Results are merged in sweep order so the output does not depend on
    parallelism, and the timing sidecar lists the rows cell by cell, in
    the order of the `run_point` calls of each cell.  The rows of every
    cell that completed are written even when others fail; a SweepError
    naming each failed cell is raised afterwards.
    """
    if not isinstance(worker_count, numbers.Integral) or worker_count < 1:
        raise ConfigurationError(f"worker count must be an integer >= 1, got {worker_count!r}")
    config = load_config(config_path)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    out_path = os.path.join(base_dir, config.output)
    if os.path.isdir(out_path):
        raise ConfigurationError(f"output {config.output!r} is a directory")
    timing = os.path.splitext(config.output)[0] + "_timing.csv"
    timing_path = os.path.join(base_dir, timing)
    if os.path.isdir(timing_path):
        raise ConfigurationError(f"timing sidecar {timing!r} is a directory")
    traces_dir = config.traces_dir and os.path.join(base_dir, config.traces_dir)
    if traces_dir and os.path.exists(traces_dir) and not os.path.isdir(traces_dir):
        raise ConfigurationError(f"traces_dir {config.traces_dir!r} is not a directory")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)

    cells = [(value, seed) for value in config.values for seed in config.seeds]
    if worker_count > 1:
        # Imported here: a single-worker run does not load the pool.
        from concurrent.futures import ProcessPoolExecutor

        # Each worker batches its own share of the cells.
        shares = min(worker_count, len(cells))
        with ProcessPoolExecutor(max_workers=shares) as pool:
            done = list(pool.map(_run_cells, [(config, cells[w::shares]) for w in range(shares)]))
        outcomes = [None] * len(cells)
        for w, share in enumerate(done):
            outcomes[w::shares] = share
    else:
        outcomes = _run_cells((config, cells))

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

    runs = [  # (value, method, seed, result) in the order of the run_point calls
        (value, method, seed, result)
        for (value, seed), (results, _) in zip(cells, outcomes)
        for method, result in zip(config.methods, results)
    ]
    with open(timing_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep_value", "method", "scenario_seed", "seconds", *_PHASE_COLUMNS])
        for value, method, seed, result in runs:
            seconds = (result.seconds, *result.phases)
            writer.writerow([value, method, seed, *(f"{s:.6f}" for s in seconds)])

    if traces_dir:
        os.makedirs(traces_dir, exist_ok=True)
        for value, method, seed, result in runs:
            if not result.trace.n_iterations:
                continue
            name = f"trace_v{config.values.index(value)}_{method}_s{seed}.csv"
            with open(os.path.join(traces_dir, name), "w", newline="", encoding="ascii") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["iter", "objective", "sum_rate_bps_hz", "max_power_violation", "extrapolated"]
                )
                writer.writerows(
                    (i, *map(_float_repr, values), kept)
                    for i, *values, kept in result.trace.rows()
                )

    failed = [
        f"value {value!r}, seed {seed}: {error}"
        for (value, seed), (_, error) in zip(cells, outcomes)
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

def _read_results(results_path, **columns) -> list[dict]:
    """The rows of a results CSV, numbered from 1, each with the named
    columns read by their casts (`str` keeps the text as written).

    A missing column, a row without one value per column or a number that
    does not parse is a configuration error naming the row and the column;
    so is a byte that is not ASCII, naming the file.
    """
    with open(results_path, "r", encoding="ascii") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"{results_path}: byte {exc.object[exc.start]:#04x} is not ASCII"
            ) from None
    reader = csv.DictReader(lines)
    missing = sorted(set(columns) - set(reader.fieldnames or ()))
    if missing:
        raise ConfigurationError(f"{results_path}: missing columns {missing}")
    rows = []
    for i, row in enumerate(reader, 1):
        if None in row or None in row.values():  # extra or absent values
            raise ConfigurationError(
                f"{results_path}: row {i} does not have one value per column"
            )
        read = {}
        for name, cast in columns.items():
            try:
                read[name] = cast(row[name])
            except ValueError:
                raise ConfigurationError(
                    f"{results_path}: row {i}, column {name}: {row[name]!r} is not a number"
                ) from None
        rows.append(read)
    return rows


def emit_plotdata(results_path, figure: str, out_path=None) -> str:
    """Aggregate a results CSV to mean and standard error per sweep point.

    Emits one row per (sweep value, method) with digital and hybrid columns
    and the number of its runs that did not converge (`converged = 0`); for
    the rfchains figure the sweep value is labeled as an offset from the
    total stream count D.
    """
    if figure not in _AXES:
        raise ConfigurationError(f"figure must be one of {sorted(_AXES)}")
    rows = _read_results(
        results_path,
        axis=str, sweep_value=float, method=str,
        sum_rate_digital=float, sum_rate_hybrid=float, converged=str,
    )
    if rows and rows[0]["axis"] != figure:
        raise ConfigurationError(
            f"results were swept over {rows[0]['axis']!r}, not {figure!r}"
        )

    # (sweep value, method) -> (digital rate, hybrid rate, unconverged) per run
    groups: dict[tuple[float, str], list[tuple[float, float, bool]]] = {}
    for row in rows:
        groups.setdefault((row["sweep_value"], row["method"]), []).append(
            (row["sum_rate_digital"], row["sum_rate_hybrid"], row["converged"] == "0")
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
                "n_unconverged",
                "digital_mean",
                "digital_stderr",
                "hybrid_mean",
                "hybrid_stderr",
            ]
        )
        # Sweep values ascending; a stable sort keeps each value's methods in file order.
        for (value, method), samples in sorted(groups.items(), key=lambda g: g[0][0]):
            d_mean, d_err = stats([s[0] for s in samples])
            h_mean, h_err = stats([s[1] for s in samples])
            if figure == "rfchains":
                offset = int(value)
                label = "D" if offset == 0 else f"D{offset:+d}"
            else:
                label = repr(value)
            writer.writerow(
                [
                    repr(value),
                    label,
                    method,
                    len(samples),
                    sum(s[2] for s in samples),
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
    deviations are failures, and so is a constraint value that is not
    finite, one failure per column.  A non-positive synthesized pattern
    gain is reported as a warning only, since the solvers bound the
    constant component but do not enforce pointwise positivity; so is a
    WMMSE run that stopped at the iteration cap without converging.  A row whose
    rates or constraint columns do not parse is a configuration error.
    """
    failures = []
    warnings = []
    rows = _read_results(
        results_path,
        method=str, sweep_value=str, scenario_seed=str, converged=str, outer_iterations=str,
        sum_rate_digital=float, sum_rate_hybrid=float,
        **dict.fromkeys(_CONSTRAINT_COLUMNS, float),
    )
    for i, row in enumerate(rows, 1):
        where = f"row {i} ({row['method']}, value {row['sweep_value']}, seed {row['scenario_seed']})"
        for name in _CONSTRAINT_COLUMNS:
            if not math.isfinite(row[name]):
                failures.append(f"{where}: {name} is {row[name]!r}, not a finite number")
        if row["max_power_violation"] > power_tol:
            failures.append(f"{where}: per-antenna power violated")
        if row["modulus_deviation"] > 1e-9:
            failures.append(f"{where}: analog stage modulus deviates")
        if row["antenna_deviation"] > 1e-8:
            failures.append(f"{where}: pattern constraint deviates")
        if row["min_pattern_gain"] <= 0.0:
            warnings.append(f"{where}: synthesized pattern dips non-positive")
        if row["method"] in _WMMSE_METHODS and row["converged"] == "0":
            warnings.append(
                f"{where}: stopped at the cap of {row['outer_iterations']} "
                "outer iterations without converging"
            )
    return failures, warnings

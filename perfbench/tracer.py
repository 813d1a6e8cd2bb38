"""Layer spans recorded from outside the program.

The tracer replaces public functions of the `trihybrid` modules with timing
wrappers for the length of a `with` block, and puts the originals back when
the block ends, also when it raises.  A function is replaced under every
name that any loaded `trihybrid` module binds it to, so calls through
`from .x import f` bindings are timed too.

Each span records its duration and the part of it that the spans it caused
cover, so a layer's self time is its time minus its traced children.  A
function the program no longer has, or one whose return value no longer has
the fields read here, does not fail the run: the metrics that need it are
left out.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# layer -> (module, public function) pairs whose calls make up the layer.
LAYERS = {
    "channel.scenario": (("channel", "generate_scenario"),),
    "channel.lift": (
        ("channel", "selection_effective_channel"),
        ("channel", "synthesis_effective_channel"),
        ("channel", "assemble_channel"),
    ),
    "channel.compose": (("channel", "compose"),),
    "patterns.beam_grid": (("patterns", "gaussian_beam_grid"),),
    "wmmse.receivers": (("wmmse", "mmse_receivers"),),
    "wmmse.weights": (("wmmse", "mse_weights"),),
    "wmmse.objective": (("wmmse", "wmmse_objective"), ("wmmse", "mse_matrix")),
    "wmmse.rate": (("wmmse", "weighted_sum_rate"),),
    "wmmse.antenna_step": (
        ("wmmse", "select_pattern_and_row"),
        ("wmmse", "synthesize_pattern_and_row"),
    ),
    "wmmse.solve": (("wmmse", "run_selection"), ("wmmse", "run_synthesis")),
    "sphere_opt": (("sphere_opt", "minimize_on_sphere"),),
    "decomp": (("decomp", "decompose_precoder"),),
    "baselines.fixed_wmmse": (("baselines", "fixed_pattern_wmmse"),),
    "baselines.zf": (("baselines", "bd_zero_forcing"),),
    "metrics.audit": (("metrics", "audit_constraints"),),
    "experiments.cell": (("experiments", "run_point"),),
    "experiments.run": (("experiments", "run_experiment"),),
}

ITER_SIZES = (16, 36, 64, 100)

# What a reshaped return value or argument list raises when an observer
# reads it.
_RESHAPED = (AttributeError, TypeError, ValueError, IndexError)


@dataclass
class Span:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


@dataclass
class Tracer:
    spans: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)  # "module.function" not found
    broken: set = field(default_factory=set)  # layers whose observer failed
    # Read from the arguments and return values of the traced calls.
    solves: list = field(default_factory=list)  # (N, iterations, converged, iter_seconds)
    sphere: list = field(default_factory=list)  # (iterations, converged)
    decomps: list = field(default_factory=list)  # (alternations, residual)
    fixed_cells: list = field(default_factory=list)  # (sweep value, scenario seed)
    cell: tuple | None = None
    _open: list = field(default_factory=list)  # child seconds of each open span

    def wrap(self, layer: str, fn):
        span = self.spans.setdefault(layer, Span())
        open_spans = self._open
        enter, leave = self._observers().get(layer, (None, None))

        def traced(*args, **kwargs):
            if enter is not None:
                self._observe(layer, enter, args)
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                span.calls += 1
                span.seconds += elapsed
                span.self_seconds += elapsed - children
            if leave is not None:
                self._observe(layer, leave, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, layer, observer, value) -> None:
        if layer in self.broken:
            return
        try:
            observer(value)
        except _RESHAPED:
            self.broken.add(layer)

    def _observers(self):
        return {
            # run_point(config, value, method, seed)
            "experiments.cell": (lambda args: setattr(self, "cell", (args[1], args[3])), None),
            "baselines.fixed_wmmse": (lambda args: self.fixed_cells.append(self.cell), None),
            "wmmse.solve": (None, self._leave_solve),
            "sphere_opt": (None, lambda r: self.sphere.append((int(r.iterations), bool(r.converged)))),
            "decomp": (None, lambda r: self.decomps.append((len(r.history) - 1, float(r.residual)))),
        }

    def _leave_solve(self, result) -> None:
        state, trace = result
        self.solves.append(
            (
                int(state.f_d.shape[0]),
                int(trace.n_iterations),
                bool(trace.converged),
                list(trace.iter_seconds),
            )
        )


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "trihybrid" or name.startswith("trihybrid."))
    ]


@contextmanager
def traced(tracer: Tracer, layers=LAYERS):
    """Wrap the layer functions of `trihybrid` for the length of the block."""
    modules = _package_modules()
    patches = []
    try:
        for layer, targets in layers.items():
            for module_name, attr in targets:
                original = getattr(sys.modules.get(f"trihybrid.{module_name}"), attr, None)
                if not callable(original):
                    tracer.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = tracer.wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            patches.append((module, name, original))
        yield tracer
    finally:
        for module, name, original in reversed(patches):
            setattr(module, name, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit).

    A layer none of whose functions exist is left out, and so is a count
    read from a call whose arguments or return value changed shape.
    """
    out = {}
    spans = tracer.spans

    def observed(layer):
        return layer in spans and layer not in tracer.broken

    for layer in ("channel.scenario", "channel.lift", "channel.compose", "patterns.beam_grid",
                  "wmmse.antenna_step", "baselines.fixed_wmmse", "metrics.audit",
                  "sphere_opt", "decomp"):
        if layer in spans:
            out[f"{layer}.calls"] = (spans[layer].calls, "count")
    for layer in ("channel.scenario", "channel.lift", "channel.compose", "patterns.beam_grid",
                  "wmmse.receivers", "wmmse.weights", "wmmse.objective", "wmmse.rate",
                  "baselines.fixed_wmmse", "baselines.zf", "metrics.audit", "sphere_opt",
                  "decomp"):
        if layer in spans:
            out[f"{layer}.s"] = (spans[layer].seconds, "s")
    # The antenna step without its sphere child: the row/selection work.
    if "wmmse.antenna_step" in spans:
        out["wmmse.antenna_step.s"] = (spans["wmmse.antenna_step"].self_seconds, "s")

    if "wmmse.solve" in spans:
        # Self time of the solvers: the per-antenna terms/apply sweep.
        out["wmmse.sweep_self_s"] = (spans["wmmse.solve"].self_seconds, "s")
    if observed("wmmse.solve"):
        n = len(tracer.solves)
        out["wmmse.solves"] = (n, "count")
        out["wmmse.outer_iterations"] = (sum(s[1] for s in tracer.solves), "count")
        out["wmmse.capped_frac"] = (sum(not s[2] for s in tracer.solves) / max(n, 1), "ratio")
        # Median iteration time after the first iteration, per antenna
        # count; 0 where the workload has no solve of that size.
        medians = {}
        for size in ITER_SIZES:
            samples = [t for s in tracer.solves if s[0] == size for t in s[3][1:]]
            medians[size] = statistics.median(samples) if samples else 0.0
            out[f"wmmse.iter_ms.n{size}"] = (1e3 * medians[size], "ms")
        measured = [size for size in ITER_SIZES if medians[size] > 0.0]
        exponent = 0.0
        if len(measured) >= 2:
            slope = np.polyfit(np.log(measured), np.log([medians[s] for s in measured]), 1)[0]
            exponent = float(slope)
        out["wmmse.iter_exponent"] = (exponent, "1")

    if observed("sphere_opt"):
        calls = len(tracer.sphere)
        out["sphere_opt.iterations"] = (sum(r[0] for r in tracer.sphere), "count")
        out["sphere_opt.capped_frac"] = (sum(not r[1] for r in tracer.sphere) / max(calls, 1), "ratio")
    if observed("decomp"):
        out["decomp.alternations"] = (sum(d[0] for d in tracer.decomps), "count")
        out["decomp.residual_max"] = (max((d[1] for d in tracer.decomps), default=0.0), "ratio")
    if observed("baselines.fixed_wmmse") and observed("experiments.cell"):
        calls = len(tracer.fixed_cells)
        out["baselines.fixed_wmmse.unique_frac"] = (len(set(tracer.fixed_cells)) / max(calls, 1), "ratio")

    if "experiments.run" in spans:
        out["experiments.run.s"] = (spans["experiments.run"].seconds, "s")
    if "experiments.cell" in spans:
        out["experiments.cell_self_s"] = (spans["experiments.cell"].self_seconds, "s")
        if "experiments.run" in spans:
            run_seconds = spans["experiments.run"].seconds
            out["experiments.write_s"] = (run_seconds - spans["experiments.cell"].seconds, "s")
    return out

"""Machine-speed samples taken between sweep cells.

On a shared host the same cell can take 1.5 times longer from one second to
the next, and the mix of fast and slow stretches changes from minute to
minute, so raw wall times of identical runs differ by a fifth.  To keep the
end-to-end times comparable across runs, a fixed reference kernel (small
complex matrix products and solves, the operation mix of the solvers) is
timed before every cell and once after the run, and cell times are scaled
by the reference time around them.  A scaled second is the time the cell
would take on a machine that runs the reference kernel in
`REFERENCE_NOMINAL_S`.

The reference work runs outside the cells' own timers, and the benchmark
subtracts it from the run's wall time before scaling.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

REFERENCE_LOOPS = 200
REFERENCE_NOMINAL_S = 0.002


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._h = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        self._f = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        self._eye = np.eye(4)
        self.samples: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        for _ in range(REFERENCE_LOOPS):
            s = self._h @ self._f
            np.linalg.solve(self._eye + s @ s.conj().T, s)
        self.samples.append(perf_counter() - start)

    @contextmanager
    def before_each_cell(self, experiments):
        """Sample before every `run_point` call for the length of the block.

        Without a `run_point` to hook, only the samples the caller takes
        around the run are available.
        """
        run_point = getattr(experiments, "run_point", None)
        if callable(run_point):

            def sampled(*args, **kwargs):
                self.sample()
                return run_point(*args, **kwargs)

            experiments.run_point = sampled
        try:
            yield
        finally:
            if callable(run_point):
                experiments.run_point = run_point

    def scale(self, cell_seconds: list[float]) -> list[float]:
        """Cell times scaled by the samples just before and after each cell,
        or by the mean sample when the samples do not bracket the cells."""
        s = self.samples
        if len(s) == len(cell_seconds) + 1:
            local = [(s[i] + s[i + 1]) / 2.0 for i in range(len(cell_seconds))]
        else:
            local = [statistics.fmean(s)] * len(cell_seconds)
        return [t * REFERENCE_NOMINAL_S / r for t, r in zip(cell_seconds, local)]

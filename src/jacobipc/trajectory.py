"""Solution trajectories, their uniform grids and instrumentation counters.

A trajectory holds x and f on a ``UniformGrid``; ``step_count`` gives the
number of steps of size h over a span and refuses a step that does not
divide it evenly or gives no finite count.  The stencil rule that
interpolates the f history on such a grid runs inside the kernels
(``_kernels_py.stencil_plan`` and the C march's scalar loop).
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# solutions beyond this magnitude are treated as numerically divergent
GUARD = 1e100

STATUS_OK = "ok"
STATUS_DIVERGED = "diverged"

REL_GRID_TOL = 1e-9


class DivergenceError(RuntimeError):
    """A run passed the divergence guard: a starter run the requested solve
    needs, a run of a step-count search, or a CLI run (exit code 2)."""


@dataclass(frozen=True)
class UniformGrid:
    origin: float
    h: float
    count: int

    def __post_init__(self):
        if self.h <= 0 or self.count < 1:
            raise ValueError("grid needs h > 0 and count >= 1")

    def t(self, i):
        return self.origin + i * self.h

    @property
    def times(self):
        return self.origin + self.h * np.arange(self.count)


def step_count(length, h):
    """Number of steps of size h covering ``length``; rejects uneven fits
    and, with OverflowError, a count that is no finite number."""
    count = length / h if h > 0 else math.inf
    if not math.isfinite(count):
        raise OverflowError(f"step {h} gives no finite step count over {length}")
    n = round(count)
    if n < 1 or abs(n * h - length) > REL_GRID_TOL * max(1.0, abs(length)):
        raise ValueError(f"step {h} does not evenly divide {length}")
    return n


@dataclass
class Counters:
    rhs_evals: int = 0
    interp_evals: int = 0
    value_reads: int = 0
    history_reads: int = 0


@dataclass
class Trajectory:
    grid: UniformGrid
    x: np.ndarray
    f_cache: np.ndarray
    status: str = STATUS_OK
    counters: Counters = field(default_factory=Counters)
    head: Optional["Trajectory"] = None

    def finalize(self):
        self.x.flags.writeable = False
        self.f_cache.flags.writeable = False
        return self

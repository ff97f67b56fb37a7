"""Solution trajectories and instrumentation counters."""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from jacobipc.interp import UniformGrid

# solutions beyond this magnitude are treated as numerically divergent
GUARD = 1e100

STATUS_OK = "ok"
STATUS_DIVERGED = "diverged"


class DivergenceError(RuntimeError):
    """A run passed the divergence guard: a starter run the requested solve
    needs, a run of a step-count search, or a CLI run (exit code 2)."""


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

"""Fractional Adams-Bashforth-Moulton (PECE) scheme and starting values.

This is the O(N^2) baseline method of order min(1 + alpha, 2) and, run at a
refined substep, the generic source of the first stencil_size grid values
when no exact solution is available.  Every such fine run goes through
``fine_run``, which refuses more than MAX_STARTER_STEPS substeps before any
work: the refined starter's (stencil_size - 1) * 10^k substeps (the automatic
k is clamped to the cap, a larger explicit k is refused) and the split head
on [0, t0] alike, so their cost is bounded.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from jacobipc._backend import kernels
from jacobipc.interp import UniformGrid
from jacobipc.problems import taylor_head
from jacobipc.trajectory import (GUARD, STATUS_DIVERGED, STATUS_OK, Counters,
                                 DivergenceError, Trajectory)

EXACT = "exact"
REFINED_ADAMS = "refined_adams"

# a fine Adams run (refined starter or split head) costs O(steps^2): it may
# take at most this many substeps; past it, use the exact start
MAX_STARTER_STEPS = 2000


@dataclass(frozen=True)
class StarterConfig:
    mode: str = EXACT
    k: Optional[int] = None

    def __post_init__(self):
        if self.mode not in (EXACT, REFINED_ADAMS):
            raise ValueError(f"unknown starter mode {self.mode!r}")
        if self.k is not None and self.k < 0:
            raise ValueError("refinement exponent must be >= 0")


def adams_solve(problem, h, n_steps):
    """Integrate the problem with the fractional Adams PECE scheme.

    Returns a trajectory over the uniform grid {0, h, ..., n_steps*h}; on
    divergence the trajectory is truncated at the last finite value and
    flagged.  Cost is O(n_steps^2).
    """
    if h <= 0 or n_steps < 1:
        raise ValueError("need h > 0 and n_steps >= 1")
    alpha = problem.alpha
    rhs = problem.rhs
    x = np.zeros(n_steps + 1)
    fc = np.zeros(n_steps + 1)
    x[0] = problem.init[0]
    fc[0] = rhs(0.0, x[0])
    rhs_evals, history_reads = 1, 0
    c_pred = h**alpha / math.gamma(alpha + 1.0)
    c_corr = h**alpha / math.gamma(alpha + 2.0)
    status = STATUS_OK
    count = n_steps + 1
    for n in range(n_steps):
        pred, corr = kernels.adams_step_sums(fc, n, alpha)
        history_reads += 2 * (n + 1)
        t1 = (n + 1) * h
        head = taylor_head(problem, t1)
        x_pred = head + c_pred * pred
        if not abs(x_pred) <= GUARD:
            status, count = STATUS_DIVERGED, n + 1
            break
        f_pred = rhs(t1, x_pred)
        rhs_evals += 1
        x_new = head + c_corr * (corr + f_pred)
        if not abs(x_new) <= GUARD:
            status, count = STATUS_DIVERGED, n + 1
            break
        x[n + 1] = x_new
        fc[n + 1] = rhs(t1, x_new)
        rhs_evals += 1
    counters = Counters(rhs_evals=rhs_evals, history_reads=history_reads)
    grid = UniformGrid(0.0, h, count)
    return Trajectory(grid, x[:count], fc[:count], status, counters).finalize()


def _max_refinement(stencil_size):
    """Largest k with (stencil_size - 1) * 10^k <= MAX_STARTER_STEPS; 0 if none."""
    k = 0
    while (stencil_size - 1) * 10 ** (k + 1) <= MAX_STARTER_STEPS:
        k += 1
    return k


def recommended_refinement(alpha, h, stencil_size):
    """Smallest k with (h*10^-k)^(1+min(alpha,1)) <= h^(stencil_size+0.5).

    Conservative rule making the starter error negligible against the target
    order; capped so the fine run takes at most MAX_STARTER_STEPS substeps
    (it costs O((10^k)^2)).
    """
    if h >= 1.0:
        raise ValueError("refinement rule assumes h < 1")
    p = 1.0 + min(alpha, 1.0)
    k = math.ceil((stencil_size + 0.5 - p) * math.log10(1.0 / h) / p - 1e-12)
    return min(max(k, 0), _max_refinement(stencil_size))


def fine_run(problem, h, n_steps, what="fine Adams run"):
    """``adams_solve`` for start values, refused past MAX_STARTER_STEPS substeps.

    ``what`` names the run in the refusal.  A run that diverges raises
    DivergenceError.
    """
    if n_steps > MAX_STARTER_STEPS:
        raise ValueError(f"{what} takes {n_steps} substeps, above the "
                         f"{MAX_STARTER_STEPS}-substep cap")
    fine = adams_solve(problem, h, n_steps)
    if fine.status != STATUS_OK:
        raise DivergenceError("fine Adams run diverged before reaching the start values")
    return fine


def exact_start(problem, origin, h, stencil_size):
    """The exact solution sampled at origin, origin + h, ..., stencil_size values."""
    if problem.exact is None:
        raise ValueError("exact starter requested but no exact solution is known")
    return np.array([problem.exact(origin + i * h) for i in range(stencil_size)])


def start_values(problem, h, stencil_size, cfg):
    """First ``stencil_size`` grid values x_0 .. x_{stencil_size-1}.

    exact mode samples the problem's exact solution; the
    refined mode runs the Adams scheme at substep h*10^-k and subsamples
    every 10^k-th value.  An explicit k whose fine run would take more than
    MAX_STARTER_STEPS substeps is refused with ValueError before any work.
    """
    if stencil_size < 2:
        raise ValueError("stencil size must be at least 2")
    if cfg.mode == EXACT:
        return exact_start(problem, 0.0, h, stencil_size)
    k = cfg.k if cfg.k is not None else recommended_refinement(problem.alpha, h, stencil_size)
    if k > _max_refinement(stencil_size):
        raise ValueError(
            f"refined starter k = {k} is above {_max_refinement(stencil_size)}, the "
            f"largest whose fine Adams run at stencil size {stencil_size} stays "
            f"within {MAX_STARTER_STEPS} substeps")
    stride = 10**k
    return fine_run(problem, h / stride, (stencil_size - 1) * stride).x[::stride].copy()

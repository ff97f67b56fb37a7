"""Predictor-corrector stepping driven by mapped Gauss-Lobatto quadrature.

Each step writes the solution as the Taylor head plus a weighted-kernel
integral over the full history, transforms that integral onto [-1, 1], and
evaluates the integrand at the quadrature nodes by local polynomial
interpolation of cached f values.  Cost per step is O(stencil_size * jn),
so a whole run is O(N) for fixed configuration.

Predictor and corrector apply the same rule to the same history and differ
only at nodes whose stencil reaches t_{n+1}, so the corrector resumes the
predictor's running total before those (``_kernels_py`` says why this is
exact).  The counters count rhs calls, and every interpolation and value
read that each quadrature sum uses, shared or not, so their closed forms
are unchanged.

``solve``, the one entry point, runs four phases: rules, start values
(``start_values``, at 0 or at a split's t0), the base term and ``_march``.
The base term is the Taylor head, plus the head term (``split.head_integral``)
in split runs, as one array over the grid; the head term reads its node
values from the pure values pass (``_kernels_py.plan_values``) on both
backends.  ``_march`` allocates the trajectory, evaluates f at the start
values and hands the steps to ``kernels.march``, the one marching loop, in
C or in its pure twin (``_kernels_py`` describes both); both give the same
bits.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from jacobipc._backend import kernels
from jacobipc._kernels_py import as_double
from jacobipc.adams import StarterConfig, start_values
from jacobipc.interp import UniformGrid, step_count, uniform_bary_weights
from jacobipc.problems import taylor_head
from jacobipc.quadrature import MAX_POINTS, JacobiWeight, gauss_lobatto_rule
from jacobipc.split import head_integral
from jacobipc.trajectory import STATUS_DIVERGED, STATUS_OK, Counters, Trajectory


def check_rule_index(name, jn):
    """Refuse a rule index whose jn + 1 point Lobatto rule cannot be built."""
    if not 2 <= jn <= MAX_POINTS - 1:
        raise ValueError(f"rule index {name} must be from 2 to {MAX_POINTS - 1}, got {jn}")


@dataclass(frozen=True)
class SplitConfig:
    """Two-segment run: auxiliary rule on [0, t0], main stepping on [t0, T].

    aux_jn is the index of the weight-free rule used for the head integral
    (defaults to twice the main rule index); fine_factor refines the head
    trajectory's substep relative to the main h.
    """

    t0: float
    aux_jn: Optional[int] = None
    fine_factor: int = 10

    def __post_init__(self):
        if not 0.0 < self.t0 < math.inf:
            raise ValueError(f"split point t0 must be finite and positive, got {self.t0}")
        if self.aux_jn is not None:
            check_rule_index("aux_jn", self.aux_jn)
        if self.fine_factor < 1:
            raise ValueError("fine_factor must be >= 1")


@dataclass(frozen=True)
class SolverConfig:
    h: float
    stencil_size: int = 3
    jn: int = 26
    starter: StarterConfig = field(default_factory=StarterConfig)
    split: Optional[SplitConfig] = None

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"step h must be finite and positive, got {self.h}")
        if self.stencil_size < 2:
            raise ValueError(f"stencil size must be at least 2, got {self.stencil_size}")
        uniform_bary_weights(self.stencil_size)  # refuses sizes whose weights overflow
        check_rule_index("jn", self.jn)


def _main_span(T, split):
    """Length of the main grid: T, or T - t0 after a split point t0 before T."""
    if split is None:
        return T
    if not split.t0 < T:
        raise ValueError(f"split point t0 = {split.t0} must lie inside (0, T), "
                         f"before the horizon T = {T}")
    return T - split.t0


def main_step_count(T, h, split=None):
    """Steps of size h on the main grid, over [0, T] or, after a split point
    t0, over [t0, T]; an uneven fit is refused naming h, T and t0."""
    span = _main_span(T, split)
    try:
        return step_count(span, h)
    except ValueError:
        over = (f"the horizon T = {T}" if split is None else
                f"the span T - t0 = {T} - {split.t0} = {span} after the split point")
        raise ValueError(f"step h = {h} does not evenly divide {over}") from None


def quadrature_for(alpha, jn):
    """The jn+1 point Lobatto rule matching the kernel weight for alpha."""
    if alpha - 1.0 <= -1.0:
        raise ValueError(f"alpha = {alpha!r} is too small: the kernel weight's exponent "
                         f"alpha - 1 rounds to {alpha - 1.0!r}, and must exceed -1")
    return gauss_lobatto_rule(JacobiWeight(alpha - 1.0, 0.0), jn + 1)


def _march(problem, grid, rule, x_start, base, head=None):
    """Trajectory on ``grid`` from its start values.

    x_start holds the first stencil_size values; every later index n + 1 is
    one predict/correct pass of ``kernels.march``.  base[n + 1] holds
    everything outside the quadrature integral there (the Taylor head, plus
    the head-segment term in split runs; entries before stencil_size are not
    read), and the integral runs over [grid.origin, t].  On divergence the
    trajectory is truncated at the last finite value and flagged rather than
    raising.
    """
    size, n_steps = len(x_start), grid.count - 1
    origin, h, alpha, rhs = grid.origin, grid.h, problem.alpha, problem.rhs
    x, fc = np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    x[:size] = x_start
    for i in range(size):
        fc[i] = as_double(rhs(origin + i * h, x[i]))
    count, rhs_evals, interp_evals, value_reads = kernels.march(
        rhs, x, fc, base, origin, h, alpha, 1.0 / math.gamma(alpha), rule.nodes,
        rule.weights, uniform_bary_weights(size))
    status = STATUS_OK if count == n_steps + 1 else STATUS_DIVERGED
    counters = Counters(size + rhs_evals, interp_evals, value_reads)
    return Trajectory(UniformGrid(origin, h, count), x[:count], fc[:count], status, counters,
                      head=head).finalize()


def solve(problem, config):
    """Full trajectory on [0, T], or on [t0, T] after config.split's head.

    Four phases: the rules, the start values (``start_values``, which also
    runs a split's head), the base term over the whole grid, and the march.
    """
    split, h, size = config.split, config.h, config.stencil_size
    origin = 0.0 if split is None else split.t0
    span = _main_span(problem.T, split)
    n_steps = main_step_count(problem.T, h, split)
    try:  # the run's four float64 arrays (times, base, x, f), not yet written to
        np.empty((4, n_steps + 1))
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise ValueError(f"step {h!r} over the span {span!r} gives "
                         f"{n_steps:.3g} steps, more than a float64 array can hold") from None
    if n_steps < size:
        raise ValueError(f"grid too coarse: stencil size {size} needs at least {size} steps, "
                         f"but the grid has {n_steps}")
    try:
        (0.5 * n_steps * h) ** problem.alpha  # the last step's kernel scale
    except OverflowError:
        raise ValueError(f"horizon T = {problem.T} is too large at alpha = {problem.alpha}: "
                         f"the march's kernel scale (span/2)^alpha overflows a float over "
                         f"the span {span}") from None
    if split is not None:
        aux_jn = split.aux_jn if split.aux_jn is not None else 2 * config.jn
        check_rule_index("aux_jn = 2*jn", aux_jn)  # SplitConfig checked a given aux_jn
        aux_rule = gauss_lobatto_rule(JacobiWeight(0.0, 0.0), aux_jn + 1)
    rule = quadrature_for(problem.alpha, config.jn)
    head, x_start = start_values(problem, h, size, config.starter, split)
    grid = UniformGrid(origin, h, n_steps + 1)
    base = taylor_head(problem, grid.times)
    if split is not None:
        base[size:] += head_integral(problem, head, aux_rule, size, grid.times[size:])
    return _march(problem, grid, rule, x_start, base, head)

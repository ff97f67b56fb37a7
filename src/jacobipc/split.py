"""Two-segment runs: quadrature head on [0, t0], stepping tail on [t0, T].

Splitting moves the non-smooth neighbourhood of the origin (or, for very
small alpha, the steep initial transient) out of the stepped segment.  The
head contribution to each later value is a plain integral with a smooth
kernel, evaluated with a weight-free Lobatto rule over f values read off a
refined trajectory by the marcher's own stencil kernel; the tail is the
standard predictor-corrector march with its prefactor measured from t0.
"""

import math

import numpy as np

from jacobipc._backend import kernels
from jacobipc.adams import EXACT, adams_solve
from jacobipc.interp import UniformGrid, map_node, uniform_bary_weights
from jacobipc.problems import taylor_head
from jacobipc.quadrature import JacobiWeight, gauss_lobatto_rule
from jacobipc.solver import _march, step_count
from jacobipc.trajectory import STATUS_OK, DivergenceError, Trajectory


def head_integral(problem, head, aux_rule, stencil_size=3):
    """Contribution of the head segment [origin, t0] to later solution values.

    Returns the function t -> (1/Gamma(alpha)) * sum_j w_j (t - tau_j)^(alpha-1)
    f(tau_j, x(tau_j)), defined for t > t0, with the aux rule mapped onto the
    head interval.  The f values at the nodes tau_j are interpolated once from
    the head trajectory with the corrector-phase stencil of the main march;
    those interpolations are not counted.
    """
    grid = head.grid
    n = grid.count - 2
    if stencil_size < 2:
        raise ValueError("stencil size must be at least 2")
    if n + 1 < stencil_size:
        raise ValueError("head segment too short for the stencil size")
    t0 = grid.t(n + 1)
    taus = np.array([map_node(s, grid.origin, t0) for s in aux_rule.nodes])
    bary = uniform_bary_weights(stencil_size)
    one = np.ones(1)
    kc = np.zeros(2, dtype=np.int64)
    ftau = np.array([
        kernels.weighted_interp_sum(head.f_cache, n, aux_rule.nodes[j : j + 1], one, 1,
                                    stencil_size, bary, 1, kc)
        for j in range(aux_rule.n_points)
    ])
    wt = aux_rule.weights * (0.5 * (t0 - grid.origin))
    am1 = problem.alpha - 1.0
    c = 1.0 / math.gamma(problem.alpha)

    def term(t):
        if t <= t0:
            raise ValueError("evaluation time must lie beyond the head segment")
        return c * float(np.dot(wt * (t - taus) ** am1, ftau))

    return term


def solve_split(problem, config):
    """Trajectory on the main grid [t0, T]; the fine head rides along as aux.

    The head trajectory is a refined baseline run with substep
    h/fine_factor, which must land exactly on t0.  The main starter either
    samples the exact solution at t0, t0+h, ... or extends the same refined
    run past t0 and subsamples it.  The main grid is marched by
    ``solver._march`` with ``head_integral``'s term added to the Taylor head.
    """
    split = config.split
    if split is None:
        raise ValueError("config carries no split section")
    t0, h = split.t0, config.h
    if t0 >= problem.T:
        raise ValueError("split point must lie inside [0, T]")
    size = config.stencil_size
    n_steps = step_count(problem.T - t0, h)
    if n_steps < size:
        raise ValueError("main grid too coarse: need at least stencil_size steps")
    h_fine = h / split.fine_factor
    n_fine = step_count(t0, h_fine)

    exact_start = config.starter.mode == EXACT
    n_run = n_fine if exact_start else n_fine + (size - 1) * split.fine_factor
    fine = adams_solve(problem, h_fine, n_run)
    if fine.status != STATUS_OK:
        raise DivergenceError("head trajectory diverged before reaching t0")
    if exact_start:
        head = fine
        if problem.exact is None:
            raise ValueError("exact starter requested but no exact solution is known")
        x_start = np.array([problem.exact(t0 + i * h) for i in range(size)])
    else:
        g = fine.grid
        head = Trajectory(
            UniformGrid(g.origin, g.h, n_fine + 1),
            fine.x[: n_fine + 1],
            fine.f_cache[: n_fine + 1],
            fine.status,
            fine.counters,
        )
        x_start = fine.x[n_fine :: split.fine_factor][:size].copy()

    aux_jn = split.aux_jn if split.aux_jn is not None else 2 * config.jn
    aux_rule = gauss_lobatto_rule(JacobiWeight(0.0, 0.0), aux_jn + 1)
    head_term = head_integral(problem, head, aux_rule, size)

    def base_at(t):
        return taylor_head(problem, t) + head_term(t)

    return _march(problem, config, t0, n_steps, x_start, base_at, head=head)

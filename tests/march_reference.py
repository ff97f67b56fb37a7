"""The marching loop one predict/correct pass at a time, for tests only.

``march`` is the loop ``solver._march`` ran before the loop moved behind
``kernels.march``: one call of the scalar kernel ``weighted_interp_sum`` per
phase and step, with the counters kept beside it.  Tests run ``solve`` with
``solver._march`` replaced by this function and require both kernel
backends to give the same trajectory, status and counters bit for bit.
"""

import math

import numpy as np

from jacobipc._kernels_py import weighted_interp_sum
from jacobipc.interp import UniformGrid, uniform_bary_weights
from jacobipc.trajectory import GUARD, STATUS_DIVERGED, STATUS_OK, Counters, Trajectory


def march(problem, grid, rule, x_start, base, head=None):
    """Trajectory on ``grid`` from its start values (``solver._march``'s contract)."""
    size, n_steps = len(x_start), grid.count - 1
    origin, h, alpha = grid.origin, grid.h, problem.alpha
    rhs = problem.rhs
    x = np.zeros(n_steps + 1)
    fc = np.zeros(n_steps + 1)
    x[:size] = x_start
    for i in range(size):
        fc[i] = rhs(origin + i * h, x[i])

    nodes = rule.nodes
    weights = rule.weights
    jn = rule.n_points - 1
    bary = uniform_bary_weights(size)
    pref = 1.0 / math.gamma(alpha)
    end_w = weights[jn]
    rhs_evals, interp_evals, value_reads = size, 0, 0
    status = STATUS_OK
    count = n_steps + 1
    for n in range(size - 1, n_steps):
        t1 = origin + (n + 1) * h
        scale = pref * (0.5 * (n + 1) * h) ** alpha
        base_n = base.item(n + 1)
        total, reads, shared, resumed, resumed_reads = weighted_interp_sum(
            fc, n, nodes, weights, jn + 1, size, bary, 0
        )
        interp_evals += jn + 1
        value_reads += reads
        x_pred = base_n + scale * total
        if not abs(x_pred) <= GUARD:
            status, count = STATUS_DIVERGED, n + 1
            break
        f_pred = rhs(t1, x_pred)
        rhs_evals += 1
        fc[n + 1] = f_pred
        # interior nodes only: the end node s=1 lands on t_{n+1} and uses the
        # directly evaluated f_pred, never an interpolated value.  The first
        # `shared` of them have the predictor's stencils, so the corrector
        # resumes the predictor's running total and reads after them
        if shared < jn:
            resumed, reads = weighted_interp_sum(
                fc, n, nodes, weights, jn, size, bary, 1, shared, resumed
            )[:2]
            resumed_reads += reads
        interp_evals += jn
        value_reads += resumed_reads
        x_new = base_n + scale * (resumed + end_w * f_pred)
        if not abs(x_new) <= GUARD:
            status, count = STATUS_DIVERGED, n + 1
            break
        x[n + 1] = x_new
        fc[n + 1] = rhs(t1, x_new)
        rhs_evals += 1
    counters = Counters(rhs_evals, interp_evals, value_reads)
    return Trajectory(UniformGrid(origin, h, count), x[:count], fc[:count], status, counters,
                      head=head).finalize()

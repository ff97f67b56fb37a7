"""Two-segment runs: quadrature head on [0, t0], stepping tail on [t0, T].

Splitting moves the non-smooth neighbourhood of the origin (or, for very
small alpha, the steep initial transient) out of the stepped segment.  The
head contribution to each later value is a plain integral with a smooth
kernel: a weight-free Lobatto rule, summed in node order, over f values read
off the head trajectory (``adams.start_values``) with one corrector-phase
row of the march's stencil plan (``plan_values``), on both backends alike.
``solver.solve`` adds it over the marched points to the Taylor head.
"""

import math

import numpy as np

from jacobipc._kernels_py import plan_values, stencil_plan
from jacobipc.interp import map_node, uniform_bary_weights

# kernel elements (times x aux nodes) per block of the head term
HEAD_BLOCK = 1 << 16


def head_integral(problem, head, aux_rule, stencil_size, times):
    """Contribution of the head segment [origin, t0] at each of ``times``.

    Returns the array of (1/Gamma(alpha)) * sum_j w_j (t - tau_j)^(alpha-1)
    f(tau_j, x(tau_j)) over ``times``, every one of which must lie beyond t0,
    with the aux rule mapped onto the head interval.  The f values at the
    nodes tau_j are interpolated once from the head trajectory with the main
    march's corrector-phase stencil rule of stencil_size nodes at step n =
    count - 2, so every value of the head is usable; those interpolations
    are not counted.  The terms of each time are added from 0.0 in order of
    j with a sequential accumulate, HEAD_BLOCK terms at a time.
    """
    grid = head.grid
    n = grid.count - 2
    if stencil_size < 2:
        raise ValueError("stencil size must be at least 2")
    if n + 1 < stencil_size:
        raise ValueError("head segment too short for the stencil size")
    t0 = grid.t(n + 1)
    times = np.asarray(times, dtype=float)
    if not np.all(times > t0):
        raise ValueError("evaluation times must lie beyond the head segment")
    taus = map_node(aux_rule.nodes, grid.origin, t0)
    plan = stencil_plan(n, n + 1, aux_rule.nodes, aux_rule.weights, aux_rule.n_points,
                        stencil_size, uniform_bary_weights(stencil_size), 1)
    ftau = plan_values(plan, 0, 1, head.f_cache)[0]
    wt = aux_rule.weights * (0.5 * (t0 - grid.origin))
    am1 = problem.alpha - 1.0
    c = 1.0 / math.gamma(problem.alpha)
    out = np.empty(len(times))
    rows = max(1, HEAD_BLOCK // len(taus))
    for lo in range(0, len(times), rows):
        kernel = wt * (times[lo:lo + rows, None] - taus) ** am1
        acc = np.zeros((len(kernel), len(taus) + 1))
        np.multiply(kernel, ftau, out=acc[:, 1:])
        out[lo:lo + rows] = c * np.add.accumulate(acc, axis=1, out=acc)[:, -1]
    return out

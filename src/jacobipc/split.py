"""Two-segment runs: quadrature head on [0, t0], stepping tail on [t0, T].

Splitting moves the non-smooth neighbourhood of the origin (or, for very
small alpha, the steep initial transient) out of the stepped segment.  The
head contribution to each later value is a plain integral with a smooth
kernel, evaluated with a weight-free Lobatto rule over f values read off a
refined trajectory by the marcher's own stencil kernel.  ``head_start``
supplies what ``solver.solve`` needs to march [t0, T]: the start values and
that head term, which is added to the Taylor head.
"""

import math

import numpy as np

from jacobipc._backend import kernels
from jacobipc.adams import EXACT, exact_start, fine_run
from jacobipc.interp import UniformGrid, map_node, step_count, uniform_bary_weights
from jacobipc.quadrature import JacobiWeight, gauss_lobatto_rule
from jacobipc.trajectory import Trajectory


def head_integral(problem, head, aux_rule, stencil_size):
    """Contribution of the head segment [origin, t0] to later solution values.

    Returns the function t -> (1/Gamma(alpha)) * sum_j w_j (t - tau_j)^(alpha-1)
    f(tau_j, x(tau_j)), defined for t > t0, with the aux rule mapped onto the
    head interval.  The f values at the nodes tau_j are interpolated once from
    the head trajectory with the main march's corrector-phase stencil of
    stencil_size nodes; those interpolations are not counted.
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
    ftau = np.array([
        kernels.weighted_interp_sum(head.f_cache, n, aux_rule.nodes[j : j + 1], one, 1,
                                    stencil_size, bary, 1)[0]
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


def head_start(problem, config):
    """Head trajectory on [0, t0], start values at t0, t0 + h, ... and head term.

    The head is a capped fine Adams run (``adams.fine_run``) at substep
    h/fine_factor, which must land exactly on t0.  The start values either
    sample the exact solution or continue that run past t0 and subsample it;
    such a refined start has no k of its own, so an explicit k is refused.
    """
    split, h, size = config.split, config.h, config.stencil_size
    refined = config.starter.mode != EXACT
    if refined and config.starter.k is not None:
        raise ValueError("a split refined start continues the head run at "
                         "h/--split-fine, so it takes no k")
    # refusals name the CLI flags and the values given, not the substep
    try:
        h_fine = h / split.fine_factor
        n_fine = step_count(split.t0, h_fine)
    except OverflowError:
        raise ValueError(f"--split-fine {split.fine_factor} is too large: the head "
                         f"substep h/--split-fine is no usable float") from None
    except ValueError:
        raise ValueError(f"--split-t0 {split.t0} must be a whole number of head substeps, "
                         f"but h/--split-fine = {h:.6g}/{split.fine_factor} = {h_fine:.6g} "
                         f"does not evenly divide it") from None
    what = (f"the split head's fine Adams run (--split-t0 {split.t0}, "
            f"--split-fine {split.fine_factor})")
    if refined:
        fine = fine_run(problem, h_fine, n_fine + (size - 1) * split.fine_factor, what)
        head = Trajectory(UniformGrid(0.0, h_fine, n_fine + 1), fine.x[: n_fine + 1],
                          fine.f_cache[: n_fine + 1], fine.status, fine.counters)
        x_start = fine.x[n_fine :: split.fine_factor][:size].copy()
    else:
        x_start = exact_start(problem, split.t0, h, size)
        head = fine_run(problem, h_fine, n_fine, what)
    aux_jn = split.aux_jn if split.aux_jn is not None else 2 * config.jn
    aux_rule = gauss_lobatto_rule(JacobiWeight(0.0, 0.0), aux_jn + 1)
    return head, x_start, head_integral(problem, head, aux_rule, size)

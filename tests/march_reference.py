"""The marching loop one predict/correct pass at a time, for tests only.

``weighted_interp_sum`` is the stencil rule (``_kernels_py.stencil_plan``
describes it) as a scalar loop in Python, the form the C march runs.
``march`` is the loop ``solver._march`` ran before the loop moved behind
``kernels.march``: one call of ``weighted_interp_sum`` per phase and step,
with the counters kept beside it.  Tests run ``solve`` with
``solver._march`` replaced by this function and require both kernel
backends to give the same trajectory, status and counters bit for bit, and
compare the split head's node values with ``weighted_interp_sum``.
"""

import math

import numpy as np

from jacobipc._kernels_py import TIE_TOL, uniform_bary_weights
from jacobipc.trajectory import (GUARD, STATUS_DIVERGED, STATUS_OK, Counters, Trajectory,
                                 UniformGrid)


def weighted_interp_sum(fvals, n, nodes, weights, node_count, size, bary, corrector,
                        first=0, total=0.0):
    """Quadrature-weighted sum of stencil interpolations of the f history.

    Computes total + sum_{first<=j<node_count} weights[j] * p_j((1+nodes[j])*(n+1)/2)
    where p_j is the degree-(size-1) interpolant of fvals on the stencil
    chosen for that position (grid-index coordinates), summed in order of j.
    The stencil keeps ln = ceil(size/2) nodes at or left of the target where
    history permits and rn = size//2 right of it.  In the corrector phase
    fvals[n+1] is usable and holds the predicted f value.

    Returns (total, reads, J, shared_total, shared_reads).  reads counts the
    f values read over first <= j < node_count (size per node, fewer at an
    exact hit); the kernel keeps no counters, so the caller counts the
    node_count - first interpolations and adds up the reads.  The rest
    describe the shared prefix.  With le grid values at or left of a node's
    position, a node with le + rn <= n+1 has a stencil inside fvals[0..n],
    chosen the same way in both phases, so it reads the same values and gives
    the same interpolant bit for bit.  J is the first node from ``first``
    that fails that test (node_count if none does); shared_total and
    shared_reads are the running total and reads before it.  Both phases sum
    in order of j, so a corrector pass started at first = J from
    shared_total is bit for bit a full corrector pass.

    Raises IndexError when the stencil cannot fit the usable values (n + 1 <
    size in the predictor phase), first lies outside [0, node_count] or a
    read runs past a buffer.
    """
    fv = memoryview(fvals)
    nd = memoryview(nodes)
    wt = memoryview(weights)
    by = memoryview(bary)
    np1 = n + 1
    usable = np1 + 1 if corrector else np1
    if usable < size:
        raise IndexError(f"stencil (size {size}) does not fit {usable} usable f values")
    if not 0 <= first <= node_count:
        raise IndexError(f"start node {first} lies outside [0, {node_count}]")
    ln, rn = (size + 1) // 2, size // 2
    # the shared-prefix test is le + rn <= np1; past the first failure, limit
    # rises to usable, which le never exceeds
    limit = np1 - rn
    prefix = None
    reads = 0
    for j in range(first, node_count):
        theta = 0.5 * (1.0 + nd[j]) * np1
        le = int(math.floor(theta + TIE_TOL)) + 1
        if le > usable:
            le = usable
        if le > limit:
            prefix = (j, total, reads)
            limit = usable
        if le <= ln:
            start = 0
        elif corrector:
            start = np1 + 1 - size if le + rn >= np1 + 1 else le - ln
        else:
            start = np1 - size if le + rn >= np1 else le - ln
        x = theta - start
        num = 0.0
        den = 0.0
        hit = -1
        for k in range(size):
            d = x - k
            if -TIE_TOL < d < TIE_TOL:
                hit = k
                break
            c = by[k] / d
            num += c * fv[start + k]
            den += c
        if hit >= 0:
            total += wt[j] * fv[start + hit]
            reads += hit + 1
        else:
            total += wt[j] * (num / den)
            reads += size
    return (total, reads) + (prefix or (node_count, total, reads))


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

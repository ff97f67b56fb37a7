"""Hot solver kernels in pure Python: the reference semantics.

The compiled ``jacobipc._kernels`` (``_kernels.c``) implements the same
functions with the same arguments and the same floating-point operation
order, so the two backends give bit-identical results; it reads TIE_TOL
from here.  Buffers are unwrapped through memoryview so the inner loops run
on plain Python floats.
"""

import math

COMPILED = False

# a grid node within TIE_TOL (grid-index units) of a target counts as lying
# left of it, and as an exact interpolation hit
TIE_TOL = 1e-12


def weighted_interp_sum(fvals, n, nodes, weights, node_count, size, bary, corrector, counters):
    """Quadrature-weighted sum of stencil interpolations of the f history.

    Computes sum_j weights[j] * p_j((1+nodes[j])*(n+1)/2) where p_j is the
    degree-(size-1) interpolant of fvals on the stencil chosen for that
    position (grid-index coordinates).  The stencil keeps ln = ceil(size/2)
    nodes at or left of the target where history permits and rn = size//2
    right of it.  In the corrector phase fvals[n+1] is usable and holds the
    predicted f value.

    counters[0] += interpolant evaluations, counters[1] += values read.
    Raises IndexError when the stencil cannot fit the usable values
    (n + 1 < size in the predictor phase) or a read runs past a buffer.
    """
    fv = memoryview(fvals)
    nd = memoryview(nodes)
    wt = memoryview(weights)
    by = memoryview(bary)
    np1 = n + 1
    usable = np1 + 1 if corrector else np1
    if usable < size:
        raise IndexError(f"stencil (size {size}) does not fit {usable} usable f values")
    ln, rn = (size + 1) // 2, size // 2
    total = 0.0
    reads = 0
    for j in range(node_count):
        theta = 0.5 * (1.0 + nd[j]) * np1
        le = int(math.floor(theta + TIE_TOL)) + 1
        if le > usable:
            le = usable
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
    counters[0] += node_count
    counters[1] += reads
    return total


def adams_step_sums(fvals, n, alpha):
    """History sums for one fractional Adams PECE step n -> n+1.

    Returns (pred, corr) with
      pred = sum_{j<=n} ((n+1-j)^a - (n-j)^a) * f_j
      corr = sum_{j<=n} a_{j,n+1} * f_j
    using the standard corrector weights; the caller applies the h^alpha
    prefactors.  Weights are recomputed each step (they depend on n), which
    is the O(N^2) cost this baseline is meant to exhibit.
    """
    fv = memoryview(fvals)
    ap1 = alpha + 1.0
    pred = 0.0
    corr = (float(n) ** ap1 - (n - alpha) * float(n + 1) ** alpha) * fv[0]
    pm1 = 0.0  # (m-1)^alpha
    qm1 = 0.0  # (m-1)^(alpha+1)
    qm = 1.0  # m^(alpha+1), starting at m=1
    for m in range(1, n + 1):  # history term for f_{n+1-m}
        pm = float(m) ** alpha
        qp = float(m + 1) ** ap1
        fj = fv[n + 1 - m]
        pred += (pm - pm1) * fj
        corr += (qp - 2.0 * qm + qm1) * fj
        pm1 = pm
        qm1 = qm
        qm = qp
    pred += (float(n + 1) ** alpha - pm1) * fv[0]
    return pred, corr

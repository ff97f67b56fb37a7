"""Hot solver kernels in pure Python: the reference semantics.

The compiled ``jacobipc._kernels`` (``_kernels.c``) implements the same
functions with the same arguments and the same floating-point operation
order, so the two backends give bit-identical results; it reads TIE_TOL
from here.  Buffers are unwrapped through memoryview so the inner loops run
on plain Python floats.

The march calls ``weighted_interp_sum`` twice a step, as predictor and as
corrector, with the same rule and the same f history.  The two phases pick
the same stencil for every node whose stencil ends left of t_{n+1}, the one
value the corrector adds.  Such nodes give the same interpolated value bit
for bit, and they form a prefix of the nodes, which rise with j.  So each
pass reports its running total at the end of that prefix, and the corrector
pass resumes from the predictor's instead of interpolating those nodes
again.  At jn = 26 every interior node is shared from a few hundred steps on
(from n = 142 at alpha = 1.5, stencil 3, to n = 672 at alpha = 0.3,
stencil 5), and the corrector pass then has no work left.
"""

import math

COMPILED = False

# a grid node within TIE_TOL (grid-index units) of a target counts as lying
# left of it, and as an exact interpolation hit
TIE_TOL = 1e-12


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


def adams_step_sums(fvals, n, alpha):
    """History sums for one fractional Adams PECE step n -> n+1.

    Returns (pred, corr) with
      pred = sum_{j<=n} ((n+1-j)^a - (n-j)^a) * f_j
      corr = sum_{j<=n} a_{j,n+1} * f_j
    using the standard corrector weights; the caller applies the h^alpha
    prefactors.  Only the f_0 coefficient depends on n; the O(N^2) cost this
    baseline is meant to exhibit is the whole-history sum at every step.
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

"""Hot solver kernels in pure Python: the reference semantics.

The compiled ``jacobipc._kernels`` (``_kernels.c``) implements ``march`` and
``adams_march`` with the same arguments and the same floating-point
operation order, so the two backends give bit-identical results; it reads
TIE_TOL and GUARD from here.  Each runs every step of one method in place.

``march`` runs every predict/correct step of a trajectory.  Each step takes
one quadrature sum of stencil interpolants of the f history as predictor
and one as corrector, with the same rule and the same f history.  The two
phases pick the same stencil for every node whose stencil ends left of
t_{n+1}, the one value the corrector adds.  Such nodes give the same
interpolated value bit for bit, and they form a prefix of the nodes, which
rise with j.  So the corrector sum resumes from the predictor's running
total at the end of that prefix instead of interpolating those nodes again.
At jn = 26 every interior node is shared from a few hundred steps on (from
n = 142 at alpha = 1.5, stencil 3, to n = 672 at alpha = 0.3, stencil 5),
and the corrector pass then has no work left.

Which stencil a node uses, and its barycentric coefficients, depend on the
step and the node, not on f.  So ``stencil_plan`` works out those for a
block of steps at once with numpy, as rows of coefficients; a node on a
grid point gets the unit row e_k (L_k(x_m) = delta_km) with den 1.  A block
holds PLAN_BUDGET plan elements (steps x nodes x stencil size), so plan
memory does not grow with N; the corrector's plan covers the nodes from the
block's first J on and is built only for blocks where some step needs it.

The march takes each block SETTLE_STEPS steps at a time.  At the start n_a
of such a sub-block fc[0..n_a] is final, and at each of its steps all but
the few nodes nearest t_{n+1} read only those values.  ``settled_totals``
sums those settled nodes for every step of the sub-block in one numpy pass,
and each step finishes its live nodes in a scalar loop over Python floats:
the predictor's from the first node whose stencil ends past n_a (or from
J, if that comes first), and the corrector's own from J.  At jn = 26 the
predictor has one to five live nodes a step from n = 100 on.

That scalar loop is built once per stencil size (``_march_loop``, cached),
from one source template, the way ``dataclasses`` builds its methods: with
the size fixed, each live node is one flat tuple (c_0, ..., c_{size-1},
start, den, w, j) and its sum is written out as 0.0 + c0 * fl[start] + c1 *
fl[start + 1] + ..., which Python adds from the left, term by term, as the C
loop adds num += c * f.  A row e_k adds zeros to f_{start+k}, the num the C
loop takes at a hit, with den 1: bit for bit, as the stencil's values are
finite wherever the march goes on and no running total is ever -0.0.  So
both backends do the same operations in the same order without a generic
loop over each node's terms.  The C ``march`` runs one scalar loop over all
nodes in place of the plans; both take each rhs value as a C double
(``as_double``).  ``plan_values`` is the one numpy pass from plan rows to
node values, for ``settled_totals`` and for the split head on both backends.
"""

import functools
import math
from itertools import islice
from typing import NamedTuple

import numpy as np

from jacobipc.trajectory import GUARD

COMPILED = False

# a grid node within TIE_TOL (grid-index units) of a target counts as lying
# left of it, and as an exact interpolation hit
TIE_TOL = 1e-12

# plan elements (steps x nodes x stencil size) per block of march steps
PLAN_BUDGET = 16384
# steps of a plan block marched from one ``settled_totals`` pass
SETTLE_STEPS = 16

MARCH_LENGTHS = ("march needs len(fc) == len(base) == len(x), len(weights) == len(nodes) >= 2 "
                 "and len(bary) >= 2")


def as_double(value):
    """An rhs value as a Python float, converted as C's PyFloat_AsDouble does
    (an np.float32 widens exactly; a str raises TypeError, where float()
    would parse it): ldexp(value, 0) is that conversion and changes no bit."""
    return math.ldexp(value, 0)


class StencilPlan(NamedTuple):
    """What the stencil rule works out before it reads an f value, for one
    phase and each step of a block.

    Node j of step i reads fvals[start[i, j] + k] with coefficient coef[k, i,
    j] = bary[k] / (x - k) (k-major) for k in order, and den[i, j] is their
    sum; at an exact hit the row is e_k and den is 1.  reads[i, j] counts the
    values read before node j, and shared[i] is J, the first node outside
    the shared prefix.  weights holds the node_count weights.
    """

    start: np.ndarray
    coef: np.ndarray
    den: np.ndarray
    reads: np.ndarray
    shared: np.ndarray
    weights: np.ndarray


def uniform_bary_weights(size):
    """Barycentric weights for ``size`` equispaced nodes: (-1)^k C(size-1, k).

    Raises ValueError for a size whose weights exceed the float range.
    """
    try:
        return np.array([(-1.0) ** k * math.comb(size - 1, k) for k in range(size)])
    except OverflowError:
        raise ValueError(f"stencil size {size} is too large: its barycentric weights "
                         "overflow a float") from None


def stencil_plan(n_lo, n_hi, nodes, weights, node_count, size, bary, corrector):
    """Stencil plan of the steps n_lo <= n < n_hi over the first node_count nodes.

    The stencil rule: node j of step n sits at theta = (1 + nodes[j]) * (n+1) / 2
    in grid-index coordinates, and its value is the degree-(size-1)
    interpolant of the f history on the stencil chosen for that position.
    The stencil keeps ln = ceil(size/2) grid values at or left of the target
    where history permits and rn = size//2 right of it, clamped to the start
    of the grid or to the newest usable value; in the corrector phase
    fvals[n+1] is usable and holds the predicted f value.  A grid point
    within TIE_TOL of theta counts as left of it and as an exact hit.  The
    value is num / den in barycentric form, with x = theta - start, c_k =
    bary[k] / (x - k), num = sum c_k * fvals[start + k] and den = sum c_k,
    summed in order of k; at a hit on fvals[start + k] the coefficients are
    the unit row e_k, so den is 1 and num that value.

    With le grid values at or left of a node's position, a node with le + rn
    <= n+1 has a stencil inside fvals[0..n], chosen the same way in both
    phases, so it reads the same values and gives the same value bit for bit.
    J is the first node that fails that test (node_count if none does).
    Quadrature sums run in order of the nodes, so a corrector sum started at
    J from the predictor's running total before J is bit for bit a full
    corrector sum.

    The C march's scalar loop computes each coefficient and each den with
    the same operations on the same values.  The nodes must lie in [-1, 1]
    and rise with j.  A den of zero at a node with no hit is left in for the
    caller to refuse.
    """
    np1 = np.arange(n_lo + 1.0, n_hi + 1.0)[:, None]
    usable = np1 + 1.0 if corrector else np1
    ln, rn = (size + 1) // 2, size // 2
    theta = 0.5 * (1.0 + nodes[:node_count]) * np1
    # left = le - 1 for le = min(left + 1, usable) grid values at or left of theta
    left = theta + TIE_TOL
    np.floor(left, out=left)
    # le rises with the nodes, so the shared nodes, with le + rn <= n+1, are a
    # prefix (as usable > n+1 - rn, the bound on le does not matter)
    shared = (left < np1 - rn).sum(axis=1)
    # start = max(min(le - ln, usable - size), 0), in which le may stand unbounded
    start = left
    start -= ln - 1
    np.minimum(start, usable - size, out=start)
    np.maximum(start, 0.0, out=start)
    x = theta - start
    start = start.astype(np.int64)
    # x - k is exact within 0.5 of k, so only the integer nearest x can be hit
    # (x >= -TIE_TOL, so that integer is never negative)
    near = np.rint(x)
    hit = (np.abs(x - near) < TIE_TOL) & (near < size)
    hit_k = near.astype(np.int64)
    # the plan arrays are k-major, as (size, steps, nodes), so that each pass
    # runs over whole steps x nodes planes
    k = np.arange(size)[:, None, None]
    with np.errstate(divide="ignore"):
        coef = bary[:, None, None] / (x - k)
    # a hit's row is e_k, the Lagrange basis at its grid point
    i, j = hit.nonzero()
    coef[:, i, j] = 0.0
    coef[hit_k[i, j], i, j] = 1.0
    den = np.zeros(x.shape)
    for c in coef:
        den += c
    reads = np.zeros((n_hi - n_lo, node_count + 1), dtype=np.int64)
    np.cumsum(np.where(hit, hit_k + 1, size), axis=1, out=reads[:, 1:])
    return StencilPlan(start, coef, den, reads, shared, weights[:node_count])


def plan_values(plan, i0, i1, fvals):
    """Interpolated f values of the steps i0 <= i < i1 of ``plan`` at its nodes.

    Element [i - i0, j] is sum c_k * f_k over the values node j reads, added
    in order of k from the first term, divided by den.  Where those f values
    are finite it is the float of the stencil rule's scalar loop, but for
    the sign of a zero sum, which that loop's leading 0.0 sets.  A non-finite
    f value gives non-finite values (nan where the rule may give inf).  The
    result is a new array of (i1 - i0) x node_count elements.
    """
    k = np.arange(len(plan.coef))[:, None, None]
    terms = plan.coef[:, i0:i1] * fvals[plan.start[i0:i1] + k]
    num = terms[0]
    for term in terms[1:]:
        num = num + term
    return np.divide(num, plan.den[i0:i1], out=num)


def settled_totals(plan, i0, i1, fvals):
    """Running totals of the steps i0 <= i < i1 of ``plan`` over all its nodes.

    Element [i - i0, j] is the total before node j of weight times value
    (``plan_values``), added from 0.0 in order of the nodes with a
    sequential accumulate (unlike np.sum and np.dot); the last column holds
    the whole sums.  Where the f values a total reads are final, it is the
    float of the scalar loop: from 0.0, no total shows the sign of a zero.
    """
    values = plan_values(plan, i0, i1, fvals)
    acc = np.zeros((len(values), values.shape[1] + 1))
    np.multiply(values, plan.weights, out=acc[:, 1:])
    return np.add.accumulate(acc, axis=1, out=acc)


def _scalar_nodes(plan, mask):
    """The nodes of ``plan`` that ``mask`` (steps x nodes) selects, in order of
    steps and nodes, as flat tuples of Python floats and ints: per node its
    coefficients c_0, ..., c_{size-1} in order of k, its stencil's start, its
    den, its weight and its index."""
    i, j = mask.nonzero()
    return zip(*plan.coef[:, i, j].tolist(), plan.start[i, j].tolist(),
               plan.den[i, j].tolist(), plan.weights[j].tolist(), j.tolist())


def block_steps(node_count, size):
    """Steps in one plan block: PLAN_BUDGET plan elements, at least one step."""
    return max(1, PLAN_BUDGET // (node_count * size))


@np.errstate(all="ignore")
def march(rhs, x, fc, base, origin, h, alpha, pref, nodes, weights, bary):
    """Predict and correct steps n = size - 1, ..., len(x) - 2 of x and fc in place.

    ``solver._march`` describes the scheme.  size = len(bary) >= 2; x[:size]
    and fc[:size] hold the start values and their f values; base[n + 1] is
    the term outside the integral at step n and pref = 1 / Gamma(alpha);
    rhs(t, x) returns a value ``as_double`` takes.  The nodes must lie in
    [-1, 1] (ValueError otherwise) and rise with j; node jn is the end node
    s = 1, whose weight takes f_pred and which is never shared.  Returns
    (count, rhs_evals, interp_evals, value_reads): the number of valid
    entries, less than len(x) if a step left the guard, and the counters of
    the steps.  The steps run in ``_march_loop(size)``.  Whatever ends the
    march, a guard trip or an exception included, x and fc then hold every
    value its steps have set, as they do after the C march, which writes
    them step by step.  numpy's floating-point errors are ignored inside,
    the rhs calls included, so the march is as silent as arithmetic on
    Python floats.
    """
    size, n_steps, jn = len(bary), len(x) - 1, len(nodes) - 1
    if not len(fc) == len(base) == n_steps + 1 or len(weights) != jn + 1 or jn < 1 or size < 2:
        raise IndexError(MARCH_LENGTHS)
    if not np.all(np.abs(nodes) <= 1.0):
        raise ValueError("quadrature nodes must lie in [-1, 1]")
    return _march_loop(size)(rhs, x, fc, base, origin, h, alpha, pref, nodes, weights, bary)


# The step loop of ``march`` as source text, for ``_march_loop`` to fill in
# per stencil size: {coefs} names a node's coefficients c0, c1, ... and
# {interp} is its numerator written out in order of k.  Per sub-block of
# SETTLE_STEPS steps, ``settled_totals`` gives each step its predictor's
# running total before its first live node; the step adds its live nodes,
# keeping the total before J, from which the corrector adds its own nodes.
# The steps read and write the Python lists fl and xl, mirrors of fc and x:
# fc gets fl's new values before each ``settled_totals`` pass, which reads
# it, and x and fc get the rest on any exit.  Each new f value is read at the
# next step by its last node, which is never a hit, so a non-finite f value
# leaves the guard at the same step on both backends.
_MARCH_LOOP = """
def march_loop(rhs, x, fc, base, origin, h, alpha, pref, nodes, weights, bary):
    size, n_steps, jn = {size}, len(x) - 1, len(nodes) - 1
    end_w = weights.item(jn)
    fl, xl = fc.tolist(), x.tolist()
    rhs_evals = interp_evals = value_reads = 0
    span = block_steps(jn + 1, size)
    # n is the step under way; fc[:flushed] holds fl[:flushed]
    n = size - 2
    flushed = size
    try:
        for n_lo in range(size - 1, n_steps, span):
            n_hi = min(n_lo + span, n_steps)
            rows = np.arange(n_hi - n_lo)
            pred = stencil_plan(n_lo, n_hi, nodes, weights, jn + 1, size, bary, 0)
            shared = pred.shared
            # the corrector's reads: the shared prefix, then its own from J on
            reads_c = pred.reads[rows, shared]
            unusable = not pred.den.all()
            j0 = int(shared.min())
            if j0 < jn:
                corr = stencil_plan(n_lo, n_hi, nodes[j0:], weights[j0:], jn - j0, size, bary, 1)
                reads_c = reads_c + corr.reads[:, -1] - corr.reads[rows, shared - j0]
                own = np.arange(j0, jn) >= shared[:, None]
                unusable |= np.any((corr.den == 0.0) & own)
                corr_nodes = _scalar_nodes(corr, own)
            if unusable:
                raise ZeroDivisionError("float division by zero")
            # a step's live nodes start at F, the first node whose stencil ends
            # past its sub-block's start (jn + 1 if none does), or at J if earlier
            sub = rows % SETTLE_STEPS
            late = pred.start + (size - 1) > (n_lo + rows - sub)[:, None]
            first = np.minimum(np.where(late.any(1), late.argmax(1), jn + 1), shared)
            pred_nodes = _scalar_nodes(pred, np.arange(jn + 1) >= first[:, None])
            at_first = sub * (jn + 2) + first
            steps = zip(range(n_lo, n_hi), base[n_lo + 1:n_hi + 1].tolist(), first.tolist(),
                        shared.tolist(), pred.reads[:, -1].tolist(), reads_c.tolist())
            # steps and the node iterators run on across the sub-blocks: zip
            # takes from settled first, so it stops without taking a step more
            for i0 in range(0, n_hi - n_lo, SETTLE_STEPS):
                i1 = min(i0 + SETTLE_STEPS, n_hi - n_lo)
                fc[flushed:n + 2] = fl[flushed:n + 2]
                flushed = n + 2
                settled = settled_totals(pred, i0, i1, fc).take(at_first[i0:i1]).tolist()
                for total, (n, base_n, live, cut, r_p, r_c) in zip(settled, steps):
                    t1 = origin + (n + 1) * h
                    scale = pref * (0.5 * (n + 1) * h) ** alpha
                    resumed = total
                    for {coefs}, lo, den, w, j in islice(pred_nodes, jn + 1 - live):
                        if j == cut:
                            resumed = total
                        total += w * (({interp}) / den)
                    # a step that leaves the guard counts its passes up to the guard
                    x_pred = base_n + scale * total
                    if not abs(x_pred) <= GUARD:
                        return n + 1, rhs_evals, interp_evals + jn + 1, value_reads + r_p
                    f_pred = fl[n + 1] = as_double(rhs(t1, x_pred))
                    if cut < jn:
                        for {coefs}, lo, den, w, _ in islice(corr_nodes, jn - cut):
                            resumed += w * (({interp}) / den)
                    x_new = base_n + scale * (resumed + end_w * f_pred)
                    if not abs(x_new) <= GUARD:
                        return (n + 1, rhs_evals + 1, interp_evals + 2 * jn + 1,
                                value_reads + r_p + r_c)
                    xl[n + 1] = x_new
                    fl[n + 1] = as_double(rhs(t1, x_new))
                    rhs_evals += 2
                    interp_evals += 2 * jn + 1
                    value_reads += r_p + r_c
    finally:
        fc[flushed:n + 2] = fl[flushed:n + 2]
        x[size:n + 2] = xl[size:n + 2]
    return n_steps + 1, rhs_evals, interp_evals, value_reads
"""


@functools.lru_cache(maxsize=16)
def _march_loop(size):
    """The step loop of ``march`` for stencil size ``size``, compiled from
    ``_MARCH_LOOP``.  It runs in this module's globals, so it looks up
    ``stencil_plan``, ``settled_totals`` and ``_scalar_nodes`` at each call."""
    terms = " + ".join(f"c{k} * fl[lo + {k}]" for k in range(1, size))
    source = _MARCH_LOOP.format(size=size, coefs=", ".join(f"c{k}" for k in range(size)),
                                interp=f"0.0 + c0 * fl[lo] + {terms}")
    scope = {}
    exec(compile(source, f"<march loop, stencil size {size}>", "exec"), globals(), scope)
    return scope["march_loop"]


def _history_weights(alpha, length):
    """(b, c) with b[m] = m^a - (m-1)^a and c[m] = (m+1)^(a+1) - 2 m^(a+1) +
    (m-1)^(a+1) for 1 <= m <= length, each with the operations of the C
    twin's loop (0^a and 0^(a+1) taken as 0, 1^(a+1) as 1).  Built for each
    run, uncached: runs seldom repeat an (alpha, length)."""
    ap1 = alpha + 1.0
    p = [0.0] + [float(m) ** alpha for m in range(1, length + 1)]
    q = [0.0, 1.0] + [float(m) ** ap1 for m in range(2, length + 2)]
    b = [0.0] + [p[m] - p[m - 1] for m in range(1, length + 1)]
    c = [0.0] + [q[m + 1] - 2.0 * q[m] + q[m - 1] for m in range(1, length + 1)]
    return b, c


def adams_march(rhs, x, fc, base, h, alpha, c_pred, c_corr):
    """Fractional Adams PECE steps n = 0, ..., len(x) - 2 of x and fc in place.

    x[0] and fc[0] hold the initial value and its f value, base[n + 1] the
    Taylor head at t = (n + 1) * h; c_pred = h^a / Gamma(a + 1) and c_corr =
    h^a / Gamma(a + 2).  Step n predicts base[n + 1] + c_pred * sum_{j<=n}
    ((n+1-j)^a - (n-j)^a) f_j and corrects base[n + 1] + c_corr * (f_pred +
    sum_{j<=n} a_{j,n+1} f_j), where f_pred = ``as_double``(rhs(t, x_pred)).
    Returns (count, rhs_evals, history_reads), as ``march`` does.  These
    history sums are the O(N^2) cost this baseline exhibits; their weights
    come from ``_history_weights``, where the C twin makes two ``pow`` calls
    a term, with the same floats.
    """
    if not len(fc) == len(base) == len(x) >= 1:
        raise IndexError("adams_march needs len(fc) == len(base) == len(x) >= 1")
    b, c = _history_weights(alpha, len(x))
    fl = fc.tolist()
    rhs_evals = history_reads = 0
    for n, base_n in enumerate(base[1:].tolist()):
        t1 = (n + 1) * h
        history_reads += 2 * (n + 1)
        pred = 0.0
        corr = (float(n) ** (alpha + 1.0) - (n - alpha) * float(n + 1) ** alpha) * fl[0]
        for bm, cm, fj in zip(b[1:n + 1], c[1:n + 1], fl[n:0:-1]):  # f_{n+1-m}
            pred += bm * fj
            corr += cm * fj
        pred += b[n + 1] * fl[0]
        x_pred = base_n + c_pred * pred
        if not abs(x_pred) <= GUARD:
            return n + 1, rhs_evals, history_reads
        f_pred = as_double(rhs(t1, x_pred))
        rhs_evals += 1
        x_new = base_n + c_corr * (corr + f_pred)
        if not abs(x_new) <= GUARD:
            return n + 1, rhs_evals, history_reads
        x[n + 1] = x_new
        fc[n + 1] = fl[n + 1] = as_double(rhs(t1, x_new))
        rhs_evals += 1
    return len(x), rhs_evals, history_reads

"""``kernels.march`` on both backends against the one-step-at-a-time loop.

``march_reference.march`` calls the scalar kernel twice a step, as the
march did before it moved behind ``kernels.march``.  Every cell must give
the same x, f values, status and counters bit for bit; the cells are long
enough to cross several plan blocks and sub-blocks of the pure twin, and a
hypothesis test draws further runs, with exact hits and guard trips.  After
an rhs call that fails, ``march`` and ``adams_march`` leave the same x and fc
on both backends.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import march_reference
from jacobipc import _kernels_py, solver
from jacobipc.adams import EXACT, StarterConfig
from jacobipc.interp import UniformGrid, uniform_bary_weights
from jacobipc.problems import make_problem, taylor_head
from jacobipc.solver import SolverConfig, SplitConfig, quadrature_for, solve
from jacobipc.trajectory import STATUS_DIVERGED, STATUS_OK

EXACT_START = StarterConfig(mode=EXACT)


def poly8(alpha, n, size, jn=26):
    return make_problem("poly8", alpha, 1.0), SolverConfig(
        h=1.0 / n, stencil_size=size, jn=jn, starter=EXACT_START)


def crit07_long(alpha, size):
    """Criterion 07's long-horizon split cell."""
    return make_problem("ml_linear", alpha, 50.0), SolverConfig(
        h=49.0 / 490, stencil_size=size, starter=EXACT_START,
        split=SplitConfig(t0=1.0, aux_jn=52, fine_factor=20))


def poisoned(problem, bad_call):
    """The problem with an rhs that returns 1e200 on its bad_call-th call (from 1)."""
    calls = 0

    def rhs(t, x):
        nonlocal calls
        calls += 1
        return 1e200 if calls == bad_call else problem.rhs(t, x)

    return dataclasses.replace(problem, rhs=rhs)


# a guard trip at step index TRIP, past the first plan block: a huge f from the
# corrector of the step before trips the predictor, a huge f_pred the corrector
TRIP_SIZE, TRIP = 3, 1500


def tripped(phase):
    problem, config = poly8(0.5, 2000, TRIP_SIZE)
    bad_call = TRIP_SIZE + 2 * TRIP + (phase == "corrector")
    return poisoned(problem, bad_call), config


CELLS = {f"poly8 a={alpha} s={size} n={n}": (poly8, (alpha, n, size))
         for alpha in (0.3, 1.5) for size in (2, 3, 4, 5) for n in (300, 1000, 2000)}
CELLS["poly8 a=0.5 s=8 jn=200 n=400"] = (poly8, (0.5, 400, 8, 200))
CELLS.update({f"crit07 long a={alpha} s={size}": (crit07_long, (alpha, size))
              for alpha in (0.2, 0.5) for size in (2, 3)})
CELLS.update({f"guard trip in the {phase}": (tripped, (phase,))
              for phase in ("predictor", "corrector")})

_REFERENCE = {}


def reference(cell, monkeypatch):
    if cell not in _REFERENCE:
        make, args = CELLS[cell]
        with monkeypatch.context() as m:
            m.setattr(solver, "_march", march_reference.march)
            _REFERENCE[cell] = solve(*make(*args))
    return _REFERENCE[cell]


def hexes(values):
    return [v.hex() for v in values.tolist()]


@pytest.mark.parametrize("cell", CELLS)
def test_march_matches_reference(backend, cell, monkeypatch):
    want = reference(cell, monkeypatch)
    monkeypatch.setattr(solver, "kernels", backend)
    make, args = CELLS[cell]
    got = solve(*make(*args))
    assert got.status == want.status
    assert got.counters == want.counters
    assert hexes(got.x) == hexes(want.x)
    assert hexes(got.f_cache) == hexes(want.f_cache)


@pytest.mark.parametrize("phase", ["predictor", "corrector"])
def test_guard_trips_after_the_first_block(phase, monkeypatch):
    tr = reference(f"guard trip in the {phase}", monkeypatch)
    assert tr.status == STATUS_DIVERGED
    assert tr.grid.count == TRIP_SIZE + TRIP
    assert tr.counters.rhs_evals == TRIP_SIZE + 2 * TRIP + (phase == "corrector")
    assert TRIP > _kernels_py.block_steps(27, TRIP_SIZE)


def test_pure_plans_are_bounded_and_correctors_stop(monkeypatch):
    built, settled, scalar = [], [], []

    def recording(n_lo, n_hi, nodes, weights, node_count, size, bary, corrector):
        plan = stencil_plan(n_lo, n_hi, nodes, weights, node_count, size, bary, corrector)
        built.append((corrector, plan.coef.size))
        return plan

    def recording_totals(plan, i0, i1, fvals):
        totals = settled_totals(plan, i0, i1, fvals)
        settled.append(totals.size)
        return totals

    def recording_nodes(plan, mask):
        scalar.append(int(mask.sum()) * plan.coef.shape[1])
        return scalar_nodes(plan, mask)

    stencil_plan = _kernels_py.stencil_plan
    settled_totals = _kernels_py.settled_totals
    scalar_nodes = _kernels_py._scalar_nodes
    monkeypatch.setattr(_kernels_py, "stencil_plan", recording)
    monkeypatch.setattr(_kernels_py, "settled_totals", recording_totals)
    monkeypatch.setattr(_kernels_py, "_scalar_nodes", recording_nodes)
    monkeypatch.setattr(solver, "kernels", _kernels_py)
    span = _kernels_py.block_steps(27, 3)
    for n in (2000, 8000):
        for log in (built, settled, scalar):
            log.clear()
        assert solve(*poly8(0.5, n, 3)).status == STATUS_OK
        # every plan fits the budget, whatever N
        assert max(elements for _, elements in built) <= _kernels_py.PLAN_BUDGET
        predictors = sum(1 for corrector, _ in built if not corrector)
        assert predictors == -(-(n - 2) // span)
        # every interior node is shared from n = 672 on at most
        assert len(built) - predictors <= -(-672 // span)
        # one totals pass per sub-block; it and the scalar loop's coefficient
        # lists are bounded too
        sub_blocks = [-(-min(span, n - 2 - lo) // _kernels_py.SETTLE_STEPS)
                      for lo in range(0, n - 2, span)]
        assert len(settled) == sum(sub_blocks)
        assert max(settled) <= _kernels_py.SETTLE_STEPS * 28
        assert max(scalar) <= _kernels_py.PLAN_BUDGET


@pytest.mark.parametrize("nodes", [[-1.0, 0.5, 1.5], [-1.0, np.nan, 1.0]])
def test_march_refuses_nodes_outside_the_interval(backend, nodes):
    x, fc = np.zeros(20), np.zeros(20)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        backend.march(lambda t, y: 0.0, x, fc, np.zeros(20), 0.0, 0.05, 0.5, 1.0,
                      np.array(nodes), np.ones(3), uniform_bary_weights(3))


def test_march_refuses_mismatched_buffers(backend):
    rule = quadrature_for(0.5, 8)
    args = dict(rhs=lambda t, y: 0.0, x=np.zeros(20), fc=np.zeros(20), base=np.zeros(20),
                origin=0.0, h=0.05, alpha=0.5, pref=1.0, nodes=rule.nodes,
                weights=rule.weights, bary=uniform_bary_weights(3))
    assert backend.march(**args) == (20, 2 * 17, 17 * 17, 17 * (15 * 3 + 2))
    for changed in ({"fc": np.zeros(19)}, {"base": np.zeros(21)},
                    {"weights": rule.weights[:-1]}, {"bary": np.zeros(0)},
                    {"nodes": rule.nodes[:1], "weights": rule.weights[:1]}):
        with pytest.raises(IndexError, match=re.escape(_kernels_py.MARCH_LENGTHS)):
            backend.march(**dict(args, **changed))


def test_march_raises_what_float_pow_raises_on_overflow(backend):
    # h^alpha overflows at the first step, as (0.5 * 3 * 1e200) ** 2.0 does
    rule = quadrature_for(1.5, 8)
    with pytest.raises(OverflowError) as caught:
        backend.march(lambda t, y: 0.0, np.zeros(5), np.zeros(5), np.zeros(5), 0.0, 1e200,
                      2.0, 1.0, rule.nodes, rule.weights, uniform_bary_weights(3))
    with pytest.raises(OverflowError) as want:
        (0.5 * 3 * 1e200) ** 2.0
    assert str(caught.value) == str(want.value)


@st.composite
def plan_rows(draw):
    """One step n of a block, its stencil size, nodes (Lobatto, or snapped onto
    grid points so ties occur), weights and an f history."""
    size = draw(st.integers(2, 6))
    n = draw(st.one_of(st.just(size - 1), st.integers(size - 1, 3000)))
    n_lo = max(size - 1, n - draw(st.integers(0, 5)))
    n_hi = n + 1 + draw(st.integers(0, 3))
    jn = draw(st.integers(2, 60))
    nodes = quadrature_for(draw(st.sampled_from([0.3, 0.5, 0.8, 1.5])), jn).nodes.copy()
    snapped = draw(st.lists(st.tuples(st.integers(1, jn - 1), st.integers(0, n + 1)),
                            max_size=jn - 1))
    for j, point in snapped:
        nodes[j] = 2.0 * point / (n + 1) - 1.0
    nodes.sort()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fvals = rng.uniform(-5.0, 5.0, size=n + 2)
    weights = rng.uniform(-1.0, 1.0, size=jn + 1)
    return size, n, n_lo, n_hi, jn, nodes, weights, fvals


@settings(max_examples=150, deadline=None)
@given(row=plan_rows())
def test_plan_row_matches_scalar_kernel(row):
    size, n, n_lo, n_hi, jn, nodes, weights, fvals = row
    bary = uniform_bary_weights(size)
    for corrector, node_count in ((0, jn + 1), (1, jn)):
        plan = _kernels_py.stencil_plan(n_lo, n_hi, nodes, weights, node_count, size, bary,
                                        corrector)
        i = n - n_lo
        # the settled-prefix totals of the block up to step n, every f value final
        acc = _kernels_py.settled_totals(plan, 0, i + 1, fvals)[i]
        cut = int(plan.shared[i])
        got = (acc[-1].hex(), int(plan.reads[i, -1]), cut, acc[cut].hex(),
               int(plan.reads[i, cut]))
        total, reads, shared, shared_total, shared_reads = march_reference.weighted_interp_sum(
            fvals, n, nodes, weights, node_count, size, bary, corrector)
        assert got == (total.hex(), reads, shared, shared_total.hex(), shared_reads)
        # each running total is the scalar loop's sum over the nodes before it
        assert [a.hex() for a in acc.tolist()] == [
            march_reference.weighted_interp_sum(fvals, n, nodes, weights, j, size, bary,
                                                corrector)[0].hex()
            for j in range(node_count + 1)]


@st.composite
def march_runs(draw):
    """A poly8 march: alpha, stencil size, jn and the number of steps drawn,
    the steps crossing sub-block and plan-block edges; some interior nodes
    moved to 1 - 2/m, which lands on a grid point at every step n with m
    dividing n + 1; and perhaps an rhs that trips the guard at a drawn step
    in a drawn phase."""
    alpha = draw(st.sampled_from([0.3, 0.5, 0.8, 1.0, 1.5]))
    size = draw(st.integers(2, 6))
    jn = draw(st.integers(2, 60))
    span = _kernels_py.block_steps(jn + 1, size)
    steps = draw(st.integers(1, 2 * span + _kernels_py.SETTLE_STEPS))
    n = size - 1 + steps
    rule = quadrature_for(alpha, jn)
    nodes = rule.nodes.copy()
    for j, m in draw(st.lists(st.tuples(st.integers(1, jn - 1), st.integers(2, n + 1)),
                              max_size=3)):
        nodes[j] = 1.0 - 2.0 / m
    nodes.sort()
    # the rhs call that returns 1e200: the corrector's f of the step before
    # trips the predictor of step m, a predicted f the corrector of step m
    trip = draw(st.none() | st.tuples(st.integers(1, steps), st.booleans()))
    bad_call = None if trip is None else size + 2 * trip[0] - 2 + trip[1]
    return (alpha, size, dataclasses.replace(rule, nodes=nodes),
            UniformGrid(0.0, 1.0 / n, n + 1), bad_call)


@settings(max_examples=60, deadline=None)
@given(run=march_runs())
def test_march_matches_reference_bit_for_bit(backend, run):
    alpha, size, rule, grid, bad_call = run

    def problem():
        plain = make_problem("poly8", alpha, 1.0)
        return plain if bad_call is None else poisoned(plain, bad_call)

    x_start = np.array([problem().exact(grid.t(i)) for i in range(size)])
    base = taylor_head(problem(), grid.times)
    want = march_reference.march(problem(), grid, rule, x_start, base)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "kernels", backend)
        got = solver._march(problem(), grid, rule, x_start, base)
    assert (got.status, got.counters, hexes(got.x), hexes(got.f_cache)) == (
        want.status, want.counters, hexes(want.x), hexes(want.f_cache))
    if bad_call is not None:
        assert got.status == STATUS_DIVERGED


@pytest.mark.parametrize("size", [9, 12])
def test_march_matches_reference_at_stencils_the_draws_miss(backend, size):
    # the steps cross at least two plan-block edges
    alpha, n = 0.5, 300
    problem, rule = make_problem("poly8", alpha, 1.0), quadrature_for(alpha, 26)
    grid = UniformGrid(0.0, 1.0 / n, n + 1)
    assert n - size > 2 * _kernels_py.block_steps(27, size)
    x_start = np.array([problem.exact(grid.t(i)) for i in range(size)])
    base = taylor_head(problem, grid.times)
    want = march_reference.march(problem, grid, rule, x_start, base)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "kernels", backend)
        got = solver._march(problem, grid, rule, x_start, base)
    assert (got.status, got.counters, hexes(got.x), hexes(got.f_cache)) == (
        want.status, want.counters, hexes(want.x), hexes(want.f_cache))


def test_march_loop_builds_for_the_largest_stencil():
    SolverConfig(h=0.1, stencil_size=1030)
    with pytest.raises(ValueError, match="too large"):
        SolverConfig(h=0.1, stencil_size=1031)
    loop = _kernels_py._march_loop(1030)
    assert loop is _kernels_py._march_loop(1030)


class Stop(Exception):
    pass


# how an rhs call fails, and what the march then raises
RAISED = {"raise": Stop, "str": TypeError}


def failing_at(rhs, bad_call, kind):
    """rhs, but its bad_call-th call (from 1) raises Stop or returns a str."""
    calls = 0

    def failing(t, y):
        nonlocal calls
        calls += 1
        if calls != bad_call:
            return rhs(t, y)
        if kind == "raise":
            raise Stop
        return "x"

    return failing


@st.composite
def raising_runs(draw):
    """A poly8 march, the rhs call, counted from 1 over the march's calls,
    that fails, and how: by raising, or by returning a value that does not
    convert to a float (a str).  The steps cross sub-block and plan-block
    edges, and an odd call is a predictor's, an even one a corrector's."""
    alpha = draw(st.sampled_from([0.3, 0.5, 0.8, 1.5]))
    size = draw(st.integers(2, 6))
    jn = draw(st.integers(2, 60))
    span = _kernels_py.block_steps(jn + 1, size)
    steps = draw(st.integers(1, 2 * span + _kernels_py.SETTLE_STEPS))
    bad_call, kind = draw(st.integers(1, 2 * steps)), draw(st.sampled_from(list(RAISED)))
    return alpha, size, jn, steps, bad_call, kind


@settings(max_examples=60, deadline=None)
@given(run=raising_runs())
# a str from the corrector of step 3: fc[4] keeps f_pred
@example(run=(0.5, 3, 8, 5, 4, "str"))
def test_rhs_that_raises_leaves_x_and_fc_alike(compiled, run):
    alpha, size, jn, steps, bad_call, kind = run
    problem, rule = make_problem("poly8", alpha, 1.0), quadrature_for(alpha, jn)
    n = size - 1 + steps
    grid = UniformGrid(0.0, 1.0 / n, n + 1)
    base = taylor_head(problem, grid.times)

    def left_behind(kernels):
        x, fc = np.zeros(n + 1), np.zeros(n + 1)
        for i in range(size):
            x[i] = problem.exact(grid.t(i))
            fc[i] = problem.rhs(grid.t(i), x[i])
        with pytest.raises(RAISED[kind]):
            kernels.march(failing_at(problem.rhs, bad_call, kind), x, fc, base, 0.0, grid.h,
                          alpha, 1.0 / math.gamma(alpha), rule.nodes, rule.weights,
                          uniform_bary_weights(size))
        return hexes(x), hexes(fc)

    assert left_behind(_kernels_py) == left_behind(compiled)


@pytest.mark.parametrize("kind", list(RAISED))
@pytest.mark.parametrize("phase", ["predictor", "corrector"])
def test_rhs_that_raises_leaves_adams_x_and_fc_alike(compiled, phase, kind):
    alpha, h, n = 0.5, 0.05, 20
    problem = make_problem("poly8", alpha, n * h)
    base = taylor_head(problem, UniformGrid(0.0, h, n + 1).times)
    for step in (0, 1, 9):
        bad_call = 2 * step + 1 + (phase == "corrector")

        def left_behind(kernels):
            x, fc = np.zeros(n + 1), np.zeros(n + 1)
            x[0] = problem.init[0]
            fc[0] = problem.rhs(0.0, x[0])
            with pytest.raises(RAISED[kind]):
                kernels.adams_march(failing_at(problem.rhs, bad_call, kind), x, fc, base, h,
                                    alpha, h**alpha / math.gamma(alpha + 1.0),
                                    h**alpha / math.gamma(alpha + 2.0))
            return hexes(x), hexes(fc)

        x, fc = left_behind(_kernels_py)
        assert (x, fc) == left_behind(compiled), (step, phase, kind)
        # the failing step sets x only once its corrector is called, and fc not at all
        assert (x[step + 1] != (0.0).hex()) == (phase == "corrector")
        assert fc[step + 1:] == [(0.0).hex()] * (n - step)

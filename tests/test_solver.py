"""Predictor-corrector solver: accuracy, counters, divergence, validation."""

import dataclasses
import math

import numpy as np
import pytest

from jacobipc import problems
from jacobipc.adams import EXACT, REFINED_ADAMS, StarterConfig
from jacobipc.problems import ProblemSpec, make_problem, taylor_head
from jacobipc.solver import (SolverConfig, SplitConfig, quadrature_for, solve,
                             step_count)
from jacobipc.trajectory import STATUS_DIVERGED, STATUS_OK

# published max errors on the degree-8 benchmark at h = 1/160
ERRORS_160 = {
    2: {0.3: 6.67e-4, 0.5: 4.17e-4, 0.9: 6.16e-4, 1.5: 6.14e-4},
    3: {0.3: 1.39e-5, 0.5: 7.05e-6, 0.9: 9.71e-6, 1.5: 1.05e-5},
}


def max_err(tr, exact):
    return max(abs(tr.x[i] - exact(tr.grid.t(i))) for i in range(tr.grid.count))


def run(problem, n, size, jn=26):
    cfg = SolverConfig(h=problem.T / n, stencil_size=size, jn=jn,
                       starter=StarterConfig(mode=EXACT))
    return solve(problem, cfg)


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.5])
def test_published_errors_at_160(size, alpha):
    problem = make_problem("poly8", alpha, 1.0)
    tr = run(problem, 160, size)
    assert tr.status == STATUS_OK
    err = max_err(tr, problem.exact)
    pinned = ERRORS_160[size][alpha]
    assert pinned / 3 < err < pinned * 3


@pytest.mark.parametrize("size,jn,n", [(2, 26, 40), (3, 26, 40), (3, 8, 25), (4, 12, 40)])
def test_counter_closed_forms(size, jn, n):
    problem = make_problem("poly8", 0.5, 1.0)
    tr = run(problem, n, size, jn)
    steps = n - size + 1
    assert tr.counters.rhs_evals == size + 2 * steps
    assert tr.counters.interp_evals == (2 * jn + 1) * steps
    assert tr.counters.value_reads == ((2 * jn - 1) * size + 2) * steps
    assert tr.counters.history_reads == 0


def poisoned(problem, bad_call):
    """The problem with an rhs that returns 1e200 on its bad_call-th call (from 1)."""
    calls = 0

    def rhs(t, x):
        nonlocal calls
        calls += 1
        return 1e200 if calls == bad_call else problem.rhs(t, x)

    return dataclasses.replace(problem, rhs=rhs)


@pytest.mark.parametrize("size,jn,done", [(3, 8, 5), (2, 26, 300)])
@pytest.mark.parametrize("phase", ["predictor", "corrector"])
def test_counters_when_a_guard_trips(size, jn, done, phase):
    # `done` steps complete; a huge f from the last corrected value trips the
    # next predictor, a huge f_pred trips the corrector of the same step
    bad_call = size + 2 * done + (phase == "corrector")
    problem = poisoned(make_problem("poly8", 0.5, 1.0), bad_call)
    tr = run(problem, 400, size, jn)
    assert tr.status == STATUS_DIVERGED
    assert tr.grid.count == size + done
    per_step = (2 * jn - 1) * size + 2
    c = tr.counters
    if phase == "predictor":
        assert c.rhs_evals == size + 2 * done
        assert c.interp_evals == (2 * jn + 1) * done + jn + 1
        assert c.value_reads == per_step * done + jn * size + 1
    else:
        assert c.rhs_evals == size + 2 * done + 1
        assert c.interp_evals == (2 * jn + 1) * (done + 1)
        assert c.value_reads == per_step * (done + 1)
    assert c.history_reads == 0


def test_zero_rhs_reproduces_taylor_head():
    problem = ProblemSpec(1.3, (2.0, 0.5), lambda t, x: 0.0, 1.0,
                          exact=lambda t: 2.0 + 0.5 * t)
    tr = run(problem, 20, 3, jn=6)
    for i in range(tr.grid.count):
        assert tr.x[i] == taylor_head(problem, tr.grid.t(i))


def test_constant_rhs_matches_analytic():
    alpha, c = 0.6, 2.5
    exact = lambda t: 1.0 + c * t**alpha / math.gamma(alpha + 1.0)
    problem = ProblemSpec(alpha, (1.0,), lambda t, x: c, 1.0, exact=exact)
    tr = run(problem, 20, 3, jn=8)
    assert max_err(tr, exact) < 1e-12


@pytest.mark.parametrize("alpha", [0.9, 1.5])
def test_stencil4_order_band(alpha):
    problem = make_problem("poly8", alpha, 1.0)
    errs = [max_err(run(problem, n, 4), problem.exact) for n in (40, 80, 160)]
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.65 <= math.log2(e0 / e1) <= 4.6


def test_step_count():
    assert step_count(1.0, 1.0 / 160) == 160
    assert step_count(2.0, 0.25) == 8
    with pytest.raises(ValueError):
        step_count(1.0, 0.3)
    with pytest.raises(ValueError):
        step_count(1.0, 0.30001)
    # a count that is no finite number is refused, naming the step
    for length, h in ((1.0, 1e-320), (1.0, 0.0), (math.inf, 0.1), (math.nan, 0.1)):
        with pytest.raises(OverflowError, match=f"step {h} "):
            step_count(length, h)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(h=0.0)
    # NaN fails "0 < x < inf" as well as the infinities do
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"got {bad}"):
            SolverConfig(h=bad)
        with pytest.raises(ValueError, match=f"got {bad}"):
            SplitConfig(t0=bad)
        with pytest.raises(ValueError, match=f"got {bad}"):
            ProblemSpec(0.5, (0.0,), lambda t, x: x, bad)
    with pytest.raises(ValueError):
        SolverConfig(h=0.1, stencil_size=1)
    with pytest.raises(ValueError):
        SolverConfig(h=0.1, jn=1)
    with pytest.raises(ValueError):
        SplitConfig(t0=0.0)
    with pytest.raises(ValueError):
        SplitConfig(t0=0.5, aux_jn=1)
    with pytest.raises(ValueError):
        SplitConfig(t0=0.5, fine_factor=0)
    with pytest.raises(ValueError):
        solve(make_problem("poly8", 0.5, 1.0), SolverConfig(h=0.5, stencil_size=3))
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 2\], got 0.0"):
        ProblemSpec(0.0, (0.0,), lambda t, x: x, 1.0)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 2\], got 2.5"):
        ProblemSpec(2.5, (0.0, 0.0, 0.0), lambda t, x: x, 1.0)
    with pytest.raises(ValueError, match=r"need ceil\(alpha\) = 2 initial values, got 1"):
        ProblemSpec(1.5, (0.0,), lambda t, x: x, 1.0)
    with pytest.raises(ValueError, match="unknown problem id 'nope'"):
        make_problem("nope", 0.5, 1.0)


def test_make_problem_checks_order_and_horizon_before_the_factory(monkeypatch):
    # a factory computes its constants and initial values from alpha, which
    # for these orders fails with an unnamed error or allocates ceil(alpha)
    calls = []
    monkeypatch.setitem(problems._REGISTRY, "poly8", lambda *args: calls.append(args))
    for alpha, T, named in ((math.nan, 1.0, "alpha"), (1e300, 1.0, "alpha"),
                            (1000000.5, 1.0, "alpha"), (0.5, math.inf, "horizon T")):
        with pytest.raises(ValueError, match=f"^{named} must be"):
            make_problem("poly8", alpha, T)
    assert calls == []


def test_divergence_truncates_and_flags():
    problem = ProblemSpec(0.5, (1.0,), lambda t, x: x * x + 1.0, 2.0, name="riccati")
    cfg = SolverConfig(h=1.0 / 40, stencil_size=3, jn=10,
                       starter=StarterConfig(mode=REFINED_ADAMS, k=0))
    tr = solve(problem, cfg)
    assert tr.status == STATUS_DIVERGED
    assert tr.grid.count < 81
    assert np.all(np.isfinite(tr.x))
    assert not tr.x.flags.writeable


def test_quadrature_for_is_cached_lobatto_rule():
    from jacobipc.quadrature import JacobiWeight, gauss_lobatto_rule

    rule = quadrature_for(0.5, 26)
    assert rule is gauss_lobatto_rule(JacobiWeight(-0.5, 0.0), 27)
    assert rule.n_points == 27

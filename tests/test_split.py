"""Two-segment runs: head quadrature plus restarted stepping."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from jacobipc import split
from jacobipc._kernels_py import plan_values, stencil_plan
from jacobipc.adams import EXACT, REFINED_ADAMS, StarterConfig, adams_solve
from jacobipc.problems import ProblemSpec, make_problem
from jacobipc.quadrature import JacobiWeight, gauss_lobatto_rule
from jacobipc.solver import SolverConfig, SplitConfig, solve
from jacobipc.interp import UniformGrid, map_node, uniform_bary_weights
from jacobipc.split import head_integral
from jacobipc.trajectory import STATUS_OK, Trajectory
from march_reference import weighted_interp_sum


def aux_rule(jn):
    return gauss_lobatto_rule(JacobiWeight(0.0, 0.0), jn + 1)


def head_run(rhs, alpha, t0, n_fine, init=(0.0,)):
    problem = ProblemSpec(alpha, init, rhs, t0, name="head")
    return adams_solve(problem, t0 / n_fine, n_fine)


def max_err(tr, exact):
    return max(abs(tr.x[i] - exact(tr.grid.t(i))) for i in range(tr.grid.count))


def test_head_integral_constant_integrand_alpha_one():
    # alpha = 1 kills the kernel, f = 1: the integral is plain length t0
    t0 = 0.4
    problem = ProblemSpec(1.0, (0.0,), lambda t, x: 1.0, 1.0)
    head = head_run(problem.rhs, 1.0, t0, 16)
    got = head_integral(problem, head, aux_rule(12), 3, [0.5, 1.0, 3.0])
    assert got.shape == (3,)
    assert got == pytest.approx([t0] * 3, abs=1e-13)


def test_head_integral_singular_kernel_closed_form():
    # f = 1, alpha = 1/2: integral of (1-tau)^(-1/2) over [0, 0.1] / gamma(1/2)
    problem = ProblemSpec(0.5, (0.0,), lambda t, x: 1.0, 1.0)
    head = head_run(problem.rhs, 0.5, 0.1, 20)
    want = 2.0 * (1.0 - math.sqrt(0.9)) / math.sqrt(math.pi)
    got = head_integral(problem, head, aux_rule(16), 3, [1.0])
    assert got == pytest.approx([want], rel=1e-12)


def test_head_integral_polynomial_integrand_is_exact():
    # f(tau) = tau^2 with alpha = 1: t0^3 / 3, exact for rule and stencil
    t0 = 0.3
    problem = ProblemSpec(1.0, (0.0,), lambda t, x: t * t, 1.0)
    head = head_run(problem.rhs, 1.0, t0, 12)
    got = head_integral(problem, head, aux_rule(8), 3, [2.0])
    assert got == pytest.approx([t0**3 / 3.0], rel=1e-13)


def test_head_integral_over_many_times_equals_one_at_a_time():
    problem = make_problem("ml_linear", 0.7, 2.0)
    head = adams_solve(problem, 0.01, 30)
    times = 0.3 + 0.05 * np.arange(1, 30)
    many = head_integral(problem, head, aux_rule(20), 3, times)
    one = [head_integral(problem, head, aux_rule(20), 3, [t])[0] for t in times]
    assert many.tolist() == one


def test_head_integral_sums_its_terms_in_node_order(monkeypatch):
    # each value is c times the sum, from 0.0 in node order, of the terms
    # w_j (t - tau_j)^(alpha - 1) f_j, bit for bit, also where the times run
    # over several HEAD_BLOCK chunks (4 times a chunk here, 15 times)
    problem = make_problem("ml_linear", 0.7, 2.0)
    head = adams_solve(problem, 0.01, 30)
    aux = aux_rule(52)
    monkeypatch.setattr(split, "HEAD_BLOCK", 4 * aux.n_points + 3)
    times = 0.3 + 0.1 * np.arange(1, 16)
    got = head_integral(problem, head, aux, 3, times)
    n, t0 = head.grid.count - 2, head.grid.t(head.grid.count - 1)
    plan = stencil_plan(n, n + 1, aux.nodes, aux.weights, aux.n_points, 3,
                        uniform_bary_weights(3), 1)
    ftau = plan_values(plan, 0, 1, head.f_cache)[0]
    taus = map_node(aux.nodes, 0.0, t0)
    wt = aux.weights * (0.5 * t0)
    c = 1.0 / math.gamma(problem.alpha)
    want = []
    for t in times.tolist():
        total = 0.0
        for term in (wt * (t - taus) ** (problem.alpha - 1.0) * ftau).tolist():
            total += term
        want.append(c * total)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def head_node_values(head, aux, size):
    """The f values ``head_integral`` interpolates at the aux nodes, read off it.

    With alpha = 1 the kernel (t - tau)^0 is 1 and Gamma(1) = 1, and over a head
    segment [0, 2] the mapped weights are the rule's own; with the unit weight
    vector e_j the integral is then exactly the value at node j.
    """
    problem = ProblemSpec(1.0, (0.0,), lambda t, x: 0.0, 4.0)
    assert head.grid.origin == 0.0 and head.grid.t(head.grid.count - 1) == 2.0
    return [head_integral(problem, head, SimpleNamespace(nodes=aux.nodes, weights=unit,
                                                         n_points=aux.n_points),
                          size, [3.0])[0]
            for unit in np.eye(aux.n_points)]


@pytest.mark.parametrize("aux_jn", [2, 4, 52, 104])
@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_head_node_values_match_the_scalar_reference(size, aux_jn):
    # every rule has the end nodes -1 and 1 and the middle node 0, which lands on
    # the head grid point (n + 1) / 2 when n + 1 is even: ties at the ends and in
    # the middle, and none elsewhere
    aux = aux_rule(aux_jn)
    bary = uniform_bary_weights(size)
    rng = np.random.default_rng(size * 1000 + aux_jn)
    for points in sorted({size, size + 1, 8, 9, 16, 21, 40}):
        n = points - 1
        fvals = rng.uniform(-5.0, 5.0, size=n + 2)
        head = Trajectory(UniformGrid(0.0, 2.0 / points, n + 2), np.zeros(n + 2), fvals)
        want = [weighted_interp_sum(fvals, n, aux.nodes[j : j + 1], np.ones(1), 1, size,
                                    bary, 1)[0]
                for j in range(aux.n_points)]
        got = head_node_values(head, aux, size)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_head_integral_requires_time_beyond_segment():
    problem = ProblemSpec(0.5, (0.0,), lambda t, x: 1.0, 1.0)
    head = head_run(problem.rhs, 0.5, 0.2, 10)
    # one check covers the whole array: any time at or before t0 is refused
    for times in ([0.2], [0.5, 0.2, 0.7], [0.1, 0.5], [0.5, math.nan]):
        with pytest.raises(ValueError, match="beyond the head segment"):
            head_integral(problem, head, aux_rule(8), 3, times)
    with pytest.raises(ValueError, match="too short"):
        head_integral(problem, head_run(problem.rhs, 0.5, 0.2, 1), aux_rule(8), 3, [0.5])
    with pytest.raises(ValueError, match="at least 2"):
        head_integral(problem, head, aux_rule(8), 1, [0.5])


def test_split_run_tracks_plain_run():
    problem = make_problem("ml_linear", 0.5, 1.0)
    starter = StarterConfig(mode=EXACT)
    plain = solve(problem, SolverConfig(h=1.0 / 40, stencil_size=3, jn=26,
                                        starter=starter))
    split = solve(problem, SolverConfig(h=1.0 / 40, stencil_size=3, jn=26,
                                        starter=starter,
                                        split=SplitConfig(t0=0.1)))
    assert split.status == STATUS_OK
    assert split.grid.origin == 0.1
    e_plain = max_err(plain, problem.exact)
    e_split = max_err(split, problem.exact)
    assert e_split < 5 * e_plain
    assert abs(split.x[-1] - plain.x[-1]) < 5 * max(e_plain, e_split)


@pytest.mark.parametrize("alpha,size,n,pinned", [
    (0.5, 3, 40, 1.43e-5),
    (0.2, 2, 160, 2.44e-5),
])
def test_published_split_errors(alpha, size, n, pinned):
    # relaxation benchmark on [0, 1.1], head segment [0, 0.1]
    problem = make_problem("ml_linear", alpha, 1.1)
    cfg = SolverConfig(h=1.0 / n, stencil_size=size, jn=26,
                       starter=StarterConfig(mode=EXACT),
                       split=SplitConfig(t0=0.1))
    tr = solve(problem, cfg)
    assert tr.status == STATUS_OK
    err = max_err(tr, problem.exact)
    assert pinned / 3 < err < pinned * 3


def test_aux_rule_default_is_twice_main_index():
    problem = make_problem("poly8", 0.5, 1.0)
    base = dict(h=1.0 / 40, stencil_size=3, jn=26,
                starter=StarterConfig(mode=EXACT))
    auto = solve(problem, SolverConfig(split=SplitConfig(t0=0.1), **base))
    pinned = solve(problem, SolverConfig(split=SplitConfig(t0=0.1, aux_jn=52), **base))
    assert np.array_equal(auto.x, pinned.x)


def test_refined_start_matches_exact_start():
    problem = make_problem("poly8", 0.5, 1.0)
    base = dict(h=1.0 / 40, stencil_size=3, jn=26, split=SplitConfig(t0=0.1))
    ex = solve(problem, SolverConfig(starter=StarterConfig(mode=EXACT), **base))
    rf = solve(problem, SolverConfig(starter=StarterConfig(mode=REFINED_ADAMS), **base))
    e_ex = max_err(ex, problem.exact)
    e_rf = max_err(rf, problem.exact)
    assert e_rf < 5 * max(e_ex, 1e-9)


def test_head_trajectory_rides_along():
    problem = make_problem("poly8", 0.5, 1.0)
    for mode in (EXACT, REFINED_ADAMS):
        cfg = SolverConfig(h=1.0 / 40, stencil_size=3, jn=26,
                           starter=StarterConfig(mode=mode),
                           split=SplitConfig(t0=0.1))
        tr = solve(problem, cfg)
        head = tr.head
        assert head is not None
        assert head.grid.origin == 0.0
        end = head.grid.origin + (head.grid.count - 1) * head.grid.h
        assert end == pytest.approx(0.1, abs=1e-12)


def test_split_validation():
    problem = make_problem("poly8", 0.5, 1.0)
    starter = StarterConfig(mode=EXACT)
    with pytest.raises(ValueError, match="inside"):
        solve(problem, SolverConfig(h=0.1, starter=starter,
                                    split=SplitConfig(t0=1.0)))
    with pytest.raises(ValueError, match="too coarse"):
        solve(problem, SolverConfig(h=0.45, starter=starter,
                                    split=SplitConfig(t0=0.1)))
    with pytest.raises(ValueError, match="evenly divide"):
        solve(problem, SolverConfig(h=0.1, starter=starter,
                                    split=SplitConfig(t0=0.13)))
    # a refined split start continues the head run, so it takes no k
    with pytest.raises(ValueError, match="takes no k"):
        solve(problem, SolverConfig(h=0.1, starter=StarterConfig(mode=REFINED_ADAMS, k=1),
                                    split=SplitConfig(t0=0.1)))
    # the head's fine Adams run is capped, and refused before any work
    with pytest.raises(ValueError, match="2000-substep cap"):
        solve(problem, SolverConfig(h=0.1, starter=starter,
                                    split=SplitConfig(t0=0.5, fine_factor=10000)))


def counting_problem(problem):
    """The problem with an rhs that counts its calls, and no exact solution."""
    calls = []

    def rhs(t, x):
        calls.append(t)
        return problem.rhs(t, x)

    return dataclasses.replace(problem, rhs=rhs, exact=None), calls


@pytest.mark.parametrize("starter,match", [
    (StarterConfig(mode=EXACT), "no exact solution"),
    (StarterConfig(mode=REFINED_ADAMS, k=1), "takes no k"),
])
def test_split_start_refusals_come_before_any_rhs_call(starter, match):
    problem, calls = counting_problem(make_problem("ml_linear", 0.5, 1.0))
    cfg = SolverConfig(h=1.0 / 40, starter=starter, split=SplitConfig(t0=0.1))
    with pytest.raises(ValueError, match=match):
        solve(problem, cfg)
    assert calls == []


@pytest.mark.parametrize("alpha,size,fine", [(0.5, 3, 10), (1.5, 4, 4)])
def test_split_refined_start_samples_the_fine_adams_run(alpha, size, fine):
    # the start values at t0, t0 + h, ... are every fine-th value of one
    # Adams run at h/fine, and the head is that run up to t0
    problem = make_problem("ml_linear", alpha, 1.0)
    h, t0 = 1.0 / 20, 0.25
    tr = solve(problem, SolverConfig(h=h, stencil_size=size,
                                     starter=StarterConfig(mode=REFINED_ADAMS),
                                     split=SplitConfig(t0=t0, fine_factor=fine)))
    n_fine = round(t0 * fine / h)
    ref = adams_solve(problem, h / fine, n_fine + (size - 1) * fine)
    assert np.array_equal(tr.x[:size], ref.x[n_fine::fine][:size])
    assert tr.head.grid.count == n_fine + 1
    assert np.array_equal(tr.head.x, ref.x[: n_fine + 1])

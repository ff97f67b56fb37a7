"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Tolerances are pinned here and should not be loosened; published
table values appear as literals with a stated factor.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from golden_quadrature import GOLDEN
from jacobipc.adams import EXACT, StarterConfig, adams_solve
from jacobipc.expr import compile_rhs, evaluate, parse
from jacobipc.mittag import mittag_leffler, ml_solution
from jacobipc.problems import make_problem
from jacobipc.quadrature import JacobiWeight, gauss_lobatto_rule
from jacobipc.solver import SolverConfig, SplitConfig, quadrature_for, solve
from jacobipc.trajectory import STATUS_DIVERGED, STATUS_OK
from quadrature_reference import integrate, moment

EXACT_START = StarterConfig(mode=EXACT)


def run_jpc(problem, n, size, jn=26, split=None):
    h = (problem.T - (split.t0 if split else 0.0)) / n
    cfg = SolverConfig(h=h, stencil_size=size, jn=jn, starter=EXACT_START,
                       split=split)
    return solve(problem, cfg)


def max_err(tr, exact):
    return max(abs(tr.x[i] - exact(tr.grid.t(i))) for i in range(tr.grid.count))


def pairwise_orders(h_list, errors):
    return [math.log(e0 / e1) / math.log(h0 / h1)
            for (h0, e0), (h1, e1) in zip(zip(h_list, errors),
                                          zip(h_list[1:], errors[1:]))]


def test_criterion_01_golden_quadrature_tables():
    for alpha, (nodes, weights) in GOLDEN.items():
        gauss_lobatto_rule.cache_clear()
        begin = time.perf_counter()
        rule = gauss_lobatto_rule(JacobiWeight(alpha - 1.0, 0.0), 27)
        elapsed = time.perf_counter() - begin
        assert elapsed < 1.0
        for got, want in zip(rule.nodes, nodes):
            assert abs(got - want) <= 1e-12
        for got, want in zip(rule.weights, weights):
            assert abs(got - want) <= 1e-12


def test_criterion_02_quadrature_exactness():
    for alpha in (0.1, 0.5, 1.2, 1.8):
        weight = JacobiWeight(alpha - 1.0, 0.0)
        for n_points in (5, 11, 27):
            rule = gauss_lobatto_rule(weight, n_points)
            for degree in range(2 * n_points - 2):
                want = float(moment(weight, degree))
                got = integrate(rule, lambda s: s**degree)
                assert abs(got - want) <= 1e-11 * max(abs(want), 1e-15)


ERRORS_AT_160 = {
    2: {0.3: 6.67e-4, 0.5: 4.17e-4, 0.9: 6.16e-4, 1.5: 6.14e-4},
    3: {0.3: 1.39e-5, 0.5: 7.05e-6, 0.9: 9.71e-6, 1.5: 1.05e-5},
}


def test_criterion_03_smooth_convergence_orders_and_errors():
    begin = time.perf_counter()
    ns = (40, 80, 160, 320)
    for size in (2, 3):
        for alpha in (0.3, 0.5, 0.9, 1.5):
            problem = make_problem("poly8", alpha, 1.0)
            errors = [max_err(run_jpc(problem, n, size), problem.exact)
                      for n in ns]
            orders = pairwise_orders([1.0 / n for n in ns], errors)
            # superconvergent cells overshoot; the minimum rate is the
            # meaningful asymptotic statistic and must sit at the stencil size
            assert size - 0.35 <= min(orders) <= size + 0.35
            pinned = ERRORS_AT_160[size][alpha]
            assert pinned / 3 < errors[2] < pinned * 3
    assert time.perf_counter() - begin < 120.0


def test_criterion_04_high_order_errors():
    problem = make_problem("poly8", 0.5, 1.0)
    for size, pinned in ((4, 2.99e-7), (5, 1.39e-8)):
        err = max_err(run_jpc(problem, 80, size), problem.exact)
        assert pinned / 3 < err < pinned * 3


def test_criterion_05_small_alpha_instability_and_recovery():
    problem = make_problem("poly8", 0.1, 1.0)

    errors = []
    for n in (160, 320, 640, 1280):
        tr = run_jpc(problem, n, 4)
        assert tr.status == STATUS_OK
        errors.append(max_err(tr, problem.exact))
    assert all(e1 >= e0 for e0, e1 in zip(errors, errors[1:]))

    # pushed far enough the guard trips: flagged truncation, not a crash
    tr = run_jpc(problem, 20480, 4)
    assert tr.status == STATUS_DIVERGED
    assert tr.grid.count < 20481
    assert np.all(np.isfinite(tr.x))

    short = make_problem("poly8", 0.1, 0.1)
    errs = [max_err(run_jpc(short, n, 4), short.exact) for n in (10, 20, 40, 80)]
    orders = pairwise_orders([short.T / n for n in (10, 20, 40, 80)], errs)
    assert all(3.5 <= o <= 4.5 for o in orders)
    assert 2.14e-12 / 5 < errs[-1] < 2.14e-12 * 5


def test_criterion_06_adams_baseline_order():
    problem = make_problem("poly8", 0.5, 1.0)
    ns = (40, 80, 160, 320)
    errors = []
    for n in ns:
        tr = adams_solve(problem, 1.0 / n, n)
        errors.append(max_err(tr, problem.exact))
    assert 4.65e-2 / 2 < errors[0] < 4.65e-2 * 2
    for order in pairwise_orders([1.0 / n for n in ns], errors):
        assert 1.4 <= order <= 1.8


def test_criterion_07_split_domain_relaxation():
    # published-table cells: head [0, 0.1], horizon 1.1, aux rule index 52
    for alpha, size, n, pinned in ((0.5, 3, 40, 1.43e-5),
                                   (0.2, 2, 160, 2.44e-5)):
        problem = make_problem("ml_linear", alpha, 1.1)
        tr = run_jpc(problem, n, size, split=SplitConfig(t0=0.1, aux_jn=52))
        assert tr.status == STATUS_OK
        err = max_err(tr, problem.exact)
        assert pinned / 3 < err < pinned * 3

    # long horizon: relative error below 1e-3 everywhere on [1, 50]
    for alpha in (0.2, 0.5):
        problem = make_problem("ml_linear", alpha, 50.0)
        for size in (2, 3):
            tr = run_jpc(problem, 490, size,
                         split=SplitConfig(t0=1.0, aux_jn=52, fine_factor=20))
            assert tr.status == STATUS_OK
            worst = max(abs(tr.x[i] - problem.exact(tr.grid.t(i)))
                        / abs(problem.exact(tr.grid.t(i)))
                        for i in range(tr.grid.count))
            assert worst < 1e-3


def test_criterion_08_linear_cost_and_walltime_scaling():
    size, jn = 3, 26
    problem = make_problem("poly8", 0.5, 1.0)

    # fresh-evaluation count is exactly linear in N
    for n in (100, 200, 400, 1000):
        tr = run_jpc(problem, n, size, jn)
        assert tr.counters.rhs_evals == size + 2 * (n - size + 1)
    two_n = run_jpc(problem, 2000, size, jn).counters
    one_n = run_jpc(problem, 1000, size, jn).counters
    per_step = (2 * jn - 1) * size + 4
    accesses = lambda c: c.rhs_evals + c.value_reads + c.history_reads
    assert accesses(two_n) - accesses(one_n) == 1000 * per_step

    # stencil 2 has no starter-only indices beyond the initial value pair:
    # doubling N exactly doubles the fresh evaluations
    small = run_jpc(problem, 1000, 2, jn).counters.rhs_evals
    large = run_jpc(problem, 2000, 2, jn).counters.rhs_evals
    assert large == 2 * small

    def jpc_wall(n, repeats=1):
        begin = time.perf_counter()
        for _ in range(repeats):
            run_jpc(problem, n, size, jn)
        return time.perf_counter() - begin

    def adams_wall(n):
        begin = time.perf_counter()
        adams_solve(problem, 1.0 / n, n)
        return time.perf_counter() - begin

    quadrature_for(problem.alpha, jn)
    jpc_wall(1000)  # warm pass
    adams_wall(1000)
    # min of three on both sides drops slow spells.  The sizes alternate, so a
    # change in host load between two timing windows cannot skew the ratio,
    # and the JPC N = 1000 window times eight solves, so both windows are
    # equally long and a short fast spell cannot shrink one side alone
    eight_1k, one_8k = zip(*((jpc_wall(1000, 8), jpc_wall(8000)) for _ in range(3)))
    jpc_ratio = 8 * min(one_8k) / min(eight_1k)
    adams_1k, adams_8k = zip(*((adams_wall(1000), adams_wall(8000)) for _ in range(3)))
    adams_ratio = min(adams_8k) / min(adams_1k)
    assert jpc_ratio <= 10.0
    assert adams_ratio >= 40.0


def test_criterion_09_mittag_leffler_identities():
    zs = [-50.0 * i / 100 for i in range(101)]
    for z in zs:
        assert abs(mittag_leffler(1.0, z) - math.exp(z)) <= 1e-12
        assert abs(mittag_leffler(2.0, z) - math.cos(math.sqrt(-z))) <= 1e-12

    for x in (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0):
        with mp.workdps(40):
            want = float(mp.exp(x * x) * mp.erfc(x))
        assert abs(mittag_leffler(0.5, -x) - want) <= 1e-10

    alpha, c = 0.6, 1.0 / math.gamma(0.6)
    for k in range(1, 21):
        t = 0.15 * k
        integral = mp.quad(
            lambda u: u ** (alpha - 1.0) * ml_solution(alpha, float(t - u)),
            [0, t])
        assert abs(ml_solution(alpha, t) - 1.0 + c * float(integral)) <= 1e-8


def test_criterion_10_expression_parser_suite():
    from test_expr import (ALPHA, EVAL_CASES, POLY8_SOURCE, SYNTAX_CASES, T,
                           X)

    assert len(EVAL_CASES) >= 30
    for source, want in EVAL_CASES:
        got = evaluate(parse(source), T, X, ALPHA)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-15)

    for source, exc, offset in SYNTAX_CASES:
        with pytest.raises(exc) as info:
            parse(source)
        assert info.value.offset == offset
        assert f"offset {offset}" in str(info.value)

    problem = make_problem("poly8", 0.5, 1.0)
    rhs = compile_rhs(POLY8_SOURCE, 0.5)
    for t in (0.2, 0.7):
        assert rhs(t, 1.0) == pytest.approx(problem.rhs(t, 1.0), rel=1e-12)

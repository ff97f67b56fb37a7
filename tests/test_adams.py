"""Fractional Adams baseline and starter machinery."""

import dataclasses
import math

import numpy as np
import pytest

from adams_reference import (STEP_SUM_NS, adams_march_loop, adams_weights,
                             history_sums_loop, marched_sums)
from jacobipc import _kernels_py
from jacobipc.adams import (EXACT, MAX_STARTER_STEPS, REFINED_ADAMS,
                            StarterConfig, adams_solve, recommended_refinement,
                            start_values)
from jacobipc.problems import ProblemSpec, make_problem
from jacobipc.solver import SplitConfig
from jacobipc.trajectory import STATUS_DIVERGED, STATUS_OK, DivergenceError


def test_alpha_one_step_is_euler_then_trapezoid():
    # f = -x, x(0) = 1, h = 0.1: predictor 0.9, corrector 0.905
    w = adams_weights(1.0, 0.1, 0)
    f0 = -1.0
    x_pred = 1.0 + np.dot(w.predictor, [f0]) / math.gamma(1.0)
    assert x_pred == pytest.approx(0.9, abs=1e-15)
    f_pred = -x_pred
    x1 = 1.0 + 0.1 / math.gamma(3.0) * (w.corrector[0] * f0 + w.corrector[1] * f_pred)
    assert x1 == pytest.approx(0.905, abs=1e-15)

    tr = adams_solve(make_problem("ml_linear", 1.0, 0.1), 0.1, 1)
    assert tr.x[1] == pytest.approx(0.905, abs=1e-15)


def test_alpha_one_weights_are_rectangle_and_trapezoid():
    h, n = 0.25, 6
    w = adams_weights(1.0, h, n)
    assert np.allclose(w.predictor, h, atol=1e-15)
    # corrector (scaled by h/Gamma(3) = h/2 at use) is 1, 2, ..., 2, 1
    assert w.corrector[0] == pytest.approx(1.0, abs=1e-12)
    assert w.corrector[-1] == 1.0
    assert np.allclose(w.corrector[1:-1], 2.0, atol=1e-12)


def test_weight_arrays_match_kernel_sums():
    from jacobipc._backend import kernels

    rng = np.random.default_rng(7)
    alpha, h, n = 0.6, 0.125, 7
    f = rng.uniform(-2, 2, size=n + 2)
    w = adams_weights(alpha, h, n)
    pred, corr = marched_sums(kernels.adams_march, f.tolist(), alpha)[n]
    assert np.dot(w.predictor, f[: n + 1]) == pytest.approx(
        h**alpha / alpha * pred, rel=1e-12)
    assert np.dot(w.corrector[: n + 1], f[: n + 1]) == pytest.approx(corr, rel=1e-12)


def test_pure_adams_march_matches_the_scalar_run_bit_for_bit():
    # the history sums of every step up to n = 1024 (pure against compiled
    # runs to the step cap in test_backend), then whole runs of a real rhs
    f = np.random.default_rng(17).uniform(-2, 2, size=1026).tolist()
    base = np.random.default_rng(18).uniform(-1, 1, size=201)
    for alpha in (0.01, 0.3, 0.5, 1.0, 1.7, 1.99):
        sums = marched_sums(_kernels_py.adams_march, f, alpha)
        for n in STEP_SUM_NS[:-1]:
            want = history_sums_loop(f, n, alpha)
            assert [v.hex() for v in sums[n]] == [v.hex() for v in want], (alpha, n)
        runs = []
        for march in (_kernels_py.adams_march, adams_march_loop):
            x, fc = np.zeros(201), np.zeros(201)
            x[0], fc[0] = 0.5, -0.4
            counts = march(lambda t, y: math.sin(7.0 * t) - 0.8 * y, x, fc, base, 1.0 / 200,
                           alpha, 0.9, 0.3)
            runs.append((counts, [v.hex() for v in x.tolist() + fc.tolist()]))
        assert runs[0] == runs[1]
        assert runs[0][0] == (201, 400, 200 * 201)


def test_pure_step_sums_refuse_steps_the_buffer_cannot_hold():
    # a step past the end of fc or base, or no step 0 at all, before any rhs call
    calls = []

    def rhs(t, y):
        calls.append(t)
        return 0.0

    for x, fc, base in ((np.zeros(6), np.ones(5), np.zeros(6)),
                        (np.zeros(6), np.ones(6), np.zeros(5)),
                        (np.zeros(0), np.ones(0), np.zeros(0))):
        with pytest.raises(IndexError):
            _kernels_py.adams_march(rhs, x, fc, base, 0.1, 0.5, 1.0, 1.0)
    assert calls == []


def test_alpha_one_second_order_convergence():
    problem = make_problem("ml_linear", 1.0, 1.0)
    errs = []
    for n in (20, 40, 80):
        tr = adams_solve(problem, 1.0 / n, n)
        errs.append(max(abs(tr.x[i] - problem.exact(tr.grid.t(i)))
                        for i in range(tr.grid.count)))
    for e0, e1 in zip(errs, errs[1:]):
        assert 1.8 <= math.log2(e0 / e1) <= 2.2


def test_fractional_order_band():
    problem = make_problem("poly8", 0.5, 1.0)
    errs = []
    for n in (40, 80):
        tr = adams_solve(problem, 1.0 / n, n)
        errs.append(max(abs(tr.x[i] - problem.exact(tr.grid.t(i)))
                        for i in range(tr.grid.count)))
    assert 1.3 <= math.log2(errs[0] / errs[1]) <= 1.9


def test_divergence_truncates_without_raising():
    problem = ProblemSpec(0.5, (1.0,), lambda t, x: x * x, 2.0, name="sq")
    tr = adams_solve(problem, 0.05, 40)
    assert tr.status == STATUS_DIVERGED
    assert tr.grid.count < 41
    assert np.all(np.isfinite(tr.x))
    assert not tr.x.flags.writeable


def test_counters_closed_form():
    problem = make_problem("ml_linear", 0.5, 1.0)
    n = 16
    tr = adams_solve(problem, 1.0 / n, n)
    assert tr.status == STATUS_OK
    assert tr.counters.rhs_evals == 2 * n + 1
    assert tr.counters.history_reads == n * (n + 1)
    assert tr.counters.value_reads == 0
    assert tr.counters.interp_evals == 0


@pytest.mark.parametrize("phase", ["predictor", "corrector"])
def test_counters_when_a_guard_trips(phase):
    # 7 steps complete; a huge f from the last corrected value trips the next
    # predictor, a huge f_pred trips the corrector of the same step
    done = 7
    bad_call = 1 + 2 * done + (phase == "corrector")
    calls = 0

    def rhs(t, x):
        nonlocal calls
        calls += 1
        return 1e200 if calls == bad_call else -x

    tr = adams_solve(ProblemSpec(0.5, (1.0,), rhs, 1.0), 1.0 / 16, 16)
    assert tr.status == STATUS_DIVERGED
    assert tr.grid.count == done + 1
    assert tr.counters.rhs_evals == bad_call
    assert tr.counters.history_reads == (done + 1) * (done + 2)
    assert tr.counters.value_reads == 0
    assert tr.counters.interp_evals == 0


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_adams_solve_refuses_a_step_that_is_not_finite_and_positive(h):
    calls = []

    def rhs(t, x):
        calls.append(t)
        return -x

    with pytest.raises(ValueError, match=f"step h must be finite and positive, got {h}"):
        adams_solve(ProblemSpec(0.5, (1.0,), rhs, 1.0), h, 10)
    with pytest.raises(ValueError, match="0 steps is not within 1"):
        adams_solve(ProblemSpec(0.5, (1.0,), rhs, 1.0), 0.1, 0)
    assert calls == []


def test_adams_solve_refuses_runs_above_the_step_cap():
    # the run costs O(N^2): 8193 steps are refused, naming N and the cap,
    # before the rhs is called once
    calls = []

    def rhs(t, x):
        calls.append(t)
        return -x

    with pytest.raises(ValueError, match=r"8193 steps.*8192-step cap"):
        adams_solve(ProblemSpec(0.5, (1.0,), rhs, 1.0), 1.0 / 8193, 8193)
    assert calls == []


def test_recommended_refinement_rule():
    # p = 1 + min(alpha, 1); smallest k with (h 10^-k)^p <= h^(size + 0.5)
    assert recommended_refinement(0.5, 0.1, 3) == 2
    assert recommended_refinement(1.5, 0.1, 3) == 1
    # the rule asks for k = 11 here; the fine run's cap allows (5 - 1) * 10^2
    assert recommended_refinement(0.1, 1.0 / 320, 5) == 2
    assert 4 * 10**2 <= MAX_STARTER_STEPS < 4 * 10**3
    k = recommended_refinement(0.7, 0.05, 2)
    p = 1.7
    h = 0.05
    assert (h * 10.0**-k) ** p <= h ** 2.5 * (1 + 1e-9)
    assert k == 0 or (h * 10.0 ** -(k - 1)) ** p > h**2.5
    with pytest.raises(ValueError, match=r"got h = 1\.0; .*--starter refined:K"):
        recommended_refinement(0.5, 1.0, 3)


def test_start_values_exact_mode():
    problem = make_problem("poly8", 0.5, 1.0)
    head, vals = start_values(problem, 0.1, 3, StarterConfig(mode=EXACT))
    assert head is None
    assert list(vals) == [problem.exact(0.0), problem.exact(0.1), problem.exact(0.2)]

    head, override = start_values(dataclasses.replace(problem, exact=lambda t: 7.0 + t),
                                  0.1, 2, StarterConfig(mode=EXACT))
    assert head is None
    assert list(override) == [7.0, 7.1]

    bare = ProblemSpec(0.5, (1.0,), lambda t, x: -x, 1.0)
    with pytest.raises(ValueError):
        start_values(bare, 0.1, 3, StarterConfig(mode=EXACT))


def test_start_values_exact_mode_at_split_point():
    # the values sample the exact solution from t0 on; the head is the fine
    # Adams run on [0, t0] at h/fine_factor
    problem = make_problem("ml_linear", 0.5, 1.0)
    head, vals = start_values(problem, 0.1, 3, StarterConfig(mode=EXACT),
                              SplitConfig(t0=0.2, fine_factor=5))
    assert list(vals) == [problem.exact(0.2 + i * 0.1) for i in range(3)]
    ref = adams_solve(problem, 0.1 / 5, 10)
    assert head.grid.origin == 0.0 and head.grid.count == 11
    assert np.array_equal(head.x, ref.x) and np.array_equal(head.f_cache, ref.f_cache)


def test_start_values_refined_mode():
    problem = make_problem("ml_linear", 0.5, 1.0)
    cfg = StarterConfig(mode=REFINED_ADAMS, k=2)
    head, vals = start_values(problem, 0.1, 3, cfg)
    assert head is None
    assert len(vals) == 3
    assert vals[0] == 1.0
    for i, v in enumerate(vals):
        assert abs(v - problem.exact(0.1 * i)) < 5e-4
    assert np.array_equal(vals, adams_solve(problem, 0.1 / 100, 200).x[::100])

    auto = start_values(problem, 0.1, 3, StarterConfig(mode=REFINED_ADAMS))[1]
    k = recommended_refinement(0.5, 0.1, 3)
    manual = start_values(problem, 0.1, 3, StarterConfig(mode=REFINED_ADAMS, k=k))[1]
    assert list(auto) == list(manual)

    # an explicit k whose fine run passes the cap is refused, not run
    with pytest.raises(ValueError, match="2000 substeps"):
        start_values(problem, 0.1, 3, StarterConfig(mode=REFINED_ADAMS, k=4))


def test_start_values_refined_mode_at_split_point():
    # one fine Adams run at h/fine_factor: the head up to t0, then every
    # fine_factor-th value from t0 on
    problem = make_problem("ml_linear", 0.5, 1.0)
    head, vals = start_values(problem, 0.1, 3, StarterConfig(mode=REFINED_ADAMS),
                              SplitConfig(t0=0.2, fine_factor=5))
    ref = adams_solve(problem, 0.1 / 5, 10 + 2 * 5)
    assert np.array_equal(vals, ref.x[10::5])
    assert head.grid.count == 11 and head.grid.h == 0.1 / 5
    assert np.array_equal(head.x, ref.x[:11])
    with pytest.raises(ValueError, match="takes no k"):
        start_values(problem, 0.1, 3, StarterConfig(mode=REFINED_ADAMS, k=1),
                     SplitConfig(t0=0.2))


def test_config_validation():
    with pytest.raises(ValueError):
        StarterConfig(mode="magic")
    with pytest.raises(ValueError):
        StarterConfig(mode=REFINED_ADAMS, k=-1)
    with pytest.raises(ValueError):
        adams_solve(make_problem("poly8", 0.5, 1.0), 0.0, 10)
    with pytest.raises(ValueError):
        adams_solve(make_problem("poly8", 0.5, 1.0), 0.1, 0)
    with pytest.raises(ValueError):
        start_values(make_problem("poly8", 0.5, 1.0), 0.1, 1, StarterConfig())


def test_start_values_refuse_a_diverged_fine_run():
    # x' = x^3 from 1 blows up before t = 0.5; the refined starter's fine run
    # passes the guard before it reaches the start values at 0.1 and 0.2
    problem = ProblemSpec(0.5, (1.0,), lambda t, x: x**3, 1.0)
    with pytest.raises(DivergenceError, match="fine Adams run diverged"):
        start_values(problem, 0.1, 3, StarterConfig(mode=REFINED_ADAMS))


def test_starter_label_parses_back():
    for cfg in [StarterConfig()] + [StarterConfig(mode=REFINED_ADAMS, k=k)
                                    for k in (None, 0, 1, 2, 3)]:
        assert StarterConfig.parse(cfg.label) == cfg
    assert StarterConfig.parse("refined") == StarterConfig.parse("refined:auto")
    with pytest.raises(ValueError, match="exact starter takes no refinement exponent"):
        StarterConfig(mode=EXACT, k=1)


@pytest.mark.parametrize("text,message", [
    ("refined:x", "bad starter 'refined:x': invalid literal for int() with base 10: 'x'"),
    ("refined:-1", "bad starter 'refined:-1': refinement exponent must be >= 0"),
    ("refined:", "bad starter 'refined:': invalid literal for int() with base 10: ''"),
    ("exact:1", "bad starter 'exact:1' (use exact, refined, or refined:K)"),
    ("", "bad starter '' (use exact, refined, or refined:K)"),
])
def test_starter_parse_refuses_by_name(text, message):
    with pytest.raises(ValueError) as refusal:
        StarterConfig.parse(text)
    assert str(refusal.value) == message

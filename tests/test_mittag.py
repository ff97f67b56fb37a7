"""Mittag-Leffler evaluator on the nonpositive real axis."""

import math
import sys

import mpmath as mp
import pytest

from jacobipc.mittag import SWITCH_TARGET, _asymptotic, mittag_leffler, ml_solution


def ml_series_oracle(alpha, z, dps=60):
    # plain extended-precision partial sums, independent of the module
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        zz = mp.mpf(z)
        total = mp.mpf(1)
        p = mp.mpf(1)
        r = (-z) ** (1.0 / alpha) if z else 0.0
        for k in range(1, 5000):
            p *= zz
            term = p / mp.gamma(a * k + 1)
            total += term
            if abs(term) < mp.mpf(10) ** (-dps + 3) * (1 + abs(total)) and alpha * k > r:
                return float(total)
    raise AssertionError("oracle series did not converge")


def test_order_one_is_exp():
    for i in range(101):
        z = -50.0 * i / 100
        assert abs(mittag_leffler(1.0, z) - math.exp(z)) <= 1e-12


def test_order_two_is_cos_sqrt():
    for i in range(101):
        z = -50.0 * i / 100
        assert abs(mittag_leffler(2.0, z) - math.cos(math.sqrt(-z))) <= 1e-12


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.3, 1.0, 2.0, 3.5, 5.0, 7.0,
                               10.0, 20.0, 35.0, 50.0])
def test_order_half_erfc_identity(x):
    with mp.workdps(40):
        want = float(mp.exp(x * x) * mp.erfc(x))
    assert abs(mittag_leffler(0.5, -x) - want) <= 1e-10


@pytest.mark.parametrize("alpha,z", [
    (0.3, -0.7), (0.3, -4.0), (0.7, -12.0), (1.2, -9.0),
    (1.5, -0.5), (1.5, -7.3), (1.5, -30.0), (1.5, -200.0), (1.9, -40.0),
])
def test_against_series_oracle(alpha, z):
    assert abs(mittag_leffler(alpha, z, 1e-11) - ml_series_oracle(alpha, z, 80)) <= 1e-9


@pytest.mark.parametrize("alpha", [0.6, 1.3])
def test_relaxation_solution_satisfies_volterra_equation(alpha):
    # x(t) = 1 - (1/Gamma(alpha)) * int_0^t (t-s)^(alpha-1) x(s) ds
    c = 1.0 / math.gamma(alpha)
    for k in range(1, 11):
        t = 0.3 * k
        integral = mp.quad(
            lambda u: u ** (alpha - 1.0) * ml_solution(alpha, float(t - u)),
            [0, t])
        residual = ml_solution(alpha, t) - 1.0 + c * float(integral)
        assert abs(residual) <= 1e-8


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
def test_positive_and_decreasing_for_order_below_one(alpha):
    xs = [0.5 * i for i in range(121)]
    vals = [mittag_leffler(alpha, -x) for x in xs]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 0.95, 1.2, 1.6, 1.9])
def test_regimes_agree_at_the_switch_point(alpha):
    # the expansion is used where its own error estimate reaches SWITCH_TARGET;
    # bisect for that crossover in |z|
    def expansion_ok(x):
        return _asymptotic(alpha, x)[1] <= SWITCH_TARGET

    lo, hi = 0.25, 1.0
    while not expansion_ok(hi):
        lo, hi = hi, 2.0 * hi
    assert not expansion_ok(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if expansion_ok(mid):
            hi = mid
        else:
            lo = mid
    # both sides of the crossover must sit on the true curve, not just match
    dps = 80 + int(0.45 * hi ** (1.0 / alpha))
    assert abs(_asymptotic(alpha, hi)[0] - ml_series_oracle(alpha, -hi, dps)) <= 1e-10
    for x in (lo * (1 - 1e-6), hi * (1 + 1e-6)):
        want = ml_series_oracle(alpha, -x, dps)
        assert abs(mittag_leffler(alpha, -x) - want) <= 1e-9


def test_solution_wrapper():
    assert ml_solution(0.7, 0.0) == 1.0
    assert ml_solution(1.0, 2.0) == math.exp(-2.0)
    with mp.workdps(40):
        want = float(mp.exp(2) * mp.erfc(mp.sqrt(2)))
    assert abs(ml_solution(0.5, 2.0) - want) <= 1e-10
    with pytest.raises(ValueError):
        ml_solution(0.5, -1.0)


def test_validation_and_trivial_values():
    assert mittag_leffler(0.4, 0.0) == 1.0
    with pytest.raises(ValueError):
        mittag_leffler(0.0, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(2.5, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 0.5)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, -1.0, tol=0.0)
    # below machine epsilon no float64 regime can accept: refused, not slow
    eps = sys.float_info.epsilon
    assert abs(mittag_leffler(0.5, -100.0, eps) - mittag_leffler(0.5, -100.0)) <= 1e-10
    for tol in (0.5 * eps, 1e-20, math.nan):
        with pytest.raises(ValueError):
            mittag_leffler(0.5, -100.0, tol)

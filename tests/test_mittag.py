"""Mittag-Leffler evaluator on the nonpositive real axis."""

import math
import subprocess
import sys
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from jacobipc import mittag
from jacobipc.mittag import MIN_ORDER, mittag_leffler, ml_solution
from mittag_reference import evaluate_per_call, ml_reference, node_order_sum


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
    assert abs(mittag_leffler(alpha, z, 1e-11) - ml_reference(alpha, z)) <= 1e-9


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


SWEEP_ORDERS = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 2 / 3, 0.7, 0.8,
                0.9, 0.95, 0.98, 0.99, 0.999, 1 - 1e-6, 1 + 1e-6, 1.001, 1.01,
                1.02, 1.1, 1.2, 1.4, 1.6, 1.8, 1.9, 1.99]
SWEEP_ARGS = [0.0, -1e-3, -0.3, -1.05, -3.7, -20.0, -150.0, -1000.0]


@pytest.mark.parametrize("alpha", SWEEP_ORDERS)
def test_matches_reference_across_the_sweep(alpha):
    # includes the band around order 1, carried by the pole correction, and
    # order 2/3, where the poles cross the edge of the strip
    for z in SWEEP_ARGS:
        assert abs(mittag_leffler(alpha, z) - ml_reference(alpha, z)) <= 1e-12


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
    # NaN arguments and orders below the floor are refused, not evaluated
    for alpha, z in ((0.5, math.nan), (math.nan, -1.0), (0.5 * MIN_ORDER, -1.0),
                     (1e-300, -1.0), (-0.5, -1.0)):
        with pytest.raises(ValueError):
            mittag_leffler(alpha, z)
    for alpha in (MIN_ORDER, 0.5, 0.9, 1.0, 1.5, 1.99):
        assert mittag_leffler(alpha, -math.inf) == 0.0
    # cos(sqrt(x)) has no limit as x -> inf
    with pytest.raises(ValueError, match="no limit"):
        mittag_leffler(2.0, -math.inf)
    # tolerances below machine epsilon are refused, not chased
    eps = sys.float_info.epsilon
    assert abs(mittag_leffler(0.5, -100.0, eps) - mittag_leffler(0.5, -100.0)) <= 1e-10
    for tol in (0.5 * eps, 1e-20, math.nan):
        with pytest.raises(ValueError):
            mittag_leffler(0.5, -100.0, tol)


def test_cached_table_changes_no_bits():
    # many x per (alpha, tol), so each cached table is read many times,
    # from x = 1e-10 to x = 1e300, where no node is left at small alpha
    rng = np.random.default_rng(29)
    alphas = np.concatenate([[MIN_ORDER, 0.5, 0.999, 1.001, 1.5, 1.99],
                             rng.uniform(MIN_ORDER, 1.99, size=14)])
    for alpha in alphas.tolist():
        for tol in (sys.float_info.epsilon, 1e-10, 1e-3):
            xs = 10.0 ** np.concatenate([[-10.0, 0.0, 300.0], rng.uniform(-10, 4, size=12),
                                         rng.uniform(4, 300, size=4)])
            for x in xs.tolist():
                got = mittag_leffler(alpha, -x, tol)
                assert got.hex() == evaluate_per_call(alpha, x, tol).hex(), (alpha, x, tol)


def test_cached_table_is_read_only_and_an_empty_range_gives_no_nodes():
    big_l, h, lo, scaled, weight, scale, pole, mode = mittag._trapezoid_table(MIN_ORDER, 1e-10)
    s = scaled * MIN_ORDER
    assert abs(s[0] + big_l) <= h and abs(s[-1] - big_l) <= h  # the nodes span [-L, L]
    assert len(scaled) == len(weight) and scale > 0.0 and pole is None and mode is None
    for a in (scaled, weight):
        assert not a.flags.writeable
    # hi = MIN_ORDER ln 745 - ln x < -L: the sum is empty, not the table's
    # head, where exp overflows before the integrand underflows to 0
    for x in (1e20, 1e300):
        assert MIN_ORDER * mittag.LN_UNDERFLOW - math.log(x) < -big_l
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mittag._evaluate(MIN_ORDER, x, 1e-10) == 0.0


@pytest.mark.parametrize("tol", [sys.float_info.epsilon, 1e-10])
@pytest.mark.parametrize("alpha", [MIN_ORDER, 0.4, 0.999, 1.5])
def test_terms_are_summed_in_node_order(alpha, tol):
    # the pole band (0.999) and the mode term (1.5) are added after the sum
    for x in (10.0 ** np.linspace(-8, 4, 25)).tolist():
        got = mittag._evaluate(alpha, x, tol)
        assert got.hex() == evaluate_per_call(alpha, x, tol, node_order_sum).hex(), x


def test_lowest_order_is_fast():
    mittag_leffler(MIN_ORDER, -1.05)  # warm numpy
    mittag._trapezoid_table.cache_clear()  # time the table build too
    begin = time.perf_counter()
    mittag_leffler(MIN_ORDER, -1.05)
    assert time.perf_counter() - begin < 0.05


def test_package_runs_without_mpmath():
    # mpmath is a test dependency only: the package, the oracle and the CLI
    # must work with the import blocked
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import jacobipc\n"
        "from jacobipc.cli import main\n"
        "assert 0.0 < jacobipc.ml_solution(0.4, 3.0) < 1.0\n"
        "sys.exit(main(['mlf', '--alpha', '0.3', '--z=-7']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert abs(float(proc.stdout) - ml_reference(0.3, -7.0)) <= 1e-12

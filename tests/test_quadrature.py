"""Quadrature rule construction: golden tables, exactness, invariants."""

import math
import time

import numpy as np
import pytest

from jacobipc.quadrature import CACHED_RULES, MAX_POINTS, JacobiWeight, gauss_lobatto_rule

from golden_quadrature import GOLDEN
from quadrature_reference import integrate, moment


def rule_for_alpha(alpha, n_points=27):
    return gauss_lobatto_rule(JacobiWeight(alpha - 1.0, 0.0), n_points)


def test_golden_tables_reproduced():
    for alpha, (nodes, weights) in GOLDEN.items():
        rule = rule_for_alpha(alpha)
        node_dev = np.max(np.abs(rule.nodes - np.array(nodes)))
        weight_dev = np.max(np.abs(rule.weights - np.array(weights)))
        assert node_dev <= 1e-12, f"alpha={alpha}: node deviation {node_dev:.3e}"
        assert weight_dev <= 1e-12, f"alpha={alpha}: weight deviation {weight_dev:.3e}"


def test_construction_under_one_second_each():
    for alpha in GOLDEN:
        gauss_lobatto_rule.cache_clear()
        begin = time.perf_counter()
        rule_for_alpha(alpha)
        assert time.perf_counter() - begin < 1.0


def test_rule_cache_keeps_the_most_recently_used_rules():
    alphas = [0.1 + 0.004 * i for i in range(200)]
    rules = [rule_for_alpha(alpha, 5) for alpha in alphas]
    assert gauss_lobatto_rule.cache_info().currsize == CACHED_RULES
    assert rule_for_alpha(alphas[-1], 5) is rules[-1]
    # a hit makes the oldest cached rule the most recent one, so the next
    # build drops the one after it
    oldest = alphas[-CACHED_RULES]
    assert rule_for_alpha(oldest, 5) is rules[-CACHED_RULES]
    rule_for_alpha(0.95, 5)
    assert gauss_lobatto_rule.cache_info().currsize == CACHED_RULES
    hits = gauss_lobatto_rule.cache_info().hits
    assert rule_for_alpha(oldest, 5) is rules[-CACHED_RULES]
    assert gauss_lobatto_rule.cache_info().hits == hits + 1
    assert rule_for_alpha(alphas[1 - CACHED_RULES], 5) is not rules[1 - CACHED_RULES]
    assert gauss_lobatto_rule.cache_info().hits == hits + 1


def test_weight_sum_is_total_mass():
    # integral of (1-x)^a (1+x)^b over [-1, 1] is 2^(a+b+1) B(a+1, b+1)
    for b in (0.0, -0.99, 1.0):
        for alpha in GOLDEN:
            a = alpha - 1.0
            rule = gauss_lobatto_rule(JacobiWeight(a, b), 27)
            mass = (2.0**(a + b + 1) * math.gamma(a + 1) * math.gamma(b + 1)
                    / math.gamma(a + b + 2))
            assert abs(rule.weights.sum() - mass) <= 1e-13 * mass, f"a={a}, b={b}"


# 53 points is the split's auxiliary rule size (aux_jn = 52)
@pytest.mark.parametrize("n_points, alpha", [
    (n_points, alpha) for n_points in (5, 11, 27) for alpha in (0.1, 0.5, 1.2, 1.8)
] + [(53, 0.1), (53, 1.8)])
def test_monomial_exactness(alpha, n_points):
    weight = JacobiWeight(alpha - 1.0, 0.0)
    rule = gauss_lobatto_rule(weight, n_points)
    for degree in range(2 * n_points - 2):
        exact = moment(weight, degree)
        got = float(np.dot(rule.weights, rule.nodes**degree))
        assert abs(got - exact) <= 1e-11 * max(abs(exact), 1e-15), (
            f"degree {degree}: {got} vs {exact}")


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.95])
def test_large_rules_integrate_smooth_functions(alpha):
    # the reference substitutes u = (1-s)^alpha, which removes the weight's
    # singular end: the integral is (1/alpha) int_0^(2^alpha) f(1 - u^(1/alpha)) du
    import mpmath as mp

    weight = JacobiWeight(alpha - 1.0, 0.0)
    for f, mp_f in ((lambda s: math.cos(3 * s), lambda s: mp.cos(3 * s)), (math.exp, mp.exp)):
        with mp.workdps(30):
            exact = float(mp.quad(lambda u: mp_f(1 - u ** (1 / mp.mpf(alpha))),
                                  [0, mp.mpf(2) ** alpha]) / alpha)
        for n_points in (105, 513, 1025):
            got = integrate(gauss_lobatto_rule(weight, n_points), f)
            assert abs(got - exact) <= 1e-11 * abs(exact), f"{n_points} points: {got} vs {exact}"


def test_exactness_degree_is_sharp():
    # one degree past 2n-3 the Lobatto rule must NOT be exact
    weight = JacobiWeight(-0.5, 0.0)
    rule = gauss_lobatto_rule(weight, 5)
    degree = 2 * 5 - 2
    exact = moment(weight, degree)
    got = float(np.dot(rule.weights, rule.nodes**degree))
    assert abs(got - exact) > 1e-6 * abs(exact)


def test_node_layout_and_immutability():
    rule = rule_for_alpha(0.5)
    assert rule.nodes[0] == -1.0 and rule.nodes[-1] == 1.0
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert not rule.nodes.flags.writeable
    assert not rule.weights.flags.writeable
    assert rule.n_points == 27
    assert gauss_lobatto_rule(JacobiWeight(-0.5, 0.0), 27) is rule


def test_integrate_helper_matches_moments():
    weight = JacobiWeight(-0.5, 0.0)
    rule = gauss_lobatto_rule(weight, 11)
    for degree in (0, 1, 2, 7):
        assert integrate(rule, lambda s, d=degree: s**d) == pytest.approx(
            moment(weight, degree), rel=1e-12, abs=1e-14)


def test_validation_errors():
    with pytest.raises(ValueError):
        JacobiWeight(-1.0, 0.0)
    with pytest.raises(ValueError):
        JacobiWeight(0.0, -1.5)
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            JacobiWeight(a, 0.0)
        with pytest.raises(ValueError, match="finite"):
            JacobiWeight(0.0, a)
    with pytest.raises(ValueError):
        gauss_lobatto_rule(JacobiWeight(0.0, 0.0), 2)
    # the eigen-solve holds n x n matrices: sizes past the cap are refused
    assert gauss_lobatto_rule(JacobiWeight(-0.5, 0.0), MAX_POINTS).n_points == MAX_POINTS
    for n_points in (MAX_POINTS + 1, 100000):
        with pytest.raises(ValueError, match="points"):
            gauss_lobatto_rule(JacobiWeight(-0.5, 0.0), n_points)
    # the total mass 2^(a+b+1) B(a+1, b+1) overflows float64
    for a, b, n_points in ((1e5, 0.0, 11), (1e300, 0.0, 5), (0.0, 1e5, 11)):
        with pytest.raises(ValueError, match="no finite Gauss-Lobatto rule"):
            gauss_lobatto_rule(JacobiWeight(a, b), n_points)
    with pytest.raises(ValueError):
        moment(JacobiWeight(0.0, 0.0), -1)


def test_lgamma_overflow_of_a_huge_exponent_is_the_named_refusal():
    # lgamma(n + a + 1) overflows a float here, and raises rather than return inf
    for a, b in ((1e308, 0.0), (0.0, 1e308)):
        with pytest.raises(ValueError) as refusal:
            gauss_lobatto_rule(JacobiWeight(a, b), 5)
        assert str(refusal.value) == ("no finite Gauss-Lobatto rule with 5 points "
                                      f"for a={a}, b={b}")


def test_overflowing_sum_of_huge_exponents_is_the_named_refusal():
    # a + b overflows to inf, so the Jacobi matrix for the interior nodes holds NaN
    with pytest.raises(ValueError) as refusal:
        gauss_lobatto_rule(JacobiWeight(1e308, 1e308), 5)
    assert str(refusal.value) == ("no finite Gauss-Lobatto rule with 5 points "
                                  "for a=1e+308, b=1e+308")


def test_small_alpha_weight_growth_near_singular_end():
    # alpha < 1 concentrates kernel mass at s=1; the end weight dominates
    rule = rule_for_alpha(0.1)
    assert rule.weights[-1] == max(rule.weights)
    rule = rule_for_alpha(1.8)
    assert rule.weights[-1] == min(rule.weights)


def test_gamma_against_extended_precision():
    # math.gamma is relied on throughout; spot-check 1e-14 relative on (0, 10]
    import mpmath as mp

    for v in (0.1, 0.5, 1.0, 2.5, 7.3, 8.5, 9.0, 10.0):
        with mp.workdps(40):
            exact = float(mp.gamma(v))
        assert abs(math.gamma(v) - exact) <= 1e-14 * abs(exact)

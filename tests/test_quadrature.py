"""Quadrature rule construction: golden tables, exactness, invariants."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from jacobipc.quadrature import (INTERNAL_DPS, JacobiWeight, _RULE_CACHE, _mp_recurrence,
                                 gauss_lobatto_rule, integrate, moment)

from golden_quadrature import GOLDEN


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
        _RULE_CACHE.pop((alpha - 1.0, 0.0, 27), None)
        begin = time.perf_counter()
        rule_for_alpha(alpha)
        assert time.perf_counter() - begin < 1.0


def test_weight_sum_is_total_mass():
    # integral of (1-x)^(alpha-1) over [-1, 1] is 2^alpha / alpha
    for alpha in GOLDEN:
        rule = rule_for_alpha(alpha)
        mass = 2.0**alpha / alpha
        assert abs(rule.weights.sum() - mass) <= 1e-13 * mass


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.2, 1.8])
@pytest.mark.parametrize("n_points", [5, 11, 27])
def test_monomial_exactness(alpha, n_points):
    weight = JacobiWeight(alpha - 1.0, 0.0)
    rule = gauss_lobatto_rule(weight, n_points)
    for degree in range(2 * n_points - 2):
        exact = moment(weight, degree)
        got = float(np.dot(rule.weights, rule.nodes**degree))
        assert abs(got - exact) <= 1e-11 * max(abs(exact), 1e-15), (
            f"degree {degree}: {got} vs {exact}")


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


def test_legendre_recurrence_closed_form():
    # a = b = 0: alpha_k = 0, beta_k = k^2/(4k^2 - 1), mu0 = 2
    with mp.workdps(INTERNAL_DPS):
        alphas, betas, mu0 = _mp_recurrence(0.0, 0.0, 6)
        assert len(alphas) == 6 and len(betas) == 5
        assert abs(mu0 - 2) < mp.mpf(10) ** -45
        assert all(abs(a) < mp.mpf(10) ** -45 for a in alphas)
        for k, beta in enumerate(betas, start=1):
            assert abs(beta - mp.mpf(k * k) / (4 * k * k - 1)) < mp.mpf(10) ** -45


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
    with pytest.raises(ValueError):
        gauss_lobatto_rule(JacobiWeight(0.0, 0.0), 2)
    with pytest.raises(ValueError):
        moment(JacobiWeight(0.0, 0.0), -1)


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

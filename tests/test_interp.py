"""Stencil selection and barycentric interpolation.

The selection and evaluation checks run on the test-only reference in
``stencil_reference``; ``test_kernel_matches_reference_stencil_rule`` ties
the kernels' fused form, the stencil plan the split head reads its node
values from, to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobipc._kernels_py import plan_values, stencil_plan
from jacobipc.interp import UniformGrid, map_node, uniform_bary_weights
from jacobipc.quadrature import JacobiWeight, gauss_lobatto_rule
from march_reference import weighted_interp_sum
from stencil_reference import (CENTERED, CORRECTOR, LEFT_EDGE, PREDICTOR,
                               RIGHT_EDGE_CLOSED, RIGHT_EDGE_OPEN, lagrange_eval,
                               select_stencil, stencil_halves)


def test_grid_basics():
    grid = UniformGrid(0.5, 0.25, 5)
    assert grid.t(0) == 0.5
    assert grid.t(4) == pytest.approx(1.5)
    assert np.allclose(grid.times, [0.5, 0.75, 1.0, 1.25, 1.5])
    with pytest.raises(ValueError):
        UniformGrid(0.0, 0.0, 5)
    with pytest.raises(ValueError):
        UniformGrid(0.0, 0.1, 0)


def test_stencil_halves():
    assert stencil_halves(2) == (1, 1)
    assert stencil_halves(3) == (2, 1)
    assert stencil_halves(4) == (2, 2)
    assert stencil_halves(5) == (3, 2)


def test_select_stencil_known_cases():
    grid = UniformGrid(0.0, 1.0, 8)
    n = 5  # stencil size 3: left 2, right 1

    st_ = select_stencil(0.4, grid, 3, n, PREDICTOR)
    assert (st_.start, st_.kind) == (0, LEFT_EDGE)

    st_ = select_stencil(2.5, grid, 3, n, PREDICTOR)
    assert (st_.start, st_.kind) == (1, CENTERED)

    # near the front edge the predictor may only use indices <= n
    st_ = select_stencil(5.7, grid, 3, n, PREDICTOR)
    assert (st_.start, st_.kind) == (3, RIGHT_EDGE_OPEN)
    assert st_.start + st_.length - 1 == n

    # the corrector may also use index n+1 (predicted f lives there)
    st_ = select_stencil(5.7, grid, 3, n, CORRECTOR)
    assert (st_.start, st_.kind) == (4, RIGHT_EDGE_CLOSED)
    assert st_.start + st_.length - 1 == n + 1


def test_select_stencil_tie_counts_left():
    grid = UniformGrid(0.0, 1.0, 8)
    exact_hit = select_stencil(3.0, grid, 3, 5, PREDICTOR)
    just_below = select_stencil(3.0 - 1e-14, grid, 3, 5, PREDICTOR)
    assert exact_hit == just_below


def test_select_stencil_errors():
    grid = UniformGrid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        select_stencil(0.5, grid, 3, 1, PREDICTOR)  # n+1 < size
    with pytest.raises(ValueError):
        select_stencil(-0.5, grid, 3, 5, PREDICTOR)
    with pytest.raises(ValueError):
        select_stencil(6.5, grid, 3, 5, PREDICTOR)  # beyond n+1
    with pytest.raises(ValueError):
        select_stencil(0.5, grid, 3, 5, "smoother")


@settings(deadline=None, max_examples=200)
@given(
    theta=st.floats(min_value=0.0, max_value=11.0),
    size=st.integers(min_value=2, max_value=5),
    phase=st.sampled_from([PREDICTOR, CORRECTOR]),
)
def test_select_stencil_invariants(theta, size, phase):
    n = 10
    grid = UniformGrid(0.0, 1.0, n + 2)
    st_ = select_stencil(theta, grid, size, n, phase)
    usable = n + 2 if phase == CORRECTOR else n + 1
    assert st_.length == size
    assert 0 <= st_.start
    assert st_.start + size <= usable
    if st_.kind == CENTERED:
        # centered stencils bracket the target with the configured split
        left, _ = stencil_halves(size)
        assert st_.start + left - 1 <= theta + 1e-12
        assert theta < st_.start + left + 1e-12


# n + 1 = 16 is a power of two, so theta -> node -> theta round-trips exactly
# and the tie cases below land on grid nodes in the kernel too
KERNEL_N = 15
KERNEL_THETAS = {
    "left_edge": (0.0, 0.3, 1.45),
    "centered": (6.3, 7.5, 9.8),
    "right_edge": (14.6, 15.5, 15.9, 16.0),
    "tie": (1.0, 3.0, 8.0, 15.0),
}


@pytest.mark.parametrize("where", sorted(KERNEL_THETAS))
@pytest.mark.parametrize("phase", [PREDICTOR, CORRECTOR])
@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_kernel_matches_reference_stencil_rule(size, phase, where):
    n = KERNEL_N
    grid = UniformGrid(0.0, 1.0, n + 2)
    fvals = 1.5 + np.sin(0.7 * np.arange(n + 2)) + 0.01 * np.arange(n + 2) ** 2
    bary = uniform_bary_weights(size)
    for theta in KERNEL_THETAS[where]:
        node = np.array([2.0 * theta / (n + 1) - 1.0])
        plan = stencil_plan(n, n + 1, node, np.ones(1), 1, size, bary, int(phase == CORRECTOR))
        got, reads = plan_values(plan, 0, 1, fvals)[0, 0], plan.reads[0, -1]
        st_ = select_stencil(theta, grid, size, n, phase)
        sl = slice(st_.start, st_.start + st_.length)
        want = lagrange_eval(grid.times[sl], fvals[sl], theta)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        if where == "tie":
            assert got == fvals[int(theta)]
        # a target on a stencil node stops the reads there
        k = theta - st_.start
        assert reads == (k + 1 if k == int(k) and k < size else size)


@pytest.mark.parametrize("phase", [PREDICTOR, CORRECTOR])
@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_plan_values_match_the_scalar_loop_on_every_row(size, phase):
    # steps 11..34 in one block: the node -1, the node 1 of the corrector
    # phase and the middle node 0 when n + 1 is even hit grid points
    corrector = int(phase == CORRECTOR)
    nodes = gauss_lobatto_rule(JacobiWeight(0.0, 0.0), 11).nodes
    bary = uniform_bary_weights(size)
    n_lo, n_hi = 11, 35
    fvals = np.random.default_rng(size).uniform(-5.0, 5.0, size=n_hi + 1)
    plan = stencil_plan(n_lo, n_hi, nodes, np.ones(len(nodes)), len(nodes), size, bary,
                        corrector)
    got = plan_values(plan, 0, n_hi - n_lo, fvals)
    assert got.shape == (n_hi - n_lo, len(nodes))
    hits = (plan.coef[:, 1:] == 0.0).all(axis=1)  # a hit reads one value, with coefficient 1
    assert hits[:, 0].all() and hits[::2, len(nodes) // 2].all()
    assert hits[:, -1].all() == bool(corrector)
    for i, n in enumerate(range(n_lo, n_hi)):
        want = [weighted_interp_sum(fvals, n, nodes[j:j + 1], np.ones(1), 1, size, bary,
                                    corrector)[0]
                for j in range(len(nodes))]
        assert [v.hex() for v in got[i].tolist()] == [v.hex() for v in want]
    # a row range of the block gives those rows
    assert plan_values(plan, 5, 9, fvals).tolist() == got[5:9].tolist()


def test_bary_weights_alternating_binomials():
    assert list(uniform_bary_weights(2)) == [1.0, -1.0]
    assert list(uniform_bary_weights(3)) == [1.0, -2.0, 1.0]
    assert list(uniform_bary_weights(4)) == [1.0, -3.0, 3.0, -1.0]


def test_lagrange_reproduces_polynomial():
    times = np.array([0.0, 0.5, 1.0, 1.5])
    coeffs = [2.0, -1.0, 3.0, 0.25]  # cubic, highest first

    def poly(t):
        return ((coeffs[0] * t + coeffs[1]) * t + coeffs[2]) * t + coeffs[3]

    values = np.array([poly(t) for t in times])
    for target in (0.1, 0.77, 1.32, 1.5, -0.2, 1.9):
        assert lagrange_eval(times, values, target) == pytest.approx(
            poly(target), rel=1e-12, abs=1e-12)


def test_lagrange_divided_difference_oracle():
    # independent Newton-form evaluation on non-uniform nodes
    rng = np.random.default_rng(42)
    for _ in range(25):
        times = np.sort(rng.uniform(-2, 2, size=4))
        if np.min(np.diff(times)) < 1e-3:
            continue
        values = rng.uniform(-5, 5, size=4)
        table = values.astype(float).copy()
        coef = [table[0]]
        for level in range(1, 4):
            table = (table[1:] - table[:-1]) / (times[level:] - times[:-level])
            coef.append(table[0])
        target = rng.uniform(-2, 2)
        newton = coef[3]
        for level in (2, 1, 0):
            newton = newton * (target - times[level]) + coef[level]
        assert lagrange_eval(times, values, target) == pytest.approx(
            newton, rel=1e-9, abs=1e-9)


def test_lagrange_node_hit_returns_sample():
    times = np.array([0.0, 1.0, 2.0])
    values = np.array([3.0, -4.0, 5.5])
    for i, t in enumerate(times):
        assert lagrange_eval(times, values, t) == values[i]


def test_lagrange_errors():
    with pytest.raises(ValueError):
        lagrange_eval([0.0, 1.0], [1.0], 0.5)
    with pytest.raises(ValueError):
        lagrange_eval([0.0, 0.0, 1.0], [1.0, 2.0, 3.0], 0.5)


@settings(deadline=None, max_examples=100)
@given(
    coeffs=st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=4),
    target=st.floats(min_value=-1.0, max_value=4.0),
)
def test_lagrange_equispaced_property(coeffs, target):
    times = np.array([0.0, 1.0, 2.0, 3.0])

    def poly(t):
        return ((coeffs[0] * t + coeffs[1]) * t + coeffs[2]) * t + coeffs[3]

    values = np.array([poly(t) for t in times])
    scale = max(1.0, np.max(np.abs(values)))
    assert abs(lagrange_eval(times, values, target) - poly(target)) <= 1e-9 * scale * 40


def test_map_node_endpoints_exact():
    assert map_node(-1.0, 0.3, 0.9) == 0.3
    assert map_node(1.0, 0.3, 0.9) == 0.9
    assert map_node(0.0, 0.0, 2.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        map_node(1.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        map_node(0.0, 1.0, 1.0)

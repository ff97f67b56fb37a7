"""Compiled extension vs pure-Python kernels: bit-for-bit parity.

The ``compiled`` fixture (``conftest.py``) builds ``_kernels.c`` into a
temporary directory once per session, so these tests exercise the C kernel
whether or not the package was installed with it.  They skip only when no C
compiler is on PATH.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacobipc
from jacobipc import _kernels_py, adams, solver, split
from jacobipc._backend import kernels
from jacobipc.adams import EXACT, REFINED_ADAMS, StarterConfig, adams_solve
from jacobipc.interp import uniform_bary_weights
from jacobipc.problems import make_problem
from jacobipc.solver import SolverConfig, SplitConfig, quadrature_for, solve


def test_backend_flag_is_consistent():
    assert isinstance(jacobipc.USING_COMPILED, bool)
    assert jacobipc.USING_COMPILED == kernels.COMPILED
    assert _kernels_py.COMPILED is False


def test_weighted_interp_sum_parity(compiled):
    assert compiled.COMPILED is True
    rng = np.random.default_rng(11)
    rule = quadrature_for(0.5, 26)
    fc = rng.uniform(-3, 3, size=60)
    for size in (2, 3, 4, 5):
        bary = uniform_bary_weights(size)
        for n in (size - 1, 17, 40):
            for phase, n_nodes in ((0, rule.n_points), (1, rule.n_points - 1)):
                got = compiled.weighted_interp_sum(
                    fc, n, rule.nodes, rule.weights, n_nodes, size, bary, phase)
                want = _kernels_py.weighted_interp_sum(
                    fc, n, rule.nodes, rule.weights, n_nodes, size, bary, phase)
                assert got == want  # bitwise, not approx


@st.composite
def march_steps(draw):
    """One march step: stencil size, step index n, nodes (Lobatto or snapped onto
    grid points, so the tie path runs), weights and an f history."""
    size = draw(st.integers(2, 5))
    n = draw(st.one_of(st.just(size - 1), st.integers(size - 1, 3000)))
    jn = draw(st.integers(2, 60))
    nodes = quadrature_for(draw(st.sampled_from([0.3, 0.5, 0.8, 1.5])), jn).nodes.copy()
    snapped = draw(st.lists(st.tuples(st.integers(1, jn - 1), st.integers(0, n + 1)),
                            max_size=jn - 1))
    for j, point in snapped:
        nodes[j] = 2.0 * point / (n + 1) - 1.0
    nodes.sort()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fvals = rng.uniform(-5.0, 5.0, size=n + 2)
    fvals[n + 1] = 0.0  # not yet predicted
    weights = rng.uniform(-1.0, 1.0, size=jn + 1)
    return size, n, jn, nodes, weights, fvals, rng.uniform(-5.0, 5.0)


@settings(max_examples=150, deadline=None)
@given(step=march_steps())
def test_resumed_corrector_is_bit_identical(backend, step):
    size, n, jn, nodes, weights, fvals, f_pred = step
    bary = uniform_bary_weights(size)
    common = dict(n=n, nodes=nodes, weights=weights, size=size, bary=bary)
    _, reads, shared, partial, shared_reads = backend.weighted_interp_sum(
        fvals=fvals, node_count=jn + 1, corrector=0, **common)
    # the end node s = 1 is never shared
    assert 0 <= shared <= jn and 0 <= shared_reads <= min(reads, shared * size)

    fvals[n + 1] = f_pred
    full, full_reads, *prefix = backend.weighted_interp_sum(
        fvals=fvals, node_count=jn, corrector=1, **common)
    # the prefix test does not depend on the phase
    assert prefix == [shared, partial, shared_reads]
    resumed, resumed_reads, _, _, _ = backend.weighted_interp_sum(
        fvals=fvals, node_count=jn, corrector=1, first=shared, total=partial, **common)
    assert resumed.hex() == full.hex()
    assert resumed_reads + shared_reads == full_reads
    if shared == jn:  # the march then skips the corrector call
        assert resumed.hex() == partial.hex()


def test_keyword_arguments_match_across_backends(compiled):
    rule = quadrature_for(0.5, 26)
    fc = np.random.default_rng(13).uniform(-3, 3, size=41)
    got = {}
    for name, k in (("pure", _kernels_py), ("compiled", compiled)):
        got[name] = (
            k.weighted_interp_sum(fvals=fc, n=39, nodes=rule.nodes, weights=rule.weights,
                                  node_count=rule.n_points - 1, size=4,
                                  bary=uniform_bary_weights(4), corrector=1,
                                  first=3, total=0.25),
            k.adams_step_sums(fvals=fc, n=20, alpha=0.7),
        )
    assert got["pure"] == got["compiled"]
    # 23 nodes from node 3 on, none of them a grid point
    assert got["pure"][0][1] == 4 * (rule.n_points - 4)


@pytest.mark.parametrize("first", [-1, 27, 10**6])
def test_kernels_refuse_bad_start_node(backend, first):
    rule = quadrature_for(0.5, 26)
    with pytest.raises(IndexError, match="start node"):
        backend.weighted_interp_sum(np.zeros(41), 39, rule.nodes, rule.weights, 26, 3,
                                    uniform_bary_weights(3), 1, first, 0.0)
    # the last valid start node reads nothing and returns the given total
    got = backend.weighted_interp_sum(np.zeros(41), 39, rule.nodes, rule.weights, 26, 3,
                                      uniform_bary_weights(3), 1, 26, 0.25)
    assert got == (0.25, 0, 26, 0.25, 0)


# positions the reference cannot take: one node at n = 9, stencil size 3
@pytest.mark.parametrize("node,error", [(math.nan, ValueError), (math.inf, OverflowError),
                                        (-math.inf, OverflowError),
                                        (1e300, ZeroDivisionError),
                                        (-1e300, ZeroDivisionError)])
@pytest.mark.parametrize("corrector", [0, 1])
def test_kernels_raise_alike_on_unusable_nodes(backend, corrector, node, error):
    with pytest.raises(error):
        backend.weighted_interp_sum(np.linspace(0.0, 1.0, 11), 9, np.array([node]), np.ones(1),
                                    1, 3, uniform_bary_weights(3), corrector)


def test_adams_step_sums_parity(compiled):
    rng = np.random.default_rng(12)
    f = rng.uniform(-2, 2, size=30)
    for alpha in (0.3, 1.0, 1.7):
        for n in (0, 5, 28):
            pa, ca = compiled.adams_step_sums(f, n, alpha)
            pb, cb = _kernels_py.adams_step_sums(f, n, alpha)
            assert pa == pb
            assert ca == cb


def _digest(backend, monkeypatch):
    """Endpoint hex and all counters for poly8, Adams and a split cell."""
    for module in (solver, adams, split):
        monkeypatch.setattr(module, "kernels", backend)
    rows = []

    def record(tr):
        c = tr.counters
        rows.append((tr.x[-1].hex(), c.rhs_evals, c.interp_evals, c.value_reads,
                     c.history_reads))

    exact = StarterConfig(mode=EXACT)
    for alpha in (0.3, 0.5, 0.8, 1.5):
        problem = make_problem("poly8", alpha, 1.0)
        for size in (2, 3, 4, 5):
            record(solve(problem, SolverConfig(h=1.0 / 80, stencil_size=size, starter=exact)))
    record(adams_solve(make_problem("poly8", 0.5, 1.0), 1.0 / 120, 120))
    # criterion 07's first published cell
    problem = make_problem("ml_linear", 0.5, 1.1)
    for starter in (exact, StarterConfig(mode=REFINED_ADAMS)):
        record(solve(problem, SolverConfig(h=1.0 / 40, stencil_size=3, starter=starter,
                                           split=SplitConfig(t0=0.1, aux_jn=52))))
    return rows


def test_solves_bit_identical_across_backends(compiled, monkeypatch):
    got = _digest(compiled, monkeypatch)
    want = _digest(_kernels_py, monkeypatch)
    assert len(got) == 19
    assert got == want


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_kernels_refuse_short_buffers(backend, request):
    k = _kernels_py if backend == "pure" else request.getfixturevalue("compiled")
    rule = quadrature_for(0.5, 26)
    bary = uniform_bary_weights(3)
    fc = np.linspace(0.0, 1.0, 21)

    def interp(fvals, bary_):
        return k.weighted_interp_sum(fvals, 20, rule.nodes, rule.weights, rule.n_points,
                                     3, bary_, 0)

    interp(fc, bary)  # n = 20 reads fvals[20] at the end node s = 1
    with pytest.raises(IndexError):
        interp(fc[:20], bary)
    with pytest.raises(IndexError):
        interp(fc, bary[:2])
    with pytest.raises(IndexError):
        k.adams_step_sums(fc[:20], 20, 0.5)
    with pytest.raises(IndexError):  # n + 1 < size: no stencil fits the history
        k.weighted_interp_sum(fc, 1, rule.nodes, rule.weights, rule.n_points,
                              3, bary, 0)


def test_compiled_kernel_rejects_wrong_buffers(compiled):
    rule = quadrature_for(0.5, 26)
    bary = uniform_bary_weights(2)
    fc = np.zeros(10)

    def interp(fvals=fc):
        return compiled.weighted_interp_sum(fvals, 5, rule.nodes, rule.weights, 3, 2,
                                            bary, 0)

    for fvals in (fc.astype(np.float32), fc.reshape(2, 5), np.zeros(20)[::2]):
        with pytest.raises(ValueError):
            interp(fvals=fvals)
        with pytest.raises(ValueError):
            compiled.adams_step_sums(fvals, 3, 0.5)
    assert interp()[0] == 0.0


def test_forced_pure_subprocess_matches_this_backend():
    code = """
import json
from jacobipc import USING_COMPILED
from jacobipc.problems import make_problem
from jacobipc.solver import SolverConfig, solve
tr = solve(make_problem("poly8", 0.5, 1.0), SolverConfig(h=1.0/40))
print(json.dumps({
    "compiled": USING_COMPILED,
    "endpoint": tr.x[-1].hex(),
    "rhs_evals": tr.counters.rhs_evals,
    "value_reads": tr.counters.value_reads,
}))
"""
    env = dict(os.environ, JACOBIPC_PURE="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["compiled"] is False

    tr = solve(make_problem("poly8", 0.5, 1.0), SolverConfig(h=1.0 / 40))
    assert got["endpoint"] == tr.x[-1].hex()
    assert got["rhs_evals"] == tr.counters.rhs_evals
    assert got["value_reads"] == tr.counters.value_reads

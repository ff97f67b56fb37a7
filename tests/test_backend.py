"""Compiled extension vs pure-Python kernels: bit-for-bit parity.

The ``compiled`` fixture (``conftest.py``) builds ``_kernels.c`` into a
temporary directory once per session, so these tests exercise the C kernel
whether or not the package was installed with it.  They skip only when no C
compiler is on PATH.  ``test_digests.py`` pins whole solves on both backends
against a golden file.
"""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacobipc
from jacobipc import _kernels_py, adams, solver
from jacobipc._backend import kernels
from jacobipc.adams import EXACT, StarterConfig, adams_solve
from jacobipc.interp import uniform_bary_weights
from jacobipc.problems import make_problem
from jacobipc.solver import SolverConfig, quadrature_for, solve
from adams_reference import STEP_SUM_NS, history_sums_loop, marched_sums
from march_reference import weighted_interp_sum


def test_backend_flag_is_consistent():
    assert isinstance(jacobipc.USING_COMPILED, bool)
    assert jacobipc.USING_COMPILED == kernels.COMPILED
    assert _kernels_py.COMPILED is False


def test_march_parity(compiled):
    assert compiled.COMPILED is True
    rule = quadrature_for(0.5, 26)
    rng = np.random.default_rng(11)
    base, start = rng.uniform(-1, 1, size=61), rng.uniform(-3, 3, size=5)
    for size in (2, 3, 4, 5):
        got = {}
        for name, k in (("pure", _kernels_py), ("compiled", compiled)):
            x, fc = np.zeros(61), np.zeros(61)
            x[:size] = fc[:size] = start[:size]
            counts = k.march(lambda t, y: math.sin(7.0 * t) - 0.8 * y, x, fc, base, 0.0,
                             1.0 / 60, 0.5, 1.0 / math.gamma(0.5), rule.nodes, rule.weights,
                             uniform_bary_weights(size))
            got[name] = (counts, [v.hex() for v in x.tolist()], [v.hex() for v in fc.tolist()])
        assert got["pure"] == got["compiled"]  # bitwise, not approx
        assert got["pure"][0][0] == 61


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


def marched_step(backend, size, n, nodes, weights, fvals, f_pred, base, h, alpha):
    """x[n + 1] from the backend's march, whose f history is fvals[:n + 1] at step n
    and whose predicted f value there is f_pred: the rhs hands out those values."""
    supply = iter(np.repeat(fvals[size : n + 1], 2).tolist() + [f_pred, 0.0])
    x, fc = np.zeros(n + 2), np.zeros(n + 2)
    fc[:size] = fvals[:size]
    backend.march(lambda t, y: next(supply), x, fc, np.full(n + 2, base), 0.0, h, alpha,
                  1.0, nodes, weights, uniform_bary_weights(size))
    return x[n + 1]


@settings(max_examples=150, deadline=None)
@given(step=march_steps())
def test_resumed_corrector_is_bit_identical(backend, step):
    size, n, jn, nodes, weights, fvals, f_pred = step
    bary = uniform_bary_weights(size)
    common = dict(n=n, nodes=nodes, weights=weights, size=size, bary=bary)
    _, reads, shared, partial, shared_reads = weighted_interp_sum(
        fvals=fvals, node_count=jn + 1, corrector=0, **common)
    # the end node s = 1 is never shared
    assert 0 <= shared <= jn and 0 <= shared_reads <= min(reads, shared * size)

    history = fvals.copy()
    fvals[n + 1] = f_pred
    full, full_reads, *prefix = weighted_interp_sum(
        fvals=fvals, node_count=jn, corrector=1, **common)
    # the prefix test does not depend on the phase
    assert prefix == [shared, partial, shared_reads]
    resumed, resumed_reads, _, _, _ = weighted_interp_sum(
        fvals=fvals, node_count=jn, corrector=1, first=shared, total=partial, **common)
    assert resumed.hex() == full.hex()
    assert resumed_reads + shared_reads == full_reads
    if shared == jn:  # the march then skips the corrector pass
        assert resumed.hex() == partial.hex()

    # the backend's march, which resumes, gives the full corrector pass's step
    base, h, alpha = 0.25, 1.0 / 64, 0.5
    want = base + 1.0 * (0.5 * (n + 1) * h) ** alpha * (full + weights[jn] * f_pred)
    got = marched_step(backend, size, n, nodes, weights, history, f_pred, base, h, alpha)
    assert got.hex() == want.hex()


def test_keyword_arguments_match_across_backends(compiled):
    rule = quadrature_for(0.5, 26)
    fc0 = np.random.default_rng(13).uniform(-3, 3, size=41)
    got = {}
    for name, k in (("pure", _kernels_py), ("compiled", compiled)):
        x, fc, xa, fa = np.zeros(41), fc0.copy(), np.zeros(41), fc0.copy()
        got[name] = (
            k.march(rhs=lambda t, y: math.cos(t) - y, x=x, fc=fc, base=np.ones(41),
                    origin=0.25, h=0.05, alpha=0.7, pref=1.0, nodes=rule.nodes,
                    weights=rule.weights, bary=uniform_bary_weights(4)),
            x.tolist(), fc.tolist(),
            k.adams_march(rhs=lambda t, y: math.cos(t) - y, x=xa, fc=fa, base=np.ones(41),
                          h=0.05, alpha=0.7, c_pred=0.8, c_corr=0.3),
            xa.tolist(), fa.tolist(),
        )
    assert got["pure"] == got["compiled"]
    # 37 steps from n = 3 to 39, two rhs calls each, none leaving the guard
    assert got["pure"][0][:2] == (41, 2 * 37)
    # 40 Adams steps, 2 (n + 1) history reads at step n
    assert got["pure"][3] == (41, 2 * 40, 40 * 41)


# positions the stencil rule cannot take: one node at n = 9, stencil size 3
@pytest.mark.parametrize("node,error", [(math.nan, ValueError), (math.inf, OverflowError),
                                        (-math.inf, OverflowError),
                                        (1e300, ZeroDivisionError),
                                        (-1e300, ZeroDivisionError)])
@pytest.mark.parametrize("corrector", [0, 1])
def test_kernels_raise_alike_on_unusable_nodes(backend, corrector, node, error):
    with pytest.raises(error):
        weighted_interp_sum(np.linspace(0.0, 1.0, 11), 9, np.array([node]), np.ones(1), 1, 3,
                            uniform_bary_weights(3), corrector)
    # so both marches refuse the node with one error, before any rhs call
    calls = []
    with pytest.raises(ValueError, match=r"quadrature nodes must lie in \[-1, 1\]"):
        backend.march(lambda t, y: calls.append(t) or 0.0, np.zeros(11), np.zeros(11),
                      np.zeros(11), 0.0, 0.1, 0.5, 1.0, np.array([-1.0, node, 1.0]),
                      np.ones(3), uniform_bary_weights(3))
    assert calls == []


def test_adams_march_parity(compiled):
    # the history sums of every step, to the last step of a run at the step
    # cap (n = 8191) at alpha 1.7, and to n = 1024 at the other orders
    f = np.random.default_rng(12).uniform(-2, 2, size=8193).tolist()
    for alpha, length in ((0.3, 1026), (1.0, 1026), (1.7, 8193)):
        got = marched_sums(compiled.adams_march, f[:length], alpha)
        assert got == marched_sums(_kernels_py.adams_march, f[:length], alpha)
        for n in (5, 28) + STEP_SUM_NS:
            if n < length - 1:
                assert got[n] == history_sums_loop(f, n, alpha), (alpha, n)


def _run_on(backend, monkeypatch, problem, run):
    """x of a run of ``problem`` at h = 1/200 (``solve`` with stencil 3 and the
    exact start, or ``adams_solve``) on ``backend``, as hex."""
    for module in (solver, adams):
        monkeypatch.setattr(module, "kernels", backend)
    if run == "march":
        tr = solve(problem, SolverConfig(h=1.0 / 200, stencil_size=3,
                                         starter=StarterConfig(mode=EXACT)))
    else:
        tr = adams_solve(problem, 1.0 / 200, 200)
    return [v.hex() for v in tr.x.tolist()]


@pytest.mark.parametrize("run", ["march", "adams"])
def test_float32_rhs_values_are_taken_as_python_floats(compiled, monkeypatch, run):
    """An rhs that returns np.float32 gives, on both backends, the bits of the
    same values returned as Python floats, and numpy warns of nothing."""
    poly8 = make_problem("poly8", 0.5, 1.0)
    as_f32 = dataclasses.replace(poly8, rhs=lambda t, x: np.float32(poly8.rhs(t, x)))
    as_float = dataclasses.replace(poly8, rhs=lambda t, x: float(np.float32(poly8.rhs(t, x))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _run_on(_kernels_py, monkeypatch, as_float, run)
        for backend in (_kernels_py, compiled):
            assert _run_on(backend, monkeypatch, as_f32, run) == want


@pytest.mark.parametrize("run", ["march", "adams"])
def test_str_rhs_value_raises_type_error_on_both_backends(compiled, monkeypatch, run):
    """A numeric str is no float to C's PyFloat_AsDouble, so neither backend parses it."""
    text = dataclasses.replace(make_problem("poly8", 0.5, 1.0), rhs=lambda t, x: "1.5")
    for backend in (_kernels_py, compiled):
        with pytest.raises(TypeError):
            _run_on(backend, monkeypatch, text, run)


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_kernels_refuse_short_buffers(backend, request):
    k = _kernels_py if backend == "pure" else request.getfixturevalue("compiled")
    rule = quadrature_for(0.5, 26)
    fc = np.linspace(0.0, 1.0, 21)

    def march(fc=fc, base=np.zeros(21), weights=rule.weights, bary=uniform_bary_weights(3)):
        return k.march(lambda t, y: 0.0, np.zeros(21), fc.copy(), base, 0.0, 0.05, 0.5, 1.0,
                       rule.nodes, weights, bary)

    assert march()[0] == 21  # the last step reads fc[20] at the end node s = 1
    # a stencil needs two points: the end node s = 1 is then never shared
    for short in ({"fc": fc[:20]}, {"base": np.zeros(20)}, {"weights": rule.weights[:-1]},
                  {"bary": np.zeros(0)}, {"bary": np.ones(1)}):
        with pytest.raises(IndexError, match=re.escape(_kernels_py.MARCH_LENGTHS)):
            march(**short)

    calls = []

    def adams(x=np.zeros(21), fc=fc, base=np.zeros(21)):
        return k.adams_march(lambda t, y: calls.append(t) or 0.0, x.copy(), fc.copy(), base,
                             0.05, 0.5, 1.0, 1.0)

    assert adams()[0] == 21 and len(calls) == 40
    calls.clear()
    for short in ({"fc": fc[:20]}, {"base": np.zeros(20)}, {"x": np.zeros(22)},
                  {"x": np.zeros(0), "fc": fc[:0], "base": np.zeros(0)}):
        with pytest.raises(IndexError, match="adams_march needs len"):
            adams(**short)
    assert calls == []


def test_compiled_kernel_rejects_wrong_buffers(compiled):
    rule = quadrature_for(0.5, 8)
    good = dict(x=np.zeros(10), fc=np.zeros(10), base=np.zeros(10), nodes=rule.nodes,
                weights=rule.weights, bary=uniform_bary_weights(2))

    def march(**changed):
        a = dict(good, **changed)
        return compiled.march(lambda t, y: 0.0, a["x"], a["fc"], a["base"], 0.0, 0.1, 0.5,
                              1.0, a["nodes"], a["weights"], a["bary"])

    def adams(**changed):
        a = dict(good, **changed)
        return compiled.adams_march(lambda t, y: 0.0, a["x"], a["fc"], a["base"], 0.1, 0.5,
                                    1.0, 1.0)

    fc = np.zeros(10)
    for wrong in (fc.astype(np.float32), fc.reshape(2, 5), np.zeros(20)[::2]):
        for name in good:
            with pytest.raises(ValueError):
                march(**{name: wrong})
            if name in ("x", "fc", "base"):
                with pytest.raises(ValueError):
                    adams(**{name: wrong})
    read_only = np.zeros(10)
    read_only.flags.writeable = False
    for name in ("x", "fc"):  # both marches write both
        with pytest.raises(ValueError):
            march(**{name: read_only})
        with pytest.raises(ValueError):
            adams(**{name: read_only})
    assert march()[0] == 10 and adams()[0] == 10


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


def test_build_without_a_compiler_warns_and_succeeds(tmp_path):
    # the extension is optional: with no compiler the install goes on with
    # the pure kernels, and setuptools says the build failed
    env = dict(os.environ, CC=str(tmp_path / "no-such-cc"))
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp_path / "lib"), "--build-temp", str(tmp_path / "temp")],
        cwd=Path(__file__).resolve().parents[1], env=env, capture_output=True, text=True)
    log = proc.stdout + proc.stderr
    assert proc.returncode == 0, log
    assert 'building extension "jacobipc._kernels" failed' in log
    assert not list(tmp_path.rglob("_kernels*.so")) and not list(tmp_path.rglob("_kernels*.pyd"))

"""Microseconds per marched step, and the cost of the split convergence path,
min of k, on the backend the import selects.

Usage (from a checkout; set JACOBIPC_PURE=1 for the pure kernels, or build
the extension in place with ``python setup.py build_ext --inplace`` for the
compiled ones):

    python tools/march_timing.py [--against OTHER_CHECKOUT]

Two marches are timed: poly8 with N = 8000, stencil 3, jn 26 and the exact
start, and criterion 07's split cell (ml_linear, alpha 0.5, t0 = 1, T = 50,
h = 0.1, stencil 3, aux_jn 52, fine_factor 20).  Only ``solver._march`` is
timed, so the start values and the split's head term are left out.  For the
split cell the head term, ``split.head_integral`` over the marched points,
and the head's fine Adams run, ``adams.adams_solve`` (200 substeps), are
timed on their own too (milliseconds per solve, min of k).

Then the split convergence path: the oracle ``ml_solution`` in microseconds
per call (alpha 0.4, the 37 times of the h = 0.25 grid on [1, 10], min of k
passes), and one relax-kind ``reports.run_convergence`` cell (split
ml_linear, T = 10, h = 0.5 and 0.25, t0 = 1, aux_jn 52, fine_factor 20,
stencil 3, exact start) in process CPU time, min of k.  Each repeat of that
cell takes an order 1e-7 apart, so its rules, oracle tables and Adams
weights are built cold every time, as in perfbench's ``relax``.

Last the mix of perfbench's ``march`` workload: one pass solves every cell
of its block (poly8 on T = 1, stencils 2-5 x alpha 0.3, 0.5, 0.8, 1.5 x N
500, 1000, 2000, jn 26, exact start) with warm rules, and is timed whole in
process CPU time, as perfbench times its operations; the row gives the
median and the quartiles of k passes in microseconds per step (N steps a
cell).

Run it on two trees back to back and compare; the numbers move with host
load.  For the pure march, ``--against`` does better: the mix's passes
alternate, in one process, between this checkout's pure kernels and the
``_kernels_py`` of the other checkout (the rest of the package is this
one's), with the order within a pair swapped from pair to pair, and the
row gives both medians, their ratio and the pairs this checkout wins.  Host drift, which moves
perfbench's steps_per_s by tens of percent across a session, then reaches
both sides of a pair alike.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jacobipc import USING_COMPILED, _kernels_py, adams, solver  # noqa: E402
from jacobipc.adams import EXACT, StarterConfig  # noqa: E402
from jacobipc.mittag import ml_solution  # noqa: E402
from jacobipc.problems import make_problem  # noqa: E402
from jacobipc.reports import run_convergence  # noqa: E402
from jacobipc.solver import SolverConfig, SplitConfig, solve  # noqa: E402

EXACT_START = StarterConfig(mode=EXACT)
SPLIT = SplitConfig(t0=1.0, aux_jn=52, fine_factor=20)
CASES = (
    ("poly8 N=8000 stencil 3", make_problem("poly8", 0.5, 1.0),
     SolverConfig(h=1.0 / 8000, stencil_size=3, starter=EXACT_START), 7),
    ("criterion 07 split march", make_problem("ml_linear", 0.5, 50.0),
     SolverConfig(h=0.1, stencil_size=3, starter=EXACT_START,
                  split=SPLIT), 40),
)
PHASES = ((solver, "_march"), (solver, "head_integral"), (adams, "adams_solve"))
MIX = [(make_problem("poly8", alpha, 1.0),
        SolverConfig(h=1.0 / n, stencil_size=size, jn=26, starter=EXACT_START))
       for size in (2, 3, 4, 5) for alpha in (0.3, 0.5, 0.8, 1.5) for n in (500, 1000, 2000)]
MIX_STEPS = sum(round(1.0 / config.h) for _, config in MIX)


def phase_seconds(problem, config):
    """Seconds spent in ``solver._march``, in the split head term and in the
    head's fine Adams run by one solve, and the steps it marched."""
    spent = {}
    originals = {name: getattr(module, name) for module, name in PHASES}

    def timed(name):
        def call(*args, **kwargs):
            begin = time.perf_counter()
            result = originals[name](*args, **kwargs)
            spent[name] = time.perf_counter() - begin
            return result
        return call

    for module, name in PHASES:
        setattr(module, name, timed(name))
    try:
        tr = solve(problem, config)
    finally:
        for module, name in PHASES:
            setattr(module, name, originals[name])
    return spent, tr.grid.count - config.stencil_size


def oracle_seconds(times, k):
    """Seconds per ``ml_solution`` call at alpha 0.4 over ``times``, min of k passes."""
    best = float("inf")
    for _ in range(k):
        begin = time.perf_counter()
        for t in times:
            ml_solution(0.4, t)
        best = min(best, (time.perf_counter() - begin) / len(times))
    return best


def relax_cell_seconds(k):
    """Process CPU seconds of one relax-kind convergence cell, min of k, each at
    a fresh order."""
    best = float("inf")
    for i in range(k):
        problem = make_problem("ml_linear", 0.4 + 1e-7 * i, 10.0)
        begin = time.process_time()
        run_convergence(problem, [0.5, 0.25], starter=EXACT_START, split=SPLIT)
        best = min(best, time.process_time() - begin)
    return best


def mix_pass(kernels):
    """Process CPU seconds of one solve of every ``MIX`` cell on ``kernels``."""
    default, solver.kernels = solver.kernels, kernels
    try:
        begin = time.process_time()
        for problem, config in MIX:
            solve(problem, config)
        return time.process_time() - begin
    finally:
        solver.kernels = default


def us_per_step(seconds):
    """Median [quartiles] of per-pass seconds, in microseconds per step."""
    q1, median, q3 = (q / MIX_STEPS * 1e6 for q in statistics.quantiles(seconds, n=4))
    return f"{median:.2f} [{q1:.2f}-{q3:.2f}]"


def mix_row(k, against):
    label = f"march workload mix ({len(MIX)} cells, {MIX_STEPS} steps a pass)"
    if against is None:
        mix_pass(solver.kernels)  # warms the rules
        seconds = [mix_pass(solver.kernels) for _ in range(k)]
        print(f"{label}: {us_per_step(seconds)} us/step (median [quartiles] of {k})")
        return
    spec = importlib.util.spec_from_file_location(
        "against_kernels", Path(against) / "src" / "jacobipc" / "_kernels_py.py")
    other = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(other)
    for kernels in (other, _kernels_py):  # warms the rules and both modules
        mix_pass(kernels)
    pairs = []
    for i in range(k):
        order = (_kernels_py, other) if i % 2 == 0 else (other, _kernels_py)
        spent = {kernels: mix_pass(kernels) for kernels in order}
        pairs.append((spent[_kernels_py], spent[other]))
    here, there = ([pair[i] for pair in pairs] for i in (0, 1))
    wins = sum(a < b for a, b in pairs)
    print(f"{label}, pure kernels, median [quartiles] of {k} alternating passes:\n"
          f"  this checkout {us_per_step(here)} us/step\n"
          f"  {against} {us_per_step(there)} us/step\n"
          f"  ratio {statistics.median(there) / statistics.median(here):.3f}, "
          f"this checkout faster in {wins}/{k} pairs")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="OTHER_CHECKOUT",
                        help="A/B the march mix against that checkout's pure kernels")
    args = parser.parse_args()
    print("backend", "compiled" if USING_COMPILED else "pure")
    for label, problem, config, k in CASES:
        runs = [phase_seconds(problem, config) for _ in range(k)]
        seconds = min(spent["_march"] for spent, _ in runs)
        steps = runs[0][1]
        print(f"{label}: {seconds / steps * 1e6:.2f} us/step (min of {k}, {steps} steps)")
        if config.split is not None:
            head = min(spent["head_integral"] for spent, _ in runs)
            print(f"{label} head_integral: {head * 1e3:.3f} ms/solve (min of {k}, "
                  f"{steps} points)")
            fine = min(spent["adams_solve"] for spent, _ in runs)
            print(f"{label} head Adams run: {fine * 1e3:.3f} ms/solve (min of {k})")
    times = [1.0 + 0.25 * i for i in range(37)]
    print(f"oracle ml_solution: {oracle_seconds(times, 20) * 1e6:.1f} us/call "
          f"(alpha 0.4, {len(times)} times on [1, 10], min of 20)")
    print(f"relax-kind run_convergence cell: {relax_cell_seconds(15) * 1e3:.2f} ms CPU "
          f"(min of 15)")
    mix_row(11, args.against)


if __name__ == "__main__":
    main()

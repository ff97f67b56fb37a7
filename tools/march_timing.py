"""Microseconds per marched step, min of k, on the backend the import selects.

Usage (from a checkout; set JACOBIPC_PURE=1 for the pure kernels, or build
the extension in place with ``python setup.py build_ext --inplace`` for the
compiled ones):

    python tools/march_timing.py

Two marches are timed: poly8 with N = 8000, stencil 3, jn 26 and the exact
start, and criterion 07's split cell (ml_linear, alpha 0.5, t0 = 1, T = 50,
h = 0.1, stencil 3, aux_jn 52, fine_factor 20).  Only ``solver._march`` is
timed, so the start values and the split's head term are left out.  For the
split cell the head term, ``split.head_integral`` over the marched points,
is timed on its own too (milliseconds per solve, min of k).  Run it on two
trees back to back and compare; the numbers move with host load.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jacobipc import USING_COMPILED, solver  # noqa: E402
from jacobipc.adams import EXACT, StarterConfig  # noqa: E402
from jacobipc.problems import make_problem  # noqa: E402
from jacobipc.solver import SolverConfig, SplitConfig, solve  # noqa: E402

EXACT_START = StarterConfig(mode=EXACT)
CASES = (
    ("poly8 N=8000 stencil 3", make_problem("poly8", 0.5, 1.0),
     SolverConfig(h=1.0 / 8000, stencil_size=3, starter=EXACT_START), 7),
    ("criterion 07 split march", make_problem("ml_linear", 0.5, 50.0),
     SolverConfig(h=0.1, stencil_size=3, starter=EXACT_START,
                  split=SplitConfig(t0=1.0, aux_jn=52, fine_factor=20)), 40),
)


def phase_seconds(problem, config):
    """Seconds spent in ``solver._march`` and in the split head term by one
    solve, and the steps it marched."""
    spent = {}
    originals = {name: getattr(solver, name) for name in ("_march", "head_integral")}

    def timed(name):
        def call(*args, **kwargs):
            begin = time.perf_counter()
            result = originals[name](*args, **kwargs)
            spent[name] = time.perf_counter() - begin
            return result
        return call

    for name in originals:
        setattr(solver, name, timed(name))
    try:
        tr = solve(problem, config)
    finally:
        for name, original in originals.items():
            setattr(solver, name, original)
    return spent, tr.grid.count - config.stencil_size


def main():
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


if __name__ == "__main__":
    main()

"""Digest of a fixed grid of solves, for checking that a refactor is bit-identical.

Usage (from a checkout; the backend is the one the import selects, so set
JACOBIPC_PURE=1 for the pure kernels, or build the extension in place with
``python setup.py build_ext --inplace`` for the compiled ones):

    python tools/trajectory_digest.py

The first line names the backend.  Then one line per solve: its label, the
endpoint as ``float.hex``, a sha256 of ``x`` and ``f_cache``, a sha256 of the
split head's ``x`` (``-`` without a split), the status and the counters.  The
last line is a sha256 over the solve lines.  Run it on two trees with the
same backend and diff the output.

The grid: poly8 over alpha {0.3, 0.5, 0.8, 1.0, 1.5, 2.0} x stencils 2-5 x
N {40, 300} plus one refined-starter run; split ml_linear (t0 = 1, T = 10,
h = 0.25, aux_jn 52, fine_factor 20) over alpha {0.2, 0.5, 0.9, 1.5} with
exact and refined starts, at the default stencil 3 and at stencils 4 and 5;
the six cells of acceptance criterion 07; and
poly8 at alpha 0.5, N = 2000 with stencils 2 and 5, which span many stencil
plan blocks of the pure march, and with stencil 16, which leaves the guard
at step 944, inside a later block.
"""

import hashlib
import sys
from dataclasses import astuple
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jacobipc import USING_COMPILED  # noqa: E402
from jacobipc.adams import EXACT, REFINED_ADAMS, StarterConfig  # noqa: E402
from jacobipc.problems import make_problem  # noqa: E402
from jacobipc.solver import SolverConfig, SplitConfig, solve  # noqa: E402


def cases():
    """(label, problem, config) for every solve of the grid."""
    exact = StarterConfig(mode=EXACT)
    for alpha in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0):
        problem = make_problem("poly8", alpha, 1.0)
        for size in (2, 3, 4, 5):
            for n in (40, 300):
                yield (f"poly8 a={alpha} s={size} n={n}", problem,
                       SolverConfig(h=1.0 / n, stencil_size=size, starter=exact))
    yield ("poly8 a=0.5 s=3 n=40 refined", make_problem("poly8", 0.5, 1.0),
           SolverConfig(h=1.0 / 40, starter=StarterConfig(mode=REFINED_ADAMS)))
    split = SplitConfig(t0=1.0, aux_jn=52, fine_factor=20)
    for alpha in (0.2, 0.5, 0.9, 1.5):
        problem = make_problem("ml_linear", alpha, 10.0)
        for mode in (EXACT, REFINED_ADAMS):
            yield (f"ml_linear split a={alpha} {mode}", problem,
                   SolverConfig(h=0.25, starter=StarterConfig(mode=mode), split=split))
            for size in (4, 5):
                yield (f"ml_linear split a={alpha} s={size} {mode}", problem,
                       SolverConfig(h=0.25, stencil_size=size, starter=StarterConfig(mode=mode),
                                    split=split))
    # acceptance criterion 07
    for alpha, size, n in ((0.5, 3, 40), (0.2, 2, 160)):
        yield (f"crit07 a={alpha} s={size} n={n}", make_problem("ml_linear", alpha, 1.1),
               SolverConfig(h=1.0 / n, stencil_size=size, starter=exact,
                            split=SplitConfig(t0=0.1, aux_jn=52)))
    for alpha in (0.2, 0.5):
        for size in (2, 3):
            yield (f"crit07 long a={alpha} s={size}", make_problem("ml_linear", alpha, 50.0),
                   SolverConfig(h=49.0 / 490, stencil_size=size, starter=exact,
                                split=split))
    problem = make_problem("poly8", 0.5, 1.0)
    for size in (2, 5, 16):
        yield (f"poly8 a=0.5 s={size} n=2000", problem,
               SolverConfig(h=1.0 / 2000, stencil_size=size, starter=exact))


def sha(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


def main():
    print("backend", "compiled" if USING_COMPILED else "pure")
    lines = []
    for label, problem, config in cases():
        tr = solve(problem, config)
        head = "-" if tr.head is None else sha(tr.head.x)
        lines.append(f"{label}: {float(tr.x[-1]).hex()} {sha(tr.x, tr.f_cache)} "
                     f"{head} {tr.status} {astuple(tr.counters)}")
        print(lines[-1], flush=True)
    print("combined", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()

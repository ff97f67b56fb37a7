"""The digest grid: a fixed set of runs whose results are pinned bit for bit.

``lines()`` yields one line per run, in four sections, each closed by a
``combined`` line, a sha256 over that section's lines.  ``test_digests.py``
compares each of them, on both backends, with ``golden_digests.txt``.  Run
as a script, this module prints them with whichever kernels the import
selects (``JACOBIPC_PURE=1`` for the pure ones).  After a declared rounding
change, regenerate the golden file from the repository root with

    PYTHONPATH=src python tests/digest_grid.py > tests/golden_digests.txt

and list the moved labels (``git diff`` of the file) in CHANGES.md.

Solve lines: the label, the endpoint as ``float.hex``, a sha256 of ``x`` and
``f_cache``, a sha256 of the split head's ``x`` (``-`` without a split), the
status and the counters, closed by ``combined``.  The solves: poly8 over
alpha {0.3, 0.5, 0.8, 1.0, 1.5, 2.0} x stencils 2-5 x N {40, 300} plus one
refined-starter run; split ml_linear (t0 = 1, T = 10, h = 0.25, aux_jn 52,
fine_factor 20) over alpha {0.2, 0.5, 0.9, 1.5} with exact and refined
starts, at the default stencil 3 and at stencils 4 and 5; the six cells of
acceptance criterion 07; and poly8 at alpha 0.5, N = 2000 with stencils 2
and 5, which span many stencil plan blocks of the pure march, and with
stencil 16, which leaves the guard at step 944, inside a later block.

Oracle lines, closed by ``combined oracle``: ``ml_solution`` as
``float.hex`` over alpha {0.01, 0.2, 0.45, 0.7, 0.999, 1.001, 1.3, 1.7,
1.99} x t {1e-8, 0.01, 0.5, 1, 3.75, 10, 23, 50, 1e3, 1e6} at the default
tolerance, and at alpha 0.45 also at tolerances machine epsilon and 1e-3;
then the ``run_convergence`` rows of relax-kind cells: split ml_linear
(t0 = 1, aux_jn 52, fine_factor 20, stencil 3, jn 26, exact start) at
h = 0.5, 0.25, with T = 10 at alpha {0.2, 0.35, 0.55} and T = 50 at alpha
0.4.

Adams lines, closed by ``combined adams``, one per ``adams_solve`` run: the
label, the endpoint as ``float.hex``, a sha256 of ``x`` and ``f_cache``, the
status, the point count and the counters.  The runs: poly8 and ml_linear on
[0, 1] over alpha {0.3, 0.5, 1.0, 1.5, 1.9} x N {7, 120, 500}, and two runs
of x'' = x^2 from x(0) = x'(0) = 1 that the guard cuts, one at the predictor
(alpha 1.9, h = 0.04) and one at the corrector (alpha 1.5, h = 0.05).

Float32 lines, in the Adams line format, closed by ``combined float32``:
runs whose rhs returns ``np.float32``, which both backends must take as the
Python float of that value.  The runs: poly8 at alpha 0.5 and 1.5 with
stencil 3, N = 200 and the exact start; a split ml_linear solve (alpha 0.5,
t0 = 1, T = 10, h = 0.25, aux_jn 52, fine_factor 20, exact start), whose
head is a fine Adams run; and ``adams_solve`` on poly8 at alpha 0.5,
N = 200.

The runs use whichever kernels ``jacobipc.solver`` and ``jacobipc.adams``
hold at call time.
"""

import hashlib
import sys
from dataclasses import astuple, replace

import numpy as np

from jacobipc.adams import EXACT, REFINED_ADAMS, StarterConfig, adams_solve
from jacobipc.mittag import ml_solution
from jacobipc.problems import ProblemSpec, make_problem
from jacobipc.reports import run_convergence
from jacobipc.solver import SolverConfig, SplitConfig, solve

ORACLE_ALPHAS = (0.01, 0.2, 0.45, 0.7, 0.999, 1.001, 1.3, 1.7, 1.99)
ORACLE_TIMES = (1e-8, 0.01, 0.5, 1.0, 3.75, 10.0, 23.0, 50.0, 1e3, 1e6)
RELAX_CELLS = ((0.2, 10.0), (0.35, 10.0), (0.55, 10.0), (0.4, 50.0))
ADAMS_ALPHAS = (0.3, 0.5, 1.0, 1.5, 1.9)
ADAMS_STEPS = (7, 120, 500)


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


def solve_lines():
    """Solve-format lines of every solve of the grid."""
    for label, problem, config in cases():
        tr = solve(problem, config)
        head = "-" if tr.head is None else sha(tr.head.x)
        yield (f"{label}: {float(tr.x[-1]).hex()} {sha(tr.x, tr.f_cache)} "
               f"{head} {tr.status} {astuple(tr.counters)}")


def oracle_lines():
    """``float.hex`` lines of the oracle and of relax-kind convergence rows."""
    for alpha in ORACLE_ALPHAS:
        values = [ml_solution(alpha, t).hex() for t in ORACLE_TIMES]
        yield f"ml_solution a={alpha}: {' '.join(values)}"
    for tol in (sys.float_info.epsilon, 1e-3):
        values = [ml_solution(0.45, t, tol).hex() for t in ORACLE_TIMES]
        yield f"ml_solution a=0.45 tol={tol:g}: {' '.join(values)}"
    for alpha, t_end in RELAX_CELLS:
        report = run_convergence(make_problem("ml_linear", alpha, t_end), [0.5, 0.25],
                                 starter=StarterConfig(mode=EXACT),
                                 split=SplitConfig(t0=1.0, aux_jn=52, fine_factor=20))
        rows = [f"{r.h.hex()} {r.max_error.hex()} "
                f"{'-' if r.observed_order is None else r.observed_order.hex()} {r.status}"
                for r in report.rows]
        yield f"relax a={alpha} T={t_end}: {'; '.join(rows)}"


def square(t, x):
    return x * x


def adams_cases():
    """(label, problem, h, n_steps) for every Adams baseline run."""
    for pid in ("poly8", "ml_linear"):
        for alpha in ADAMS_ALPHAS:
            problem = make_problem(pid, alpha, 1.0)
            for n in ADAMS_STEPS:
                yield f"adams {pid} a={alpha} n={n}", problem, 1.0 / n, n
    # the guard cuts these after 58 steps (predictor) and 34 steps (corrector)
    yield ("adams blow-up predictor a=1.9", ProblemSpec(1.9, (1.0, 1.0), square, 4.0),
           0.04, 100)
    yield ("adams blow-up corrector a=1.5", ProblemSpec(1.5, (1.0, 1.0), square, 4.0),
           0.05, 80)


def adams_lines():
    """Adams-format lines of every Adams baseline run."""
    for label, problem, h, n in adams_cases():
        yield run_line(label, adams_solve(problem, h, n))


def float32_rhs(problem):
    """The problem with its rhs values returned as ``np.float32``."""
    rhs = problem.rhs
    return replace(problem, rhs=lambda t, x: np.float32(rhs(t, x)))


def float32_lines():
    """Adams-format lines of every run whose rhs returns ``np.float32``."""
    exact = StarterConfig(mode=EXACT)
    for alpha in (0.5, 1.5):
        yield run_line(f"float32 poly8 a={alpha} s=3 n=200",
                       solve(float32_rhs(make_problem("poly8", alpha, 1.0)),
                             SolverConfig(h=1.0 / 200, starter=exact)))
    yield run_line("float32 ml_linear split a=0.5 exact",
                   solve(float32_rhs(make_problem("ml_linear", 0.5, 10.0)),
                         SolverConfig(h=0.25, starter=exact,
                                      split=SplitConfig(t0=1.0, aux_jn=52, fine_factor=20))))
    yield run_line("float32 adams poly8 a=0.5 n=200",
                   adams_solve(float32_rhs(make_problem("poly8", 0.5, 1.0)), 1.0 / 200, 200))


def sha(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


def run_line(label, tr):
    """The Adams-format line of one trajectory."""
    return (f"{label}: {float(tr.x[-1]).hex()} {sha(tr.x, tr.f_cache)} "
            f"{tr.status} {tr.grid.count} {astuple(tr.counters)}")


SECTIONS = (("combined", solve_lines), ("combined oracle", oracle_lines),
            ("combined adams", adams_lines), ("combined float32", float32_lines))


def lines():
    """Every line of the digest in order, each section's combined line included."""
    for closing, section in SECTIONS:
        done = []
        for line in section():
            done.append(line)
            yield line
        joined = "\n".join(done)
        yield f"{closing} {hashlib.sha256(joined.encode()).hexdigest()}"


if __name__ == "__main__":
    for line in lines():
        print(line)

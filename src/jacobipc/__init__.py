"""Jacobi-quadrature predictor-corrector solver for Caputo fractional IVPs.

Solves D^alpha x(t) = f(t, x(t)) with classical initial conditions by
marching the equivalent Volterra integral form: the memory integral is
evaluated with a Gauss-Lobatto rule whose Jacobi weight absorbs the kernel
singularity, and the integrand is rebuilt from stored f values by local
stencil interpolation, giving per-step cost independent of the step index.
Includes a fractional Adams baseline, a two-segment splitting for long
horizons, an evaluator for the linear problem's special-function solution,
an expression DSL for user-defined right-hand sides, and a benchmark CLI.
Every run goes through ``solve``: ``start_values`` samples its first values
from the exact solution or one fine Adams run (capped at
``MAX_STARTER_STEPS`` substeps, also the head on [0, t0] of a split run),
and a split run adds the head term over [0, t0] to the Taylor head.

``USING_COMPILED`` reports whether the compiled kernel extension (a plain C
extension, built when a compiler is available) is active; otherwise, or with
``JACOBIPC_PURE=1`` set before import, the pure-Python kernels run.  Both
give bit-identical results.
"""

from jacobipc._backend import USING_COMPILED
from jacobipc.adams import (EXACT, REFINED_ADAMS, StarterConfig, adams_solve,
                            recommended_refinement, start_values)
from jacobipc.expr import compile_rhs
from jacobipc.mittag import mittag_leffler, ml_solution
from jacobipc.problems import ProblemSpec, make_problem, problem_ids, taylor_head
from jacobipc.quadrature import JacobiWeight, QuadratureRule, gauss_lobatto_rule
from jacobipc.reports import (ConvergenceReport, TimingReport, export, load,
                              run_convergence, run_timing, smallest_n_reaching)
from jacobipc.solver import (SolverConfig, SplitConfig, quadrature_for, solve,
                             step_count)
from jacobipc.split import head_integral
from jacobipc.trajectory import (GUARD, STATUS_DIVERGED, STATUS_OK, Counters,
                                 DivergenceError, Trajectory)

__version__ = "0.1.0"

__all__ = [
    "USING_COMPILED", "EXACT", "REFINED_ADAMS", "StarterConfig", "adams_solve",
    "recommended_refinement", "start_values", "compile_rhs",
    "mittag_leffler", "ml_solution", "ProblemSpec", "make_problem",
    "problem_ids", "taylor_head", "JacobiWeight", "QuadratureRule",
    "gauss_lobatto_rule", "ConvergenceReport", "TimingReport",
    "export", "load", "run_convergence", "run_timing", "smallest_n_reaching",
    "SolverConfig", "SplitConfig", "quadrature_for", "solve", "step_count",
    "head_integral", "GUARD", "STATUS_DIVERGED", "STATUS_OK",
    "Counters", "DivergenceError", "Trajectory", "__version__",
]

"""Fractional Adams-Bashforth-Moulton (PECE) scheme and starting values.

This is the O(N^2) baseline method of order min(1 + alpha, 2) and, run at a
refined substep, the generic source of start values when no exact solution
is available.  A run of more than MAX_ADAMS_STEPS steps is refused before
any work, so its cost is bounded.  ``start_values`` supplies start values
for both origins: at 0, and at t0 after a split run's head on [0, t0],
which is itself a fine Adams run.
It makes at most one fine run and refuses more than MAX_STARTER_STEPS
substeps before any work: the refined starter's (stencil_size - 1) * 10^k
substeps (the automatic k is clamped to the cap, a larger explicit k is
refused) and the split head alike, so their cost is bounded.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from jacobipc._backend import kernels
from jacobipc._kernels_py import as_double
from jacobipc.interp import UniformGrid, step_count
from jacobipc.problems import taylor_head
from jacobipc.trajectory import (STATUS_DIVERGED, STATUS_OK, Counters, DivergenceError,
                                 Trajectory)

EXACT = "exact"
REFINED_ADAMS = "refined_adams"

# a fine Adams run (refined starter or split head) costs O(steps^2): it may
# take at most this many substeps; past it, use the exact start
MAX_STARTER_STEPS = 2000

# any Adams run costs O(steps^2): it may take at most this many steps
MAX_ADAMS_STEPS = 8192


@dataclass(frozen=True)
class StarterConfig:
    """Its text form is ``label``, which ``parse`` reads back (and ``refined``)."""

    mode: str = EXACT
    k: Optional[int] = None

    def __post_init__(self):
        if self.mode not in (EXACT, REFINED_ADAMS):
            raise ValueError(f"unknown starter mode {self.mode!r}")
        if self.mode == EXACT and self.k is not None:
            raise ValueError("an exact starter takes no refinement exponent")
        if self.k is not None and self.k < 0:
            raise ValueError("refinement exponent must be >= 0")

    @property
    def label(self):
        return "exact" if self.mode == EXACT else f"refined:{'auto' if self.k is None else self.k}"

    @classmethod
    def parse(cls, text):
        if text in ("exact", "refined", "refined:auto"):
            return cls(mode=EXACT if text == "exact" else REFINED_ADAMS)
        mode, _, k = text.partition(":")
        if mode != "refined":
            raise ValueError(f"bad starter {text!r} (use exact, refined, or refined:K)")
        try:
            return cls(mode=REFINED_ADAMS, k=int(k))
        except ValueError as exc:
            raise ValueError(f"bad starter {text!r}: {exc}") from None


def _overflow(problem, what, where):
    return ValueError(f"horizon T = {problem.T} is too large at alpha = {problem.alpha}: "
                      f"{what} overflows a float {where}")


def adams_solve(problem, h, n_steps):
    """Integrate the problem with the fractional Adams PECE scheme.

    Returns a trajectory over the uniform grid {0, h, ..., n_steps*h}; on
    divergence the trajectory is truncated at the last finite value and
    flagged.  ``kernels.adams_march`` runs the steps.  Cost is O(n_steps^2),
    so n_steps outside 1 to MAX_ADAMS_STEPS, like a step h that is not
    finite and positive or whose h^alpha overflows, is refused with
    ValueError before the rhs is called; an rhs that overflows a float
    raises ValueError naming the horizon.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be finite and positive, got {h}")
    if not 1 <= n_steps <= MAX_ADAMS_STEPS:
        raise ValueError(f"Adams run of {n_steps:.6g} steps is not within 1 to the "
                         f"{MAX_ADAMS_STEPS}-step cap")
    alpha, rhs = problem.alpha, problem.rhs
    try:
        scale = h**alpha
    except OverflowError:
        raise ValueError(f"step h = {h} is too large at alpha = {alpha}: h^alpha "
                         "overflows a float") from None
    x, fc = np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    x[0] = problem.init[0]
    fc[0] = as_double(rhs(0.0, x[0]))
    try:
        count, rhs_evals, history_reads = kernels.adams_march(
            rhs, x, fc, taylor_head(problem, UniformGrid(0.0, h, n_steps + 1).times), h, alpha,
            scale / math.gamma(alpha + 1.0), scale / math.gamma(alpha + 2.0))
    except OverflowError:  # raised by the rhs
        raise _overflow(problem, "the right-hand side", f"on the Adams grid of step {h}") from None
    status = STATUS_OK if count == n_steps + 1 else STATUS_DIVERGED
    return Trajectory(UniformGrid(0.0, h, count), x[:count], fc[:count], status,
                      Counters(rhs_evals=1 + rhs_evals, history_reads=history_reads)).finalize()


def _max_refinement(stencil_size):
    """Largest k with (stencil_size - 1) * 10^k <= MAX_STARTER_STEPS; 0 if none."""
    k = 0
    while (stencil_size - 1) * 10 ** (k + 1) <= MAX_STARTER_STEPS:
        k += 1
    return k


def recommended_refinement(alpha, h, stencil_size):
    """Smallest k with (h*10^-k)^(1+min(alpha,1)) <= h^(stencil_size+0.5).

    Conservative rule making the starter error negligible against the target
    order; capped so the fine run takes at most MAX_STARTER_STEPS substeps
    (it costs O((10^k)^2)).
    """
    if h >= 1.0:
        raise ValueError(f"refinement rule assumes h < 1, got h = {h}; "
                         "give the refinement with --starter refined:K")
    if 1.0 / h == math.inf:
        raise ValueError(f"step h = {h} is too small for the refinement rule: 1/h "
                         "overflows a float; give the refinement with --starter refined:K")
    p = 1.0 + min(alpha, 1.0)
    k = math.ceil((stencil_size + 0.5 - p) * math.log10(1.0 / h) / p - 1e-12)
    return min(max(k, 0), _max_refinement(stencil_size))


def start_values(problem, h, stencil_size, cfg, split=None):
    """``(head, x_start)``: x at origin + i*h for i < stencil_size, and the head.

    The origin is 0 without a split (head None) and split.t0 with one, where
    head is a fine Adams run on [0, t0] at substep h/fine_factor.  exact mode
    samples the exact solution; refined mode takes every stride-th value,
    from the origin on, of one fine Adams run at h/stride: stride 10^k at 0,
    fine_factor at t0 (the run continues the head, so a k is refused).  Past
    MAX_STARTER_STEPS substeps the run is refused; every refusal comes before
    any rhs call, and a run that diverges raises DivergenceError.
    """
    if stencil_size < 2:
        raise ValueError("stencil size must be at least 2")
    exact = cfg.mode == EXACT
    if split is None:
        origin, head_steps, stride, what = 0.0, 0, 1, "the refined starter's fine Adams run"
        if not exact:
            k = cfg.k if cfg.k is not None else recommended_refinement(
                problem.alpha, h, stencil_size)
            if k > _max_refinement(stencil_size):
                raise ValueError(
                    f"refined starter k = {k} is above {_max_refinement(stencil_size)}, the "
                    f"largest whose fine Adams run at stencil size {stencil_size} stays "
                    f"within {MAX_STARTER_STEPS} substeps")
            stride = 10**k
            if h / stride == 0.0:
                raise ValueError(f"refined starter substep h/10^k = {h!r}/10^{k} "
                                 "underflows to 0")
    else:
        if not exact and cfg.k is not None:
            raise ValueError("a split refined start continues the head run at "
                             "h/--split-fine, so it takes no k")
        origin, stride = split.t0, split.fine_factor
        # refusals name the CLI flags and the values given, not the substep
        try:
            h_fine = h / stride
            head_steps = step_count(origin, h_fine)
        except OverflowError:
            raise ValueError(f"--split-fine {stride} is too large: the head "
                             f"substep h/--split-fine is no usable float") from None
        except ValueError:
            raise ValueError(f"--split-t0 {origin} must be a whole number of head substeps, "
                             f"but h/--split-fine = {h:.6g}/{stride} = {h_fine:.6g} "
                             f"does not evenly divide it") from None
        what = f"the split head's fine Adams run (--split-t0 {origin}, --split-fine {stride})"
    if exact and problem.exact is None:
        raise ValueError("exact starter requested but no exact solution is known")
    n_fine = head_steps if exact else head_steps + (stencil_size - 1) * stride
    if n_fine > MAX_STARTER_STEPS:
        raise ValueError(f"{what} takes {n_fine} substeps, above the "
                         f"{MAX_STARTER_STEPS}-substep cap")
    if exact:
        try:
            x_start = np.array([problem.exact(origin + i * h) for i in range(stencil_size)])
        except OverflowError:
            raise _overflow(problem, "the exact solution", "by t = "
                            f"{origin + (stencil_size - 1) * h}") from None
        if split is None:
            return None, x_start
    fine = adams_solve(problem, h / stride, n_fine)
    if fine.status != STATUS_OK:
        raise DivergenceError("fine Adams run diverged before reaching the start values")
    if not exact:
        x_start = fine.x[head_steps::stride][:stencil_size].copy()
    if split is None:
        return None, x_start
    end = head_steps + 1
    return Trajectory(UniformGrid(0.0, fine.grid.h, end), fine.x[:end], fine.f_cache[:end],
                      fine.status, fine.counters), x_start

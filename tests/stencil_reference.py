"""Reference form of the kernel's stencil rule, for tests only.

``select_stencil`` picks the interpolation block the way the kernels'
stencil rule (``_kernels_py.stencil_plan``) does, and ``lagrange_eval``
evaluates the interpolant on arbitrary nodes.  The kernels fuse both in
grid-index coordinates; these spell them out in time coordinates so tests
can check the kernels against them.
"""

import math
from dataclasses import dataclass

import numpy as np

from jacobipc._kernels_py import TIE_TOL

LEFT_EDGE = "left_edge"
RIGHT_EDGE_OPEN = "right_edge_open"
RIGHT_EDGE_CLOSED = "right_edge_closed"
CENTERED = "centered"

PREDICTOR = "predictor"
CORRECTOR = "corrector"


@dataclass(frozen=True)
class Stencil:
    start: int
    length: int
    kind: str


def stencil_halves(size):
    """(left, right) node counts of a ``size``-node stencil.

    Left nodes sit at or left of the target and right nodes strictly right
    of it where possible; left gets the extra node for odd sizes.
    """
    return (size + 1) // 2, size // 2


def select_stencil(target_t, grid, size, n, phase):
    """Choose the ``size``-node block for a target time during step n -> n+1.

    In the predictor phase indices 0..n are usable; in the corrector phase
    index n+1 is additionally usable (it carries the predicted f value).
    ``le`` counts usable grid nodes at or left of the target (ties left).
    """
    if phase not in (PREDICTOR, CORRECTOR):
        raise ValueError(f"unknown phase {phase!r}")
    ln, rn = stencil_halves(size)
    if n + 1 < size:
        raise ValueError("not enough history for the stencil size")
    theta = (target_t - grid.origin) / grid.h
    if theta < -TIE_TOL or theta > n + 1 + TIE_TOL:
        raise ValueError("interpolation target outside the usable grid range")
    usable = n + 2 if phase == CORRECTOR else n + 1
    le = min(int(math.floor(theta + TIE_TOL)) + 1, usable)
    if le <= ln:
        return Stencil(0, size, LEFT_EDGE)
    if phase == PREDICTOR:
        if le + rn >= n + 1:
            return Stencil(n + 1 - size, size, RIGHT_EDGE_OPEN)
    else:
        if le + rn >= n + 2:
            return Stencil(n + 2 - size, size, RIGHT_EDGE_CLOSED)
    return Stencil(le - ln, size, CENTERED)


def lagrange_eval(stencil_times, stencil_values, target_t):
    """Evaluate the interpolating polynomial through the given samples.

    Barycentric form; nodes must be pairwise distinct.  Returns the sample
    itself when the target coincides with a node (within TIE_TOL of the
    smallest node spacing).
    """
    times = np.asarray(stencil_times, dtype=float)
    values = np.asarray(stencil_values, dtype=float)
    if len(times) != len(values) or len(times) < 1:
        raise ValueError("times and values must have equal nonzero length")
    diffs = times[:, None] - times[None, :]
    off = np.abs(diffs[~np.eye(len(times), dtype=bool)])
    if len(times) > 1 and off.min() == 0.0:
        raise ValueError("duplicate interpolation nodes")
    spacing = off.min() if len(times) > 1 else 1.0

    gaps = target_t - times
    hits = np.abs(gaps) <= TIE_TOL * spacing
    if hits.any():
        return float(values[np.argmax(hits)])
    with np.errstate(divide="ignore"):
        w = 1.0 / np.prod(np.where(np.eye(len(times), dtype=bool), 1.0, diffs), axis=1)
    ratios = w / gaps
    return float((ratios @ values) / ratios.sum())

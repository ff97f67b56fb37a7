"""Uniform grids, step counts, barycentric weights and node mapping.

The solver approximates the integrand at mapped quadrature positions by
degree-(size-1) polynomial interpolation on blocks of ``size`` consecutive
grid nodes.  Stencils are chosen to keep the target centered where history
permits, clamped to the left edge of the grid or to the newest nodes
otherwise.  That selection rule, the split of a stencil into left and right
halves, and the barycentric evaluation live in the kernels (the C march's
scalar loop, and ``_kernels_py.stencil_plan``, which the pure march and the
split head use); this module holds their inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

REL_GRID_TOL = 1e-9


@dataclass(frozen=True)
class UniformGrid:
    origin: float
    h: float
    count: int

    def __post_init__(self):
        if self.h <= 0 or self.count < 1:
            raise ValueError("grid needs h > 0 and count >= 1")

    def t(self, i):
        return self.origin + i * self.h

    @property
    def times(self):
        return self.origin + self.h * np.arange(self.count)


def step_count(length, h):
    """Number of steps of size h covering ``length``; rejects uneven fits
    and, with OverflowError, a count that is no finite number."""
    count = length / h if h > 0 else math.inf
    if not math.isfinite(count):
        raise OverflowError(f"step {h} gives no finite step count over {length}")
    n = round(count)
    if n < 1 or abs(n * h - length) > REL_GRID_TOL * max(1.0, abs(length)):
        raise ValueError(f"step {h} does not evenly divide {length}")
    return n


def uniform_bary_weights(size):
    """Barycentric weights for ``size`` equispaced nodes: (-1)^k C(size-1, k).

    Raises ValueError for a size whose weights exceed the float range.
    """
    try:
        return np.array([(-1.0) ** k * math.comb(size - 1, k) for k in range(size)])
    except OverflowError:
        raise ValueError(f"stencil size {size} is too large: its barycentric weights "
                         "overflow a float") from None


def map_node(s, left, right):
    """Affine image of s in [-1, 1] onto [left, right]; endpoints map exactly.

    s may be an array of nodes, each mapped with the same operations.
    """
    if not np.all(np.abs(s) <= 1.0):
        raise ValueError("node outside [-1, 1]")
    if not left < right:
        raise ValueError("need left < right")
    return 0.5 * (left * (1.0 - s) + right * (1.0 + s))

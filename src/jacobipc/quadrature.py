"""Gauss-Lobatto quadrature for Jacobi weights (1-x)^a (1+x)^b on [-1, 1].

Rules are built in float64 from the classical Gauss-Lobatto-Jacobi closed
forms (Karniadakis-Sherwin, Spectral/hp Element Methods, 2nd ed., App. B):
with n = n_points - 1, the interior nodes are the zeros of
P_(n-1)^(a+1,b+1), taken from the eigenvalues of its symmetric Jacobi
matrix and polished by Newton steps on the three-term recurrence; the
interior weights follow from the derivative at each node, and the two end
weights from Gamma-function ratios evaluated in lgamma.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

CACHED_RULES = 64
MAX_POINTS = 1025  # the eigenvalue step holds an (n-2) x (n-2) matrix


@dataclass(frozen=True)
class JacobiWeight:
    """Weight (1-x)^a (1+x)^b with finite a > -1, b > -1."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > -1.0 and self.b > -1.0
                and math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("Jacobi exponents must be finite and exceed -1, "
                             f"got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for a fixed Jacobi weight, endpoints prescribed at +-1."""

    weight: JacobiWeight
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def n_points(self):
        return len(self.nodes)


def _jacobi(m, a, b, x):
    """P_m^(a,b)(x) and its derivative by the three-term recurrence (m >= 1)."""
    p_prev, p = np.ones_like(x), 0.5 * (a - b + (a + b + 2) * x)
    d_prev, d = np.zeros_like(x), np.full_like(x, 0.5 * (a + b + 2))
    for k in range(2, m + 1):
        c = 2 * k + a + b
        scale = 2 * k * (k + a + b) * (c - 2)
        lead = (c - 1) * c * (c - 2) / scale
        slope = lead * x + (c - 1) * (a - b) * (a + b) / scale
        back = 2 * (k + a - 1) * (k + b - 1) * c / scale
        p_prev, p = p, slope * p - back * p_prev
        d_prev, d = d, slope * d + lead * p_prev - back * d_prev
    return p, d


def _gauss_nodes(m, a, b):
    """Zeros of P_m^(a,b) from the symmetric Jacobi matrix (a + b > 0 here)."""
    k = np.arange(m, dtype=float)
    c = 2 * k + a + b
    diag = (b - a) / c * (a + b) / (c + 2)
    k, c = k[1:], c[1:]
    off = np.sqrt(4 * k / c * (k + a) / c * (k + b) / (c + 1) * (k + a + b) / (c - 1))
    matrix = np.diag(diag)  # eigvalsh reads only the lower triangle
    matrix[np.arange(1, m), np.arange(m - 1)] = off
    if not np.isfinite(matrix).all():  # a + b overflowed: NaN nodes, which are refused
        return np.full(m, np.nan)
    return np.linalg.eigvalsh(matrix)


def _log_end_weight(a, b, n):
    """Log of the weight at +1; swap a and b for the node at -1."""
    return (math.log(a + 1) + (a + b + 1) * math.log(2) + math.lgamma(n + b + 1)
            + math.lgamma(n + 1) + 2 * math.lgamma(a + 1) - math.log(n)
            - math.lgamma(n + a + 1) - math.lgamma(n + a + b + 2))


@functools.lru_cache(maxsize=CACHED_RULES)
def gauss_lobatto_rule(weight, n_points):
    """Gauss-Lobatto rule with ``n_points`` nodes for the given Jacobi weight.

    Endpoints are exactly -1.0 and 1.0; interior nodes ascend strictly and
    all weights are positive and finite (ValueError otherwise, and for
    ``n_points`` outside [3, MAX_POINTS]).  The rule
    integrates polynomials up to degree 2*n_points - 3 exactly against the
    weight.  The CACHED_RULES most recently used results are cached per
    (weight, n_points); errors are not.
    """
    if not 3 <= n_points <= MAX_POINTS:
        raise ValueError(f"Lobatto rules need 3 to {MAX_POINTS} points, got {n_points}")

    a, b, n = weight.a, weight.b, n_points - 1
    with np.errstate(all="ignore"):  # huge exponents overflow; refused below
        x = _gauss_nodes(n - 1, a + 1, b + 1)
        for _ in range(2):
            p, d = _jacobi(n - 1, a + 1, b + 1, x)
            x = x - p / d
        _, d = _jacobi(n - 1, a + 1, b + 1, x)
        try:
            log_k = ((a + b + 3) * math.log(2) + math.lgamma(n + a + 1)
                     + math.lgamma(n + b + 1) - math.lgamma(n + a + b + 2) - math.lgamma(n))
            ends = np.exp([_log_end_weight(b, a, n), log_k, _log_end_weight(a, b, n)])
        except OverflowError:  # lgamma of a huge exponent: no finite weight
            ends = np.full(3, math.inf)
        inner = ends[1] / ((1 - x) * (1 + x) * d) ** 2
    nodes = np.concatenate(([-1.0], x, [1.0]))
    weights = np.concatenate((ends[:1], inner, ends[2:]))
    if not (np.all(np.isfinite(weights)) and np.all(weights > 0)
            and np.all(np.diff(nodes) > 0)):
        raise ValueError(f"no finite Gauss-Lobatto rule with {n_points} points "
                         f"for a={a}, b={b}")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(weight=weight, nodes=nodes, weights=weights)

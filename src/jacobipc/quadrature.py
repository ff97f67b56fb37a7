"""Gauss-Lobatto quadrature for Jacobi weights (1-x)^a (1+x)^b on [-1, 1].

Rules are built in float64 by the Golub-Welsch construction (Golub and
Welsch, Math. Comp. 23, 1969; Gautschi, Orthogonal Polynomials, 2004):
with n = n_points - 1, one symmetric eigen-solve of the Jacobi matrix of
P_(n-1)^(a+1,b+1) gives the interior nodes as its eigenvalues and the
Gauss weights of (1-x)^(a+1) (1+x)^(b+1) from the first eigenvector
components; dividing those by 1 - x^2 gives the interior Lobatto weights.
The two end weights come from the Gauss-Lobatto-Jacobi closed forms
(Karniadakis-Sherwin, Spectral/hp Element Methods, 2nd ed., App. B), as
Gamma-function ratios evaluated in lgamma.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

CACHED_RULES = 64
MAX_POINTS = 1025  # the eigen-solve holds several (n-2) x (n-2) matrices


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


def _gauss_rule(m, a, b):
    """Nodes and first eigenvector components of the symmetric Jacobi matrix
    of P_m^(a,b) (a + b > 0 here): the Gauss weights are mass * v0**2."""
    k = np.arange(m, dtype=float)
    c = 2 * k + a + b
    diag = (b - a) / c * (a + b) / (c + 2)
    k, c = k[1:], c[1:]
    off = np.sqrt(4 * k / c * (k + a) / c * (k + b) / (c + 1) * (k + a + b) / (c - 1))
    matrix = np.diag(diag)  # eigh reads only the lower triangle
    matrix[np.arange(1, m), np.arange(m - 1)] = off
    if not np.isfinite(matrix).all():  # a + b overflowed: NaN nodes, which are refused
        return np.full(m, np.nan), np.full(m, np.nan)
    x, vectors = np.linalg.eigh(matrix)
    return x, vectors[0]


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
        x, v0 = _gauss_rule(n - 1, a + 1, b + 1)
        try:  # the mass of (1-x)^(a+1) (1+x)^(b+1): 2^(a+b+3) B(a+2, b+2)
            log_mass = ((a + b + 3) * math.log(2) + math.lgamma(a + 2)
                        + math.lgamma(b + 2) - math.lgamma(a + b + 4))
            ends = np.exp([_log_end_weight(b, a, n), log_mass, _log_end_weight(a, b, n)])
        except OverflowError:  # lgamma of a huge exponent: no finite weight
            ends = np.full(3, math.inf)
        inner = ends[1] * v0**2 / ((1 - x) * (1 + x))
    nodes = np.concatenate(([-1.0], x, [1.0]))
    weights = np.concatenate((ends[:1], inner, ends[2:]))
    if not (np.all(np.isfinite(weights)) and np.all(weights > 0)
            and np.all(np.diff(nodes) > 0)):
        raise ValueError(f"no finite Gauss-Lobatto rule with {n_points} points "
                         f"for a={a}, b={b}")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(weight=weight, nodes=nodes, weights=weights)

"""Gauss-Lobatto quadrature for Jacobi weights (1-x)^a (1+x)^b on [-1, 1].

Rules are constructed by the modified-recurrence method: the final diagonal
and off-diagonal recurrence coefficients are adjusted so that -1 and +1 are
prescribed nodes, interior nodes are the remaining roots of the modified
polynomial (Newton-refined in extended precision), and weights follow from
the orthonormal-polynomial sum at each node.  All internal arithmetic runs
at 50 significant digits; the public arrays are float64.
"""

from dataclasses import dataclass, field
from math import comb

import mpmath as mp
import numpy as np

INTERNAL_DPS = 50
NEWTON_TOL = mp.mpf("1e-30")
NEWTON_MAX_STEPS = 80

_RULE_CACHE = {}


class ConvergenceError(RuntimeError):
    """A node iteration failed to reach its tolerance."""


@dataclass(frozen=True)
class JacobiWeight:
    """Weight (1-x)^a (1+x)^b with a > -1, b > -1."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > -1.0 and self.b > -1.0):
            raise ValueError(f"Jacobi exponents must exceed -1, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for a fixed Jacobi weight, endpoints prescribed at +-1."""

    weight: JacobiWeight
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    kind: str = "gauss_lobatto"

    @property
    def n_points(self):
        return len(self.nodes)


def _mp_recurrence(a, b, n):
    """Monic Jacobi recurrence coefficients as mpf lists (alpha_0.., beta_1..)."""
    a = mp.mpf(a)
    b = mp.mpf(b)
    alphas = [(b - a) / (a + b + 2)]
    betas = []
    for k in range(1, n):
        k = mp.mpf(k)
        two_k = 2 * k + a + b
        alphas.append((b * b - a * a) / (two_k * (two_k + 2)))
        if k == 1:
            betas.append(4 * (a + 1) * (b + 1) / ((a + b + 2) ** 2 * (a + b + 3)))
        else:
            betas.append(
                4 * k * (k + a) * (k + b) * (k + a + b)
                / (two_k**2 * (two_k + 1) * (two_k - 1))
            )
    mu0 = 2 ** (a + b + 1) * mp.beta(a + 1, b + 1)
    return alphas, betas, mu0


def moment(weight, k):
    """Exact moment integral of x^k against the weight over [-1, 1].

    Uses the substitution u = (1-x)/2 and the binomial/Beta expansion;
    the alternating sum is evaluated in extended precision because the
    binomial terms grow like 4^k.
    """
    if k < 0:
        raise ValueError("moment order must be >= 0")
    with mp.workdps(INTERNAL_DPS + 2 * k):
        a = mp.mpf(weight.a)
        b = mp.mpf(weight.b)
        total = mp.mpf(0)
        for m in range(k + 1):
            total += comb(k, m) * mp.mpf(-2) ** m * mp.beta(a + m + 1, b + 1)
        return float(2 ** (a + b + 1) * total)


def _eval_monic(alphas, betas, x, n):
    """p_n(x) and p_{n-1}(x) for the monic recurrence (plus derivatives)."""
    p_prev, p = mp.mpf(1), x - alphas[0]
    d_prev, d = mp.mpf(0), mp.mpf(1)
    for k in range(1, n):
        p_next = (x - alphas[k]) * p - betas[k - 1] * p_prev
        d_next = p + (x - alphas[k]) * d - betas[k - 1] * d_prev
        p_prev, p = p, p_next
        d_prev, d = d, d_next
    return p, p_prev, d, d_prev


def _lobatto_modification(alphas, betas, n):
    """Adjusted (alpha*, beta*) so that -1 and +1 are nodes of the rule.

    Solves the 2x2 linear system requiring the modified degree-(n+1)
    polynomial to vanish at both endpoints, where n+1 is the point count.
    """
    one = mp.mpf(1)
    p_pos, q_pos, _, _ = _eval_monic(alphas, betas, one, n)
    p_neg, q_neg, _, _ = _eval_monic(alphas, betas, -one, n)
    det = p_pos * q_neg - p_neg * q_pos
    if det == 0:
        raise ConvergenceError("degenerate endpoint system in Lobatto modification")
    alpha_star = (p_pos * q_neg + p_neg * q_pos) / det
    beta_star = -2 * p_pos * p_neg / det
    # direct residual check of the 2x2 solve
    r1 = (one - alpha_star) * p_pos - beta_star * q_pos
    r2 = (-one - alpha_star) * p_neg - beta_star * q_neg
    if mp.fabs(r1) > mp.mpf("1e-35") * (1 + mp.fabs(p_pos)) or mp.fabs(r2) > mp.mpf(
        "1e-35"
    ) * (1 + mp.fabs(p_neg)):
        raise ConvergenceError("endpoint conditions not satisfied after modification")
    return alpha_star, beta_star


def _float_guesses(alphas, betas, alpha_star, beta_star):
    """Interior-node starting values from the float64 eigenproblem."""
    diag = np.array([float(x) for x in alphas[:-1]] + [float(alpha_star)])
    off = np.array([float(x) for x in betas[:-1]] + [float(beta_star)]) ** 0.5
    m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    vals = np.linalg.eigvalsh(m)
    return np.sort(vals)[1:-1]


def gauss_lobatto_rule(weight, n_points):
    """Gauss-Lobatto rule with ``n_points`` nodes for the given Jacobi weight.

    Endpoints are exactly -1.0 and 1.0; interior nodes ascend strictly and
    all weights are positive.  The rule integrates polynomials up to degree
    2*n_points - 3 exactly against the weight.  Results are cached per
    (weight, n_points).
    """
    key = (weight.a, weight.b, n_points)
    cached = _RULE_CACHE.get(key)
    if cached is not None:
        return cached
    if n_points < 3:
        raise ValueError("Lobatto rules need at least 3 points")

    n = n_points - 1
    with mp.workdps(INTERNAL_DPS):
        alphas, betas, mu0 = _mp_recurrence(weight.a, weight.b, n_points)
        alpha_star, beta_star = _lobatto_modification(alphas, betas, n)
        if beta_star <= 0:
            raise ConvergenceError("modified off-diagonal coefficient not positive")

        nodes = [mp.mpf(-1)]
        for guess in _float_guesses(alphas, betas, alpha_star, beta_star):
            x = mp.mpf(guess)
            for _ in range(NEWTON_MAX_STEPS):
                p_n, p_nm1, d_n, d_nm1 = _eval_monic(alphas, betas, x, n)
                f = (x - alpha_star) * p_n - beta_star * p_nm1
                df = p_n + (x - alpha_star) * d_n - beta_star * d_nm1
                step = f / df
                x -= step
                if mp.fabs(step) <= NEWTON_TOL:
                    break
            else:
                raise ConvergenceError(f"node iteration stalled near {float(x)}")
            nodes.append(x)
        nodes.append(mp.mpf(1))

        for left, right in zip(nodes, nodes[1:]):
            if not left < right:
                raise ConvergenceError("nodes not strictly increasing")

        sq_betas = [mp.sqrt(b_) for b_ in betas[: n - 1]]
        sq_beta_star = mp.sqrt(beta_star)
        weights = []
        for x in nodes:
            q_prev = 1 / mp.sqrt(mu0)
            q = (x - alphas[0]) * q_prev / sq_betas[0]
            total = q_prev * q_prev
            for k in range(1, n - 1):
                q_next = ((x - alphas[k]) * q - sq_betas[k - 1] * q_prev) / sq_betas[k]
                total += q * q
                q_prev, q = q, q_next
            total += q * q
            last = ((x - alphas[n - 1]) * q - sq_betas[n - 2] * q_prev) / sq_beta_star
            total += last * last
            weights.append(1 / total)

        node_arr = np.array([float(x) for x in nodes])
        weight_arr = np.array([float(w) for w in weights])

    node_arr[0], node_arr[-1] = -1.0, 1.0
    if np.any(weight_arr <= 0):
        raise ConvergenceError("non-positive quadrature weight")
    node_arr.flags.writeable = False
    weight_arr.flags.writeable = False
    rule = QuadratureRule(weight=weight, nodes=node_arr, weights=weight_arr)
    _RULE_CACHE[key] = rule
    return rule


def integrate(rule, f):
    """Apply the rule to a callable: sum of w_j * f(x_j)."""
    values = np.array([f(x) for x in rule.nodes], dtype=float)
    return float(values @ rule.weights)

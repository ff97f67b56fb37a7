"""Exact Jacobi-weight moments and a rule-application helper, for tests only.

``moment`` gives the exact integral of x^k against the weight in extended
precision, the reference the exactness checks compare rules against;
``integrate`` applies a rule to a callable.
"""

from math import comb

import mpmath as mp
import numpy as np

MOMENT_DPS = 50


def moment(weight, k):
    """Exact moment integral of x^k against the weight over [-1, 1].

    Uses the substitution u = (1-x)/2 and the binomial/Beta expansion;
    the alternating sum is evaluated in extended precision because the
    binomial terms grow like 4^k.
    """
    if k < 0:
        raise ValueError("moment order must be >= 0")
    with mp.workdps(MOMENT_DPS + 2 * k):
        a = mp.mpf(weight.a)
        b = mp.mpf(weight.b)
        total = mp.mpf(0)
        for m in range(k + 1):
            total += comb(k, m) * mp.mpf(-2) ** m * mp.beta(a + m + 1, b + 1)
        return float(2 ** (a + b + 1) * total)


def integrate(rule, f):
    """Apply the rule to a callable: sum of w_j * f(x_j)."""
    values = np.array([f(x) for x in rule.nodes], dtype=float)
    return float(values @ rule.weights)

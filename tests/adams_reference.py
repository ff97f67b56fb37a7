"""Materialized fractional Adams weights, for tests only.

``adams.adams_solve`` never builds these arrays: its kernel
``adams_step_sums`` accumulates the same sums on the fly.  Tests use the
explicit weights to check the kernel and the scheme's limiting cases.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AdamsWeights:
    """Materialized weights for one step n -> n+1.

    predictor: length n+1, b_j = (h^alpha/alpha) ((n+1-j)^alpha - (n-j)^alpha)
    corrector: length n+2 including the implicit unit weight at t_{n+1},
               scaled by h^alpha / Gamma(alpha+2) at use.
    """

    predictor: np.ndarray
    corrector: np.ndarray


def adams_weights(alpha, h, n):
    j = np.arange(n + 1, dtype=float)
    b = h**alpha / alpha * ((n + 1 - j) ** alpha - (n - j) ** alpha)
    a = np.empty(n + 2)
    a[0] = float(n) ** (alpha + 1) - (n - alpha) * float(n + 1) ** alpha
    jj = j[1:]
    a[1 : n + 1] = (
        (n - jj + 2) ** (alpha + 1) + (n - jj) ** (alpha + 1) - 2 * (n - jj + 1) ** (alpha + 1)
    )
    a[n + 1] = 1.0
    return AdamsWeights(predictor=b, corrector=a)

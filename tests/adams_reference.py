"""Materialized fractional Adams weights, for tests only.

``adams.adams_solve`` never builds these arrays: its kernel
``adams_step_sums`` accumulates the same sums on the fly.  Tests use the
explicit weights to check the kernel and the scheme's limiting cases, and
``adams_step_sums_loop`` as the kernel's bit-for-bit reference.
"""

from dataclasses import dataclass

import numpy as np

# steps below and at powers of two, where the pure kernel's cached weight
# table grows, up to the Adams step cap
STEP_SUM_NS = (0, 1, 2, 3, 4, 7, 8, 1023, 1024, 8191)


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


def adams_step_sums_loop(fvals, n, alpha):
    """``adams_step_sums`` as a scalar loop that computes each history weight
    with its own powers at every step, as the C kernel does.  Both kernels
    must give the same floats bit for bit."""
    ap1 = alpha + 1.0
    pred = 0.0
    corr = (float(n) ** ap1 - (n - alpha) * float(n + 1) ** alpha) * float(fvals[0])
    pm1 = 0.0  # (m-1)^alpha
    qm1 = 0.0  # (m-1)^(alpha+1)
    qm = 1.0  # m^(alpha+1), starting at m=1
    for m in range(1, n + 1):  # history term for f_{n+1-m}
        pm = float(m) ** alpha
        qp = float(m + 1) ** ap1
        fj = float(fvals[n + 1 - m])
        pred += (pm - pm1) * fj
        corr += (qp - 2.0 * qm + qm1) * fj
        pm1 = pm
        qm1 = qm
        qm = qp
    pred += (float(n + 1) ** alpha - pm1) * float(fvals[0])
    return pred, corr

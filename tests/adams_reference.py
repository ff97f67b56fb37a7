"""Materialized fractional Adams weights and a scalar Adams march, for tests only.

``adams.adams_solve`` never builds these arrays: its kernel ``adams_march``
accumulates the same sums on the fly at every step.  Tests use the explicit
weights to check the kernel and the scheme's limiting cases,
``history_sums_loop`` and ``adams_march_loop`` as the kernel's bit-for-bit
reference, and ``marched_sums`` to read the history sums of every step off
a kernel's march.
"""

from dataclasses import dataclass

import numpy as np

from jacobipc._kernels_py import as_double
from jacobipc.trajectory import GUARD

# steps below and at powers of two, up to the last step of a run at the
# Adams step cap
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


def history_sums_loop(fvals, n, alpha):
    """(pred, corr), the history sums of Adams step n over fvals[:n + 1], as
    a scalar loop that computes each history weight with its own powers, as
    the C kernel does.  Both kernels must give the same floats bit for bit."""
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


def adams_march_loop(rhs, x, fc, base, h, alpha, c_pred, c_corr):
    """``adams_march`` as a plain loop over ``history_sums_loop``, one step at
    a time, with the kernels' guard and counters."""
    rhs_evals = history_reads = 0
    for n in range(len(x) - 1):
        pred, corr = history_sums_loop(fc, n, alpha)
        history_reads += 2 * (n + 1)
        t1 = (n + 1) * h
        x_pred = float(base[n + 1]) + c_pred * pred
        if not abs(x_pred) <= GUARD:
            return n + 1, rhs_evals, history_reads
        f_pred = as_double(rhs(t1, x_pred))
        rhs_evals += 1
        x_new = float(base[n + 1]) + c_corr * (corr + f_pred)
        if not abs(x_new) <= GUARD:
            return n + 1, rhs_evals, history_reads
        x[n + 1] = x_new
        fc[n + 1] = as_double(rhs(t1, x_new))
        rhs_evals += 1
    return len(x), rhs_evals, history_reads


def marched_sums(adams_march, fvals, alpha):
    """[(pred, corr)] of every step of ``adams_march`` over the f history
    fvals (a list of floats), read off the march itself.  With base 0 and
    both prefactors 1, step n calls the rhs at x_pred = pred and writes x[n +
    1] = corr + f_pred; the rhs hands out f_pred = 0.0, then fvals[n + 1]."""
    calls = []

    def rhs(t, y):
        calls.append(y)
        return 0.0 if len(calls) % 2 else fvals[len(calls) // 2]

    x, fc = np.zeros(len(fvals)), np.zeros(len(fvals))
    fc[0] = fvals[0]
    count, _, _ = adams_march(rhs, x, fc, np.zeros(len(fvals)), 1.0, alpha, 1.0, 1.0)
    assert count == len(fvals) and fc.tolist() == fvals
    return list(zip(calls[0::2], x[1:].tolist()))

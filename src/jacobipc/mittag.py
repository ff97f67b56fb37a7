"""Evaluation of E_a(z) = sum_k z^k / Gamma(a*k + 1) for real z <= 0.

Three regimes, each giving (value, error estimate): the algebraic
large-argument expansion at optimal truncation, used where its own estimate
reaches SWITCH_TARGET; the defining power series in float64 with compensated
summation below that; and an extended-precision series for the cancellation
gap, taken when the float64 estimate exceeds half the tolerance.  a = 1 and
a = 2 short-circuit to exp and cos(sqrt(.)).
"""

import math
import sys

DEFAULT_TOL = 1e-10
SWITCH_TARGET = 1e-11
MAX_TERMS = 2000
LN_PI = math.log(math.pi)


def _series64(alpha, x):
    """Power series at z = -x in float64; returns (value, error estimate).

    The estimate is inf when the terms do not die out within MAX_TERMS.
    """
    total, comp, sum_abs = 1.0, 0.0, 1.0
    lnx = math.log(x)
    r = x ** (1.0 / alpha)
    for k in range(1, MAX_TERMS):
        m = math.exp(k * lnx - math.lgamma(alpha * k + 1.0))
        t = -m if k & 1 else m
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        sum_abs += m
        if m < 1e-17 * (1.0 + abs(total)) and alpha * k + 1.0 > r:
            n = k
            break
    else:
        return total, math.inf
    # rounding model: each add contributes ~eps of the running magnitude
    return total, sum_abs * (2e-16 + 2e-17 * n)


def _asymptotic(alpha, x):
    """Large-x expansion of E_a(-x); returns (value, error estimate).

    Algebraic part sum_k (-1)^(k+1) x^-k / Gamma(1 - a*k), written through
    the reflection formula so magnitudes stay in log space, truncated where
    the term envelope turns; for a > 1 the pair of conjugate exponential
    modes contributes a damped oscillation on top.
    """
    lnx = math.log(x)
    total, comp = 0.0, 0.0
    prev_env = math.inf
    err = math.inf
    for k in range(1, 400):
        y = alpha * k
        env = math.lgamma(y) - k * lnx - LN_PI
        if env >= prev_env:
            err = math.exp(min(env, 700.0))
            break
        prev_env = env
        s = math.sin(math.pi * y)
        t = (s if k & 1 else -s) * math.exp(env)
        yy = t - comp
        ss = total + yy
        comp = (ss - total) - yy
        total = ss
        if env < -41.0:  # below 1e-18: machine-level truncation
            err = math.exp(env)
            break
    if alpha > 1.0:
        r = x ** (1.0 / alpha)
        th = math.pi / alpha
        total += (2.0 / alpha) * math.exp(r * math.cos(th)) * math.cos(r * math.sin(th))
    return total, err


def _series_mp(alpha, x, tol):
    """Power series at z = -x with working precision sized to the peak term."""
    import mpmath as mp  # deferred: no other code path in the package needs it

    r = x ** (1.0 / alpha)
    dps = int(35 + 0.4343 * r - math.log10(tol))
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        mz = mp.mpf(-x)
        total = mp.mpf(1)
        p = mp.mpf(1)
        floor = mp.mpf(10) ** (-dps + 5)
        for k in range(1, 200000):
            p *= mz
            term = p / mp.gamma(a * k + 1)
            total += term
            if abs(term) < floor * (1 + abs(total)) and alpha * k + 1.0 > r:
                return float(total)
    raise RuntimeError("series did not attain the requested tolerance")


def mittag_leffler(alpha, z, tol=DEFAULT_TOL):
    """E_alpha(z) for 0 < alpha <= 2 and real z <= 0, to absolute tol."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError("order must lie in (0, 2]")
    if z > 0.0:
        raise ValueError("argument must be nonpositive")
    # below eps no float64 regime can accept and the mp series grows with |z|
    if not tol >= sys.float_info.epsilon:
        raise ValueError("tolerance must be at least machine epsilon")
    if alpha == 1.0:
        return math.exp(z)
    if alpha == 2.0:
        return math.cos(math.sqrt(-z))
    x = -float(z)
    if x == 0.0:
        return 1.0
    val, err = _asymptotic(alpha, x)
    if err > SWITCH_TARGET:
        val, err = _series64(alpha, x)
    if err <= 0.5 * tol:
        return val
    return _series_mp(alpha, x, tol)


def ml_solution(alpha, t, tol=DEFAULT_TOL):
    """x(t) = E_alpha(-t^alpha): the decaying relaxation solution."""
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    return mittag_leffler(alpha, -float(t) ** alpha, tol)

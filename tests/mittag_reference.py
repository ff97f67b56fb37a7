"""Extended-precision Mittag-Leffler values E_a(-x), for tests only.

``ml_reference`` is the one reference the evaluator is checked against.
Where the power series is cheap (x^(1/a) small) it sums the series with
working precision sized to its peak term; elsewhere it integrates the
Laplace-type integral in s = ln u with mpmath's tanh-sinh quadrature,
splitting the range at the exponential's transition and around the poles
near s = 0.
"""

import math

import mpmath as mp
import numpy as np

DIGITS = 30
SERIES_MAX_PEAK = 150.0  # x^(1/a) above this: the series needs too many digits
SERIES_MAX_TERMS = 2000


def ml_series(alpha, x, digits=DIGITS):
    """Power series sum_k (-x)^k / Gamma(a k + 1), to ``digits`` correct digits."""
    r = x ** (1.0 / alpha)
    dps = int(digits + 5 + 0.4343 * r)  # the peak term is about e^r
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        mz = mp.mpf(-x)
        total = mp.mpf(1)
        p = mp.mpf(1)
        floor = mp.mpf(10) ** (-dps + 3)
        for k in range(1, 100000):
            p *= mz
            term = p / mp.gamma(a * k + 1)
            total += term
            if abs(term) < floor * (1 + abs(total)) and alpha * k + 1.0 > r:
                return float(total)
    raise AssertionError("reference series did not converge")


def ml_quad(alpha, x, digits=DIGITS):
    """(sin(a pi)/(a pi)) int exp(-(x e^s)^(1/a)) e^s / (e^2s + 2 e^s cos(a pi) + 1) ds,
    plus the mode term (2/a) exp(r cos(pi/a)) cos(r sin(pi/a)) for a > 1."""
    with mp.workdps(digits):
        a = mp.mpf(alpha)
        xx = mp.mpf(x)
        c = mp.cos(a * mp.pi)

        def integrand(s):
            e = mp.exp(s)
            return mp.exp(-(xx * e) ** (1 / a)) * e / ((e + 2 * c) * e + 1)

        star = -mp.log(xx)  # (x e^s)^(1/a) = 1 here; the exponential ends by star + 7a
        end = star + 7 * a
        gap = abs(1 - a) * mp.pi  # the poles sit at s = +-i gap
        cuts = {star + a * k for k in (-40, -20, -10, -5, -2, -1, 0, 1, 2, 3, 4, 5, 6)}
        cuts |= {m * gap * k for k in (0.25, 1, 4, 16) for m in (-1, 1)} | {mp.mpf(0)}
        cuts = sorted(p for p in cuts if p < end)
        # below cuts[0] - 80 the integrand is under e^-80 of its size
        val = mp.quad(integrand, [min(cuts[0], 0) - 80] + cuts + [end])
        val *= mp.sin(a * mp.pi) / (a * mp.pi)
        if alpha > 1:
            r = xx ** (1 / a)
            val += 2 / a * mp.exp(r * mp.cos(mp.pi / a)) * mp.cos(r * mp.sin(mp.pi / a))
        return float(val)


def ml_reference(alpha, z, digits=DIGITS):
    """E_alpha(z) for 0 < alpha < 2 and z <= 0, to about ``digits`` digits."""
    x = -float(z)
    if x == 0.0:
        return 1.0
    r = x ** (1.0 / alpha)
    if r <= SERIES_MAX_PEAK and (r + digits) / alpha <= SERIES_MAX_TERMS:
        return ml_series(alpha, x, digits)
    if alpha == 1.0:
        return math.exp(-x)
    return ml_quad(alpha, x, digits)


def accumulated_sum(terms):
    """The evaluator's sum: the last entry of ``np.add.accumulate``."""
    return float(np.add.accumulate(terms)[-1])


def node_order_sum(terms):
    """The terms summed left to right as Python floats, from 0.0."""
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


def evaluate_per_call(alpha, x, tol, node_sum=accumulated_sum):
    """``mittag._evaluate`` with the nodes, e^s/den and the constants built
    afresh at every call, over [-L, hi] only, and the m > 0 terms summed by
    ``node_sum``.  The evaluator, which reads them from its cached table,
    must give the same float bit for bit."""
    from jacobipc.mittag import ACCURACY_MARGIN, LN_UNDERFLOW

    big_l = ACCURACY_MARGIN - math.log(min(tol, 1.0))
    h = alpha * math.pi ** 2 / big_l
    lx = math.log(x)
    hi = min(big_l, alpha * LN_UNDERFLOW - lx)
    s = (np.arange(math.floor(-big_l / h), math.ceil(hi / h)) + 0.5) * h
    es = np.exp(s)
    f = np.exp(-np.exp(s / alpha + lx / alpha))
    f *= es / ((es + 2.0 * math.cos(alpha * math.pi)) * es + 1.0)
    total = 0.0
    if f.size:
        total = math.sin(alpha * math.pi) / (alpha * math.pi) * h * node_sum(f)
    r = math.exp(min(lx / alpha, 700.0))  # x^(1/a), finite
    gap = abs(1.0 - alpha)
    if gap < 0.5 * alpha:  # the poles s = +-i gap pi lie inside the strip
        phi = gap * math.pi / alpha
        pole = math.exp(-r * math.cos(phi)) * math.cos(r * math.sin(phi))
        pole *= (2.0 / alpha) / (1.0 + math.exp(2.0 * math.pi ** 2 * gap / h))
        total += pole if alpha < 1.0 else -pole
    if alpha > 1.0:
        th = math.pi / alpha
        total += (2.0 / alpha) * math.exp(r * math.cos(th)) * math.cos(r * math.sin(th))
    return total

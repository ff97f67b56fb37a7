"""Evaluation of E_a(z) = sum_k z^k / Gamma(a*k + 1) for real z <= 0.

One float64 method for MIN_ORDER <= a < 2, a != 1, and x = -z > 0, from the
Laplace-type integral (Gorenflo-Loutchko-Luchko, FCAA 5(4), 2002)

    E_a(-x) = (sin(a pi) / (a pi)) int_0^inf exp(-(u x)^(1/a)) du
                                             / (u^2 + 2 u cos(a pi) + 1),

plus, for a > 1, the mode term (2/a) exp(r cos(pi/a)) cos(r sin(pi/a)) with
r = x^(1/a).  With u = e^s the integrand is analytic in the strip
|Im s| < a pi/2 apart from two simple poles at s = +-i |1 - a| pi, so the
trapezoid rule in s converges exponentially (Trefethen-Weideman, SIAM Rev.
56(3), 2014).  The step is h = a pi^2 / L with L = ACCURACY_MARGIN -
ln(min(tol, 1)), and the nodes sit at (k + 1/2) h on [-L, hi] with
hi = min(L, a ln 745 - ln x): beyond that the integrand is below e^-L or
underflows.  When the poles lie inside the strip (|1 - a| < a/2) the
trapezoid sum's error from each is known in closed form and is taken off,
so the step does not shrink as a approaches 1, and the value passes
continuously into e^-x there.

Accuracy: the absolute error is at most about 3.4 e^-L = 1.1e-3 tol, worst
at orders near 2/3 where the poles cross the edge of the strip, down to a
rounding floor of about 4e-15; at the default tolerance that is 1.1e-13
against a 30-digit reference for a in [0.01, 1.99] and x in [0, 1000].
Cost: at most 2L/h + 2 = 2 L^2 / (a pi^2) + 2 nodes, that is 195 / a at
the default tolerance and 393 / a at tol = machine epsilon (the smallest
accepted), so 19,500 and 39,300 at a = MIN_ORDER; lower orders are
refused.  a = 1 and a = 2 short-circuit to exp and cos(sqrt(.)).

Everything that depends on (a, tol) alone, the nodes on [-L, L] divided
by a, e^s / ((e^s + 2 cos(a pi)) e^s + 1), the factor sin(a pi)/(a pi) h
and the constants of the pole and mode terms, is built once per pair by
``_trapezoid_table`` (a small LRU cache).  A value reads the first
m = ceil(hi/h) - lo nodes, with the same operations as a table built for
that value alone, and costs six ufunc calls on them: the terms
exp(-exp(s/a + ln(x)/a)) e^s/den, all positive because den has no real
zero, summed left to right in node order (``np.add.accumulate``, as every
quadrature sum of the program is), then the scalar pole and mode terms.
That is about 6-9 us a value at orders 0.2 to 1.9 once the order has
been seen (2-vCPU host).  m is clamped at 0: hi < -L (x beyond about
745^a e^L) leaves no node and the sum is 0.0, where a negative m would
keep the head of the table, on which exp overflows.
"""

import functools
import math
import sys

import numpy as np

DEFAULT_TOL = 1e-10
MIN_ORDER = 0.01
ACCURACY_MARGIN = 8.0  # L - ln(1/tol): an error of 3.4 e^-L is then 1.1e-3 tol
LN_UNDERFLOW = math.log(745.0)  # exp(-745) is zero in float64


@functools.lru_cache(maxsize=8)
def _trapezoid_table(alpha, tol):
    """(L, h, lo, s/a, e^s/den, scale, pole, mode) for order alpha and tol.

    The nodes s = (k + 1/2) h run over lo <= k < ceil(L/h), that is over
    [-L, L], and den = (e^s + 2 cos(a pi)) e^s + 1; the two arrays are
    read-only.  scale = sin(a pi)/(a pi) h multiplies the node sum.  pole
    is (cos phi, sin phi, c) with phi = |1 - a| pi/a and c the signed
    closed-form weight of the poles' trapezoid error, or None when the
    poles lie outside the strip; mode is (cos(pi/a), sin(pi/a), 2/a) for
    a > 1, else None.
    """
    big_l = ACCURACY_MARGIN - math.log(min(tol, 1.0))
    h = alpha * math.pi ** 2 / big_l
    lo = math.floor(-big_l / h)
    s = (np.arange(lo, math.ceil(big_l / h)) + 0.5) * h
    es = np.exp(s)
    weight = es / ((es + 2.0 * math.cos(alpha * math.pi)) * es + 1.0)
    scaled = s / alpha
    for a in (scaled, weight):
        a.flags.writeable = False
    scale = math.sin(alpha * math.pi) / (alpha * math.pi) * h
    pole = mode = None
    gap = abs(1.0 - alpha)
    if gap < 0.5 * alpha:  # the poles s = +-i gap pi lie inside the strip
        phi = gap * math.pi / alpha
        c = (2.0 / alpha) / (1.0 + math.exp(2.0 * math.pi ** 2 * gap / h))
        pole = (math.cos(phi), math.sin(phi), c if alpha < 1.0 else -c)
    if alpha > 1.0:
        th = math.pi / alpha
        mode = (math.cos(th), math.sin(th), 2.0 / alpha)
    return big_l, h, lo, scaled, weight, scale, pole, mode


def _evaluate(alpha, x, tol):
    """E_alpha(-x) for 0 < x < inf and alpha in [MIN_ORDER, 2), alpha != 1."""
    big_l, h, lo, scaled, weight, scale, pole, mode = _trapezoid_table(alpha, tol)
    lx = math.log(x)
    hi = min(big_l, alpha * LN_UNDERFLOW - lx)
    m = max(math.ceil(hi / h) - lo, 0)  # hi < -L leaves no node
    ln_r = lx / alpha  # ln x^(1/a)
    total = 0.0
    if m:
        f = np.add(scaled[:m], ln_r)  # ln (x e^s)^(1/a)
        np.exp(f, out=f)
        np.negative(f, out=f)
        np.exp(f, out=f)
        f *= weight[:m]
        total = scale * float(np.add.accumulate(f, out=f)[-1])  # in node order
    r = math.exp(min(ln_r, 700.0))  # x^(1/a), finite
    if pole is not None:
        cos_phi, sin_phi, c = pole
        total += math.exp(-r * cos_phi) * math.cos(r * sin_phi) * c
    if mode is not None:
        cos_th, sin_th, c = mode
        total += c * math.exp(r * cos_th) * math.cos(r * sin_th)
    return total


def mittag_leffler(alpha, z, tol=DEFAULT_TOL):
    """E_alpha(z) for MIN_ORDER <= alpha <= 2 and real z <= 0, to absolute tol."""
    if not MIN_ORDER <= alpha <= 2.0:
        raise ValueError(f"order must lie in [{MIN_ORDER}, 2], got {alpha}")
    if not z <= 0.0:
        raise ValueError(f"argument must be nonpositive, got {z}")
    if not tol >= sys.float_info.epsilon:
        raise ValueError(f"tolerance must be at least machine epsilon "
                         f"({sys.float_info.epsilon!r}), got {tol!r}")
    if alpha == 1.0:
        return math.exp(z)
    if alpha == 2.0:
        if z == -math.inf:
            raise ValueError("argument must be finite at order 2: "
                             "E_2(z) = cos(sqrt(-z)) has no limit as z -> -inf")
        return math.cos(math.sqrt(-z))
    x = -float(z)
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    return _evaluate(alpha, x, tol)


def ml_solution(alpha, t, tol=DEFAULT_TOL):
    """x(t) = E_alpha(-t^alpha): the decaying relaxation solution."""
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    return mittag_leffler(alpha, -float(t) ** alpha, tol)

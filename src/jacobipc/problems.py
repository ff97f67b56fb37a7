"""Caputo initial value problems D^alpha x(t) = f(t, x(t)) and built-ins.

A problem carries the order, the initial values x(0), x'(0), ... (one per
integer derivative below ceil(alpha)), the right-hand side, and the horizon.
Built-in benchmark problems with registered exact solutions:

``poly8``
    f(t, x) = -x + G(9)/G(9-a) t^(8-a) + 3 G(8)/G(8-a) t^(7-a) + t^8 + 3 t^7,
    exact solution x(t) = t^8 + 3 t^7 (homogeneous initial values).

``ml_linear``
    f(t, x) = -x with x(0) = 1 (and x'(0) = 0 for alpha > 1), exact solution
    x(t) = E_alpha(-t^alpha).
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional


def _check_order_and_horizon(alpha, T):
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"horizon T must be finite and positive, got {T}")


@dataclass(frozen=True)
class ProblemSpec:
    alpha: float
    init: tuple
    rhs: Callable[[float, float], float]
    T: float
    exact: Optional[Callable[[float], float]] = None
    name: str = field(default="", compare=False)

    def __post_init__(self):
        _check_order_and_horizon(self.alpha, self.T)
        if len(self.init) != math.ceil(self.alpha):
            raise ValueError(
                f"need ceil(alpha) = {math.ceil(self.alpha)} initial values, got {len(self.init)}"
            )


def taylor_head(problem, t):
    """Initial-value polynomial sum_k init[k] t^k / k! carried by the solution."""
    total = 0.0
    for k, v in enumerate(problem.init):
        total += v * t**k / math.factorial(k)
    return total


def _zeros(alpha):
    return (0.0,) * math.ceil(alpha)


def _poly8(alpha, T):
    c8 = math.gamma(9.0) / math.gamma(9.0 - alpha)
    c7 = 3.0 * math.gamma(8.0) / math.gamma(8.0 - alpha)

    def rhs(t, x):
        return -x + c8 * t ** (8.0 - alpha) + c7 * t ** (7.0 - alpha) + t**8 + 3.0 * t**7

    def exact(t):
        return t**8 + 3.0 * t**7

    return ProblemSpec(alpha, _zeros(alpha), rhs, T, exact=exact, name="poly8")


def _ml_linear(alpha, T):
    from jacobipc.mittag import ml_solution

    init = (1.0,) + (0.0,) * (math.ceil(alpha) - 1)

    def rhs(t, x):
        return -x

    def exact(t):
        return ml_solution(alpha, t)

    return ProblemSpec(alpha, init, rhs, T, exact=exact, name="ml_linear")


_REGISTRY = {"poly8": _poly8, "ml_linear": _ml_linear}


def problem_ids():
    return sorted(_REGISTRY)


def make_problem(problem_id, alpha, T):
    """Instantiate a registered benchmark problem at the given order/horizon.

    The order and horizon are checked before the factory computes anything.
    """
    try:
        factory = _REGISTRY[problem_id]
    except KeyError:
        raise ValueError(f"unknown problem id {problem_id!r}; known: {problem_ids()}") from None
    _check_order_and_horizon(alpha, T)
    return factory(alpha, T)

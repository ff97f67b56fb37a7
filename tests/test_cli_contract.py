"""The command line's contract over edge inputs.

Every command ends with exit code 0, 1 or 2 and says why in its own words:
no traceback, and none of the texts that an error nobody named prints.
Option values come from one edge set (zero, -1, NaN, the infinities, a
subnormal, a huge float, 2^63, the empty string and an empty list) or from a
few valid values; ``--rhs`` and ``--init`` from a few malformed and valid
strings.  Runs stay small: a case whose steps add up to more than MAX_STEPS
is not run, and ``quad`` builds at most 53 points.
"""

import contextlib
import io
import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jacobipc.cli import main

EDGES = ("0", "-1", "nan", "inf", "-inf", "1e-320", "1e300", str(2**63), "", " , ")

UNNAMED = ("Traceback", "cannot convert", "math domain error", "math range error",
           "Unable to allocate", "Errno")

MAX_STEPS = 2000

RHS = st.sampled_from(["-x", "x", "t - x^2", "sin(t)*x", "exp(x)", "1/(t-t)", "sqrt(-1-x)",
                       "x +", "y", "", " , "])
INIT = st.sampled_from(["1", "1,0", "0.5, 2", "", " , ", "nan", "1e300", "a"])


def _value(*valid):
    """An option's text: a valid value or an edge, each about half the time."""
    return st.sampled_from(valid) | st.sampled_from(EDGES)


def _values(*valid):
    """A comma-separated list option: an edge value, or one to three values."""
    return st.one_of(_value(*valid), st.lists(_value(*valid), min_size=1, max_size=3)
                     .map(",".join))


def _number(text):
    """The finite positive value of an option's text ("0.1" or "1/10"), else 0."""
    num, _, den = text.partition("/")
    try:
        value = float(num) / float(den or 1)
    except (ValueError, ZeroDivisionError):
        return 0.0
    return value if 0.0 < value < math.inf else 0.0


def _steps(span_text, step_texts):
    """Steps the valid steps take over the span; a count that is no finite
    number is refused before any step."""
    span, total = _number(span_text), 0.0
    for step in map(_number, step_texts.split(",")):
        count = span / step if step else 0.0
        total += count if math.isfinite(count) else 0.0
    return total


def _counts(texts):
    total = 0
    for text in texts.split(","):
        try:
            total += max(int(text), 0)
        except ValueError:
            pass
    return total


@st.composite
def _solve(draw):
    t_end = draw(_value("1", "2"))
    if draw(st.booleans()):
        argv = ["--problem", draw(st.sampled_from(["poly8", "ml_linear"]))]
    else:
        argv = ["--rhs", draw(RHS), "--init", draw(INIT)]
    argv = ["solve", *argv, f"--alpha={draw(_value('0.5', '1.5'))}", f"--t-end={t_end}"]
    if draw(st.booleans()):
        h = draw(_value("0.1", "1/20"))
        return argv + [f"--h={h}"], _steps(t_end, h)
    n = draw(_value("10", "40"))
    return argv + [f"--n={n}"], _counts(n)


@st.composite
def _converge(draw):
    t_end = draw(_value("1", "2"))
    argv = ["converge", f"--problem={draw(st.sampled_from(['poly8', 'ml_linear']))}",
            f"--alpha={draw(_value('0.5', '1.5'))}", f"--t-end={t_end}"]
    if draw(st.booleans()):
        hs = draw(_values("0.1", "1/20"))
        return argv + [f"--h-list={hs}"], _steps(t_end, hs)
    ns = draw(_values("10", "20"))
    return argv + [f"--n-list={ns}"], _counts(ns)


@st.composite
def _bench(draw):
    h, t_list = draw(_value("0.1", "0.25")), draw(_values("0.5", "1"))
    steps = sum(_steps(t, h) for t in t_list.split(","))
    return ["bench", "--problem=poly8", f"--alpha={draw(_value('0.5', '1.5'))}", f"--h={h}",
            f"--t-list={t_list}"], steps


@st.composite
def _quad(draw):
    return ["quad", f"--jacobi-a={draw(_value('-0.5', '0.5'))}",
            f"--jacobi-b={draw(_value('0', '1'))}",
            f"--points={draw(_value('3', '9', '53'))}"], 0


@st.composite
def _mlf(draw):
    return ["mlf", f"--alpha={draw(_value('0.5', '1.5'))}", f"--z={draw(_value('-1', '-30'))}",
            f"--tol={draw(_value('1e-10'))}"], 0


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(st.one_of(_solve(), _converge(), _bench(), _quad(), _mlf()))
# a subnormal step: the refinement rule's 1/h overflows
@example((["solve", "--rhs", "x", "--init", "1", "--alpha", "0.5", "--n", "10",
           "--t-end", "1e-320"], 10))
def test_every_command_exits_0_1_or_2_with_a_named_message(case):
    argv, steps = case
    assume(steps <= MAX_STEPS)
    code, text = _run(argv)
    assert code in (0, 1, 2), (argv, code, text)
    for unnamed in UNNAMED:
        assert unnamed not in text, (argv, text)

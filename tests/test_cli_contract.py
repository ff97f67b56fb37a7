"""The command line's contract over edge inputs.

Every command ends with exit code 0, 1 or 2 and says why in its own words:
no traceback, and none of the texts that an error nobody named prints.
Option values come from one edge set (zero, -1, NaN, the infinities, a
subnormal, a huge float, 2^63, the empty string and an empty list) or from a
few valid values; ``--rhs`` and ``--init`` from a few malformed and valid
strings.  ``solve`` and ``converge`` also draw the method options
(``--stencil``, ``--jn``, ``--starter``), the split options and, for
``converge``, ``--method``; ``solve``, ``converge``, ``bench`` and ``quad``
draw ``--output`` (a path in a temporary directory, one under a missing
directory, or the empty path), and ``converge`` and ``bench`` ``--format``.
A refusal (exit 1) of any case but an ``--rhs`` one names a flag or a value
the case was given.  Runs stay small: a case
whose steps add up to more than MAX_STEPS is not run, nor one whose Adams
runs (fine starter or split-head runs, and the adams method) add up to more
than ADAMS_BUDGET, and ``quad`` builds at most 53 points.
"""

import contextlib
import io
import math
import re
import tempfile

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jacobipc.adams import recommended_refinement
from jacobipc.cli import main

EDGES = ("0", "-1", "nan", "inf", "-inf", "1e-320", "1e300", str(2**63), "", " , ")

UNNAMED = ("Traceback", "cannot convert", "math domain error", "math range error",
           "Unable to allocate", "Errno")

# --output values; TMP stands for a temporary directory made for each case
TMP = "{tmp}"
OUTPUTS = (f"{TMP}/out.csv", f"{TMP}/missing/out.csv", "")

MAX_STEPS = 2000
ADAMS_BUDGET = 500
# the fine run of a starter or a split head past this many substeps is refused unrun
STARTER_CAP = 2000

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


def _int(text, default):
    """An integer option's value: default when not given, 0 when no integer."""
    try:
        return int(text) if text is not None else default
    except ValueError:
        return 0


def _options_of(argv):
    """{flag: value} of an argv in ``--flag=value`` or ``--flag value`` form."""
    given, i = {}, 1
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        if not eq:
            value, i = argv[i + 1], i + 1
        given[flag] = value
        i += 1
    return given


def _adams_steps(argv):
    """Steps of the Adams runs a solve or converge case makes at each of its
    steps: the fine run of a refined starter or a split head (refused unrun
    past STARTER_CAP substeps) and, for --method adams, the main run."""
    opts = _options_of(argv)
    stencil = _int(opts.get("--stencil"), 3)
    starter = opts.get("--starter", "exact" if "--problem" in opts else "refined")
    alpha, t0 = _number(opts["--alpha"]), _number(opts.get("--split-t0", "0"))
    fine, span = _int(opts.get("--split-fine"), 10), _number(opts.get("--t-end", "1")) - t0
    hs = [_number(h) for h in opts.get("--h", opts.get("--h-list", "")).split(",")]
    hs += [span / n for n in map(lambda t: _int(t, 0),
                                 opts.get("--n", opts.get("--n-list", "")).split(",")) if n > 0]
    total = 0.0
    for h in hs:
        if not (h > 0 and stencil >= 2 and span > 0):
            continue
        if opts.get("--method") == "adams":
            total += span / h
            continue
        if t0:
            steps = t0 * fine / h + (0 if starter == "exact" else (stencil - 1) * fine)
        elif starter.startswith("refined"):
            k = _int(starter.partition(":")[2] or None, None)
            try:
                k = recommended_refinement(alpha, h, stencil) if k is None else k
                steps = (stencil - 1) * 10.0**k
            except (ValueError, OverflowError):
                steps = 0.0
        else:
            steps = 0.0
        total += steps if steps <= STARTER_CAP else 0.0
    return total


def _method_options(draw, method=False):
    """A few of --stencil, --jn, --starter, the split options and --method."""
    options = {"--stencil": _value("2", "3", "5"), "--jn": _value("2", "26"),
               "--starter": _value("exact", "refined", "refined:1", "refined:x"),
               "--split-t0": _value("0.5", "0.25"), "--split-jn": _value("4", "52"),
               "--split-fine": _value("2", "10")}
    if method:
        options["--method"] = _value("jpc", "adams")
    return [f"{flag}={draw(values)}" for flag, values in options.items()
            if draw(st.integers(0, 3)) == 0]


def _report_options(draw, fmt=False):
    """--output half the time and, with ``fmt``, --format half the time."""
    options = [f"--output={draw(st.sampled_from(OUTPUTS))}"] if draw(st.booleans()) else []
    if fmt and draw(st.booleans()):
        options.append(f"--format={draw(st.sampled_from(['csv', 'json']))}")
    return options


@st.composite
def _solve(draw):
    t_end = draw(_value("1", "2"))
    if draw(st.booleans()):
        argv = [f"--problem={draw(st.sampled_from(['poly8', 'ml_linear']))}"]
    else:
        argv = ["--rhs", draw(RHS), "--init", draw(INIT)]
    argv = ["solve", *argv, f"--alpha={draw(_value('0.5', '1.5'))}", f"--t-end={t_end}",
            *_method_options(draw), *_report_options(draw)]
    if draw(st.booleans()):
        h = draw(_value("0.1", "1/20"))
        return argv + [f"--h={h}"], _steps(t_end, h)
    n = draw(_value("10", "40"))
    return argv + [f"--n={n}"], _counts(n)


@st.composite
def _converge(draw):
    t_end = draw(_value("1", "2"))
    argv = ["converge", f"--problem={draw(st.sampled_from(['poly8', 'ml_linear']))}",
            f"--alpha={draw(_value('0.5', '1.5'))}", f"--t-end={t_end}",
            *_method_options(draw, method=True), *_report_options(draw, fmt=True)]
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
            f"--t-list={t_list}", *_report_options(draw, fmt=True)], steps


@st.composite
def _quad(draw):
    return ["quad", f"--jacobi-a={draw(_value('-0.5', '0.5'))}",
            f"--jacobi-b={draw(_value('0', '1'))}",
            f"--points={draw(_value('3', '9', '53'))}", *_report_options(draw)], 0


@st.composite
def _mlf(draw):
    return ["mlf", f"--alpha={draw(_value('0.5', '1.5'))}", f"--z={draw(_value('-1', '-30'))}",
            f"--tol={draw(_value('1e-10'))}"], 0


def _names_its_input(argv, text):
    """Whether text holds a flag of argv or, as a whole word, a value of it:
    stripped, as repr(float(value)), or one element of a comma list."""
    words = set()
    for flag, value in _options_of(argv).items():
        words.add(flag)
        for part in {value, *value.split(",")}:
            words.add(part.strip())
            try:
                words.add(repr(float(part)))
            except ValueError:
                pass
    return any(re.search(rf"(?<![\w.-]){re.escape(word)}(?![\w-]|\.\w)", text)
               for word in words - {""})


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
# refusals that once named no flag and no value of the command
@example((["solve", "--problem", "ml_linear", "--alpha", "0.5", "--n", "10", "--split-t0",
           "0.5", "--split-fine", "0"], 10))
@example((["solve", "--problem", "ml_linear", "--alpha", "0.5", "--n", "10", "--starter",
           "refined:1", "--split-t0", "0.25"], 10))
@example((["converge", "--problem", "poly8", "--alpha", "0.5", "--n-list", "10,20",
           "--method", "adams", "--split-t0", "0.25"], 30))
@example((["mlf", "--alpha", "0.5", "--z=-1", "--tol", "-1"], 0))
@example((["bench", "--problem", "poly8", "--alpha", "0.5", "--h", "0.25", "--t-list",
           "0.5"], 2))
# a path under a missing directory, once refused with errno text after the run
@example((["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "10", "--output",
           f"{TMP}/missing/x.csv"], 10))
def test_every_command_exits_0_1_or_2_with_a_named_message(case):
    argv, steps = case
    assume(steps <= MAX_STEPS)
    assume(argv[0] not in ("solve", "converge") or _adams_steps(argv) <= ADAMS_BUDGET)
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace(TMP, tmp) for arg in argv]
        code, text = _run(argv)
    assert code in (0, 1, 2), (argv, code, text)
    for unnamed in UNNAMED:
        assert unnamed not in text, (argv, text)
    # --rhs messages name offsets and subexpressions of the expression
    if code == 1 and "--rhs" not in argv:
        assert _names_its_input(argv, text), (argv, text)

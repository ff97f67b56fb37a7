"""Convergence and timing reports: sweep drivers, CSV/JSON export, parsing.

A convergence report holds (h, max_error, observed_order, status) rows plus
the configuration that produced them; a timing report holds (n_steps,
wall_seconds, rhs_evals, method) rows.  The ``rhs_evals`` column counts
f-value accesses (fresh evaluations plus stored-history reads), the quantity
that separates the linear-cost marcher from the quadratic baseline; fresh
evaluations alone are linear in N for both methods.  Each sweep takes the
SolverConfig fields other than h as keyword arguments, as one config.

Both formats follow the dataclass fields.  CSV carries the row fields, with
the field names as its header; JSON carries rows and metadata.  ``csv_text``
writes every CSV of the program, the CLI's included, with reals as
17-significant-digit decimals, so parsing returns bit-identical floats.
"""

import functools
import json
import math
import time
from dataclasses import MISSING, asdict, astuple, dataclass, fields, replace
from typing import Optional

from jacobipc.adams import MAX_ADAMS_STEPS, adams_solve
from jacobipc.problems import make_problem
from jacobipc.solver import SolverConfig, main_step_count, solve
from jacobipc.trajectory import STATUS_DIVERGED, STATUS_OK, DivergenceError

ROW_GROWING = "growing"  # error failed to shrink under refinement

MAX_SEARCH_STEPS = 1 << 22
FLOOR_FACTOR = 1.2  # order-1 error decay is 2x a doubling; small alpha's, 1.4x


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    max_error: float
    observed_order: Optional[float]  # None on the first row
    status: str = STATUS_OK

    def __post_init__(self):
        if self.status not in (STATUS_OK, ROW_GROWING, STATUS_DIVERGED):
            raise ValueError(f"ConvergenceRow field 'status' must be one of {STATUS_OK}, "
                             f"{ROW_GROWING}, {STATUS_DIVERGED}, got {self.status!r}")


@dataclass(frozen=True)
class ConvergenceReport:
    alpha: float
    stencil_size: int
    jn: int
    method: str
    problem: str
    starter: str
    rows: tuple


@dataclass(frozen=True)
class TimingRow:
    n_steps: int
    wall_seconds: float
    rhs_evals: int
    method: str


@dataclass(frozen=True)
class TimingReport:
    problem: str
    alpha: float
    h: Optional[float]  # None for run_target, whose rows each find their own step
    rows: tuple


def observed_order(h_prev, err_prev, h, err):
    """Empirical rate log(err_prev/err)/log(h_prev/h); None when undefined."""
    if err_prev <= 0.0 or err <= 0.0 or h_prev == h:
        return None
    return math.log(err_prev / err) / math.log(h_prev / h)


def exact_errors(trajectory, exact):
    """Exact values and absolute errors on the trajectory's grid.

    ``exact`` (possibly a costly oracle) is called once per grid point.
    """
    values = [exact(trajectory.grid.t(i)) for i in range(trajectory.grid.count)]
    return values, [abs(x - v) for x, v in zip(trajectory.x, values)]


def _accesses(counters):
    return counters.rhs_evals + counters.value_reads + counters.history_reads


def _sweep_config(methods, settings):
    """The sweep's config, built from ``settings`` before any run; each run
    replaces h.  The adams baseline reads only h, and takes no split."""
    if not methods:
        raise ValueError("no method to time: name at least one of jpc, adams")
    for method in methods:
        if method not in ("jpc", "adams"):
            raise ValueError(f"unknown method {method!r} (known: jpc, adams)")
    config = SolverConfig(h=1.0, **settings)
    if "adams" in methods and config.split is not None:
        raise ValueError("split applies to the jpc method only")
    return config


def _run(problem, method, config):
    """One trajectory at step config.h: the jpc marcher or the adams baseline."""
    if method == "jpc":
        return solve(problem, config)
    return adams_solve(problem, config.h, main_step_count(problem.T, config.h))


def run_convergence(problem, h_list, method="jpc", **settings):
    """Solve at each step size (descending) and tabulate max errors and rates.

    Errors are measured on the main grid only.  The problem must carry an
    exact solution.  ``method`` is "jpc" or "adams"; the adams baseline takes
    no starter and no split (stencil_size/jn are recorded but unused by it).

    The exact solution (possibly a costly oracle) is called once per
    distinct time over the whole sweep, with a scalar t: nested step sizes
    share their grid points, and the exact start values share them too.
    """
    config = _sweep_config((method,), settings)
    if problem.exact is None:
        raise ValueError("convergence runs need a problem with an exact solution")

    problem = replace(problem, exact=functools.cache(problem.exact))
    rows = []
    prev = None
    for h in sorted(set(h_list), reverse=True):
        tr = _run(problem, method, replace(config, h=h))
        err = max(exact_errors(tr, problem.exact)[1])
        order = observed_order(prev[0], prev[1], h, err) if prev else None
        if tr.status != STATUS_OK:
            status = STATUS_DIVERGED
        elif order is not None and order <= 0.0:
            status = ROW_GROWING
        else:
            status = STATUS_OK
        rows.append(ConvergenceRow(h, err, order, status))
        prev = (h, err)
    return ConvergenceReport(
        alpha=problem.alpha,
        stencil_size=config.stencil_size,
        jn=config.jn,
        method=method,
        problem=problem.name or "custom",
        starter="none" if method == "adams" else config.starter.label,
        rows=tuple(rows),
    )


def _time_cells(problem_id, alpha, methods, t_list, config, steps):
    """One timed row per (method, horizon) cell, at ``steps(problem, method)``,
    which returns (N, h).

    Each method first runs its first cell once untimed, so no row pays for
    a rule build or the pure march's build of its step loop: rows measure
    marching cost.
    """
    rows = []
    for method in methods:
        for i, t_end in enumerate(sorted(t_list)):
            problem = make_problem(problem_id, alpha, t_end)
            n, h = steps(problem, method)
            cell = replace(config, h=h)
            if i == 0:
                _run(problem, method, cell)
            begin = time.perf_counter()
            tr = _run(problem, method, cell)
            wall = time.perf_counter() - begin
            rows.append(TimingRow(n, wall, _accesses(tr.counters), method))
    return tuple(rows)


def run_timing(problem_id, alpha, h, methods, t_list, **settings):
    """Time each (method, horizon) cell at a fixed step size.

    Horizons must be integer multiples of h.
    """
    rows = _time_cells(problem_id, alpha, methods, t_list, _sweep_config(methods, settings),
                       lambda problem, method: (main_step_count(problem.T, h), h))
    return TimingReport(problem=problem_id, alpha=alpha, h=h, rows=rows)


def run_target(problem_id, alpha, tol, methods, t_list, **settings):
    """For each (method, horizon): smallest N with max error <= tol, timed.

    The N-search procedure is a doubling bracket plus bisection; the paper's
    analogous table does not state its search rule, so exact N agreement with
    it is not promised.
    """
    def steps(problem, method):
        n = smallest_n_reaching(problem, tol, method=method, **settings)
        return n, problem.T / n

    rows = _time_cells(problem_id, alpha, methods, t_list, _sweep_config(methods, settings),
                       steps)
    return TimingReport(problem=problem_id, alpha=alpha, h=None, rows=rows)


def smallest_n_reaching(problem, tol, method="jpc", **settings):
    """Smallest step count with max error <= tol, by doubling then bisection.

    Best-effort: assumes the error is monotone in N near the answer, which
    holds in the asymptotic regime the tables report.  The doubling stops with
    ValueError at MAX_SEARCH_STEPS (adams: MAX_ADAMS_STEPS) and at an error
    floor, where two doublings in a row each change the error by less than
    FLOOR_FACTOR either way; a growing error is an instability, not a floor.
    A run that diverges stops the search with DivergenceError: its error,
    taken over its truncated grid, says nothing of the target.
    """
    config = _sweep_config((method,), settings)
    if problem.exact is None:
        raise ValueError("needs a problem with an exact solution")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"target error tol must be finite and positive, got {tol!r}")
    n_cap, cap = MAX_SEARCH_STEPS, f"the search's {MAX_SEARCH_STEPS}-step cap"
    if method == "adams" and n_cap >= MAX_ADAMS_STEPS:
        n_cap, cap = MAX_ADAMS_STEPS, f"the Adams baseline's {MAX_ADAMS_STEPS}-step cap"

    def err(n):
        tr = _run(problem, method, replace(config, h=problem.T / n))
        if tr.status != STATUS_OK:
            raise DivergenceError(f"{method} run at N={n} diverged at t = "
                                  f"{tr.grid.t(tr.grid.count - 1):g}, so the search for "
                                  f"an error of {tol:g} stops")
        return max(exact_errors(tr, problem.exact)[1])

    lo, n, e = None, config.stencil_size, err(config.stencil_size)
    since = (n, e)  # N and error where the last run of slow doublings began
    while e > tol:
        if n >= n_cap:
            raise ValueError(f"error still above {tol:g} at N={n}, {cap}")
        lo, n, e_lo = n, min(2 * n, n_cap), e
        e = err(n)
        if n < 2 * lo or not e_lo / FLOOR_FACTOR < e < e_lo * FLOOR_FACTOR:
            since = (n, e)
        elif n == 4 * since[0] and e > tol:
            raise ValueError(f"error floor of about {since[1]:.3g} from N={since[0]} on: it moved "
                             f"less than {FLOOR_FACTOR}x a doubling up to N={n}, above {tol:g}")
    if lo is None:
        return n
    hi = n  # err(lo) > tol >= err(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if err(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def _cell(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def csv_text(columns, rows):
    """CSV text: a header of ``columns``, then one line of cells per row.

    Floats get 17 significant digits, so they parse back bit-identical; ints
    and strings are written with ``str``, and None as an empty cell.
    """
    lines = [",".join(columns)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def to_csv(report):
    row_cls = ConvergenceRow if isinstance(report, ConvergenceReport) else TimingRow
    return csv_text([f.name for f in fields(row_cls)], map(astuple, report.rows))


def to_json(report):
    kind = "convergence" if isinstance(report, ConvergenceReport) else "timing"
    return json.dumps({"kind": kind, **asdict(report)}, indent=2) + "\n"


def export(report, fmt, path):
    """Write a report to ``path`` as ``csv`` or ``json``."""
    if fmt == "csv":
        text = to_csv(report)
    elif fmt == "json":
        text = to_json(report)
    else:
        raise ValueError(f"unknown format {fmt!r} (known: csv, json)")
    with open(path, "w") as fh:
        fh.write(text)


_KINDS = {"convergence": (ConvergenceReport, ConvergenceRow),
          "timing": (TimingReport, TimingRow)}


# per field annotation: the JSON value types it accepts (an int serves as a
# float; bool, though an int subclass, serves as neither), their description,
# and the parser of its CSV cell; the rows are checked apart
_FIELD_TYPES = {
    float: ((int, float), "a number", float),
    Optional[float]: ((int, float, type(None)), "a number or null",
                      lambda cell: float(cell) if cell else None),
    int: ((int,), "an integer", int),
    str: ((str,), "a string", str),
}


def _fields(cls, data):
    """``data`` checked to hold every field of ``cls`` without a default, and no
    other, each of a JSON type its annotation accepts."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")
    known = {f.name: f for f in fields(cls)}
    for name, value in data.items():
        if name not in known:
            raise ValueError(f"unknown {cls.__name__} field {name!r}")
        accepted = _FIELD_TYPES.get(known[name].type)
        if accepted and (isinstance(value, bool) or not isinstance(value, accepted[0])):
            raise ValueError(f"{cls.__name__} field {name!r} must be {accepted[1]}, "
                             f"got {value!r}")
    missing = [repr(n) for n, f in known.items() if n not in data and f.default is MISSING]
    if missing:
        raise ValueError(f"{cls.__name__} is missing {', '.join(missing)}")
    return data


def _from_json(payload):
    kind = payload.pop("kind", None)
    if kind not in _KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    report_cls, row_cls = _KINDS[kind]
    rows = _fields(report_cls, payload).pop("rows")
    if not isinstance(rows, list):
        raise ValueError(f"{report_cls.__name__} field 'rows' must be a list, got {rows!r}")
    return report_cls(**payload, rows=tuple(row_cls(**_fields(row_cls, r)) for r in rows))


def _row_from_csv(row_cls, columns, line):
    cells = line.split(",")
    if len(cells) != len(columns):
        raise ValueError(f"{row_cls.__name__} needs {len(columns)} cells, got {line!r}")
    values = []
    for f, cell in zip(columns, cells):
        _, expected, parse = _FIELD_TYPES[f.type]
        try:
            values.append(parse(cell))
        except ValueError:
            raise ValueError(f"{row_cls.__name__} field {f.name!r} must be {expected}, "
                             f"got {cell!r}") from None
    return row_cls(*values)


def _from_csv(lines):
    for report_cls, row_cls in _KINDS.values():
        columns = fields(row_cls)
        if lines[0] == ",".join(f.name for f in columns):
            break
    else:
        raise ValueError(f"unrecognized report header {lines[0]!r}")
    rows = tuple(_row_from_csv(row_cls, columns, line) for line in lines[1:])
    meta = {f.name: "" if f.type is str else None
            for f in fields(report_cls) if f.name != "rows"}
    return report_cls(**meta, rows=rows)


def loads(text):
    """Parse a report from exported text (JSON or either kind's CSV).

    CSV carries rows only, so metadata fields come back empty ("" for
    strings, None otherwise); JSON round-trips the full report.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty report text")
    if stripped.startswith("{"):
        return _from_json(json.loads(stripped))
    return _from_csv(stripped.splitlines())


def load(path):
    with open(path) as fh:
        return loads(fh.read())


def format_table(report):
    """Console rendering with aligned columns (not a serialization format)."""
    if isinstance(report, ConvergenceReport):
        out = [f"{'h':>12}  {'max_error':>13}  {'order':>7}  status"]
        for r in report.rows:
            order = "" if r.observed_order is None else f"{r.observed_order:7.2f}"
            out.append(f"{r.h:12.6g}  {r.max_error:13.6e}  {order:>7}  {r.status}")
    else:
        out = [f"{'method':>7}  {'N':>9}  {'wall_s':>11}  {'rhs_evals':>12}"]
        for r in report.rows:
            out.append(f"{r.method:>7}  {r.n_steps:>9}  {r.wall_seconds:11.4e}  "
                       f"{r.rhs_evals:>12}")
    return "\n".join(out)

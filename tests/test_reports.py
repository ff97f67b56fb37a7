"""Report objects: sweeps, serialization round-trips, instrumentation columns."""

import dataclasses
import math
import types

import pytest

from jacobipc import _kernels_py, quadrature, reports, solver
from jacobipc.adams import EXACT, REFINED_ADAMS, StarterConfig, adams_solve
from jacobipc.problems import ProblemSpec, make_problem
from jacobipc.reports import (ConvergenceReport, ConvergenceRow, ROW_GROWING,
                              TimingReport, TimingRow, export, format_table,
                              load, loads, observed_order, run_convergence,
                              run_target, run_timing, smallest_n_reaching,
                              to_csv, to_json)
from jacobipc.solver import SolverConfig, SplitConfig, solve
from jacobipc.trajectory import STATUS_DIVERGED, STATUS_OK, DivergenceError


def direct_max_error(problem, h, size, jn):
    tr = solve(problem, SolverConfig(h=h, stencil_size=size, jn=jn))
    return max(abs(tr.x[i] - problem.exact(tr.grid.t(i)))
               for i in range(tr.grid.count))


def jpc_accesses(n, size, jn):
    return size + (n - size + 1) * ((jn + 1) * size + (jn - 2) * size + 4)


def test_observed_order_recompute():
    order = 3.25
    e0 = 1e-3
    e1 = e0 / 2.0**order
    got = observed_order(1.0 / 40, e0, 1.0 / 80, e1)
    assert abs(got - order) < 1e-12
    assert observed_order(0.1, 0.0, 0.05, 1e-5) is None
    assert observed_order(0.1, 1e-5, 0.05, 0.0) is None
    assert observed_order(0.1, 1e-5, 0.1, 1e-6) is None


def test_starter_label():
    # a convergence report records the starter's label, which --starter reads back
    problem = make_problem("poly8", 0.5, 1.0)
    for cfg, label in ((StarterConfig(), "exact"),
                       (StarterConfig(mode=REFINED_ADAMS, k=2), "refined:2"),
                       (StarterConfig(mode=REFINED_ADAMS), "refined:auto")):
        assert cfg.label == label
        assert run_convergence(problem, [0.1], starter=cfg).starter == label


def test_run_convergence_matches_direct_solves():
    problem = make_problem("poly8", 0.5, 1.0)
    report = run_convergence(problem, [1.0 / 20, 1.0 / 10], stencil_size=3, jn=26)
    assert [r.h for r in report.rows] == [0.1, 0.05]
    for row in report.rows:
        assert row.max_error == direct_max_error(problem, row.h, 3, 26)
    r0, r1 = report.rows
    assert r0.observed_order is None
    assert r1.observed_order == observed_order(r0.h, r0.max_error, r1.h, r1.max_error)
    assert all(r.status == STATUS_OK for r in report.rows)
    assert report.problem == "poly8"
    assert report.method == "jpc"
    assert report.starter == "exact"


def test_run_convergence_adams_baseline():
    problem = make_problem("poly8", 0.5, 1.0)
    report = run_convergence(problem, [1.0 / 10, 1.0 / 20], method="adams")
    assert report.starter == "none"
    tr = adams_solve(problem, 0.1, 10)
    want = max(abs(tr.x[i] - problem.exact(tr.grid.t(i))) for i in range(11))
    assert report.rows[0].max_error == want


def test_run_convergence_validation():
    problem = make_problem("poly8", 0.5, 1.0)
    bare = ProblemSpec(0.5, (0.0,), lambda t, x: 1.0, 1.0)
    with pytest.raises(ValueError, match="method"):
        run_convergence(problem, [0.1], method="euler")
    with pytest.raises(ValueError, match="exact solution"):
        run_convergence(bare, [0.1])
    from jacobipc.solver import SplitConfig
    with pytest.raises(ValueError, match="jpc method only"):
        run_convergence(problem, [0.1], method="adams", split=SplitConfig(t0=0.5))


def test_convergence_csv_round_trip():
    problem = make_problem("poly8", 0.5, 1.0)
    report = run_convergence(problem, [1.0 / 10, 1.0 / 20, 1.0 / 40])
    text = to_csv(report)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0] == "h,max_error,observed_order,status"
    assert text.endswith("\n")
    loaded = loads(text)
    assert loaded.rows == report.rows  # bit-identical floats, same statuses
    assert loaded.method == ""  # CSV carries rows only


def test_empty_reports_serialize_to_header_only():
    conv = ConvergenceReport(0.5, 3, 26, "jpc", "poly8", "exact", ())
    timing = TimingReport("poly8", 0.5, 0.1, ())
    assert to_csv(conv) == "h,max_error,observed_order,status\n"
    assert to_csv(timing) == "n_steps,wall_seconds,rhs_evals,method\n"
    # CSV carries no metadata: "" for str fields, None for the rest
    assert loads(to_csv(conv)) == ConvergenceReport(None, None, None, "", "", "", ())
    assert loads(to_csv(timing)) == TimingReport("", None, None, ())


def test_17_digit_reals_round_trip_exactly():
    rows = (
        ConvergenceRow(1.0 / 3.0, math.pi * 1e-7, None),
        ConvergenceRow(0.1 + 0.2, 6.62607015e-34, 3.2500000000000004),
    )
    report = ConvergenceReport(0.5, 3, 26, "jpc", "poly8", "exact", rows)
    back = loads(to_csv(report)).rows
    assert back[0].h == rows[0].h
    assert back[0].max_error == rows[0].max_error
    assert back[0].observed_order is None
    assert back[1].h == rows[1].h
    assert back[1].observed_order == rows[1].observed_order

    timing = TimingReport("poly8", 0.5, 0.1,
                          (TimingRow(7, 1.0 / 7.0, 123456789012, "jpc"),))
    t_back = loads(to_csv(timing)).rows[0]
    assert t_back.wall_seconds == 1.0 / 7.0
    assert t_back.rhs_evals == 123456789012


def test_csv_round_trips_every_status():
    rows = (ConvergenceRow(0.1, 1e-3, None),
            ConvergenceRow(0.05, 2e-3, -1.0, ROW_GROWING),
            ConvergenceRow(0.025, 1e-4, 4.3, STATUS_DIVERGED))
    text = to_csv(ConvergenceReport(0.5, 3, 26, "jpc", "poly8", "exact", rows))
    assert text.splitlines()[1:] == ["0.10000000000000001,0.001,,ok",
                                     "0.050000000000000003,0.002,-1,growing",
                                     "0.025000000000000001,0.0001,4.2999999999999998,diverged"]
    assert loads(text).rows == rows  # status is read, not re-derived


@pytest.mark.parametrize("report, row_cls", [
    (ConvergenceReport(0.5, 3, 26, "jpc", "poly8", "exact", ()), ConvergenceRow),
    (TimingReport("poly8", 0.5, 0.1, ()), TimingRow),
])
def test_csv_header_is_the_row_fields(report, row_cls):
    # the CSV columns are the JSON row keys
    names = [f.name for f in dataclasses.fields(row_cls)]
    assert to_csv(report).splitlines()[0].split(",") == names


def test_json_round_trips_full_report():
    problem = make_problem("ml_linear", 0.5, 1.0)
    conv = run_convergence(problem, [1.0 / 10, 1.0 / 20])
    assert loads(to_json(conv)) == conv

    timing = run_timing("poly8", 0.5, 1.0 / 10, ("jpc",), (1.0,))
    assert loads(to_json(timing)) == timing

    null_h = TimingReport("poly8", 0.5, None, (TimingRow(5, 0.1, 99, "jpc"),))
    assert loads(to_json(null_h)) == null_h


def test_json_layout_is_pinned():
    # the JSON follows the dataclass fields; reordering one changes the format
    conv = ConvergenceReport(0.5, 3, 26, "jpc", "poly8", "exact",
                             (ConvergenceRow(0.1, 0.0625, None),
                              ConvergenceRow(0.05, 0.0078125, 3.0)))
    assert to_json(conv) == """{
  "kind": "convergence",
  "alpha": 0.5,
  "stencil_size": 3,
  "jn": 26,
  "method": "jpc",
  "problem": "poly8",
  "starter": "exact",
  "rows": [
    {
      "h": 0.1,
      "max_error": 0.0625,
      "observed_order": null,
      "status": "ok"
    },
    {
      "h": 0.05,
      "max_error": 0.0078125,
      "observed_order": 3.0,
      "status": "ok"
    }
  ]
}
"""
    timing = TimingReport("poly8", 0.5, None, (TimingRow(5, 0.25, 99, "jpc"),))
    assert to_json(timing) == """{
  "kind": "timing",
  "problem": "poly8",
  "alpha": 0.5,
  "h": null,
  "rows": [
    {
      "n_steps": 5,
      "wall_seconds": 0.25,
      "rhs_evals": 99,
      "method": "jpc"
    }
  ]
}
"""


def test_export_and_load_files(tmp_path):
    problem = make_problem("poly8", 0.5, 1.0)
    report = run_convergence(problem, [1.0 / 10, 1.0 / 20])
    csv_path = tmp_path / "conv.csv"
    json_path = tmp_path / "conv.json"
    export(report, "csv", csv_path)
    export(report, "json", json_path)
    assert load(csv_path).rows == report.rows
    assert load(json_path) == report
    with pytest.raises(ValueError, match="unknown format"):
        export(report, "yaml", tmp_path / "conv.yaml")


def test_loads_rejects_garbage():
    with pytest.raises(ValueError, match="empty"):
        loads("   \n")
    with pytest.raises(ValueError, match="header"):
        loads("a,b,c\n1,2,3\n")
    # the CSV headers from before the status column and the n_steps name
    with pytest.raises(ValueError, match="unrecognized report header"):
        loads("h,max_error,observed_order\n0.1,0.001,\n")
    with pytest.raises(ValueError, match="unrecognized report header"):
        loads("N,wall_seconds,rhs_evals,method\n10,0.5,3,jpc\n")
    with pytest.raises(ValueError, match="ConvergenceRow needs 4 cells"):
        loads("h,max_error,observed_order,status\n0.1,0.001,\n")
    with pytest.raises(ValueError, match="kind"):
        loads('{"kind": "mystery"}')
    # malformed JSON reports name the offending field
    meta = '"kind": "timing", "problem": "poly8", "alpha": 0.5, "h": 0.1'
    with pytest.raises(ValueError, match="'rows'"):
        loads('{"kind": "timing"}')
    with pytest.raises(ValueError, match="missing 'h'"):
        loads('{"kind": "timing", "problem": "poly8", "alpha": 0.5, "rows": []}')
    with pytest.raises(ValueError, match="unknown TimingReport field 'backend'"):
        loads('{' + meta + ', "rows": [], "backend": "pure"}')
    with pytest.raises(ValueError, match="'rows' must be a list"):
        loads('{' + meta + ', "rows": 5}')
    with pytest.raises(ValueError, match="TimingRow is missing 'wall_seconds'"):
        loads('{' + meta + ', "rows": [{"n_steps": 10, "rhs_evals": 3, "method": "jpc"}]}')
    with pytest.raises(ValueError, match="TimingRow must be a JSON object, got 1"):
        loads('{' + meta + ', "rows": [1]}')


def test_loads_checks_field_types():
    meta = '"kind": "timing", "problem": "poly8", "alpha": 0.5, "h": 0.1'
    row = '"n_steps": 10, "rhs_evals": 3, "method": "jpc"'
    # a string where a number belongs is refused at load, not in format_table
    with pytest.raises(ValueError, match="TimingRow field 'wall_seconds' must be a number, got '1'"):
        loads('{' + meta + ', "rows": [{' + row + ', "wall_seconds": "1"}]}')
    with pytest.raises(ValueError, match="TimingRow field 'n_steps' must be an integer"):
        loads('{' + meta + ', "rows": [{"n_steps": 10.0, "rhs_evals": 3, "method": "jpc", '
              '"wall_seconds": 1.0}]}')
    with pytest.raises(ValueError, match="TimingReport field 'alpha' must be a number, got True"):
        loads('{"kind": "timing", "problem": "poly8", "alpha": true, "h": 0.1, "rows": []}')
    with pytest.raises(ValueError, match="TimingReport field 'problem' must be a string"):
        loads('{"kind": "timing", "problem": 8, "alpha": 0.5, "h": 0.1, "rows": []}')
    # an int serves as a float
    report = loads('{' + meta + ', "rows": [{' + row + ', "wall_seconds": 1}]}')
    assert report.rows[0].wall_seconds == 1
    assert "1.0000e+00" in format_table(report)

    conv = ('{"kind": "convergence", "alpha": 0.5, "stencil_size": 3, "jn": 26, '
            '"method": "jpc", "problem": "poly8", "starter": "exact", "rows": [%s]}')
    # null is accepted for observed_order only
    report = loads(conv % '{"h": 0.1, "max_error": 1e-3, "observed_order": null}')
    assert report.rows[0].observed_order is None
    with pytest.raises(ValueError, match="ConvergenceRow field 'max_error' must be a number, got None"):
        loads(conv % '{"h": 0.1, "max_error": null, "observed_order": 2}')
    with pytest.raises(ValueError, match="ConvergenceRow field 'status' must be a string"):
        loads(conv % '{"h": 0.1, "max_error": 1e-3, "observed_order": null, "status": 0}')
    # an unknown status is refused on load, not passed on
    with pytest.raises(ValueError, match="'status' must be one of ok, growing, diverged"):
        loads(conv % '{"h": 0.1, "max_error": 1e-3, "observed_order": null, "status": "bad"}')
    with pytest.raises(ValueError, match="ConvergenceReport field 'jn' must be an integer"):
        loads((conv % '').replace('"jn": 26', '"jn": "26"'))

    # CSV cells are parsed by the same annotations
    header = "n_steps,wall_seconds,rhs_evals,method\n"
    with pytest.raises(ValueError, match="'n_steps' must be an integer, got '10.0'"):
        loads(header + "10.0,0.5,3,jpc\n")
    with pytest.raises(ValueError, match="TimingRow field 'wall_seconds' must be a number, got ''"):
        loads(header + "10,,3,jpc\n")
    with pytest.raises(ValueError, match="'status' must be one of ok, growing, diverged"):
        loads("h,max_error,observed_order,status\n0.1,0.001,,bad\n")


def test_timing_access_column_closed_forms():
    size, jn = 3, 26
    report = run_timing("poly8", 0.5, 1.0 / 20, ("jpc", "adams"), (1.0, 2.0),
                        stencil_size=size, jn=jn)
    by = {(r.method, r.n_steps): r for r in report.rows}
    assert set(by) == {("jpc", 20), ("jpc", 40), ("adams", 20), ("adams", 40)}
    for n in (20, 40):
        assert by[("jpc", n)].rhs_evals == jpc_accesses(n, size, jn)
        assert by[("adams", n)].rhs_evals == n * n + 3 * n + 1
    assert by[("jpc", 20)].rhs_evals == 2829
    assert by[("jpc", 40)].rhs_evals == 5969
    # doubling N adds exactly N steps' worth: the per-step cost is constant
    per_step = (2 * jn - 1) * size + 4
    assert by[("jpc", 40)].rhs_evals - by[("jpc", 20)].rhs_evals == 20 * per_step
    ratio = by[("adams", 40)].rhs_evals / by[("adams", 20)].rhs_evals
    assert 3.5 < ratio <= 4.0
    assert all(r.wall_seconds >= 0.0 for r in report.rows)


def test_timed_rows_build_no_march_loop_or_rule(monkeypatch):
    # each method runs its first cell untimed, so the pure march's one-time
    # build of its step loop, and the rule build, fall outside every row
    monkeypatch.setattr(solver, "kernels", _kernels_py)
    _kernels_py._march_loop.cache_clear()
    quadrature.gauss_lobatto_rule.cache_clear()
    builds = []

    def perf_counter():
        builds.append((_kernels_py._march_loop.cache_info().misses,
                       quadrature.gauss_lobatto_rule.cache_info().misses))
        return 0.0

    monkeypatch.setattr(reports, "time", types.SimpleNamespace(perf_counter=perf_counter))
    report = run_timing("poly8", 0.5, 1.0 / 100, ("jpc",), (0.5, 1.0, 2.0))
    assert [r.n_steps for r in report.rows] == [50, 100, 200]
    assert len(builds) == 6
    assert builds[0::2] == builds[1::2] == [(1, 1)] * 3


def test_run_timing_validation():
    with pytest.raises(ValueError, match="unknown method"):
        run_timing("poly8", 0.5, 0.1, ("simpson",), (1.0,))
    with pytest.raises(ValueError, match="no method to time"):
        run_timing("poly8", 0.5, 0.1, (), (1.0,))


def test_smallest_n_reaching_is_minimal(monkeypatch):
    problem = make_problem("poly8", 0.5, 1.0)
    tol = 1e-3
    n = smallest_n_reaching(problem, tol)

    def err(k):
        return direct_max_error(
            ProblemSpec(0.5, problem.init, problem.rhs, 1.0,
                        exact=problem.exact, name="poly8"),
            1.0 / k, 3, 26)

    assert err(n) <= tol
    assert err(n - 1) > tol

    n_adams = smallest_n_reaching(problem, tol, method="adams")
    assert n_adams > n
    # the search starts at N = stencil_size, whose error already meets 10
    assert smallest_n_reaching(problem, 10.0) == 3

    with pytest.raises(ValueError, match="tol"):
        smallest_n_reaching(problem, 0.0)
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"finite and positive, got {tol!r}"):
            smallest_n_reaching(problem, tol)
    with pytest.raises(ValueError, match="exact"):
        smallest_n_reaching(ProblemSpec(0.5, (0.0,), lambda t, x: 1.0, 1.0), 1e-3)
    monkeypatch.setattr(reports, "MAX_SEARCH_STEPS", 64)
    with pytest.raises(ValueError, match="still above 1e-30 at N=64, the search's 64-step cap"):
        smallest_n_reaching(problem, 1e-30)


def test_run_convergence_marks_a_growing_row():
    # small alpha with stencil 4: the error rises from 4.3e-3 to 0.63 when h
    # halves, an observed order of about -7.2
    report = run_convergence(make_problem("poly8", 0.1, 1.0), [1 / 160, 1 / 320],
                             stencil_size=4)
    first, second = report.rows
    assert first.status == STATUS_OK
    assert 4e-3 < first.max_error < 5e-3 and 0.6 < second.max_error < 0.7
    assert -7.3 < second.observed_order < -7.1
    assert second.status == ROW_GROWING


def test_convergence_sweep_calls_the_oracle_once_per_time():
    # split ml_linear on [1, 10]: the h = 0.5 grid and the exact start values
    # lie on the h = 0.25 grid, 37 distinct times in all
    base = make_problem("ml_linear", 0.4, 10.0)
    calls = []

    def counted(t):
        calls.append(t)
        return base.exact(t)

    split = SplitConfig(t0=1.0, aux_jn=52, fine_factor=20)
    starter = StarterConfig(mode=EXACT)
    report = run_convergence(dataclasses.replace(base, exact=counted), [0.25, 0.5],
                             starter=starter, split=split)
    assert len(calls) == len(set(calls)) == 37
    want, prev = [], None
    for h in (0.5, 0.25):
        tr = solve(base, SolverConfig(h=h, starter=starter, split=split))
        err = max(abs(x - base.exact(tr.grid.t(i))) for i, x in enumerate(tr.x))
        want.append((h.hex(), err.hex(), None if prev is None else
                     observed_order(prev[0], prev[1], h, err).hex()))
        prev = (h, err)
    got = [(r.h.hex(), r.max_error.hex(), r.observed_order and r.observed_order.hex())
           for r in report.rows]
    assert got == want
    assert [r.status for r in report.rows] == [STATUS_OK, STATUS_OK]


def test_target_search_stops_at_the_adams_cap_and_at_divergence(monkeypatch):
    problem = make_problem("poly8", 0.5, 1.0)
    steps = []

    def recording(problem, h, n_steps):
        steps.append(n_steps)
        return adams_solve(problem, h, n_steps)

    monkeypatch.setattr(reports, "adams_solve", recording)
    with monkeypatch.context() as m, pytest.raises(
            ValueError, match="still above 1e-30 at N=100, the search's 100-step cap"):
        m.setattr(reports, "MAX_SEARCH_STEPS", 100)
        smallest_n_reaching(problem, 1e-30, method="adams")
    assert steps == [3, 6, 12, 24, 48, 96, 100]
    # x' = x^3 from x(0) = 1 leaves the guard on any grid
    blowup = ProblemSpec(0.5, (1.0,), lambda t, x: x ** 3, 4.0, exact=lambda t: 1.0)
    for method in ("jpc", "adams"):
        with pytest.raises(DivergenceError, match=rf"{method} run at N=\d+ diverged"):
            smallest_n_reaching(blowup, 1e-3, method=method)


def _scripted_errors(monkeypatch, errors):
    """Make the target search see errors[N] as the max error of a run with N steps."""
    monkeypatch.setattr(reports, "exact_errors",
                        lambda tr, exact: (None, [errors[tr.grid.count - 1]]))


def test_target_search_stops_at_an_error_floor(monkeypatch):
    problem = make_problem("poly8", 0.5, 1.0)
    # one slow doubling does not stop the search, nor does an error that
    # grows (an instability, not a floor)
    _scripted_errors(monkeypatch, {3: 1.0, 6: 1.1, 12: 0.5, 24: 0.45, 48: 5.0, 96: 1e-3,
                                   72: 1e-3, 60: 0.01, 66: 1e-3, 63: 1e-3, 61: 0.01, 62: 1e-3})
    assert smallest_n_reaching(problem, 1e-3) == 62
    # two slow ones in a row do, naming the floor and the N where it set in;
    # the error may rise a little there
    _scripted_errors(monkeypatch, {3: 1.0, 6: 0.3, 12: 0.1, 24: 0.09, 48: 0.095, 96: 1e-6})
    with pytest.raises(ValueError, match=r"error floor of about 0\.1 from N=12 on: it moved "
                                         r"less than 1\.2x a doubling up to N=48, above 0\.001"):
        smallest_n_reaching(problem, 1e-3)
    assert reports.FLOOR_FACTOR <= 1.25
    # a second slow doubling that reaches the target ends the search as usual
    _scripted_errors(monkeypatch, {3: 1.0, 6: 0.3, 12: 0.1, 24: 0.09, 48: 0.085, 36: 0.09,
                                   42: 0.085, 39: 0.09, 40: 0.09, 41: 0.085})
    assert smallest_n_reaching(problem, 0.085) == 41


def test_run_target_reports_minimal_steps():
    report = run_target("poly8", 0.5, 1e-2, ("jpc", "adams"), (1.0,))
    assert report.h is None
    by = {r.method: r for r in report.rows}
    assert by["jpc"].n_steps < by["adams"].n_steps
    problem = make_problem("poly8", 0.5, 1.0)
    assert by["jpc"].n_steps == smallest_n_reaching(problem, 1e-2)
    assert loads(to_json(report)) == report


def test_table_rendering():
    rows = (ConvergenceRow(0.1, 1e-3, None),
            ConvergenceRow(0.05, 2e-3, -1.0, ROW_GROWING),
            ConvergenceRow(0.025, 1e100, -90.0, STATUS_DIVERGED))
    report = ConvergenceReport(0.5, 3, 26, "jpc", "poly8", "exact", rows)
    table = format_table(report)
    assert "max_error" in table.splitlines()[0]
    assert len(table.splitlines()) == 4
    assert "diverged" in table

    timing = TimingReport("poly8", 0.5, 0.1, (TimingRow(10, 0.5, 99, "jpc"),))
    t_table = format_table(timing)
    assert "rhs_evals" in t_table.splitlines()[0]
    assert "jpc" in t_table

"""Command-line harness: subcommands, exit codes, config merging."""

import json
import math
import subprocess
import sys
import time

import pytest

from jacobipc import reports, solver
from jacobipc.adams import MAX_ADAMS_STEPS, adams_solve
from jacobipc.cli import main
from jacobipc.mittag import ml_solution
from jacobipc.problems import make_problem
from jacobipc.quadrature import JacobiWeight, gauss_lobatto_rule
from jacobipc.reports import loads, run_convergence, to_csv


def endpoint_fields(out):
    tok = out.splitlines()[0].split()
    return float(tok[2]), float(tok[5]), tok[8]  # t, x, status


def test_quad_csv_matches_rule(tmp_path, capsys):
    path = tmp_path / "rule.csv"
    assert main(["quad", "--jacobi-a=-0.5", "--points", "9",
                 "--output", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "node,weight"
    rule = gauss_lobatto_rule(JacobiWeight(-0.5, 0.0), 9)
    assert len(lines) == 10
    for line, s, w in zip(lines[1:], rule.nodes, rule.weights):
        s_text, w_text = line.split(",")
        assert float(s_text) == s
        assert float(w_text) == w

    assert main(["quad", "--jacobi-a=-0.5", "--points", "5"]) == 0
    assert capsys.readouterr().out.startswith("node,weight\n")


def test_csv_outputs_are_pinned(tmp_path, capsys):
    assert main(["quad", "--jacobi-a=-0.5", "--points", "3"]) == 0
    assert capsys.readouterr().out == ("node,weight\n"
                                       "-1,0.28284271247461923\n"
                                       "0.14285714285714285,1.5399214345840371\n"
                                       "1,1.0056629776875339\n")
    path = tmp_path / "run.csv"
    assert main(["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "4",
                 "--stencil", "2", "--output", str(path)]) == 0
    assert path.read_text() == ("t,x,exact,abs_error\n"
                                "0,0,0,0\n"
                                "0.25,0.0001983642578125,0.0001983642578125,0\n"
                                "0.5,0.049721454829535203,0.02734375,0.022377704829535203\n"
                                "0.75,0.77483517378399214,0.5005645751953125,0.27427059858867964\n"
                                "1,5.5323499414537194,4,1.5323499414537194\n")
    assert main(["solve", "--rhs", "-x", "--init", "1", "--alpha", "1", "--n", "4",
                 "--stencil", "2", "--output", str(path)]) == 0
    assert path.read_text() == ("t,x\n"
                                "0,1\n"
                                "0.25,0.77882144869166603\n"
                                "0.5,0.60398651203864695\n"
                                "0.75,0.46985601091259488\n"
                                "1,0.36561284007193862\n")
    capsys.readouterr()


def test_quad_errors(capsys):
    assert main(["quad", "--jacobi-a=-0.5"]) == 1
    assert "Missing option '--points'." in capsys.readouterr().err
    assert main(["quad", "--jacobi-a=-1.5", "--points", "5"]) == 1
    capsys.readouterr()
    begin = time.perf_counter()
    assert main(["quad", "--jacobi-a=-0.5", "--points", "100000"]) == 1
    assert time.perf_counter() - begin < 1.0
    assert "points" in capsys.readouterr().err
    for a, points in (("1e5", "11"), ("1e300", "5"), ("inf", "5"), ("nan", "5")):
        assert main(["quad", "--jacobi-a", a, "--points", points]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_solve_registry_problem(capsys):
    assert main(["solve", "--problem", "poly8", "--alpha", "0.5",
                 "--h", "1/40"]) == 0
    out = capsys.readouterr().out
    t, x, status = endpoint_fields(out)
    assert t == 1.0
    assert status == "ok"
    assert abs(x - 4.0) < 5e-3  # exact endpoint value is 1 + 3
    assert "max_error = " in out


def test_solve_expression_problem(capsys):
    assert main(["solve", "--rhs", "-x", "--init", "1", "--alpha", "0.5",
                 "--n", "40"]) == 0
    out = capsys.readouterr().out
    t, x, status = endpoint_fields(out)
    assert status == "ok"
    want = math.e * math.erfc(1.0)  # relaxation solution at t = 1, order 1/2
    assert abs(x - want) < 5e-3
    assert "max_error" not in out  # no exact solution given


def test_solve_trajectory_csv(tmp_path):
    path = tmp_path / "run.csv"
    assert main(["solve", "--problem", "poly8", "--alpha", "0.5",
                 "--n", "20", "--output", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,exact,abs_error"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    for line in lines[1:]:
        t, x, ex, err = (float(tok) for tok in line.split(","))
        assert err == abs(x - ex)


def test_solve_evaluates_exact_once_per_point(tmp_path, monkeypatch, capsys):
    import dataclasses

    import jacobipc.cli as cli_mod

    calls = []

    def counted_problem(*args):
        problem = make_problem(*args)
        exact = problem.exact

        def counted(t):
            calls.append(t)
            return exact(t)

        return dataclasses.replace(problem, exact=counted)

    monkeypatch.setattr(cli_mod, "make_problem", counted_problem)
    path = tmp_path / "run.csv"
    assert main(["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "40",
                 "--stencil", "3", "--output", str(path)]) == 0
    assert "max_error" in capsys.readouterr().out
    # 3 for the exact starter, then one per grid point for CSV and max_error
    assert len(calls) == 3 + 41


def test_solve_flag_conflicts(capsys):
    base = ["solve", "--problem", "poly8", "--alpha", "0.5"]
    assert main(base + ["--h", "1/10", "--n", "10"]) == 1
    assert main(base) == 1
    assert main(["solve", "--alpha", "0.5", "--h", "1/10"]) == 1
    assert main(["solve", "--problem", "poly8", "--rhs", "-x",
                 "--alpha", "0.5", "--h", "1/10"]) == 1
    assert main(base + ["--h", "1/10", "--init", "0"]) == 1
    assert main(["solve", "--rhs", "-x", "--alpha", "0.5", "--h", "1/10"]) == 1
    assert main(["solve", "--problem", "poly8", "--h", "1/10"]) == 1  # no alpha
    assert main(base + ["--h", "1/0"]) == 1
    assert main(base + ["--h", "1/10", "--starter", "sorcery"]) == 1
    capsys.readouterr()


def test_solve_divergence_exits_2(capsys):
    code = main(["solve", "--rhs", "x*x+1", "--init", "1", "--alpha", "0.5",
                 "--h", "1/40", "--t-end", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert "diverged" in captured.err
    assert "status = diverged" in captured.out


def test_diverged_start_values_exit_2(capsys):
    # no exact solution, so the refined starter runs, and its fine Adams run
    # passes the guard
    assert main(["solve", "--rhs", "x^3", "--init", "1", "--alpha", "0.5", "--n", "10"]) == 2
    assert capsys.readouterr().err == ("diverged: fine Adams run diverged before "
                                       "reaching the start values\n")


@pytest.mark.parametrize("args, message", [
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--h", "abc"],
     "bad step size 'abc'"),
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "10",
      "--starter", "refined:x"], "bad starter 'refined:x'"),
    (["solve", "--rhs", "-x", "--init", "1,a", "--alpha", "1.5", "--n", "10"],
     "bad initial values '1,a'"),
    (["converge", "--problem", "poly8", "--alpha", "0.5"],
     "give exactly one of --h-list or --n-list"),
    (["converge", "--problem", "poly8", "--alpha", "0.5", "--n-list", "10,x"],
     "bad --n-list '10,x'"),
    (["bench", "--problem", "poly8", "--alpha", "0.5", "--h", "0.1", "--t-list", "1,x"],
     "bad --t-list '1,x'"),
])
def test_malformed_flag_values_exit_1(args, message, capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"Error: {message}" in captured.err


def test_refined_starter_is_capped(capsys):
    # the refinement rule asks for k = 6 (3e6 O(N^2) Adams substeps); the cap
    # of 2000 fine steps clamps it to k = 2
    args = ["solve", "--rhs", "-x", "--init", "1", "--alpha", "0.2",
            "--n", "100", "--stencil", "4"]
    begin = time.perf_counter()
    assert main(args) == 0
    assert time.perf_counter() - begin < 2.0
    _, x, status = endpoint_fields(capsys.readouterr().out)
    assert status == "ok"
    assert abs(x - ml_solution(0.2, 1.0)) < 1e-3

    split = ["--problem", "ml_linear", "--alpha", "0.5", "--split-t0"]
    for refused in (
        args + ["--starter", "refined:3"],
        ["solve", "--rhs", "-x", "--init", "1", "--alpha", "0.5", "--n", "10",
         "--starter", "refined:400"],
        # the split head's fine run is capped too
        ["solve"] + split + ["0.5", "--n", "10", "--split-fine", "10000"],
        # a split refined start takes no k
        ["converge"] + split + ["0.1", "--n-list", "9,18", "--starter", "refined:9"],
        # an integer too large for a float is a configuration error
        ["solve"] + split + ["0.5", "--n", "10", "--split-fine", "1" + "0" * 400],
    ):
        begin = time.perf_counter()
        assert main(refused) == 1
        assert time.perf_counter() - begin < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_refinement_rule_refusal_names_h_and_the_way_out(capsys):
    args = ["solve", "--rhs=-x", "--init", "1", "--alpha", "0.5", "--t-end", "3", "--h", "1"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: refinement rule assumes h < 1, got h = 1.0; "
                            "give the refinement with --starter refined:K\n")
    assert main(args + ["--starter", "refined:1"]) == 0
    _, _, status = endpoint_fields(capsys.readouterr().out)
    assert status == "ok"


def test_split_refusals_name_the_flags(capsys):
    split = ["solve", "--problem", "ml_linear", "--alpha", "0.5", "--split-t0", "0.5",
             "--n", "10"]
    for extra, message in (
        # uneven head grid: h = 0.15 and 0.15 / 10 does not divide 0.5
        (["--t-end", "2"], "--split-t0 0.5 must be a whole number of head substeps, but "
                           "h/--split-fine = 0.15/10 = 0.015 does not evenly divide it"),
        (["--split-fine", "10000"],
         "the split head's fine Adams run (--split-t0 0.5, --split-fine 10000) takes "
         "100000 substeps, above the 2000-substep cap"),
        (["--split-fine", "1000", "--starter", "refined"],
         "the split head's fine Adams run (--split-t0 0.5, --split-fine 1000) takes "
         "12000 substeps, above the 2000-substep cap"),
        (["--split-fine", "1" + "0" * 400],
         "--split-fine 1" + "0" * 400 + " is too large: the head substep h/--split-fine "
         "is no usable float"),
    ):
        assert main(split + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args,value", [
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "0"], "0"),
    (["converge", "--problem", "poly8", "--alpha", "0.5", "--n-list", "0,10"], "0"),
    (["converge", "--problem", "poly8", "--alpha", "0.5", "--n-list", "10,-3"], "-3"),
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--h", "nan"], "nan"),
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "10", "--t-end", "nan"], "nan"),
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "10", "--t-end", "inf"], "inf"),
    (["solve", "--problem", "ml_linear", "--alpha", "0.5", "--n", "10",
      "--split-t0", "nan"], "nan"),
    (["bench", "--problem", "poly8", "--alpha", "0.5", "--h", "0.1", "--t-list", "nan"],
     "nan"),
    (["converge", "--problem", "poly8", "--alpha", "0.5", "--h-list", "0.1,nan"], "nan"),
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--h", "1e-320"], "1e-320"),
    # the barycentric weights of this stencil overflow a float
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "1100", "--stencil", "1100"],
     "1100"),
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "10", "--stencil", "1"], "1"),
    # a sweep checks its settings once, for the adams baseline too
    (["converge", "--problem", "poly8", "--alpha", "0.5", "--h-list", "0.1",
      "--method", "adams", "--jn", "5000"], "5000"),
    (["converge", "--problem", "poly8", "--alpha", "0.5", "--h-list", "0.1",
      "--method", "adams", "--stencil", "1"], "1"),
    (["bench", "--problem", "poly8", "--alpha", "0.5", "--h", "0.1", "--t-list", "1",
      "--methods", "adams", "--stencil", "1"], "1"),
])
def test_numeric_inputs_past_the_configs_are_refused(args, value, capsys):
    # a config error names the offending value on its one message line, with
    # no traceback (an exception escaping main would fail the test)
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    named = [line for line in captured.err.splitlines() if value in line.split()]
    assert len(named) == 1 and named[0].lower().startswith("error: ")


@pytest.mark.parametrize("args,message", [
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--h", "0.3"],
     "step h = 0.3 does not evenly divide the horizon T = 1.0"),
    (["bench", "--problem", "poly8", "--alpha", "0.5", "--h", "0.3", "--t-list", "1"],
     "step h = 0.3 does not evenly divide the horizon T = 1.0"),
    (["converge", "--problem", "ml_linear", "--alpha", "0.5", "--h-list", "0.1,0.05",
      "--split-t0", "0.25"],
     "step h = 0.1 does not evenly divide the span T - t0 = 1.0 - 0.25 = 0.75 after the "
     "split point"),
], ids=["solve", "bench", "converge-split"])
def test_an_uneven_step_is_refused_naming_h_the_horizon_and_the_split_point(args, message,
                                                                             capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_grid_coarser_than_the_stencil_is_refused_naming_both(capsys):
    for args, n_steps in (
            (["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "2"], 2),
            (["bench", "--problem", "ml_linear", "--alpha", "1.5", "--h", "1e300",
              "--t-list", "1e300", "--methods", "jpc"], 1)):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: grid too coarse: stencil size 3 needs at least 3 "
                                f"steps, but the grid has {n_steps}\n")


def test_solve_split_flags(capsys):
    assert main(["solve", "--problem", "ml_linear", "--alpha", "0.5",
                 "--split-t0", "0.1", "--n", "45"]) == 0
    t, _, status = endpoint_fields(capsys.readouterr().out)
    assert t == 1.0
    assert status == "ok"


@pytest.mark.parametrize("command", [
    ["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "10"],
    ["converge", "--problem", "poly8", "--alpha", "0.5", "--n-list", "10,20"],
])
@pytest.mark.parametrize("flags,named", [
    (["--split-jn", "40"], "--split-jn"),
    (["--split-fine", "10"], "--split-fine"),  # the default value, given
    (["--split-jn", "40", "--split-fine", "20"], "--split-jn and --split-fine"),
])
def test_split_options_need_a_split_point(command, flags, named, tmp_path, capsys):
    assert main(command + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"Error: {named} given without --split-t0" in captured.err
    # a config file gives them too
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{key[2:]}={value}\n"
                              for key, value in zip(flags[::2], flags[1::2])))
    assert main(command + ["--config", str(config)]) == 1
    assert f"Error: {named} given without --split-t0" in capsys.readouterr().err
    # and with the split point they are taken
    assert main(command + flags + ["--split-t0", "0.5"]) == 0
    capsys.readouterr()


def test_converge_table_and_export(tmp_path, capsys):
    path = tmp_path / "conv.csv"
    assert main(["converge", "--problem", "poly8", "--alpha", "0.5",
                 "--h-list", "1/10,1/20", "--output", str(path)]) == 0
    out = capsys.readouterr().out
    assert "max_error" in out.splitlines()[0]
    # published sweep values for this configuration
    assert "6.688905e-02" in out
    assert "7.007244e-03" in out
    assert " 3.25" in out

    problem = make_problem("poly8", 0.5, 1.0)
    want = to_csv(run_convergence(problem, [0.1, 0.05]))
    assert path.read_text() == want


def test_converge_json_export(tmp_path, capsys):
    path = tmp_path / "conv.json"
    assert main(["converge", "--problem", "poly8", "--alpha", "0.5",
                 "--n-list", "10,20", "--format", "json",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    report = loads(path.read_text())
    assert report.problem == "poly8"
    assert report.method == "jpc"
    assert [r.h for r in report.rows] == [0.1, 0.05]


def test_converge_expression_needs_exact(capsys):
    args = ["converge", "--rhs", "-x", "--init", "1", "--alpha", "1",
            "--h-list", "1/10,1/20"]
    assert main(args) == 1
    assert "--exact" in capsys.readouterr().err
    assert main(args + ["--exact", "exp(-t)"]) == 0
    out = capsys.readouterr().out
    orders = [line.split()[2] for line in out.splitlines()[2:]]
    assert 2.5 < float(orders[0]) < 3.5


@pytest.mark.parametrize("exact", ["x", "x + 1"])
def test_exact_solution_is_a_function_of_t_alone(exact, capsys):
    assert main(["converge", "--rhs", "-x", "--init", "1", "--alpha", "0.5",
                 "--exact", exact, "--n-list", "10,20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: unknown identifier 'x' (variables are t, alpha) "
                            "at offset 0\n")


def test_converge_divergence_exits_2(capsys):
    code = main(["converge", "--rhs", "x*x+1", "--init", "1", "--alpha", "0.5",
                 "--exact", "t", "--t-end", "2", "--h-list", "1/20",
                 "--starter", "refined"])
    assert code == 2
    assert "diverged" in capsys.readouterr().err


def test_adams_method_flag(capsys):
    assert main(["converge", "--problem", "poly8", "--alpha", "0.5",
                 "--h-list", "1/20,1/40", "--method", "adams"]) == 0
    out = capsys.readouterr().out
    order = float(out.splitlines()[2].split()[2])
    assert 1.3 < order < 1.9


def test_bench_timing_and_target(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    assert main(["bench", "--problem", "poly8", "--alpha", "0.5",
                 "--h", "1/10", "--t-list", "0.5,1",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[0] == "n_steps,wall_seconds,rhs_evals,method"
    assert len(lines) == 5
    rows = loads(path.read_text()).rows
    jpc = {r.n_steps: r.rhs_evals for r in rows if r.method == "jpc"}
    assert jpc[10] == 3 + 8 * (27 * 3 + 24 * 3 + 4)
    assert {r.n_steps for r in rows} == {5, 10}

    assert main(["bench", "--problem", "poly8", "--alpha", "0.5",
                 "--target-error", "0.05", "--t-list", "1",
                 "--methods", "jpc"]) == 0
    out = capsys.readouterr().out
    assert "rhs_evals" in out
    assert main(["bench", "--problem", "poly8", "--alpha", "0.5",
                 "--t-list", "1"]) == 1  # neither --h nor --target-error
    capsys.readouterr()


def test_bench_refuses_h_with_target_error(capsys):
    # the search picks its own N, so a given step would be ignored
    assert main(["bench", "--problem", "poly8", "--alpha", "0.5", "--h", "0.1",
                 "--target-error", "1e-3", "--t-list", "1", "--methods", "jpc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Error: give --h or --target-error, not both" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-3"])
def test_bench_refuses_a_target_error_that_is_not_finite_and_positive(value, capsys):
    # nan and inf used to end the search at once and time N = stencil size
    assert main(["bench", "--problem", "poly8", "--alpha", "0.5", "--t-list", "1",
                 f"--target-error={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: target error tol must be finite and positive")
    assert repr(float(value)) in captured.err


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0", "2.5", "1e300", "1000000.5"])
@pytest.mark.parametrize("problem", ["poly8", "ml_linear"])
@pytest.mark.parametrize("command", [
    ["solve", "--n", "4"],
    ["converge", "--h-list", "0.5,0.25"],
    ["bench", "--h", "0.5", "--t-list", "1"],
], ids=lambda command: command[0])
def test_registry_problems_refuse_an_order_outside_the_range_by_name(alpha, problem,
                                                                     command, capsys):
    # the order is refused before the factory computes from it: poly8's
    # constants fail on these orders, and ml_linear's initial values take
    # ceil(alpha) entries
    assert main(command + ["--problem", problem, f"--alpha={alpha}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: alpha must be in (0, 2], got {float(alpha)}\n"


@pytest.mark.parametrize("methods", ["", " , "])
def test_bench_refuses_an_empty_method_list(methods, capsys):
    assert main(["bench", "--problem", "poly8", "--alpha", "0.5", "--h", "0.1",
                 "--t-list", "1", "--methods", methods]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no method to time")


@pytest.mark.parametrize("args", [
    # the target search doubles N past the Adams step cap
    ["bench", "--problem", "poly8", "--alpha", "0.5", "--methods", "adams",
     "--t-list", "1", "--target-error", "1e-9"],
    ["converge", "--problem", "poly8", "--alpha", "0.5", "--method", "adams",
     "--n-list", "1000000"],
])
def test_adams_runs_above_the_step_cap_exit_1(args, capsys, monkeypatch):
    steps = []

    def recording(problem, h, n_steps):
        steps.append(n_steps)
        return adams_solve(problem, h, n_steps)

    monkeypatch.setattr(reports, "adams_solve", recording)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "8192-step cap" in err
    if args[0] == "bench":  # the search runs at the cap last, never above it
        assert max(steps) == steps[-1] == MAX_ADAMS_STEPS


def test_adams_cap_refusal_gives_a_huge_step_count_in_six_digits(capsys):
    # the count is an int of 301 digits
    assert main(["bench", "--problem", "poly8", "--alpha", "0.5", "--h", "0.5",
                 "--t-list", "1e300", "--methods", "adams"]) == 1
    assert capsys.readouterr().err == ("error: Adams run of 2e+300 steps is not within "
                                       "1 to the 8192-step cap\n")


def test_target_search_stops_at_an_error_floor_exit_1(capsys):
    # unsplit ml_linear settles at 7.8e-6 from N = 3072 on: the search stops
    # two doublings later instead of doubling on to 2^22 steps
    begin = time.perf_counter()
    assert main(["bench", "--problem", "ml_linear", "--alpha", "0.5", "--t-list", "1",
                 "--methods", "jpc", "--target-error", "1e-12"]) == 1
    assert time.perf_counter() - begin < 10.0
    err = capsys.readouterr().err
    assert err.startswith("error: error floor of about 7.78e-06 from N=3072 on: ")
    assert "up to N=12288, above 1e-12" in err


@pytest.mark.parametrize("args,named", [
    (["bench", "--problem", "poly8", "--alpha", "0.5", "--h", "0.1", "--t-list", "1",
      "--jn", "1"], "jn must be from 2 to 1024, got 1"),
    (["bench", "--problem", "poly8", "--alpha", "0.5", "--h", "0.1", "--t-list", "1",
      "--jn", "5000"], "jn must be from 2 to 1024, got 5000"),
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "10", "--jn", "5000"],
     "jn must be from 2 to 1024, got 5000"),
    (["solve", "--problem", "ml_linear", "--alpha", "0.5", "--n", "10", "--t-end", "2",
      "--split-t0", "1", "--split-jn", "5000"], "aux_jn must be from 2 to 1024, got 5000"),
    # the default aux_jn = 2*jn
    (["solve", "--problem", "ml_linear", "--alpha", "0.5", "--n", "10", "--t-end", "2",
      "--split-t0", "1", "--jn", "600"], "aux_jn = 2*jn must be from 2 to 1024, got 1200"),
])
def test_rule_index_refusals_name_the_index_before_any_rule_is_built(args, named, capsys,
                                                                      monkeypatch):
    built = []
    monkeypatch.setattr(solver, "gauss_lobatto_rule", lambda *a: built.append(a))
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: rule index {named}\n"
    assert built == []


def test_alpha_whose_kernel_exponent_rounds_to_minus_one_is_refused_by_name(capsys):
    # alpha - 1 rounds to -1.0, which no Jacobi weight takes
    alpha = ["--problem", "poly8", "--alpha", "1e-17"]
    for args in (["solve", *alpha, "--n", "10"], ["converge", *alpha, "--n-list", "10,20"],
                 ["bench", *alpha, "--h", "0.1", "--t-list", "1"]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: alpha = 1e-17 is too small: the kernel weight's "
                                "exponent alpha - 1 rounds to -1.0, and must exceed -1\n")


def test_step_count_no_array_can_hold_is_refused_by_step_and_span(capsys):
    poly8 = ["--problem", "poly8", "--alpha", "0.5", "--h", "0.5"]
    for args in (["solve", *poly8, "--t-end", "1e300"], ["bench", *poly8, "--t-list", "1e300"]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: step 0.5 over the span 1e+300 gives 2e+300 steps, "
                                "more than a float64 array can hold\n")


@pytest.fixture
def unevaluated(monkeypatch):
    """Problems from --problem and --rhs whose rhs and exact solution fail when called."""
    import dataclasses

    import jacobipc.cli as cli_mod

    def called(*args):
        raise AssertionError("the problem was evaluated")

    monkeypatch.setattr(cli_mod, "make_problem", lambda *args: dataclasses.replace(
        make_problem(*args), rhs=called, exact=called))
    monkeypatch.setattr(cli_mod, "compile_rhs", lambda *args: called)


@pytest.mark.parametrize("args, message", [
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--h", "1e-17"],
     "step 1e-17 over the span 1.0 gives 1e+17 steps"),
    (["converge", "--problem", "ml_linear", "--alpha", "0.5", "--h-list", "1e-17",
      "--t-end", "2"], "step 1e-17 over the span 2.0 gives 2e+17 steps"),
], ids=["solve", "converge"])
def test_a_step_count_whose_arrays_cannot_be_allocated_is_refused_before_any_rhs_call(
        args, message, capsys, unevaluated):
    # 1e17 steps take 711 PiB per float64 array, past any x86-64 address
    # space: the allocation fails on every host without touching memory
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}, more than a float64 array can hold\n"


SUBNORMAL_STEP = ["solve", "--rhs", "x", "--init", "1", "--alpha", "0.5", "--n", "10",
                  "--t-end", "1e-320"]


def test_a_step_too_small_for_the_refinement_rule_is_refused_by_name(capsys, unevaluated):
    assert main(SUBNORMAL_STEP) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: step h = 1e-321 is too small for the refinement rule: "
                            "1/h overflows a float; give the refinement with "
                            "--starter refined:K\n")


def test_a_refined_substep_that_underflows_is_refused_naming_k(capsys, unevaluated):
    assert main(SUBNORMAL_STEP + ["--starter", "refined:3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: refined starter substep h/10^k = 1e-321/10^3 underflows to 0\n"


def test_target_search_stops_at_a_diverged_run_exit_2(capsys):
    # alpha 0.1 with stencil 5 leaves the guard from N = 1280 on; the error
    # of the truncated grid must not stand in for the run's
    assert main(["bench", "--problem", "poly8", "--alpha", "0.1", "--stencil", "5",
                 "--methods", "jpc", "--t-list", "1", "--target-error", "1e-14"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("diverged: jpc run at N=1280 diverged")


def test_mlf_prints_17_digits(capsys):
    assert main(["mlf", "--alpha", "1", "--z=-1"]) == 0
    assert capsys.readouterr().out.strip() == format(math.exp(-1.0), ".17g")
    assert main(["mlf", "--alpha", "2", "--z=-1"]) == 0
    assert capsys.readouterr().out.strip() == format(math.cos(1.0), ".17g")
    assert main(["mlf", "--alpha", "0.5", "--z", "1"]) == 1  # positive argument
    capsys.readouterr()


def test_mlf_refuses_tolerance_below_machine_epsilon(capsys):
    begin = time.perf_counter()
    assert main(["mlf", "--alpha", "0.5", "--z=-100", "--tol", "1e-20"]) == 1
    assert time.perf_counter() - begin < 1.0
    assert "machine epsilon" in capsys.readouterr().err


def test_mlf_refuses_nan_and_orders_below_the_floor(capsys):
    for argv in (["--alpha", "0.5", "--z=nan"], ["--alpha", "nan", "--z=-1"],
                 ["--alpha", "1e-300", "--z=-1"], ["--alpha", "0.005", "--z=-1"]):
        assert main(["mlf", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert main(["mlf", "--alpha", "0.5", "--z=-inf"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["mlf", "--alpha", "2", "--z=-inf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument must be finite") and "no limit" in err


def test_config_file_defaults_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nalpha = 1\n\nz = -1\n")
    assert main(["mlf", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == format(math.exp(-1.0), ".17g")

    # explicit flag beats the file
    assert main(["mlf", "--config", str(cfg), "--alpha", "2"]) == 0
    assert capsys.readouterr().out.strip() == format(math.cos(1.0), ".17g")

    # keys are long option names, also where click's parameter name differs
    solve_cfg = tmp_path / "solve.cfg"
    solve_cfg.write_text("problem = poly8\nalpha = 0.5\nh = 1/10\n")
    assert main(["solve", "--config", str(solve_cfg)]) == 0
    t, _, status = endpoint_fields(capsys.readouterr().out)
    assert (t, status) == (1.0, "ok")
    conv_cfg = tmp_path / "conv.cfg"
    path = tmp_path / "conv.json"
    conv_cfg.write_text(f"problem = poly8\nalpha = 0.5\nn-list = 10,20\n"
                        f"format = json\noutput = {path}\n")
    assert main(["converge", "--config", str(conv_cfg)]) == 0
    capsys.readouterr()
    assert loads(path.read_text()).problem == "poly8"


def test_a_reports_starter_field_is_valid_starter_input(tmp_path, capsys):
    args = ["converge", "--problem", "poly8", "--alpha", "0.5", "--n-list", "10,20",
            "--format", "json", "--output"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + [str(first), "--starter", "refined"]) == 0
    table = capsys.readouterr().out
    starter = json.loads(first.read_text())["starter"]
    assert starter == "refined:auto"
    assert main(args + [str(second), "--starter", starter]) == 0
    assert capsys.readouterr().out == table
    assert second.read_text() == first.read_text()


def test_bench_takes_the_shared_method_and_report_options(tmp_path, capsys):
    assert main(["bench", "--help"]) == 0
    listed = capsys.readouterr().out
    for option in ("--stencil", "--jn", "--starter", "--format", "--output"):
        assert f"  {option} " in listed
    # each is a --config key too, and the file's run counts what the flags' run does
    cfg, path = tmp_path / "bench.cfg", tmp_path / "bench.json"
    cfg.write_text(f"stencil = 4\njn = 8\nstarter = refined:1\nformat = json\n"
                   f"output = {path}\n")
    args = ["bench", "--problem", "poly8", "--alpha", "0.5", "--h", "0.1", "--t-list", "1",
            "--methods", "jpc"]
    assert main(args + ["--config", str(cfg)]) == 0
    from_file = loads(path.read_text())
    assert main(args + ["--stencil", "4", "--jn", "8", "--starter", "refined:1",
                        "--format", "csv", "--output", str(path)]) == 0
    capsys.readouterr()
    assert [r.rhs_evals for r in loads(path.read_text()).rows] == \
        [r.rhs_evals for r in from_file.rows]


@pytest.mark.parametrize("args,t0,horizon", [
    (["solve", "--n", "10", "--split-t0", "1"], "1.0", "1.0"),
    (["solve", "--n", "10", "--split-t0", "2"], "2.0", "1.0"),
    (["converge", "--n-list", "10,20", "--split-t0", "1.5"], "1.5", "1.0"),
    (["solve", "--h", "0.1", "--split-t0", "1"], "1.0", "1.0"),
], ids=["n-at", "n-past", "n-list-past", "h-at"])
def test_a_split_point_at_or_past_the_horizon_is_refused_by_name(args, t0, horizon, capsys):
    assert main(args[:1] + ["--problem", "poly8", "--alpha", "0.5"] + args[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: split point t0 = {t0} must lie inside (0, T), "
                            f"before the horizon T = {horizon}\n")


@pytest.mark.parametrize("args,message", [
    (["solve", "--problem", "poly8", "--alpha", "0.5", "--n", "10", "--t-end", "1e40"],
     "horizon T = 1e+40 is too large at alpha = 0.5: the exact solution overflows a float "
     "by t = 2.0000000000000002e+39"),
    (["solve", "--problem", "ml_linear", "--alpha", "1.5", "--n", "10", "--t-end", "1e300"],
     "horizon T = 1e+300 is too large at alpha = 1.5: the march's kernel scale "
     "(span/2)^alpha overflows a float over the span 1e+300"),
    (["converge", "--problem", "ml_linear", "--alpha", "1.5", "--n-list", "10",
      "--t-end", "1e300"],
     "horizon T = 1e+300 is too large at alpha = 1.5: the march's kernel scale "
     "(span/2)^alpha overflows a float over the span 1e+300"),
    (["bench", "--problem", "poly8", "--alpha", "1.5", "--h", "1e300", "--t-list", "1e300",
      "--methods", "adams"],
     "step h = 1e+300 is too large at alpha = 1.5: h^alpha overflows a float"),
    (["converge", "--problem", "poly8", "--alpha", "0.5", "--n-list", "10", "--t-end", "1e40",
      "--method", "adams"],
     "horizon T = 1e+40 is too large at alpha = 0.5: the right-hand side overflows a float "
     "on the Adams grid of step 1.0000000000000001e+39"),
], ids=["solve-poly8", "solve-ml_linear", "converge", "bench", "converge-adams"])
def test_overflow_at_a_huge_horizon_or_step_is_refused_by_name(args, message, capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_march_kernel_scale_overflow_is_refused_before_any_rule_is_built(capsys,
                                                                         monkeypatch):
    def no_rules(*args):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(solver, "gauss_lobatto_rule", no_rules)
    monkeypatch.setattr(solver, "quadrature_for", no_rules)
    assert main(["solve", "--rhs", "-x", "--init", "1,0", "--alpha", "1.5", "--n", "10",
                 "--t-end", "1e300", "--starter", "refined:0"]) == 1
    assert "the march's kernel scale (span/2)^alpha overflows" in capsys.readouterr().err


def test_quad_refuses_exponents_whose_sum_overflows_by_name(capsys):
    assert main(["quad", "--jacobi-a", "1e308", "--jacobi-b", "1e308", "--points", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no finite Gauss-Lobatto rule with 5 points "
                            "for a=1e+308, b=1e+308\n")


def test_config_file_rejects_unknown_and_malformed_keys(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alphaa = 1\n")
    assert main(["mlf", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "unknown key" in err
    assert f"{bad}:1" in err

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("alpha\n")
    assert main(["mlf", "--config", str(malformed)]) == 1
    assert "expected key=value" in capsys.readouterr().err

    assert main(["mlf", "--config", str(tmp_path / "absent.cfg")]) == 1
    capsys.readouterr()


def test_unknown_commands_and_flags(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["solve", "--no-such-flag"]) == 1
    assert main(["solve", "--problem", "mystery9", "--alpha", "0.5",
                 "--h", "1/10"]) == 1
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jacobipc.cli", "mlf", "--alpha", "1", "--z=-1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == format(math.exp(-1.0), ".17g")

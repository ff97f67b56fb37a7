"""Command-line benchmark harness.

Subcommands: ``quad`` (dump a quadrature rule), ``solve`` (one run),
``converge`` (step-size sweep), ``bench`` (wall-time/operation-count
scaling), ``mlf`` (evaluate the relaxation special function).

Every subcommand accepts ``--config FILE`` holding ``key=value`` lines
(keys are the long option names; ``#`` comments and blank lines allowed);
explicit flags win over the file.  Exit codes: 0 success, 1 configuration
error (including numbers too large for a float), 2 numerical divergence.
"""

import math

import click
from click.core import ParameterSource

from jacobipc.adams import StarterConfig
from jacobipc.expr import compile_rhs, evaluate, parse as parse_expr
from jacobipc.mittag import DEFAULT_TOL, MIN_ORDER, mittag_leffler
from jacobipc.problems import ProblemSpec, make_problem, problem_ids
from jacobipc.quadrature import MAX_POINTS, JacobiWeight, gauss_lobatto_rule
from jacobipc.reports import (csv_text, exact_errors, export, format_table,
                              run_convergence, run_target, run_timing)
from jacobipc.solver import SolverConfig, SplitConfig, _main_span, solve
from jacobipc.trajectory import STATUS_DIVERGED, STATUS_OK, DivergenceError


def _load_config(ctx, param, path):
    """Eager ``--config`` callback: the file's key=value lines become click's
    default map, so click converts them and explicit flags win."""
    if path is None:
        return
    names = {opt[2:]: p.name for p in ctx.command.params if p is not param
             for opt in p.opts if opt.startswith("--")}
    defaults = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise click.UsageError(f"{path}:{lineno}: expected key=value")
            name = names.get(key.strip().replace("_", "-"))
            if name is None:
                raise click.UsageError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            defaults[name] = value.strip()
    ctx.default_map = defaults


def _parse_h(text):
    """Step size as a decimal or a p/q fraction ("0.025" or "1/40")."""
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            raise click.UsageError(f"bad step size {text!r}") from None
    try:
        return float(text)
    except ValueError:
        raise click.UsageError(f"bad step size {text!r}") from None


def _method_settings(kw, exact_known):
    """SolverConfig's fields from --stencil, --jn and --starter; the starter is
    exact by default when the problem has an exact solution."""
    default = "exact" if exact_known else "refined"
    try:
        starter = StarterConfig.parse(default if kw["starter"] is None else kw["starter"])
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    return {"stencil_size": kw["stencil"], "jn": kw["jn"], "starter": starter}


def _parse_init(text):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad initial values {text!r}") from None


def _build_problem(kw, need_exact=False):
    """Problem from --problem (registry) or --rhs/--init (+ --exact) flags."""
    pid, rhs, alpha, t_end = kw["problem"], kw["rhs"], kw["alpha"], kw["t_end"]
    if (pid is None) == (rhs is None):
        raise click.UsageError("give exactly one of --problem or --rhs")
    if pid is not None:
        if kw["init"] is not None:
            raise click.UsageError("built-in problems carry their initial values")
        return make_problem(pid, alpha, t_end)
    if kw["init"] is None:
        raise click.UsageError("--rhs needs --init (comma-separated x(0), x'(0), ...)")
    exact = None
    if kw.get("exact") is not None:
        tree = parse_expr(kw["exact"], variables=("t", "alpha"))

        def exact(t, _tree=tree, _alpha=alpha):
            return evaluate(_tree, t, math.nan, _alpha)

    elif need_exact:
        raise click.UsageError("--rhs needs --exact (expression in t and alpha) here")
    return ProblemSpec(alpha, _parse_init(kw["init"]), compile_rhs(rhs, alpha),
                       t_end, exact=exact, name=f"rhs:{rhs}")


def _step_for(span, n, flag):
    """Step h = span / n for a step count n given through ``flag``."""
    if n < 1:
        raise click.UsageError(f"{flag} step counts must be at least 1, got {n}")
    return span / n


def _split_config(kw):
    if kw["split_t0"] is None:
        ctx = click.get_current_context()
        given = [f"--{name.replace('_', '-')}" for name in ("split_jn", "split_fine")
                 if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT]
        if given:
            raise click.UsageError(f"{' and '.join(given)} given without --split-t0: "
                                   "split options apply to split runs only")
        return None
    return SplitConfig(t0=kw["split_t0"], aux_jn=kw["split_jn"],
                       fine_factor=kw["split_fine"])


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


_CONFIG_OPT = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_load_config,
    help="key=value defaults (long option names); explicit flags win")


def _options(*options):
    """One decorator adding ``options``, listed in this order by --help."""
    def add(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return add


_PROBLEM_OPTS = _options(
    click.option("--problem", type=click.Choice(problem_ids()), help="built-in benchmark problem"),
    click.option("--rhs", help="right-hand side f(t, x) as an expression"),
    click.option("--init", help="initial values for --rhs, comma-separated"),
    click.option("--alpha", type=float, required=True, help="derivative order in (0, 2]"),
    click.option("--t-end", type=float, default=1.0, show_default=True, help="horizon T"))

_METHOD_OPTS = _options(
    click.option("--stencil", type=int, default=SolverConfig.stencil_size,
                 show_default=True, help="interpolation stencil size (= expected order)"),
    click.option("--jn", type=int, default=SolverConfig.jn, show_default=True,
                 help="quadrature rule index (rule has jn+1 points)"),
    click.option("--starter", help="exact, refined, refined:auto or refined:K [default: exact "
                                   "when the problem has an exact solution, else refined]"))

_SPLIT_OPTS = _options(
    click.option("--split-t0", type=float, help="split point for a two-segment run"),
    click.option("--split-jn", type=int, help="auxiliary rule index [default: 2*jn]"),
    click.option("--split-fine", type=int, default=SplitConfig.fine_factor,
                 show_default=True, help="head-segment substep refinement factor"))

_REPORT_OPTS = _options(
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                 default="csv", show_default=True),
    click.option("--output", type=click.Path(dir_okay=False)))


@click.group()
def cli():
    """Benchmark harness for a Jacobi-quadrature predictor-corrector solver
    of Caputo initial value problems."""


@cli.command()
@click.option("--jacobi-a", type=float, required=True, help="exponent on (1-s)")
@click.option("--jacobi-b", type=float, default=0.0, show_default=True,
              help="exponent on (1+s)")
@click.option("--points", type=int, required=True,
              help=f"number of nodes (3 to {MAX_POINTS})")
@click.option("--output", type=click.Path(dir_okay=False))
@_CONFIG_OPT
def quad(**kw):
    """Dump Gauss-Lobatto nodes and weights as CSV."""
    rule = gauss_lobatto_rule(JacobiWeight(kw["jacobi_a"], kw["jacobi_b"]),
                              kw["points"])
    _emit(csv_text(("node", "weight"), zip(rule.nodes, rule.weights)), kw["output"])


@cli.command(name="solve")
@_PROBLEM_OPTS
@click.option("--h", "h_text", help='step size ("1/40" or "0.025")')
@click.option("--n", type=int, help="number of steps (h = T/n)")
@_METHOD_OPTS
@_SPLIT_OPTS
@click.option("--output", type=click.Path(dir_okay=False),
              help="write the trajectory as CSV")
@_CONFIG_OPT
def solve_cmd(**kw):
    """Solve one problem and report the endpoint (and error, if exact)."""
    if (kw["h_text"] is None) == (kw["n"] is None):
        raise click.UsageError("give exactly one of --h or --n")
    problem = _build_problem(kw)
    split = _split_config(kw)
    span = _main_span(problem.T, split)
    h = _parse_h(kw["h_text"]) if kw["h_text"] is not None else _step_for(span, kw["n"], "--n")
    tr = solve(problem, SolverConfig(h=h, split=split,
                                     **_method_settings(kw, problem.exact is not None)))
    # the exact solution can be costly (the Mittag-Leffler oracle): evaluate it
    # only when the CSV or max_error needs it
    exact = None
    if problem.exact is not None and (kw["output"] or tr.status == STATUS_OK):
        exact, errors = exact_errors(tr, problem.exact)

    if kw["output"]:
        times = [tr.grid.t(i) for i in range(tr.grid.count)]
        if exact is None:
            text = csv_text(("t", "x"), zip(times, tr.x))
        else:
            text = csv_text(("t", "x", "exact", "abs_error"), zip(times, tr.x, exact, errors))
        _emit(text, kw["output"])

    last = tr.grid.count - 1
    click.echo(f"t = {tr.grid.t(last):.17g}  x = {tr.x[last]:.17g}  status = {tr.status}")
    if exact is not None and tr.status == STATUS_OK:
        click.echo(f"max_error = {max(errors):.17g}")
    if tr.status != STATUS_OK:
        raise DivergenceError(f"solution magnitude passed the guard; "
                              f"trajectory truncated at {tr.grid.count} points")


@cli.command()
@_PROBLEM_OPTS
@click.option("--exact", help="exact solution (expression in t and alpha) for --rhs")
@click.option("--h-list", help='comma-separated step sizes ("1/10,1/20,1/40")')
@click.option("--n-list", help="comma-separated step counts (h = T/n)")
@_METHOD_OPTS
@_SPLIT_OPTS
@click.option("--method", type=click.Choice(["jpc", "adams"]), default="jpc",
              show_default=True)
@_REPORT_OPTS
@_CONFIG_OPT
def converge(**kw):
    """Step-size sweep: max errors and observed orders against the exact
    solution, table to stdout plus optional CSV/JSON export."""
    if (kw["h_list"] is None) == (kw["n_list"] is None):
        raise click.UsageError("give exactly one of --h-list or --n-list")
    problem = _build_problem(kw, need_exact=True)
    split = _split_config(kw)
    if kw["h_list"] is not None:
        hs = [_parse_h(tok) for tok in kw["h_list"].split(",")]
    else:
        span = _main_span(problem.T, split)
        try:
            hs = [_step_for(span, int(tok), "--n-list") for tok in kw["n_list"].split(",")]
        except ValueError:
            raise click.UsageError(f"bad --n-list {kw['n_list']!r}") from None
    report = run_convergence(problem, hs, method=kw["method"], split=split,
                             **_method_settings(kw, problem.exact is not None))
    click.echo(format_table(report))
    if kw["output"]:
        export(report, kw["fmt"], kw["output"])
    if any(row.status == STATUS_DIVERGED for row in report.rows):
        raise DivergenceError("at least one sweep cell hit the divergence guard")


@cli.command()
@click.option("--problem", type=click.Choice(problem_ids()), required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--h", "h_text", help='step size ("1/40" or "0.025")')
@click.option("--methods", default="jpc,adams", show_default=True)
@click.option("--t-list", default="0.5,1,2", show_default=True,
              help="comma-separated horizons")
@click.option("--target-error", type=float,
              help="instead of timing at --h, search for the smallest N "
                   "whose max error meets this bound, then time it")
@_METHOD_OPTS
@_REPORT_OPTS
@_CONFIG_OPT
def bench(**kw):
    """Wall time and f-value access counts per (method, horizon) cell."""
    methods = [tok.strip() for tok in kw["methods"].split(",") if tok.strip()]
    try:
        t_list = [float(tok) for tok in kw["t_list"].split(",")]
    except ValueError:
        raise click.UsageError(f"bad --t-list {kw['t_list']!r}") from None
    settings = _method_settings(kw, True)  # registry problems all have an exact solution
    if kw["target_error"] is not None:
        if kw["h_text"] is not None:
            raise click.UsageError("give --h or --target-error, not both: the search "
                                   "picks its own step")
        report = run_target(kw["problem"], kw["alpha"], kw["target_error"],
                            methods, t_list, **settings)
    else:
        if kw["h_text"] is None:
            raise click.UsageError("Missing option '--h' (or give --target-error).")
        report = run_timing(kw["problem"], kw["alpha"], _parse_h(kw["h_text"]),
                            methods, t_list, **settings)
    click.echo(format_table(report))
    if kw["output"]:
        export(report, kw["fmt"], kw["output"])


@cli.command()
@click.option("--alpha", type=float, required=True, help=f"order in [{MIN_ORDER}, 2]")
@click.option("--z", type=float, required=True, help="argument (must be <= 0)")
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True)
@_CONFIG_OPT
def mlf(**kw):
    """Evaluate the one-parameter relaxation special function at z <= 0."""
    click.echo(f"{mittag_leffler(kw['alpha'], kw['z'], kw['tol']):.17g}")


def main(argv=None):
    try:
        cli.main(args=argv, prog_name="jacobipc", standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except DivergenceError as exc:
        click.echo(f"diverged: {exc}", err=True)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

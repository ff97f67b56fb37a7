"""Running and checking one operation of each workload.

Each ``run_*`` function times only the call into the program; each
``check_*`` function runs afterwards, outside the timed region, and returns
a ``Check``.  A check that finds a wrong value sets ``wrong``; a command
that times out or exits non-zero is ``failed`` without being wrong.
"""

import dataclasses
import math
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

import mpmath as mp

from decks import MARCH_JN

# Stated march tolerance: error <= C[s] * N^-s + floor, about ten times the
# constants measured for poly8 on T = 1 (stencils 2..5, alpha 0.3..1.5).
MARCH_TOL_C = {2: 150.0, 3: 600.0, 4: 1500.0, 5: 4000.0}
MARCH_TOL_FLOOR = 1e-11
# criterion 07: relative error below 1e-3 everywhere on [t0, T]
RELAX_REL_TOL = 1e-3
# --rhs solves of the cubic (x = t^3) at T = 1: error <= 10 * N^-stencil
RHS_TOL_C = 10.0
MLF_TOL = 1e-9
QUAD_REL_TOL = 1e-12
TERM_GRACE_S = 3.0


@dataclass
class Check:
    ok: bool
    error: float = 0.0
    wrong: bool = False
    record: tuple = ()
    note: str = ""


@dataclass
class Outcome:
    """One attempted operation: latency, steps marched and its check."""

    op: dict
    latency: float
    steps: int
    check: Check

    @property
    def failed(self):
        return not self.check.ok


def march_tol(size, n):
    return MARCH_TOL_C[size] * float(n) ** -size + MARCH_TOL_FLOOR


def poly8_exact(t):
    return t**8 + 3.0 * t**7


def ml_reference(alpha, x):
    """E_alpha(-x) for 0 < alpha < 1 from its Laplace-type integral, in mpmath.

    E_a(-s^a) = (sin(a pi)/pi) int_0^inf exp(-r s) r^(a-1) / (r^2a + 2 r^a cos(a pi) + 1) dr,
    written with u = r^a so the integrand is smooth at the origin.  This is
    independent of the program's series / asymptotic regimes.
    """
    if x == 0.0:
        return 1.0
    with mp.workdps(30):
        a = mp.mpf(alpha)
        s = mp.mpf(x) ** (1 / a)
        c = mp.cos(a * mp.pi)

        def integrand(u):
            return mp.exp(-(u ** (1 / a)) * s) / (u * u + 2 * u * c + 1) / a

        return float(mp.sin(a * mp.pi) / mp.pi * mp.quad(integrand, [0, 1, mp.inf]))


def counters_tuple(counters):
    return tuple(dataclasses.astuple(counters))


# ---------------------------------------------------------------- march


def run_march(op, jp, wrap_problem=None):
    problem = jp.problems.make_problem("poly8", op["alpha"], 1.0)
    if wrap_problem is not None:
        problem = wrap_problem(problem)
    cfg = jp.solver.SolverConfig(h=1.0 / op["n"], stencil_size=op["stencil"],
                                 jn=MARCH_JN,
                                 starter=jp.adams.StarterConfig(mode=jp.adams.EXACT))
    begin = time.perf_counter()
    tr = jp.solver.solve(problem, cfg)
    return time.perf_counter() - begin, op["n"], tr


def check_march(op, tr, jp):
    n, size = op["n"], op["stencil"]
    record = (tr.x[-1].hex(), counters_tuple(tr.counters))
    if tr.status != jp.trajectory.STATUS_OK or tr.grid.count != n + 1:
        return Check(False, math.inf, True, record, f"status {tr.status}")
    err = max(abs(tr.x[i] - poly8_exact(i / n)) for i in range(n + 1))
    tol = march_tol(size, n)
    ok = err <= tol
    return Check(ok, err, not ok, record, "" if ok else f"error {err:.3e} > {tol:.3e}")


# ---------------------------------------------------------------- relax


def relax_split(op, jp):
    return jp.solver.SplitConfig(t0=op["t0"], aux_jn=op["aux_jn"],
                                 fine_factor=op["fine_factor"])


def run_relax(op, jp, workdir, wrap_problem=None):
    """run_convergence, then export to JSON and CSV and load both back.

    The oracle values the program computes are recorded as they pass, so
    the check can reuse them instead of evaluating the oracle twice.
    """
    base = jp.problems.make_problem("ml_linear", op["alpha"], op["t_end"])
    seen = {}
    oracle = base.exact

    def recording_exact(t):
        value = oracle(t)
        seen[t] = value
        return value

    problem = dataclasses.replace(base, exact=recording_exact)
    if wrap_problem is not None:
        problem = wrap_problem(problem)
    reports = jp.reports
    json_path = os.path.join(workdir, "relax.json")
    csv_path = os.path.join(workdir, "relax.csv")
    begin = time.perf_counter()
    report = reports.run_convergence(
        problem, op["h_list"], stencil_size=op["stencil"], jn=op["jn"],
        starter=jp.adams.StarterConfig(mode=jp.adams.EXACT),
        split=relax_split(op, jp))
    reports.export(report, "json", json_path)
    reports.export(report, "csv", csv_path)
    from_json = reports.load(json_path)
    from_csv = reports.load(csv_path)
    elapsed = time.perf_counter() - begin
    span = op["t_end"] - op["t0"]
    steps = sum(round(span / h) for h in op["h_list"])
    return elapsed, steps, (base, seen, report, from_json, from_csv)


def check_relax(op, result, jp):
    base, seen, report, from_json, from_csv = result
    record = []
    notes = []
    if from_json != report:
        notes.append("JSON round trip differs")
    csv_rows = [(r.h, r.max_error, r.observed_order, r.status) for r in from_csv.rows]
    rows = [(r.h, float(r.max_error), r.observed_order, r.status) for r in report.rows]
    if csv_rows != rows:
        notes.append("CSV round trip differs")
    hs = sorted(op["h_list"], reverse=True)
    if [r.h for r in report.rows] != hs:
        notes.append("report rows do not match the step list")
        return Check(False, math.inf, True, tuple(record), "; ".join(notes))

    def exact(t):
        value = seen.get(t)
        return base.exact(t) if value is None else value

    worst_rel = 0.0
    for row, h in zip(report.rows, hs):
        cfg = jp.solver.SolverConfig(
            h=h, stencil_size=op["stencil"], jn=op["jn"],
            starter=jp.adams.StarterConfig(mode=jp.adams.EXACT), split=relax_split(op, jp))
        tr = jp.solver.solve(base, cfg)
        abs_err, rel_err = 0.0, 0.0
        for i in range(tr.grid.count):
            ex = exact(tr.grid.t(i))
            d = abs(tr.x[i] - ex)
            abs_err = max(abs_err, d)
            rel_err = max(rel_err, d / abs(ex))
        record.append((float(row.max_error).hex(), tr.x[-1].hex(),
                       counters_tuple(tr.counters)))
        if tr.status != jp.trajectory.STATUS_OK:
            notes.append(f"h={h}: status {tr.status}")
        if not math.isclose(abs_err, float(row.max_error), rel_tol=1e-12, abs_tol=0.0):
            notes.append(f"h={h}: report error {row.max_error!r} != {abs_err!r}")
        if h == hs[-1]:
            worst_rel = rel_err
    if worst_rel >= RELAX_REL_TOL:
        notes.append(f"relative error {worst_rel:.3e} >= {RELAX_REL_TOL}")
    ok = not notes
    return Check(ok, worst_rel, not ok, tuple(record), "; ".join(notes))


# ---------------------------------------------------------------- cli


@dataclass
class ChildResult:
    latency: float
    returncode: int
    timed_out: bool
    stdout: str
    stderr: str
    maxrss_kb: int


def run_child(argv, env, cwd, timeout, out_path, err_path, term_first=False):
    """Run one child process and reap it with wait4 to get its own rusage.

    Past ``timeout`` the child is killed (after SIGTERM and a grace period
    when ``term_first``, so a traced child can write its spans), and always
    reaped before returning.
    """
    state = {}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        begin = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            state["end"] = time.perf_counter()
            state["status"] = status
            state["usage"] = usage

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        try:
            waiter.join(timeout)
            timed_out = waiter.is_alive()
            if timed_out and term_first:
                os.kill(proc.pid, signal.SIGTERM)
                waiter.join(TERM_GRACE_S)
        finally:  # never leave the child running, also when interrupted
            if waiter.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
            waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(state["status"])
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildResult(state["end"] - begin, proc.returncode, timed_out, stdout,
                       stderr, state["usage"].ru_maxrss)


def cli_steps(op):
    if op["kind"] in ("rhs", "poly8", "roadmap4"):
        return op["n"]
    if op["kind"] == "converge":
        return sum(op["n_list"])
    return 0


def cli_args(op, out_csv):
    return [a.replace("{out}", out_csv) for a in op["args"]]


def _endpoint(stdout):
    """x from the solve line 't = ...  x = ...  status = ...'."""
    for line in stdout.splitlines():
        if line.startswith("t = ") and " x = " in line:
            return float(line.split(" x = ")[1].split()[0])
    raise ValueError("no endpoint line")


def _max_error_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("max_error = "):
            return float(line.split("=")[1])
    raise ValueError("no max_error line")


def check_cli(op, child, out_csv):
    """Exit code 0, then the printed values against closed forms."""
    if child.timed_out:
        return Check(False, note=f"timed out after {child.latency:.1f} s")
    if child.returncode != 0:
        return Check(False, note=f"exit code {child.returncode}: {child.stderr.strip()[-200:]}")
    try:
        return _check_cli_output(op, child.stdout, out_csv)
    except (ValueError, IndexError, OSError) as exc:
        return Check(False, math.inf, True, (child.stdout,), f"unparsable output: {exc}")


def _verdict(err, tol, record, what):
    ok = err <= tol
    return Check(ok, err, not ok, record, "" if ok else f"{what} error {err:.3e} > {tol:.3e}")


def _check_cli_output(op, stdout, out_csv):
    kind = op["kind"]
    if kind in ("rhs", "roadmap4"):
        x = _endpoint(stdout)
        record = (x.hex(),)
        if kind == "rhs":
            ref, tol = 1.0, RHS_TOL_C * float(op["n"]) ** -op["stencil"]
            with open(out_csv) as fh:
                lines = fh.read().split()
            last = lines[-1].split(",")
            if len(lines) != op["n"] + 2 or float(last[0]) != 1.0 or float(last[1]) != x:
                return Check(False, math.inf, True, record, "CSV output does not match")
        else:
            ref, tol = ml_reference(op["alpha"], 1.0), 1e-3
        return _verdict(abs(x - ref), tol, record, "endpoint")
    if kind == "poly8":
        x = _endpoint(stdout)
        err = _max_error_line(stdout)
        tol = march_tol(op["stencil"], op["n"])
        if abs(x - poly8_exact(1.0)) > err:
            return Check(False, math.inf, True, (x.hex(),), "endpoint error exceeds max_error")
        return _verdict(err, tol, (x.hex(), err.hex()), "max")
    if kind == "converge":
        rows = [line.split() for line in stdout.splitlines()[1:] if line.strip()]
        errors = [float(r[1]) for r in rows]
        record = tuple(e.hex() for e in errors)
        if len(rows) != len(op["n_list"]) or any(r[-1] != "ok" for r in rows):
            return Check(False, math.inf, True, record, "unexpected sweep rows")
        bad = [n for e, n in zip(errors, op["n_list"]) if e > march_tol(op["stencil"], n)]
        ok = not bad
        return Check(ok, max(errors), not ok, record, "" if ok else f"sweep error at N={bad}")
    if kind == "quad":
        pairs = [tuple(map(float, line.split(","))) for line in stdout.split()[1:]]
        a = op["jacobi_a"]
        mass = 2.0 ** (a + 1.0) / (a + 1.0)
        total = math.fsum(w for _, w in pairs)
        if len(pairs) != op["points"] or pairs[0][0] != -1.0 or pairs[-1][0] != 1.0:
            return Check(False, math.inf, True, (), "rule shape is wrong")
        return _verdict(abs(total - mass) / mass, QUAD_REL_TOL, (total.hex(),), "mass")
    if kind == "mlf":
        value = float(stdout.strip())
        ref = ml_reference(op["alpha"], -op["z"])
        return _verdict(abs(value - ref), MLF_TOL, (value.hex(),), "value")
    raise ValueError(f"unknown cli operation {kind!r}")

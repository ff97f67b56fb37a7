"""In-memory spans around the calls into each layer, and per-layer metrics.

Wrappers are installed at the names where each layer looks its callee up
(``solver.kernels.weighted_interp_sum``, ``split.adams_solve``,
``reports.solve`` ...), so the program itself is unchanged.  A span holds a
name, start, end, parent span and operation id; self time is a span's
duration minus the time its direct child spans cover.

numpy is imported only where metrics are computed, so that in the CLI shim
the ``cli.import`` span covers the program's own import of numpy.
"""

import dataclasses
import json
import math
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"
# layers whose self time is reported as a share of operation time
LAYERS = ("bench", "solver", "kernels", "problems", "expr", "quadrature", "adams",
          "split", "interp", "mittag", "reports", "cli")
# work inside a solve that is not marching: starter, rules, head stencils, oracle
NOT_MARCH = ("adams", "quadrature", "interp", "mittag")


class SpanLog:
    """Spans in flat arrays: one Python call per begin/finish, no objects."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs = {}
        self.stack = []
        self.current_op = -1

    def name_index(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid):
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(math.nan)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        i = self.begin(self.name_index(name))
        try:
            yield i
        finally:
            self.finish(i)

    def __len__(self):
        return len(self.name_id)

    def to_json(self):
        return {"names": self.names, "name_id": self.name_id.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(),
                "attrs": [[i, v] for i, v in self.attrs.items()]}

    def merge(self, data, parent):
        """Append a child process's spans below span ``parent`` of this log."""
        base = len(self)
        remap = [self.name_index(n) for n in data["names"]]
        for nid, par, start, end in zip(data["name_id"], data["parent"],
                                        data["start"], data["end"]):
            self.name_id.append(remap[nid])
            self.parent.append(parent if par < 0 else base + par)
            self.op.append(self.current_op)
            self.start.append(start)
            self.end.append(end if end == end else start)
        for i, value in data["attrs"]:
            self.attrs[base + i] = value if not isinstance(value, list) else tuple(value)

    def save(self, path):
        import numpy as np

        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 parent=np.array(self.parent), op=np.array(self.op),
                 start=np.array(self.start), end=np.array(self.end))


def wrap(log, name, fn, before=None, after=None):
    """``fn`` recorded as a span; hooks may attach attributes to the span.

    ``before(i, args, kwargs)`` runs inside the span before the call (so it
    is recorded even if the process is stopped mid-call); ``after(i, args,
    kwargs, result)`` runs after the span ends and returns the result to
    hand back to the caller.
    """
    nid = log.name_index(name)
    begin, finish = log.begin, log.finish

    def traced(*args, **kwargs):
        i = begin(nid)
        try:
            if before is not None:
                before(i, args, kwargs)
            result = fn(*args, **kwargs)
        finally:
            finish(i)
        if after is not None:
            result = after(i, args, kwargs, result)
        return result

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


class Tracer:
    """Installs the layer wrappers into the imported jacobipc modules."""

    def __init__(self, log, jp, cli=None):
        self.log = log
        self.jp = jp
        self.cli = cli
        self._saved = []
        self._rules = {}
        self._z_switch = getattr(jp.mittag, "z_switch", None)

    # -- hooks ------------------------------------------------------------
    def _rule(self, i, args, kwargs, rule):
        self.log.attrs[i] = int(id(rule) not in self._rules)
        self._rules[id(rule)] = rule
        return rule

    def _solved(self, i, args, kwargs, tr):
        c = tr.counters
        self.log.attrs[i] = (tr.grid.count - 1, c.interp_evals, c.value_reads)
        return tr

    def _starter(self, i, args, kwargs):
        problem, h, size, cfg = args[:4]
        if cfg.mode == self.jp.adams.REFINED_ADAMS:
            k = cfg.k
            if k is None:
                k = self.jp.adams.recommended_refinement(problem.alpha, h, size)
            self.log.attrs[i] = (k, (size - 1) * 10**k)

    def _adams_before(self, i, args, kwargs):
        self.log.attrs[i] = (args[2] if len(args) > 2 else kwargs["n_steps"], 0)

    def _adams_after(self, i, args, kwargs, tr):
        self.log.attrs[i] = (self.log.attrs[i][0], tr.counters.history_reads)
        return tr

    def _mlf(self, i, args, kwargs, value):
        alpha, z = args[0], args[1]
        if self._z_switch is not None and alpha not in (1.0, 2.0) and z < 0.0:
            self.log.attrs[i] = int(-z >= self._z_switch(alpha))
        else:
            self.log.attrs[i] = 0
        return value

    def _exported(self, i, args, kwargs, result):
        path = args[2] if len(args) > 2 else kwargs["path"]
        self.log.attrs[i] = os.path.getsize(path)
        return result

    def _problem(self, i, args, kwargs, problem):
        return self.wrap_problem(problem)

    def _compiled(self, i, args, kwargs, rhs):
        traced = wrap(self.log, "expr.rhs", rhs)
        traced.source = getattr(rhs, "source", None)
        return traced

    # -- installation -----------------------------------------------------
    def wrap_problem(self, problem):
        exact = problem.exact
        return dataclasses.replace(
            problem, rhs=wrap(self.log, "problems.rhs", problem.rhs),
            exact=None if exact is None else wrap(self.log, "problems.exact", exact))

    def _patch(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr, None)
        if original is None:  # renamed or removed by a refactor: not traced
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, wrap(self.log, name, original, before, after))

    def install(self):
        jp, cli = self.jp, self.cli
        kernels = jp.solver.kernels
        for mod in (jp.solver, jp.split) + ((cli,) if cli else ()):
            self._patch(mod, "gauss_lobatto_rule", "quadrature.gauss_lobatto_rule",
                        after=self._rule)
        for mod in (jp.solver, jp.reports) + ((cli,) if cli else ()):
            self._patch(mod, "solve", "solver.solve", after=self._solved)
        self._patch(jp.split, "solve_split", "split.solve_split")
        self._patch(jp.solver, "start_values", "adams.start_values", before=self._starter)
        for mod in (jp.adams, jp.split, jp.reports):
            self._patch(mod, "adams_solve", "adams.adams_solve",
                        before=self._adams_before, after=self._adams_after)
        self._patch(kernels, "weighted_interp_sum", "kernels.weighted_interp_sum")
        self._patch(kernels, "adams_step_sums", "kernels.adams_step_sums")
        for attr in ("select_stencil", "lagrange_eval", "map_node"):
            self._patch(jp.split, attr, "interp." + attr)
        self._patch(jp.solver, "uniform_bary_weights", "interp.uniform_bary_weights")
        for mod in (jp.mittag,) + ((cli,) if cli else ()):
            self._patch(mod, "mittag_leffler", "mittag.mittag_leffler", after=self._mlf)
        self._patch(jp.mittag, "z_switch", "mittag.z_switch")
        for mod in (jp.reports,) + ((cli,) if cli else ()):
            self._patch(mod, "run_convergence", "reports.run_convergence")
            self._patch(mod, "export", "reports.export", after=self._exported)
        self._patch(jp.reports, "load", "reports.load")
        if cli:
            self._patch(cli, "make_problem", "problems.make_problem", after=self._problem)
            self._patch(cli, "compile_rhs", "expr.compile_rhs", after=self._compiled)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def paused(self):
        self.uninstall()
        try:
            yield
        finally:
            self.install()


# ------------------------------------------------------------------ metrics


def layer_metrics(log, output_bytes=0):
    """Per-layer metrics from the spans of a traced run (see README)."""
    import numpy as np

    n = len(log)
    names = log.names
    nid = np.frombuffer(log.name_id, dtype=np.int32) if n else np.zeros(0, np.int32)
    parent = np.frombuffer(log.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
    op = np.frombuffer(log.op, dtype=np.int32) if n else np.zeros(0, np.int32)
    start = np.frombuffer(log.start) if n else np.zeros(0)
    end = np.frombuffer(log.end) if n else np.zeros(0)
    dur, self_t = self_times(parent, start, end)
    layer_of = np.array([nm.split(".")[0] for nm in names] or [""])
    span_layer = layer_of[nid] if n else np.zeros(0, dtype=layer_of.dtype)

    def mask(name):
        idx = log._ids.get(name)
        return nid == idx if idx is not None else np.zeros(n, dtype=bool)

    def attrs(m):
        return [log.attrs[i] for i in np.flatnonzero(m) if i in log.attrs]

    in_op = op >= 0
    op_m = mask(OP_SPAN)
    op_total = float(dur[op_m].sum())

    def share(x):
        return x / op_total if op_total > 0 else 0.0

    def per(total, count, scale=1.0):
        return total * scale / count if count else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    quad = mask("quadrature.gauss_lobatto_rule")
    built = np.array([bool(log.attrs.get(i, 0)) for i in np.flatnonzero(quad)], dtype=bool)
    calls = int(quad.sum())
    put("quadrature.rule_calls", calls, "count")
    put("quadrature.rule_builds", int(built.sum()), "count")
    put("quadrature.hit_ratio", per(calls - int(built.sum()), calls), "1")
    put("quadrature.build_s", dur[np.flatnonzero(quad)[built]].sum() if calls else 0.0, "s")

    solve = mask("solver.solve")
    solved = attrs(solve)
    steps = sum(a[0] for a in solved)
    march = _march_seconds(log, solve, dur, parent)
    put("solver.march_s", march, "s")
    put("solver.steps", steps, "count")
    put("solver.us_per_step", per(march, steps, 1e6), "us")

    kern = span_layer == "kernels"
    put("kernels.calls", int(kern.sum()), "count")
    put("kernels.us_per_call", per(dur[kern].sum(), int(kern.sum()), 1e6), "us")
    put("kernels.interp_evals_per_step", per(sum(a[1] for a in solved), steps), "count")
    put("kernels.value_reads_per_step", per(sum(a[2] for a in solved), steps), "count")

    rhs = mask("problems.rhs")
    put("problems.rhs_calls", int(rhs.sum()), "count")
    put("problems.rhs_s", dur[rhs].sum(), "s")

    ev = mask("expr.rhs")
    put("expr.compile_s", dur[mask("expr.compile_rhs")].sum(), "s")
    put("expr.eval_calls", int(ev.sum()), "count")
    put("expr.eval_us_per_call", per(dur[ev].sum(), int(ev.sum()), 1e6), "us")

    ad = mask("adams.adams_solve")
    ad_attrs = attrs(ad)
    put("adams.solve_calls", int(ad.sum()), "count")
    put("adams.steps", sum(a[0] for a in ad_attrs), "count")
    put("adams.s", dur[ad].sum(), "s")
    put("adams.history_reads", sum(a[1] for a in ad_attrs), "count")
    st = mask("adams.start_values")
    st_attrs = attrs(st)
    put("adams.starter_k", max((a[0] for a in st_attrs), default=0), "count")
    put("adams.starter_fine_steps", sum(a[1] for a in st_attrs), "count")
    put("adams.starter_share", share(dur[st & in_op].sum()), "1")

    put("split.self_s", self_t[mask("split.solve_split")].sum(), "s")
    ip = span_layer == "interp"
    put("interp.calls", int(ip.sum()), "count")
    put("interp.s", dur[ip].sum(), "s")

    ml = mask("mittag.mittag_leffler")
    ml_calls = int(ml.sum())
    put("mittag.calls", ml_calls, "count")
    put("mittag.us_per_call", per(dur[ml].sum(), ml_calls, 1e6), "us")
    put("mittag.z_switch_s", dur[mask("mittag.z_switch")].sum(), "s")
    put("mittag.asymptotic_share", per(sum(attrs(ml)), ml_calls), "1")

    put("reports.self_s", self_t[mask("reports.run_convergence")].sum(), "s")
    ex = mask("reports.export")
    put("reports.export_s", dur[ex].sum(), "s")
    put("reports.load_s", dur[mask("reports.load")].sum(), "s")
    put("reports.bytes", sum(attrs(ex)), "B")

    put("cli.import_s", dur[mask("cli.import")].sum(), "s")
    put("cli.self_s", self_t[mask("cli.main")].sum(), "s")
    put("cli.output_bytes", output_bytes, "B")

    for layer in LAYERS:
        m = (span_layer == layer) & in_op
        put(f"{layer}.self_share", share(self_t[m].sum()), "1")
    put("trace.spans", n, "count")
    put("trace.op_s", op_total, "s")
    return out


def self_times(parent, start, end):
    """(duration, self time) per span; self time excludes direct children."""
    import numpy as np

    dur = np.where(np.isnan(end), 0.0, end - start)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur, dur - covered


def _march_seconds(log, solve, dur, parent):
    """Time inside solve calls that is not starter, rules, head stencils or oracle.

    A span's owner is its nearest enclosing solve or excluded span; each
    topmost excluded span under a solve is subtracted from that solve.
    """
    import numpy as np

    idx = np.flatnonzero(solve)
    if idx.size == 0:
        return 0.0
    by_name = np.array([nm.split(".")[0] in NOT_MARCH or nm == "problems.exact"
                        for nm in log.names])
    excluded = by_name[np.frombuffer(log.name_id, dtype=np.int32)]
    marker = (solve | excluded).tolist()
    excluded = excluded.tolist()
    dur_list = dur.tolist()
    is_solve = solve.tolist()
    par = parent.tolist()
    owner = [-1] * len(par)
    drop = 0.0
    for i, p in enumerate(par):
        up = owner[p] if p >= 0 else -1
        if marker[i]:
            owner[i] = i
            if excluded[i] and up >= 0 and is_solve[up]:
                drop += dur_list[i]
        else:
            owner[i] = up
    return float(dur[idx].sum() - drop)


def dump(log, path):
    with open(path, "w") as fh:
        json.dump(log.to_json(), fh)

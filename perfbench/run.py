"""Benchmark of the jacobipc package: workloads march, relax and cli.

  python3 perfbench/run.py --workload march --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src`` as
is (no extension is built).  One closed-loop client runs whole blocks of
seeded operations until ``--seconds`` have passed, checks every result
outside the timed region, and prints a table followed by one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics from a traced run
with ``--trace 1``.  See perfbench/README.md for the metrics.
"""

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7

import decks  # noqa: E402
import ops  # noqa: E402
import summary  # noqa: E402
from spans import OP_SPAN, SETUP_SPAN, SpanLog, Tracer, layer_metrics  # noqa: E402


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(pure=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if pure is True:
        env["JACOBIPC_PURE"] = "1"
    elif pure is False:
        env.pop("JACOBIPC_PURE", None)
    return env


def run_child_json(args, env=None, timeout=120):
    out = subprocess.run([sys.executable, str(HERE / "child.py")] + args,
                         env=env or child_env(), capture_output=True, text=True,
                         timeout=timeout, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def git_revision():
    if shutil.which("git") is None:
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def provenance(jp, args):
    return {
        "backend": "compiled" if jp.package.USING_COMPILED else "pure",
        "jacobipc_file": os.path.relpath(jp.package.__file__, ROOT),
        "python": platform.python_version(),
        "numpy": version("numpy"), "mpmath": version("mpmath"), "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_revision": git_revision(), "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "parameters": decks.parameters(args.workload),
    }


# ------------------------------------------------------------------ client


class Client:
    """One closed-loop client: the next operation starts when the last ends."""

    def __init__(self, workload, jp, workdir, tracer=None):
        self.workload = workload
        self.jp = jp
        self.workdir = str(workdir)
        self.tracer = tracer
        self.log = tracer.log if tracer else None
        self.env = child_env()
        self.rss_kb = 0
        self.output_bytes = 0

    def loop(self, gen, seconds=None, n_blocks=None):
        """Run whole blocks from ``gen`` until ``seconds`` pass (or ``n_blocks`` are done)."""
        outcomes, done = [], 0
        begin = time.perf_counter()
        while True:
            if n_blocks is not None and done >= n_blocks:
                break
            if n_blocks is None and done and time.perf_counter() - begin >= seconds:
                break
            for op in next(gen):
                outcomes.append(self.one(op, len(outcomes)))
            done += 1
        return outcomes, done

    def one(self, op, index):
        if self.log is not None:
            self.log.current_op = index
            op_span = self.log.begin(self.log.name_index(OP_SPAN))
        try:
            if self.workload == "march":
                latency, steps, result = ops.run_march(op, self.jp, self._wrap_problem())
            elif self.workload == "relax":
                latency, steps, result = ops.run_relax(op, self.jp, self.workdir,
                                                       self._wrap_problem())
            else:
                latency, steps, result = self._cli(op)
        finally:
            if self.log is not None:
                self.log.finish(op_span)
                self.log.current_op = -1
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            check = self._check(op, result)
        return ops.Outcome(op, latency, steps, check)

    def _wrap_problem(self):
        return self.tracer.wrap_problem if self.tracer else None

    def _check(self, op, result):
        if self.workload == "march":
            return ops.check_march(op, result, self.jp)
        if self.workload == "relax":
            return ops.check_relax(op, result, self.jp)
        child, out_csv = result
        return ops.check_cli(op, child, out_csv)

    def _cli(self, op):
        wd = self.workdir
        out_csv = os.path.join(wd, "cli-output.csv")
        if os.path.exists(out_csv):
            os.remove(out_csv)
        args = ops.cli_args(op, out_csv)
        spans_path = os.path.join(wd, "cli-spans.json")
        if self.log is not None:
            argv = [sys.executable, str(HERE / "child.py"), "cli-shim", spans_path, "--"] + args
        else:
            argv = [sys.executable, "-m", "jacobipc.cli"] + args
        child = ops.run_child(argv, self.env, wd, decks.CLI_TIMEOUT_S,
                              os.path.join(wd, "cli-stdout.txt"),
                              os.path.join(wd, "cli-stderr.txt"),
                              term_first=self.log is not None)
        self.rss_kb = max(self.rss_kb, child.maxrss_kb)
        if self.log is not None:
            if os.path.exists(spans_path):  # absent only if the shim was killed
                with open(spans_path) as fh:
                    self.log.merge(json.load(fh), parent=self.log.stack[-1])
                os.remove(spans_path)
            self.output_bytes += len(child.stdout.encode())
            if os.path.exists(out_csv):
                self.output_bytes += os.path.getsize(out_csv)
        return child.latency, ops.cli_steps(op), (child, out_csv)


# ------------------------------------------------------------------ metrics


def end_to_end(outcomes, setup_samples, rss_mb):
    latencies = [o.latency for o in outcomes]
    completed = [o for o in outcomes if not o.failed]
    tail_value, tail_pct, tail_n = summary.tail(latencies)
    # a wrong result may carry an infinite error; it shows in `correct` instead
    checked = [o.check.error for o in outcomes
               if (o.check.ok or o.check.wrong) and math.isfinite(o.check.error)]
    metrics = {
        "setup_s": (summary.median(setup_samples), "s"),
        "op_p50_s": (summary.median(latencies), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (len(completed) / sum(latencies), "1/s"),
        "steps_per_s": (sum(o.steps for o in completed) / sum(latencies), "1/s"),
        "max_error": (max(checked, default=0.0), "1"),
        "success_ratio": (len(completed) / len(outcomes), "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {"op_tail_s": f"p{tail_pct:.1f} of {tail_n} samples",
             "success_ratio": f"failed_ratio {1 - len(completed) / len(outcomes):.4f} "
                              f"({len(outcomes) - len(completed)} of {len(outcomes)})",
             "setup_s": f"median of {len(setup_samples)} fresh interpreters"}
    return metrics, notes


def print_table(metrics, notes):
    print(f"{'metric':<34} {'value':>16}  unit")
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<34} {value:>16.6g}  {unit}{extra}")


def first_block_digest(outcomes, block_len):
    records = [(o.op.get("kind"), o.check.record) for o in outcomes[:block_len]]
    return summary.digest(records), len(records)


# ------------------------------------------------------------------ main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=decks.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "jacobipc" / "__init__.py").is_file():
        return fail(f"no program source at {SRC / 'jacobipc'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    from child import Modules, warm_up

    jp = Modules()
    if Path(jp.package.__file__).resolve().parent != (SRC / "jacobipc").resolve():
        return fail(f"imported jacobipc from {jp.package.__file__}, not from {SRC}")

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_samples = [run_child_json(["setup", args.workload])["setup_s"]
                     for _ in range(SETUP_REPEATS)]
    prov = provenance(jp, args)

    # backend parity: the first march operation of this seed, pure vs default
    parity_op = next(decks.blocks("march", args.seed))[0]
    pure = run_child_json(["parity", json.dumps(parity_op)], child_env(pure=True))
    default = run_child_json(["parity", json.dumps(parity_op)], child_env(pure=False))
    parity_ok = pure["endpoint"] == default["endpoint"] and pure["counters"] == default["counters"]
    prov["parity"] = {"op": parity_op, "pure": pure, "default": default, "ok": parity_ok}

    block_len = len(next(decks.blocks(args.workload, args.seed)))
    result = {"provenance": prov}
    if args.trace == 0:
        warm_up(args.workload, jp)
        client = Client(args.workload, jp, workdir)
        outcomes, _ = client.loop(decks.blocks(args.workload, args.seed),
                                  seconds=args.seconds)
        if args.workload == "cli":
            rss_mb = client.rss_kb / 1024.0
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, notes = end_to_end(outcomes, setup_samples, rss_mb)
    else:
        log = SpanLog()
        tracer = Tracer(log, jp)
        tracer.install()
        with log.span(SETUP_SPAN):  # warm-up builds count, outside any operation
            warm_up(args.workload, jp)
        tracer.uninstall()
        # One block stream for both passes, so the traced pass meets fresh
        # inputs (relax builds its rules cold) with the same block layout.
        gen = decks.blocks(args.workload, args.seed)
        plain = Client(args.workload, jp, workdir)
        base_outcomes, n_blocks = plain.loop(gen, seconds=args.seconds / 2)
        tracer.install()
        try:
            traced = Client(args.workload, jp, workdir, tracer)
            outcomes, _ = traced.loop(gen, n_blocks=n_blocks)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(log, traced.output_bytes)
        untraced_p50 = summary.median([o.latency for o in base_outcomes])
        traced_p50 = summary.median([o.latency for o in outcomes])
        metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
        notes = {"trace.overhead_s": f"traced op_p50 {traced_p50:.6g} s - untraced "
                                     f"{untraced_p50:.6g} s over {n_blocks} blocks"}
        outcomes = base_outcomes + outcomes
        log.save(workdir / "spans.npz")

    wrong = [o for o in outcomes if o.check.wrong]
    failed = [o for o in outcomes if o.failed]
    digest, digest_n = first_block_digest(outcomes, block_len)
    result.update({
        "digest": {"sha256": digest, "ops": digest_n},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "failures": [{"op": o.op, "note": o.check.note, "latency": o.latency}
                     for o in failed][:50],
        "ops": [[o.op.get("kind"), round(o.latency, 6), o.steps, o.check.ok, o.check.error]
                for o in outcomes],
    })
    with open(workdir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {prov['backend']}  ops {len(outcomes)}  failed {len(failed)}  "
          f"wrong {len(wrong)}")
    print_table(metrics, notes)
    for o in failed[:5]:
        print(f"failed: {o.op.get('kind')} {o.check.note}")
    print(f"parity: {'ok' if parity_ok else 'MISMATCH'} "
          f"(pure {pure['backend']}, default {default['backend']})")
    print(f"digest: sha256:{digest} over the first {digest_n} operations")
    print("provenance: " + json.dumps(prov, default=str))
    print(json.dumps({
        "correct": not wrong and parity_ok,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

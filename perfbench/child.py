"""Child-process entry points of the benchmark.

  python3 perfbench/child.py setup WORKLOAD       time import plus warm-up
  python3 perfbench/child.py parity OP_JSON       one march operation, as hex
  python3 perfbench/child.py cli-shim SPANS -- ARGS...
      run ``jacobipc.cli.main(ARGS)`` with the layer wrappers installed and
      write the spans to SPANS when it ends, also when stopped by SIGTERM

The parent puts the checkout's ``src`` first on PYTHONPATH.
"""

import json
import signal
import sys
import time


class Modules:
    """The jacobipc modules the benchmark calls or wraps."""

    def __init__(self):
        import jacobipc
        from jacobipc import (adams, expr, mittag, problems, quadrature, reports,
                              solver, split, trajectory)

        self.package = jacobipc
        self.adams = adams
        self.expr = expr
        self.mittag = mittag
        self.problems = problems
        self.quadrature = quadrature
        self.reports = reports
        self.solver = solver
        self.split = split
        self.trajectory = trajectory


def warm_up(workload, jp):
    """What a workload builds once and reuses: the rules its operations hit."""
    from decks import MARCH_ALPHAS, MARCH_JN, RELAX_CELL

    if workload == "march":
        for alpha in MARCH_ALPHAS:
            jp.solver.quadrature_for(alpha, MARCH_JN)
    elif workload == "relax":
        aux = jp.quadrature.JacobiWeight(0.0, 0.0)
        jp.quadrature.gauss_lobatto_rule(aux, RELAX_CELL["aux_jn"] + 1)


def setup(workload):
    begin = time.perf_counter()
    if workload == "cli":
        import jacobipc.cli  # noqa: F401  (what every CLI command pays first)
    else:
        warm_up(workload, Modules())
    return {"setup_s": time.perf_counter() - begin}


def parity(op):
    import ops

    jp = Modules()
    _, _, tr = ops.run_march(op, jp)
    return {"backend": "compiled" if jp.package.USING_COMPILED else "pure",
            "endpoint": tr.x[-1].hex(), "counters": ops.counters_tuple(tr.counters)}


def cli_shim(spans_path, argv):
    from spans import SpanLog, Tracer, dump

    log = SpanLog()
    code = 1

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        with log.span("cli.import"):
            import jacobipc.cli as cli

            jp = Modules()
        Tracer(log, jp, cli).install()
        with log.span("cli.main"):
            code = cli.main(argv)
    finally:
        dump(log, spans_path)
    return code


def main(argv):
    mode = argv[0]
    if mode == "setup":
        print(json.dumps(setup(argv[1])))
        return 0
    if mode == "parity":
        print(json.dumps(parity(json.loads(argv[1]))))
        return 0
    if mode == "cli-shim":
        if argv[2] != "--":
            raise SystemExit("usage: child.py cli-shim SPANS -- ARGS...")
        return cli_shim(argv[1], argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

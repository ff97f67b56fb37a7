"""Compare the compiled kernel extension against the pure-Python fallback.

The backend is fixed at import time, so each measurement runs in a child
interpreter: once as-is (compiled extension if built) and once with
JACOBIPC_PURE=1.  Endpoints must agree bit-for-bit; the table reports wall
times and the speedup.

The compiled row needs the extension built next to the sources:

    python setup.py build_ext --inplace
    python benchmarks/bench_backends.py [--steps N]

Without it both rows run the pure kernels (the script says so).
"""

import argparse
import json
import os
import subprocess
import sys
import time


def worker(n_steps):
    import jacobipc

    problem = jacobipc.make_problem("poly8", 0.5, 1.0)
    cfg = jacobipc.SolverConfig(h=1.0 / n_steps)
    jacobipc.quadrature_for(0.5, cfg.jn)  # rule table is cached; time marching
    begin = time.perf_counter()
    tr = jacobipc.solve(problem, cfg)
    wall = time.perf_counter() - begin

    begin = time.perf_counter()
    tr_adams = jacobipc.adams_solve(problem, 1.0 / n_steps, n_steps)
    wall_adams = time.perf_counter() - begin

    print(json.dumps({
        "backend": "compiled" if jacobipc.USING_COMPILED else "pure",
        "jpc_wall": wall,
        "jpc_end": tr.x[-1].hex(),
        "adams_wall": wall_adams,
        "adams_end": tr_adams.x[-1].hex(),
    }))


def launch(n_steps, pure):
    env = dict(os.environ)
    if pure:
        env["JACOBIPC_PURE"] = "1"
    else:
        env.pop("JACOBIPC_PURE", None)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", str(n_steps)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.worker is not None:
        worker(args.worker)
        return 0

    fast = launch(args.steps, pure=False)
    slow = launch(args.steps, pure=True)
    if fast["backend"] == slow["backend"]:
        print("note: compiled extension unavailable; comparing pure to pure")

    print(f"{'solver':>7}  {'backend':>9}  {'wall_s':>10}")
    for rec in (fast, slow):
        print(f"{'jpc':>7}  {rec['backend']:>9}  {rec['jpc_wall']:10.4f}")
    for rec in (fast, slow):
        print(f"{'adams':>7}  {rec['backend']:>9}  {rec['adams_wall']:10.4f}")
    print(f"jpc speedup:   {slow['jpc_wall'] / fast['jpc_wall']:6.1f}x")
    print(f"adams speedup: {slow['adams_wall'] / fast['adams_wall']:6.1f}x")

    for key in ("jpc_end", "adams_end"):
        if fast[key] != slow[key]:
            print(f"MISMATCH: {key} differs between backends")
            return 1
    print("endpoints bit-identical across backends")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

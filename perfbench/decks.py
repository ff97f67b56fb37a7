"""Seeded operation lists for the three workloads.

A run repeats whole blocks until its time is up.  Every block holds the same
kinds of operation in a seeded order, so the latency mix, the worst checked
error and the failure share are the same for every seed, while the order
(and, where the workload calls for it, the continuous parameters) change
with the seed.  Operations are plain dicts so they can be printed, hashed
and passed to child processes as JSON.
"""

import random

# march: the O(N) hot loop of the marcher on poly8 with the exact starter.
MARCH_ALPHAS = (0.3, 0.5, 0.8, 1.5)
MARCH_STENCILS = (2, 3, 4, 5)
MARCH_STEPS = (500, 1000, 2000)
MARCH_JN = 26

# relax: convergence sweeps of split ml_linear cells of the criterion-07
# kind.  alpha stops at 0.6 because at T = 50 the split run loses relative
# accuracy beyond it (about 0.2 at alpha = 0.75 and 50 at alpha = 0.9 for
# stencil 3, h = 0.1), so the criterion-07 check would fail on the solver,
# not on the oracle this workload is meant to load.
# The oracle's cost grows with t up to t = 23, where it turns asymptotic: a
# T = 10 cell takes 0.1-0.5 s, a T = 50 cell 0.4-3.2 s depending on alpha.
# A block is sixteen T = 10 cells, one per narrow alpha stratum, and one
# T = 50 cell (criterion 07's long horizon) from a band where its cost is
# steady.  A run holds fewer than ten T = 50 cells, so the median and the
# tail fall inside the T = 10 cells rather than between the two kinds.
RELAX_SHORT_T = 10.0
RELAX_LONG_T = 50.0
RELAX_ALPHA_STRATA = tuple((0.2 + 0.025 * i, 0.225 + 0.025 * i) for i in range(16))
RELAX_LONG_ALPHA = (0.35, 0.45)
RELAX_CELL = {"t0": 1.0, "aux_jn": 52, "fine_factor": 20, "stencil": 3,
              "jn": 26, "h_list": [0.5, 0.25]}

# cli: one fresh ``python -m jacobipc.cli`` per operation.
CLI_TIMEOUT_S = 8.0
CUBIC_RHS = "-x + pow(t, 3) + gamma(4)/gamma(4-alpha)*t^(3-alpha)"
# The --rhs grid is fixed so the refined starter resolves to the same k, and
# the command to the same cost class, for every seed; it spans k = 1..3.
CLI_RHS_GRID = [(a, s, n) for a in (0.3, 0.6, 0.9) for s in (2, 3) for n in (10, 40)]
# ROADMAP item 4: resolves to k = 6, i.e. 3e6 O(N^2) Adams substeps, and is
# expected to time out until the starter is fixed.  Keep it in the mix.
ROADMAP4_ARGS = ["solve", "--rhs", "-x", "--init", "1", "--alpha", "0.2",
                 "--n", "100", "--stencil", "4"]
CLI_POLY8_STEPS = 400
CLI_CONVERGE_STEPS = (100, 200, 400)


def march_block(rng):
    ops = [{"kind": "march", "alpha": a, "stencil": s, "n": n}
           for s in MARCH_STENCILS for a in MARCH_ALPHAS for n in MARCH_STEPS]
    rng.shuffle(ops)
    return ops


def relax_block(rng):
    cells = [(RELAX_SHORT_T, lo, hi) for lo, hi in RELAX_ALPHA_STRATA]
    cells.append((RELAX_LONG_T,) + RELAX_LONG_ALPHA)
    ops = []
    for t_end, lo, hi in cells:
        op = {"kind": "relax", "alpha": rng.uniform(lo, hi), "t_end": t_end}
        op.update(RELAX_CELL)
        ops.append(op)
    rng.shuffle(ops)
    return ops


def _fmt(value):
    return format(value, ".6g")


def cli_block(rng):
    ops = [{"kind": "roadmap4", "args": list(ROADMAP4_ARGS), "alpha": 0.2,
            "n": 100, "stencil": 4}]
    for alpha, size, n in CLI_RHS_GRID:
        ops.append({"kind": "rhs", "alpha": alpha, "stencil": size, "n": n,
                    "args": ["solve", "--rhs", CUBIC_RHS, "--init", "0",
                             "--alpha", _fmt(alpha), "--n", str(n),
                             "--stencil", str(size), "--output", "{out}"]})
    for _ in range(2):
        alpha = rng.choice(MARCH_ALPHAS)
        size = rng.choice(MARCH_STENCILS)
        ops.append({"kind": "poly8", "alpha": alpha, "stencil": size,
                    "n": CLI_POLY8_STEPS,
                    "args": ["solve", "--problem", "poly8", "--alpha", _fmt(alpha),
                             "--n", str(CLI_POLY8_STEPS), "--stencil", str(size)]})
    alpha = rng.choice(MARCH_ALPHAS)
    ops.append({"kind": "converge", "alpha": alpha, "stencil": 3,
                "n_list": list(CLI_CONVERGE_STEPS),
                "args": ["converge", "--problem", "poly8", "--alpha", _fmt(alpha),
                         "--n-list", ",".join(map(str, CLI_CONVERGE_STEPS)),
                         "--stencil", "3"]})
    jacobi_a = round(rng.uniform(-0.9, 0.9), 3)
    points = rng.randint(10, 40)
    ops.append({"kind": "quad", "jacobi_a": jacobi_a, "points": points,
                "args": ["quad", f"--jacobi-a={jacobi_a}", "--points", str(points)]})
    for _ in range(2):
        alpha = round(rng.uniform(0.15, 0.95), 4)
        z = -round(rng.uniform(0.2, 30.0), 4)
        ops.append({"kind": "mlf", "alpha": alpha, "z": z,
                    "args": ["mlf", "--alpha", _fmt(alpha), f"--z={z}"]})
    rng.shuffle(ops)
    return ops


BLOCKS = {"march": march_block, "relax": relax_block, "cli": cli_block}
WORKLOADS = tuple(BLOCKS)


def blocks(workload, seed):
    """Endless seeded sequence of operation blocks for a workload."""
    make = BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)


def parameters(workload):
    """The workload's fixed parameters, for the provenance block."""
    if workload == "march":
        return {"alphas": MARCH_ALPHAS, "stencils": MARCH_STENCILS,
                "steps": MARCH_STEPS, "jn": MARCH_JN, "t_end": 1.0,
                "starter": "exact"}
    if workload == "relax":
        return {"short_t": RELAX_SHORT_T, "long_t": RELAX_LONG_T,
                "alpha_strata": RELAX_ALPHA_STRATA, "long_alpha": RELAX_LONG_ALPHA,
                **RELAX_CELL, "starter": "exact"}
    return {"timeout_s": CLI_TIMEOUT_S, "rhs": CUBIC_RHS,
            "rhs_grid": CLI_RHS_GRID, "roadmap4": ROADMAP4_ARGS,
            "poly8_steps": CLI_POLY8_STEPS, "converge_steps": CLI_CONVERGE_STEPS}

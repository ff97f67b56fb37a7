"""Tests of the benchmark's own helpers: python3 -m pytest perfbench/tests"""

import itertools
import sys

import numpy as np
import pytest

import decks
import ops
import spans
import summary


def take(workload, seed, n_blocks=2):
    return list(itertools.islice(decks.blocks(workload, seed), n_blocks))


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_same_seed_gives_same_operations(workload):
    assert take(workload, 7) == take(workload, 7)
    assert take(workload, 7) != take(workload, 8)


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_every_block_holds_the_same_kinds(workload):
    first, second = take(workload, 3)
    kinds = lambda block: sorted(op["kind"] for op in block)  # noqa: E731
    assert kinds(first) == kinds(second)


def test_cli_mix_keeps_the_roadmap4_command():
    for block in take("cli", 1, 3):
        assert [op["args"] for op in block if op["kind"] == "roadmap4"] == [decks.ROADMAP4_ARGS]


def test_tail_has_at_least_ten_samples_beyond():
    values = list(range(30))
    value, pct, n = summary.tail(values)
    assert n == 30
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_tail_of_few_samples_is_the_maximum():
    assert summary.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert summary.tail(list(range(11)))[0] == 0


def test_self_time_from_nested_spans():
    log = spans.SpanLog()
    # op [0, 10] holds a [2, 5] (which holds b [3, 4]) and c [6, 7]
    log.merge({"names": ["bench.op", "solver.a", "kernels.b", "solver.c"],
               "name_id": [0, 1, 2, 3], "parent": [-1, 0, 1, 0],
               "start": [0.0, 2.0, 3.0, 6.0], "end": [10.0, 5.0, 4.0, 7.0],
               "attrs": []}, parent=-1)
    parent = np.array(log.parent, dtype=np.int32)
    dur, self_t = spans.self_times(parent, np.array(log.start), np.array(log.end))
    assert dur.tolist() == [10.0, 3.0, 1.0, 1.0]
    assert self_t.tolist() == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_shares_add_up():
    log = spans.SpanLog()
    log.current_op = 0
    log.merge({"names": ["bench.op", "solver.solve", "kernels.weighted_interp_sum"],
               "name_id": [0, 1, 2], "parent": [-1, 0, 1],
               "start": [0.0, 1.0, 2.0], "end": [4.0, 3.0, 2.5],
               "attrs": [[1, [10, 5, 7]]]}, parent=-1)
    m = spans.layer_metrics(log)
    assert m["solver.steps"][0] == 10
    assert m["solver.march_s"][0] == pytest.approx(2.0)
    assert m["kernels.calls"][0] == 1
    shares = sum(m[f"{layer}.self_share"][0] for layer in spans.LAYERS)
    assert shares == pytest.approx(1.0)


def test_timeout_counts_as_failure(tmp_path):
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    child = ops.run_child(argv, None, str(tmp_path), 0.3, str(tmp_path / "out"),
                          str(tmp_path / "err"))
    assert child.timed_out
    assert child.latency < 10
    check = ops.check_cli({"kind": "rhs"}, child, str(tmp_path / "x.csv"))
    assert not check.ok and not check.wrong


def test_nonzero_exit_counts_as_failure(tmp_path):
    argv = [sys.executable, "-c", "raise SystemExit(1)"]
    child = ops.run_child(argv, None, str(tmp_path), 10, str(tmp_path / "out"),
                          str(tmp_path / "err"))
    assert child.returncode == 1 and not child.timed_out
    assert not ops.check_cli({"kind": "mlf"}, child, "").ok


def test_ml_reference_matches_closed_forms():
    import math

    # E_1/2(-x) = exp(x^2) erfc(x)
    for x in (0.3, 1.0, 2.5):
        assert ops.ml_reference(0.5, x) == pytest.approx(math.exp(x * x) * math.erfc(x),
                                                         rel=1e-13)

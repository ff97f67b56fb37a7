"""Order statistics and digests used by the benchmark report."""

import hashlib
import statistics

TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count).  With no more than
    TAIL_BEYOND samples no such percentile exists, and the maximum is
    returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 100.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    j = n - TAIL_BEYOND - 1
    return ordered[j], 100.0 * (j + 1) / n, n


def digest(records):
    """SHA-256 over the repr of per-operation result records, in order."""
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(rec).encode())
        h.update(b"\n")
    return h.hexdigest()

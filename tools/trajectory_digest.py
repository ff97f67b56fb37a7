"""Digest of a fixed grid of solves, for checking that a refactor is bit-identical.

Usage (from a checkout; the backend is the one the import selects, so set
JACOBIPC_PURE=1 for the pure kernels, or build the extension in place with
``python setup.py build_ext --inplace`` for the compiled ones):

    python tools/trajectory_digest.py

The first line names the backend.  The rest are the lines of
``tests/digest_grid.py``, which describes the grid and the line formats:
one line per solve, oracle value row, Adams run and float32 run, each
section closed by a ``combined`` sha256 over its lines.

Tier-1 pins every one of those lines on both backends:
``tests/test_digests.py`` recomputes them with each kernel module and
compares them with ``tests/golden_digests.txt``, which is this tool's
output minus its first line, and names each line that moved.  The floats
are pinned on glibc's libm on x86-64; under another libm that test fails
and names the lines that differ.  After a declared rounding change,
regenerate the golden file with

    python tools/trajectory_digest.py | tail -n +2 > tests/golden_digests.txt

and list the moved labels (``git diff`` of the file) in CHANGES.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import digest_grid  # noqa: E402
from jacobipc import USING_COMPILED  # noqa: E402


def main():
    print("backend", "compiled" if USING_COMPILED else "pure")
    for line in digest_grid.lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()

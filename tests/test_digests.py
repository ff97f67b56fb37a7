"""Every line of the digest grid, on both backends, against the golden file.

``digest_grid`` describes the grid, and its docstring gives the command that
regenerates ``golden_digests.txt`` after a declared rounding change.  A
change that moves any solve, oracle value, Adams run or float32 run fails
here on the backend it moves, with the labels of the lines that moved.  The
floats are pinned on one host's libm, numpy SIMD kernels and OpenBLAS
kernels (README, Tests); on another this test fails and names the lines that
differ.
"""

from pathlib import Path

import digest_grid
from jacobipc import adams, solver

GOLDEN = Path(__file__).with_name("golden_digests.txt")


def label(line):
    """A digest line's label: the text before ": ", or a combined line's name."""
    return line.split(": ", 1)[0] if ": " in line else line.rsplit(" ", 1)[0]


def by_label(lines):
    table = {label(line): line for line in lines}
    assert len(table) == len(lines), "digest labels repeat"
    return table


def test_digest_grid_matches_golden_file(backend, monkeypatch):
    for module in (solver, adams):
        monkeypatch.setattr(module, "kernels", backend)
    want = by_label(GOLDEN.read_text().splitlines())
    got = by_label(list(digest_grid.lines()))
    moved = [f"{name}\n  golden: {want.get(name, '(none)')}\n  new:    {got.get(name, '(none)')}"
             for name in dict.fromkeys([*want, *got]) if want.get(name) != got.get(name)]
    assert not moved, f"{len(moved)} digest lines moved:\n" + "\n".join(moved)

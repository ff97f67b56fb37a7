"""README.md names only repository paths that exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPO_PATH = re.compile(r"(?<![\w./-])(?:src|tests|tools|perfbench)/[\w./-]*")


def test_every_repository_path_named_in_the_readme_exists():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = {match.rstrip(".") for match in REPO_PATH.findall(text)}
    assert "tools/trajectory_digest.py" in named  # the pattern finds paths at all
    assert sorted(path for path in named if not (ROOT / path).exists()) == []

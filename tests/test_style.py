"""Source layout checks, standard library only."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MAX_COLUMNS = 79


@pytest.mark.parametrize("tree", ["src", "tests"])
def test_no_line_over_79_columns(tree):
    long = [f"{path.relative_to(ROOT)}:{number}: {len(line)} columns"
            for path in sorted((ROOT / tree).rglob("*.py"))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert not long, "\n".join(long)

"""Source layout checks, standard library only."""

import ast
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


def _referenced_names(path):
    """Names read as an ast.Name or an ast.Attribute in a module, except
    those a module-level def or class reads of itself."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        used = {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            used.discard(node.name)
        names |= used
    return names


def test_public_api_has_a_caller_outside_the_tests():
    # every public module-level function and class of the library is read
    # somewhere in src/ or bench/ beyond its own definition; a re-export
    # in __init__.py is not a use
    used = set().union(*(
        _referenced_names(path) for tree in ("src", "bench")
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path.name != "__init__.py"))
    unused = [f"{path.name}: {node.name}"
              for path in sorted((ROOT / "src" / "msfem_split").glob("*.py"))
              if path.name != "__init__.py"
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert not unused, "\n".join(unused)

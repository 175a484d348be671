"""Every name a module or test file imports is used in that file.

``__init__.py`` is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for path in [*ROOT.glob("src/jordanblocks/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, ``from __future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nb()\n"
    assert unused_imports(source) == ["os (line 2)", "d (line 3)"]

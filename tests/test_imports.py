"""Every imported name is used: a standard-library stand-in for a linter's unused-import rule.

Scans the package modules (``__init__.py`` re-exports, so it is left out), the
tests, the scripts and the benchmark modules.  A name counts as used when it
appears as a name in the module's syntax tree; ``from __future__`` imports are
directives, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "approxenum").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" and "from a import b" bind the alias
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_files_found():
    assert any(p.parent.name == "approxenum" for p in FILES)
    assert any(p.parent.name == "tests" for p in FILES)
    assert any(p.parent.name == "scripts" for p in FILES)
    assert any(p.parent.name == "perfbench" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    source = "import os\nfrom typing import Optional, Sequence\nx: Sequence[int] = ()\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Optional"]

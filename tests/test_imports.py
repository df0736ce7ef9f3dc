"""Source hygiene: every name a module or test file imports is used in it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _annotation_names(node: ast.AST) -> set[str]:
    """Names in an annotation, including those inside string annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """Imported names that the module never reads; names in __all__ count as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scanner_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math as m\n"
        "from typing import Any, Optional\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "def f(x: 'Optional[int]') -> Any:\n"
        "    return m.pi\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 5: dumps"]


def test_no_unused_imports():
    files = sorted([*(ROOT / "src" / "fqdist").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(files) > 10
    unused = [f"{path.relative_to(ROOT)} {name}"
              for path in files for name in unused_imports(path.read_text())]
    assert not unused, unused


def test_package_root_imports_no_module():
    # Every name is imported from its defining module; the package re-exports nothing.
    probe = ("import sys, fqdist; print(sorted(m for m in sys.modules if m.startswith('fqdist.')),"
             " [name for name in vars(fqdist) if not name.startswith('__')])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]

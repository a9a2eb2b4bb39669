"""Every module-level import in ``src/repro`` is used by its module.

A name a module imports and never reads is dead weight that still costs an
import and misleads a reader about the module's dependencies.  The scan is
static (AST only): a name counts as used when the module reads it anywhere,
including inside a string annotation.  Package ``__init__`` modules (whose
imports are re-exports), names listed in ``__all__`` and ``__future__``
imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (a.posonlyargs + a.args + a.kwonlyargs
                        + [a.vararg, a.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> Set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    inner = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(inner)
                         if isinstance(n, ast.Name)}
    return used


def _exported(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            names |= {e.value for e in node.value.elts}
    return names


def unused_imports(source: str) -> List[str]:
    """Module-level imported names ``source`` never uses, sorted."""
    tree = ast.parse(source)
    imported: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = 1
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = 1
    keep = _used_names(tree) | _exported(tree)
    return sorted(name for name in imported if name not in keep)


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import List, Optional, Tuple\n"
        "from .x import Exported, Quoted\n"
        "__all__ = ['Exported']\n"
        "def f(a: 'Optional[Quoted]') -> List[int]:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["Tuple", "os"]


def test_no_module_has_unused_imports():
    offenders = {
        str(path.relative_to(SRC)): unused_imports(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
    }
    assert {path: names for path, names in offenders.items() if names} == {}

"""Only ``repro.durable`` appends to, truncates or replaces a file.

Append-only logs, their torn-tail heal and rollback, and atomic replaces
are the program's crash-safety primitives; a module that opens a file for
appending, calls ``.truncate(``, ``os.replace`` or ``tempfile.mkstemp``
itself is reimplementing one of them.  The scan is static (AST only).  One
call is exempt: the service opens each worker's ``worker.log`` for appending
only to hand it to the child process as its stdout and stderr; that file
is the child's console output, not a record stream.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (module, enclosing function) of the calls allowed outside durable.py
EXEMPT = {("serve/service.py", "_spawn")}


_MODE_CHARS = set("rwxabt+")


def _append_mode(call: ast.Call) -> bool:
    """Does this ``open``-style call open its file for appending?

    A mode string may be any positional argument (``open(p, "a")``,
    ``path.open("a")``) or ``mode=``; ``os.open`` takes ``os.O_APPEND``.
    """
    args = list(call.args) + [k.value for k in call.keywords if k.arg == "mode"]
    for arg in args:
        if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                and "a" in arg.value and set(arg.value) <= _MODE_CHARS):
            return True
        if any(isinstance(node, ast.Attribute) and node.attr == "O_APPEND"
               for node in ast.walk(arg)):
            return True
    return False


def _offence(call: ast.Call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    owner = func.value.id if (
        isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
    ) else None
    if name in ("open", "fdopen") and _append_mode(call):
        return "append-mode open"
    if name == "truncate" and isinstance(func, ast.Attribute):
        return ".truncate("
    if (owner, name) in (("os", "replace"), ("tempfile", "mkstemp")):
        return f"{owner}.{name}"
    return None


def file_offences(source: str) -> List[Tuple[str, str]]:
    """``(enclosing function, offence)`` for each file-owning call."""
    found: List[Tuple[str, str]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                offence = _offence(child)
                if offence is not None:
                    found.append((inner, offence))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_scanner_flags_file_owning_calls():
    source = (
        "import os, tempfile\n"
        "def a(p):\n"
        "    open(p, 'a')\n"
        "    open(p, mode='ab')\n"
        "    p.open('a+')\n"
        "    os.open(p, os.O_WRONLY | os.O_APPEND)\n"
        "    open(p, 'rb')\n"
        "    open('data.json')\n"
        "    os.open(p, os.O_RDONLY)\n"
        "def b(fh, p, q):\n"
        "    fh.truncate(3)\n"
        "    os.replace(p, q)\n"
        "    tempfile.mkstemp()\n"
        "    p.replace('x', 'y')\n"
    )
    assert file_offences(source) == [("a", "append-mode open")] * 4 + [
        ("b", ".truncate("), ("b", "os.replace"), ("b", "tempfile.mkstemp"),
    ]


def test_only_durable_owns_files():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == "durable.py":
            continue
        found = [
            f"{scope}: {offence}"
            for scope, offence in file_offences(path.read_text())
            if (module, scope) not in EXEMPT
        ]
        if found:
            offenders[module] = found
    assert offenders == {}

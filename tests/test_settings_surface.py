"""The environment surface of ``src/``: which variables it reads, and
that it never writes the process environment.

Every run setting is a flag or a constructor argument.  The variables
left are deployment paths and budgets, the benchmark's run-log switch,
the chaos switches of a separate ``serve`` process, and the lockstep
correctness tool; a new one must be added here on purpose.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

KEPT = {
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_LIMIT_MB",
    "REPRO_CHAOS",
    "REPRO_CHAOS_DIR",
    "REPRO_RUNLOG",
    "REPRO_SERVICE_DIR",
    "REPRO_VALIDATE",
}


def _sources():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    return [(path, path.read_text(encoding="utf-8")) for path in paths]


def _is_environ(node) -> bool:
    """``os.environ`` (or a bare ``environ``)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _environ_writes(tree):
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            if isinstance(target, ast.Subscript) and _is_environ(target.value):
                yield node.lineno, "item assignment or del"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if _is_environ(node.func.value) and method in (
                "pop", "popitem", "setdefault", "update", "clear",
                "__setitem__", "__delitem__",
            ):
                yield node.lineno, f"environ.{method}"
            if method in ("putenv", "unsetenv"):
                yield node.lineno, method


def test_only_the_kept_variables_are_named():
    found = set()
    for _, text in _sources():
        found.update(re.findall(r"REPRO_[A-Z_]+", text))
    assert found == KEPT


def test_no_module_writes_the_environment():
    writes = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path, text in _sources()
        for line, what in _environ_writes(ast.parse(text, str(path)))
    ]
    assert writes == []

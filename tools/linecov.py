"""Statement collector for src/scfold, built on the standard library only.

Runs pytest in this process under ``sys.settrace``, records the lines of
``src/scfold`` that execute, and reports every statement that never ran,
grouped by the function that holds it. It is a tool, not a test: tier-1 does
not run it.

    python tools/linecov.py                 # the tier-1 suite
    python tools/linecov.py tests/test_fd.py -k rank

Arguments are passed to pytest (default: ``-q -p no:cacheprovider tests``).
The last two lines are ``unrun raise statements: K``, not counting an
abstract ``raise NotImplementedError``, and the total, ``unrun N of M
statements``; the exit status is pytest's. Run it from the repository root,
with nothing having imported scfold yet, so that module-level statements are
traced too.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "scfold"

# statements that compile to no bytecode, so no line event can mark them run
_NO_CODE = (ast.Global, ast.Nonlocal)


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _header_lines(node):
    """Lines whose execution marks the statement as run: a simple statement's
    own lines, a compound statement's lines before its body, and the lines of
    its decorators."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        last = body[0].lineno - 1
    else:
        last = node.end_lineno
    lines = set(range(node.lineno, max(last, node.lineno) + 1))
    for dec in getattr(node, "decorator_list", ()):
        lines.update(range(dec.lineno, dec.end_lineno + 1))
    return lines


def statements(tree):
    """(function qualname or '<module>', statement node) for every statement
    that compiles to code."""
    out = []

    def visit(nodes, owner):
        for node in nodes:
            if _is_docstring(node) or isinstance(node, _NO_CODE):
                continue
            out.append((owner, node))
            inner = owner
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if owner == "<module>" else f"{owner}.{node.name}"
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)
            for case in getattr(node, "cases", []):
                visit(case.body, inner)

    visit(tree.body, "<module>")
    return out


def _is_guard(node):
    """A raise statement other than an abstract raise NotImplementedError."""
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return not (isinstance(exc, ast.Name) and exc.id == "NotImplementedError")


def _ran(node, hit):
    if _header_lines(node) & hit:
        return True
    # a try statement has no code of its own: it ran when its body did
    return isinstance(node, ast.Try) and _ran(node.body[0], hit)


def report(hits):
    """Report lines: per module its unrun count and, per function, the line
    numbers of its unrun statements; the unrun raise count and the total come
    last."""
    lines = []
    unrun_total = total = guards = 0
    for path in sorted(SRC.rglob("*.py")):
        hit = hits.get(str(path), set())
        by_owner = defaultdict(list)
        stmts = statements(ast.parse(path.read_text(encoding="utf-8")))
        for owner, node in stmts:
            if not _ran(node, hit):
                by_owner[owner].append(node.lineno)
                guards += _is_guard(node)
        unrun = sum(len(v) for v in by_owner.values())
        unrun_total += unrun
        total += len(stmts)
        name = path.relative_to(SRC).as_posix()
        lines.append(f"{name}: unrun {unrun} of {len(stmts)}")
        for owner, linenos in sorted(by_owner.items(), key=lambda kv: kv[1][0]):
            lines.append(f"  {owner}: {', '.join(map(str, linenos))}")
    lines.append(f"unrun raise statements: {guards}")
    lines.append(f"unrun {unrun_total} of {total} statements")
    return lines


def main(argv):
    import pytest

    prefix = str(SRC) + "/"
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        # trace line events only in the library's frames
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\n".join(report(hits)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

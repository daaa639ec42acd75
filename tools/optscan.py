"""Option scanner for src/scfold, built on the standard library only.

Lists every defaulted parameter of a top-level function or method in
``src/scfold`` that no call site sets. It is a tool, not a test: tier-1 does
not run it.

    python tools/optscan.py            # scan src, tests, demos, perfbench, tools
    python tools/optscan.py src tests  # scan only these trees for call sites

A call site sets a parameter when it passes it by keyword, fills its position,
or passes ``*args``/``**kwargs``. Calls are matched by name only (``f(...)``
and ``x.f(...)`` both match every ``f``; ``C(...)`` matches ``C.__init__``;
any call may be an instance's ``__call__``), so a name shared by two functions
can only hide an unset option, never invent one. A call that sets an option
by forwarding an unset option of the function it sits in, ``g(tol=tol)``,
does not count; the scan repeats until no more setters drop out. The last
line is ``unset N of M defaulted parameters``.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "scfold"
TREES = ("src", "tests", "demos", "perfbench", "tools")
ANY = "*"  # the call name of __call__: an instance is called by any name


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def options():
    """{(module, qualname, param): (call name, positional index or None)} for
    every defaulted parameter of a top-level function or method; the index
    counts the arguments a call writes, so a method's self is not one."""
    out = {}

    def add(module, qualname, call_name, fn, skip):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for i, p in enumerate(positional[first:], first):
            out[(module, qualname, p.arg)] = (call_name, i - skip)
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                out[(module, qualname, p.arg)] = (call_name, None)

    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(module, node.name, node.name, node, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    call_name = {"__init__": node.name, "__call__": ANY}.get(
                        item.name, item.name)
                    add(module, f"{node.name}.{item.name}", call_name, item,
                        0 if static else 1)
    return out


def _call_name(call):
    f = call.func
    return getattr(f, "id", None) or getattr(f, "attr", None)


def call_sites(trees):
    """(owner, call node) for every call in the Python files under ``trees``;
    the owner is (module, qualname) of the top-level function or method the
    call sits in, module relative to src/scfold, and None outside of both."""
    out = []

    def visit(node, module, prefix, owner):
        for child in ast.iter_child_nodes(node):
            inner, inner_prefix = owner, None
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (module, prefix + child.name)
            elif owner is None and not prefix and isinstance(child, ast.ClassDef):
                inner_prefix = child.name + "."
            if isinstance(child, ast.Call):
                out.append((owner, child))
            visit(child, module, inner_prefix or "", inner)

    for tree in trees:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = path.relative_to(SRC).as_posix() if SRC in path.parents else None
            visit(_parse(path), module, "", None)
    return out


def _setting_values(call, param, index):
    """The argument expressions by which ``call`` sets ``param``; the string
    "*" for a starred argument, which might set anything."""
    values = [k.value for k in call.keywords if k.arg == param]
    if any(k.arg is None for k in call.keywords):
        values.append("*")
    if index is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                values.append("*")
                break
            if i == index:
                values.append(arg)
    return values


def scan(trees=TREES):
    """(unset options, number of options): repeat the scan until forwarding
    an unset option stops counting as a setter anywhere."""
    opts = options()
    by_name = defaultdict(list)
    for (_, _, param), (call_name, index) in opts.items():
        by_name[call_name].append((param, index))
    sites = call_sites(trees)
    unset_params = set()  # (module, qualname, param) of the options found unset
    while True:
        set_by = set()
        for owner, call in sites:
            for name in (_call_name(call), ANY):
                for param, index in by_name.get(name, ()):
                    for value in _setting_values(call, param, index):
                        forwarded = (owner is not None and isinstance(value, ast.Name)
                                     and (*owner, value.id) in unset_params)
                        if not forwarded:
                            set_by.add((name, param))
        unset = sorted(key for key, (call_name, _) in opts.items()
                       if (call_name, key[2]) not in set_by)
        if set(unset) == unset_params:
            return unset, len(opts)
        unset_params = set(unset)


def main(argv):
    unset, total = scan(tuple(argv) or TREES)
    for module, qualname, param in unset:
        print(f"{module} {qualname}({param})")
    print(f"unset {len(unset)} of {total} defaulted parameters")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

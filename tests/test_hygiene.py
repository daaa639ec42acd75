"""Static checks on the library source: no catch-all exception handler, one
module that knows how a config fails to parse, one that writes JSON and CSV
text, no sparse matrix turned dense, no pseudo-inverse formed to solve one
system, no scipy loaded on import, no import inside a function but scipy's,
no parameter that its function never reads, no attribute stored for no
reader, no local stored for no reader and one module that decides how a
scale measures rows."""

import ast
from pathlib import Path

from scfold.scenarios import SCENARIOS

SRC = Path(__file__).resolve().parents[1] / "src" / "scfold"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _names(node):
    if node is None:
        return {None}
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {getattr(e, "id", getattr(e, "attr", None)) for e in elts}


def test_no_catch_all_handler():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and _names(node.type) & {None, "Exception", "BaseException"}
    ]
    assert found == []


def test_json_decode_error_only_in_errors_module():
    found = {
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if getattr(node, "attr", getattr(node, "id", None)) == "JSONDecodeError"
    }
    assert found == {"errors.py"}


def test_text_writers_only_in_text_module():
    # every artifact and report is written by _text.json_text or
    # _text.csv_text, so one module decides the bytes they hold
    writers = {("json", "dumps"), ("csv", "writer"), ("io", "StringIO")}
    found = {
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in writers)
        or (isinstance(node, ast.ImportFrom)
            and any((node.module, a.name) in writers for a in node.names))
    }
    assert found == {"_text.py"}


def test_float_format_only_in_text_module():
    # repr(float(v)) is the one float format of the artifacts; written
    # elsewhere, a site that forgets float() writes np.float64(...)
    found = {
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "repr"
        and any(isinstance(a, ast.Call) and getattr(a.func, "id", None) == "float"
                for a in node.args)
    }
    assert found == {"_text.py"}


def test_no_sparse_to_dense_conversion():
    # the grid kernels keep their banded matrices sparse end to end
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"toarray", "todense"}
    ]
    assert found == []


def test_no_pseudo_inverse():
    # a Gauss-Newton step applies the pseudo-inverse to one vector; the
    # minimum-norm solve gets that vector without forming the matrix
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "pinv"
    ]
    assert found == []


def _import_time_nodes(tree):
    # what runs when the module is imported: everything outside function bodies
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_scipy_import():
    # importing scfold loads numpy only; the grid kernels that need scipy
    # import it where they call it
    found = sorted(
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in _import_time_nodes(tree)
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "scipy")
    )
    assert found == []


def test_function_local_imports_are_scipy_only():
    # a module says what it needs at its top; only scipy, which importing
    # scfold must not load, is imported inside the functions that call it
    found = sorted({
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] != "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] != "scipy"))
    })
    assert found == []


def _functions(tree):
    # top-level functions and the methods of top-level classes, with the
    # parameters each one must read: all but a method's self or cls
    def params(fn, skip):
        a = fn.args
        return ((a.posonlyargs + a.args)[skip:] + a.kwonlyargs
                + [p for p in (a.vararg, a.kwarg) if p])

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, params(node, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any("staticmethod" in _names(d) for d in item.decorator_list)
                    yield f"{node.name}.{item.name}", item, params(item, 0 if static else 1)


def _only_raises_not_implemented(fn):
    body = [s for s in fn.body
            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and _names(getattr(body[0].exc, "func", body[0].exc))
            == {"NotImplementedError"})


def test_every_parameter_is_read():
    # an option no caller sets, or one the body ignores, is a second code path
    # or a false promise; abstract methods and the scenario runners, which
    # share the (params, seed) signature, are exempt
    runners = {fn.__name__ for fn, _, _ in SCENARIOS.values()}
    found = []
    for name, tree in _modules():
        for qualname, fn, params in _functions(tree):
            if _only_raises_not_implemented(fn):
                continue
            if name == "scenarios.py" and qualname in runners:
                continue
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{name}:{fn.lineno} {qualname}({p.arg})"
                      for p in params if p.arg not in read]
    assert found == []


def _attribute_reads(trees):
    # attributes are matched by name; a getattr or hasattr with a literal
    # name counts as a read
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and _names(node.func) & {"getattr", "hasattr"}
                  and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return read


def test_every_stored_attribute_is_read():
    # an attribute stored and never read is state kept for no one. One a
    # method stores on self must be read by the library; one stored on an
    # object the library hands out may also be read by a test or a demo
    modules = list(_modules())
    outside = [ast.parse(path.read_text(encoding="utf-8"))
               for folder in ("tests", "demos")
               for path in sorted((SRC.parents[1] / folder).glob("*.py"))]
    read_in_src = _attribute_reads(tree for _, tree in modules)
    read_anywhere = read_in_src | _attribute_reads(outside)
    found = []
    for name, tree in modules:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)):
                owner = node.value.id
                read = read_in_src if owner == "self" else read_anywhere
                if node.attr not in read:
                    found.append(f"{name}:{node.lineno} {owner}.{node.attr}")
    assert found == []


def test_every_local_is_read():
    # a name a function stores and never loads is work done for no reader; a
    # nested body counts as part of the function around it, and names that
    # start with an underscore are placeholders by intent
    found = set()
    for name, tree in _modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
            loaded = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            found |= {f"{name}:{n.lineno} {n.id}" for n in names
                      if isinstance(n.ctx, ast.Store)
                      and not n.id.startswith("_") and n.id not in loaded}
    assert sorted(found) == []


def test_norm_identity_only_in_sc_core():
    # sc_core alone decides how a scale measures a block of rows; a module
    # that tests `type(fiber).norm is ...` decides it a second time
    found = {
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(isinstance(side, ast.Attribute) and side.attr == "norm"
                for side in [node.left, *node.comparators])
    }
    assert found == {"sc_core.py"}

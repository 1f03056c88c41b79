import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import dp5a2


def _modules():
    return [
        importlib.import_module(f"dp5a2.{m.name}")
        for m in pkgutil.iter_modules(dp5a2.__path__)
    ]


def test_public_names_resolve():
    declared = set()
    for mod in _modules():
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert not missing, f"{mod.__name__}.__all__ names missing: {missing}"
        declared.update(mod.__all__)
    # what the package re-exports is a declared name of some module
    exported = {
        n for n, v in vars(dp5a2).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert exported - declared == set()


def test_import_does_not_load_scipy():
    root = os.path.dirname(os.path.dirname(dp5a2.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import dp5a2, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def _unused_imports(path):
    """The names a module imports but never references (nor lists in __all__)."""
    tree = ast.parse(open(path).read(), path)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # __init__.py is skipped: its imports are the package's re-exports
    src = os.path.dirname(dp5a2.__file__)
    tests = os.path.dirname(os.path.abspath(__file__))
    paths = [
        os.path.join(d, f)
        for d in (src, tests)
        for f in sorted(os.listdir(d))
        if f.endswith(".py") and f != "__init__.py"
    ]
    unused = {p: u for p in paths if (u := _unused_imports(p))}
    assert not unused


def _object_names(path):
    """The lines that name the builtin object other than as object.attr: a dtype."""
    tree = ast.parse(open(path).read(), path)
    owners = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Name) and n.id == "object" and id(n) not in owners
    )


def test_object_dtype_only_where_outside_integers_enter():
    # surface.is_on_surface / in_U and torsor.psi take integers of any size
    # from callers; every other kernel is int64 over a domain it proves, so
    # a Python-int fork there is a second dtype path
    src = os.path.dirname(dp5a2.__file__)
    found = {
        f: lines for f in sorted(os.listdir(src))
        if f.endswith(".py") and (lines := _object_names(os.path.join(src, f)))
    }
    assert set(found) <= {"surface.py", "torsor.py"}, found

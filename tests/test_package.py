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

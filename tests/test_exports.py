"""The package's surface: every name in ``fmgt.__all__`` resolves, a star
import brings exactly those names, so a trimmed export cannot go stale, and
no function of the package takes a parameter it never reads."""
import ast
from pathlib import Path

import fmgt

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fmgt"

# parameters whose caller fixes the signature: main's command table calls
# every handler with the parsed arguments
CALLED_ALIKE = {"cli.cmd_list_models(args)"}


def test_every_exported_name_resolves():
    missing = [name for name in fmgt.__all__ if not hasattr(fmgt, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from fmgt import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fmgt.__all__)


def _unread_parameters(package):
    """'module.function(parameter)' for each parameter, self and cls aside,
    that no name in its function's body (nested functions included) reads."""
    found = []
    for path in sorted(package.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = func.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
            read = {n.id for stmt in func.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found += [
                f"{path.stem}.{func.name}({p})"
                for p in params
                if p not in read and p not in ("self", "cls")
            ]
    return found


def test_no_unread_parameters():
    assert set(_unread_parameters(PACKAGE)) == CALLED_ALIKE


def test_the_scan_finds_an_unread_parameter(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, b, *c, d, **e):\n    return a + sum(c) + e['x']\n"
        "class K:\n    def g(self, x):\n        def inner():\n            return x\n"
    )
    assert _unread_parameters(tmp_path) == ["mod.f(b)", "mod.f(d)"]

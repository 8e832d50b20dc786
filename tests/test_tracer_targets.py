"""The benchmark's tracer (perfbench/tracer.py) wraps fmgt functions and
methods by name; a per-layer metric of one that no longer resolves would
silently read 0.  This only reads perfbench/."""
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer._targets()  # an AttributeError here names the missing one


def test_traced_functions_resolve():
    functions, _, _ = _targets()
    assert functions
    for fn, name in functions.items():
        # Tracer.install patches the module attributes bound to fn
        module = sys.modules[fn.__module__]
        assert module.__name__.startswith("fmgt."), name
        assert getattr(module, fn.__name__) is fn, name


def test_traced_methods_resolve():
    _, methods, dense = _targets()
    assert methods and dense
    for owner, attr, *_ in [*methods, *dense]:
        assert owner.__module__.startswith("fmgt.")
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
        assert callable(getattr(owner, attr))

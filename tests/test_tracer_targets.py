"""The benchmark's tracer (perfbench/tracer.py) wraps fmgt functions and
methods by name; a per-layer metric of one that no longer resolves, or that
a run no longer calls, would silently read 0.  This only reads perfbench/."""
import importlib.util
import sys
from pathlib import Path

import fmgt.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _targets():
    return _load("tracer")._targets()  # an AttributeError here names the missing one


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


def test_traced_memory_functions_run_once(tmp_path, monkeypatch):
    # a zform-limit run solves its alphas in one batch: each memory stage
    # that the tracer spans runs once, so its span reads the stage's time
    functions, _, _ = _targets()
    traced = [fn for fn in functions if fn.__module__ == "fmgt.memory"]
    assert traced
    calls = dict.fromkeys((fn.__name__ for fn in traced), 0)
    for fn in traced:

        def counting(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        # every fmgt namespace that bound fn, as Tracer.install patches them
        for name, module in list(sys.modules.items()):
            if name.startswith("fmgt"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counting)
    workloads = _load("workloads")
    cfg = tmp_path / "zform-limit.cfg"
    cfg.write_text(workloads.config_text(workloads.WORKLOADS["zform-limit"], 0))
    assert fmgt.cli.main(["--out", str(tmp_path / "o"), "run", "--config", str(cfg)]) == 0
    assert calls == dict.fromkeys(calls, 1)

"""The package's export list: every name in ``fmgt.__all__`` resolves, and a
star import brings exactly those names, so a trimmed export cannot go stale."""
import fmgt


def test_every_exported_name_resolves():
    missing = [name for name in fmgt.__all__ if not hasattr(fmgt, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from fmgt import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fmgt.__all__)

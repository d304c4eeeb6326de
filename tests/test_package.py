"""Names that other code looks up in the package by string must exist: the
export lists, and the functions the benchmark's tracer wraps."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import bubbletower

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(bubbletower.__path__))


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestExports:
    @pytest.mark.parametrize("name", MODULES)
    def test_module_all_resolves(self, name):
        mod = importlib.import_module(f"bubbletower.{name}")
        missing = [a for a in getattr(mod, "__all__", ()) if not hasattr(mod, a)]
        assert missing == []

    def test_package_all_resolves(self):
        missing = [a for a in bubbletower.__all__
                   if not hasattr(bubbletower, a)]
        assert missing == []
        namespace = {}
        exec("from bubbletower import *", namespace)
        assert set(bubbletower.__all__) <= set(namespace)


class TestTracerNames:
    def test_spans_and_counts_resolve(self):
        # the tracer rebinds these by name; a missing one stops every
        # traced benchmark run with AttributeError
        tracing = _tracing()
        entries = [e[:2] for e in tracing.SPANS + tracing.COUNTED]
        assert entries
        unresolved = []
        for modname, attr in entries:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                ok = cls is not None and meth in vars(cls)
            else:
                ok = callable(getattr(mod, attr, None))
            if not ok:
                unresolved.append((modname, attr))
        assert unresolved == []

"""The benchmark's per-layer trace still finds every function it wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace(monkeypatch):
    # read the benchmark's module without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    layertrace = load_layertrace(monkeypatch)
    missing = []
    for module_name, attr, *_ in layertrace.TARGETS:
        module = importlib.import_module(f"superbott.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and callable(vars(cls).get(meth))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    for module_name, attr, _stat in layertrace.CACHES:
        module = importlib.import_module(f"superbott.{module_name}")
        if not hasattr(getattr(module, attr, None), "cache_info"):
            missing.append(f"{module_name}.{attr}")
    assert layertrace.TARGETS and layertrace.CACHES
    assert missing == []

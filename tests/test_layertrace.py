"""The benchmark's per-layer trace still finds every function it wraps."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import superbott

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


TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("layertrace", sys.argv[1])
layertrace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layertrace)
from superbott import characters, superschur
tracer = layertrace.Tracer()
tracer.install()
snapshots = []
superschur.rational_schur_char((2, 1), (1,), superschur.SuperDim(4, 2))
snapshots.append(layertrace.layer_metrics(layertrace.merge([tracer.raw()])))
characters.lr_coefficient((2, 1), (2, 1), (3, 2, 1))
snapshots.append(layertrace.layer_metrics(layertrace.merge([tracer.raw()])))
print(json.dumps(snapshots))
"""


def test_trace_counts_the_shared_lr_search():
    # a child process, so the trace's wrappers stay out of this one
    src = str(Path(superbott.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_RUN, str(LAYERTRACE)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    closed_form, with_lr = json.loads(proc.stdout)
    assert closed_form["characters.lr_count.misses"] > 0
    assert closed_form["characters.lr_coefficient.calls"] == 0
    assert with_lr["characters.lr_coefficient.calls"] == 1
    assert with_lr["characters.lr_coefficient.nonzero_ratio"] == 1.0

"""The benchmark's tracer wraps ergolab functions by name; a renamed or
deleted one would silently read 0 in the traced metrics."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_trace_targets_resolve():
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    missing = []
    for mod_name, path, _ in targets:
        module = importlib.import_module(f"ergolab.{mod_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        # the tracer replaces a method in its class's own __dict__, where an
        # inherited method is not found
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{mod_name}.{path}")
    assert missing == []
    # the tracer wraps the ensemble's thread pool to parent worker spans
    assert hasattr(importlib.import_module("ergolab.montecarlo"),
                   "ThreadPoolExecutor")

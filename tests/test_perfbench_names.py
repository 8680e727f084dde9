"""Every callable that a per-layer benchmark metric names exists in lieext.

``perfbench/meta.json`` names its per-layer metrics ``module.callable.stat``
(``algebra.LieAlgebra.ad.calls``, say), and the traced benchmark run fails
when one of those callables is gone.  This test catches a rename or a
deletion without running the benchmark.
"""

import importlib
import inspect
import json
import pathlib

import pytest

META = pathlib.Path(__file__).parent.parent / "perfbench" / "meta.json"


def _defined_in_module(name):
    """Whether ``module.path`` is a function or method that lieext.module defines."""
    module, *path = name.split(".")
    mod = importlib.import_module(f"lieext.{module}")
    obj = mod
    for attr in path:
        obj = getattr(obj, "__dict__", {}).get(attr)
    obj = getattr(obj, "__func__", obj)         # classmethod or staticmethod
    return inspect.isfunction(obj) and obj.__module__ == mod.__name__


def test_layer_metrics_name_lieext_callables():
    if not META.is_file():
        pytest.skip("no perfbench/meta.json in this checkout")
    meta = json.loads(META.read_text(encoding="utf-8"))
    callables = {metric.rsplit(".", 1)[0] for row in meta["layers"] for metric in row["metrics"]
                 if not metric.startswith("trace.")}
    assert callables
    missing = sorted(name for name in callables if not _defined_in_module(name))
    assert not missing, f"per-layer metrics name callables lieext does not define: {missing}"

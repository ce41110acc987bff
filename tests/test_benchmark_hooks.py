"""The benchmark's traced run patches functions where their callers look
them up; every patched (module, attribute) must exist in the package."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_patched_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = [(module, attr) for module, attr, _, _ in layers.PATCHES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []

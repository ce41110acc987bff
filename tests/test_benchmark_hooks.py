"""The benchmark's traced run patches functions where their callers look
them up; every patched (module, attribute) must exist in the package and
must still be called there, or its per-layer metric is never measured."""

import functools
import importlib
from collections import Counter
from pathlib import Path

from torweyl.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# tiny runs of the three commands the benchmark's workloads drive
RUNS = [
    ("weyl-ensemble", {
        "symbol.model": "xi2+exp(ix)",
        "region.rect": "0.2 0.8 -0.4 0.4",
        "omega.rect": "-0.2 1.4 -0.9 1.3",
        "run.h_list": "0.1",
        "run.trials_n": "1",
        "probes.boundary_n": "2",
        "grid.vol_n_x": "64",
        "grid.vol_n_xi": "64",
    }),
    ("spectrum", {
        "symbol.model": "xi2+exp(ix)",
        "region.rect": "0.2 0.8 -0.4 0.4",
        "grid.h": "0.1",
        "perturb.seed": "1",
        "pseudospec.n_re": "3",
        "pseudospec.n_im": "2",
    }),
    ("volume", {
        "symbol.model": "xi+exp(-ix)",
        "region.rect": "-1 1 0.1 0.9",
        "grid.n_x": "64",
        "grid.n_xi": "64",
        "kappa.z": "0 0.5",
    }),
]


def _patches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers").PATCHES


def test_every_patched_attribute_resolves(monkeypatch):
    missing = [(module, attr) for module, attr, _, _ in _patches(monkeypatch)
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_every_patched_attribute_is_called(monkeypatch, tmp_path, capsys):
    calls = Counter()

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    patches = _patches(monkeypatch)
    for module, attr, _, _ in patches:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counting((module, attr), getattr(mod, attr)))
    for i, (command, entries) in enumerate(RUNS):
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / str(i))]) == EXIT_OK
    capsys.readouterr()
    uncalled = [(module, attr) for module, attr, _, _ in patches
                if calls[(module, attr)] == 0]
    assert uncalled == []

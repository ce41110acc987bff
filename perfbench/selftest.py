"""Self-tests of the benchmark harness, at smoke sizes.

    python3 perfbench/selftest.py             # from the repository root
    python3 -m pytest perfbench/selftest.py   # the same tests under pytest

They take about a minute: each workload runs once per trace mode.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in layers.PER_LAYER]


def test_every_metric_is_emitted_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        want = {m["name"]: m["unit"] for m in table}
        for name in workloads.NAMES:
            done = bench("--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--smoke")
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] is True, (name, trace, done.stderr)
            assert result["attempted"] >= 1 and result["failed"] == 0
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace)
            assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "weyl-acceptance", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=Path(tmp))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_of_overlapping_children_from_two_threads():
    parent = Span(1, "run", None, thread=1, start=0.0, end=10.0)
    spans = [
        parent,
        Span(2, "trial", 1, thread=2, start=1.0, end=5.0),
        Span(3, "trial", 1, thread=3, start=3.0, end=8.0),    # overlaps span 2
        Span(4, "eig", 2, thread=2, start=2.0, end=3.0),      # grandchild
        Span(5, "trial", 1, thread=2, start=9.0, end=12.0),   # runs past the parent
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - ((8.0 - 1.0) + (10.0 - 9.0))
    assert own[2] == 4.0 - 1.0
    assert own[3] == 5.0 and own[4] == 1.0


def test_worker_thread_spans_nest_under_the_blocked_caller():
    tracer = Tracer()

    def trial(i):
        with tracer.span("trial", i=i):
            time.sleep(0.02)
            with tracer.span("eig"):
                time.sleep(0.01)

    with tracer.span("run") as run:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(trial, range(4)))
    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
    trials = by_name["trial"]
    assert {sp.parent for sp in trials} == {run.id}
    assert len({sp.thread for sp in trials}) == 2
    assert threading.get_ident() not in {sp.thread for sp in trials}
    ids = {sp.id for sp in trials}
    assert all(sp.parent in ids for sp in by_name["eig"])
    pieces = sorted((sp.start, sp.end) for sp in trials)
    union, hi = 0.0, None
    for a, b in pieces:
        a = a if hi is None else max(a, hi)
        union += max(0.0, b - a)
        hi = b if hi is None else max(hi, b)
    assert abs(self_times(tracer.spans)[run.id] - (run.duration - union)) < 1e-12


def test_wrong_eigenvalue_list_fails_the_trace_check():
    import numpy as np

    import checks
    from torweyl import serialize
    from torweyl.operators import GridParams, assemble_differential
    from torweyl.symbols import catalog_symbol

    P = assemble_differential(catalog_symbol("xi2+exp(ix)"), GridParams(h=0.1, K=12)).entries
    eigs = np.linalg.eigvals(P)
    with tempfile.TemporaryDirectory() as tmp:
        def problems(values):
            path = Path(tmp) / "eigs.csv"
            path.write_text(serialize.eigs_csv(values))
            o = checks.Outcome()
            checks.check_eigs(o, "trial", path, P)
            return o.problems

        assert problems(eigs) == []
        wrong = eigs.copy()
        wrong[3] += 1e-9
        assert any("tr A" in p for p in problems(wrong))
        assert any("eigenvalues, N" in p for p in problems(eigs[:-1]))


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail the run
                failures += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)

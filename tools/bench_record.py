"""Record a checkout's benchmark numbers in ``BENCH_<tag>.json``.

    python tools/bench_record.py --checkout DIR --tag TAG [--seeds 1 2]
                                 [--parent DIR] [--out DIR]

For every workload that the checkout's ``BENCHMARK.json`` lists and every
seed, runs the checkout's own ``perfbench/run.py --trace 0`` in the
checkout, for the ``run_seconds`` that the same file sets, and keeps the
two lines it ends with, the environment record and the result, as it
printed them (parsed, not edited).  Then it times the checkout's Tier-1
suite (``python -m pytest -q --continue-on-collection-errors`` with
``src`` on the path) and writes everything, with the checkout's commit,
whether its tree was clean (``git status`` succeeded and listed no change
to a tracked file) and the line count of its ``src/torweyl/*.py`` (which
every fresh interpreter compiles, so a size change can be read beside
``setup_s``), to ``<out>/BENCH_<tag>.json`` (``out`` defaults to the
current directory).  Runs are sequential, one workload at a time; with one
seed and 20 s per run, a record takes about 3 minutes on a 2-CPU VM.

With ``--parent``, the parent checkout runs the same workloads, and each
workload's runs alternate between the two checkouts, ``PAIRS`` (10) times
per seed, the parent first in even pairs and the checkout first in odd
ones, so that the machine's drift falls on both alike.  Both records are
written, the parent's as ``BENCH_<its short commit>.json``, each with the
median and quartiles of every end-to-end metric per workload, and each
pair's outcome per metric: in how many pairs the record's run was better
than its partner by the direction ``BENCHMARK.json`` gives.  The
checkout's record also states its verdict against the parent for every
workload and metric (see ``verdict``).  One run takes about 25 s, so the
pairs of one seed take about 35 minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# alternating parent/checkout pairs per workload and seed with --parent
PAIRS = 10


def git(checkout: Path, *args: str) -> str | None:
    """``git args`` in the checkout: its output, or None if git failed."""
    try:
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    environment, result = done.stdout.strip().splitlines()[-2:]
    return {"command": cmd[1:], "stderr": done.stderr.strip().splitlines(),
            **json.loads(environment), "result": json.loads(result)}


def source_lines(checkout: Path) -> int:
    """Lines of the checkout's ``src/torweyl/*.py``, as
    ``cat src/torweyl/*.py | wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "torweyl").glob("*.py"))


def tier1(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    began = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - began
    lines = done.stdout.strip().splitlines()
    return {"command": cmd[1:], "exit_status": done.returncode, "wall_s": wall,
            "summary": lines[-1] if lines else ""}


def metric(run: dict, name: str) -> float:
    return run["result"]["metrics"][name]["value"]


def quartiles(v: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile."""
    return statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3


def summary(runs: list[dict], metrics: list[str]) -> dict:
    """Per workload and metric: the median, the quartiles and the run count."""
    out: dict = {}
    for workload in dict.fromkeys(r["environment"]["workload"] for r in runs):
        own = [r for r in runs if r["environment"]["workload"] == workload]
        out[workload] = {}
        for name in metrics:
            v = [metric(r, name) for r in own]
            q1, _, q3 = quartiles(v)
            out[workload][name] = {"median": statistics.median(v), "q1": q1,
                                   "q3": q3, "runs": len(v)}
    return out


def pair_outcomes(mine: list[dict], theirs: list[dict], better: dict) -> dict:
    """Per workload and metric: in how many of the pairs (mine[i],
    theirs[i]) my run was better, by the metric's direction."""
    out: dict = {}
    for a, b in zip(mine, theirs):
        per = out.setdefault(a["environment"]["workload"], {})
        for name, direction in better.items():
            sign = 1.0 if direction == "higher" else -1.0
            won = sign * (metric(a, name) - metric(b, name)) > 0.0
            cell = per.setdefault(name, {"better": 0, "pairs": 0})
            cell["better"] += won
            cell["pairs"] += 1
    return out


def verdict(mine: list[dict], theirs: list[dict], declared: list[dict]) -> dict:
    """Per workload and metric, the pairs (mine[i], theirs[i]) judged seed
    by seed against ``BENCHMARK.json``'s end-to-end list.

    ``gain``: in every seed, my run was better in at least 9 of 10 pairs,
    and my median beats the parent's by more than the parent's
    interquartile range.  ``within_bound``: in every seed, my median is
    worse than the parent's by at most ``bound`` times the parent's median.
    """
    by_seed: dict = {}
    for a, b in zip(mine, theirs):
        env = a["environment"]
        by_seed.setdefault((env["workload"], env["seed"]), []).append((a, b))
    out: dict = {}
    for (workload, seed), pairs in by_seed.items():
        for m in declared:
            sign = 1.0 if m["better"] == "higher" else -1.0
            v = [metric(a, m["name"]) for a, _ in pairs]
            p = [metric(b, m["name"]) for _, b in pairs]
            better = sum(sign * (x - y) > 0.0 for x, y in zip(v, p))
            q1, parent_median, q3 = quartiles(p)
            gain = sign * (statistics.median(v) - parent_median)
            allowed = m["bound"] * abs(parent_median)
            cell = out.setdefault(workload, {}).setdefault(
                m["name"], {"gain": True, "within_bound": True, "seeds": {}})
            cell["gain"] &= 10 * better >= 9 * len(pairs) and gain > q3 - q1
            cell["within_bound"] &= -gain <= allowed
            cell["seeds"][str(seed)] = {
                "better": better, "pairs": len(pairs), "median_gain": gain,
                "parent_iqr": q3 - q1, "allowed_loss": allowed}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, required=True)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--out", type=Path, default=Path.cwd())
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    sides = {args.tag: checkout}
    if args.parent is not None:
        parent = args.parent.resolve()
        tag = git(parent, "rev-parse", "--short", "HEAD")
        if not tag or tag == args.tag:
            ap.error("the parent must be a git checkout whose short commit "
                     "is not the checkout's tag")
        sides = {tag: parent, args.tag: checkout}
    pairs = PAIRS if len(sides) == 2 else 1
    runs: dict[str, list[dict]] = {tag: [] for tag in sides}
    for w in declared["workloads"]:
        for i in range(pairs):
            for seed in args.seeds:
                order = list(sides.items())
                for tag, path in (order if i % 2 == 0 else order[::-1]):
                    runs[tag].append(bench(path, w["name"], seed,
                                           declared["run_seconds"]))
    for tag, path in sides.items():
        commit = git(path, "rev-parse", "HEAD")
        status = git(path, "status", "--porcelain", "--untracked-files=no")
        record = {
            "tag": tag,
            "commit": commit,
            "clean": commit is not None and status == "",
            "src_lines": source_lines(path),
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "summary": summary(runs[tag], list(better)),
        }
        others = [t for t in sides if t != tag]
        if others:
            record["paired_with"] = others[0]
            record["pair_outcomes"] = pair_outcomes(runs[tag], runs[others[0]], better)
            if tag == args.tag:
                record["verdict"] = verdict(runs[tag], runs[others[0]],
                                            declared["end_to_end"])
        record["runs"] = runs[tag]
        record["tier1"] = tier1(path)
        out = args.out / f"BENCH_{tag}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

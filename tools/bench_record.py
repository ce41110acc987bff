"""Record a checkout's benchmark numbers in ``BENCH_<tag>.json``.

    python tools/bench_record.py --checkout DIR --tag TAG [--seeds 1 2]
                                 [--out DIR]

For every workload that the checkout's ``BENCHMARK.json`` lists and every
seed, runs the checkout's own ``perfbench/run.py --trace 0`` in the
checkout, for the ``run_seconds`` that the same file sets, and keeps the
two lines it ends with, the environment record and the result, as it
printed them (parsed, not edited).  Then it times the checkout's Tier-1
suite (``python -m pytest -q --continue-on-collection-errors`` with
``src`` on the path) and writes everything, with the checkout's commit and
whether its tree was clean (``git status`` succeeded and listed no change
to a tracked file), to ``<out>/BENCH_<tag>.json`` (``out`` defaults to the
current directory).  Runs are sequential, one workload at a time; with one
seed and 20 s per run, a record takes about 3 minutes on a 2-CPU VM.  A
before/after pair is two records from the same machine, the "before" made
from a clean clone of the parent commit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, required=True)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--out", type=Path, default=Path.cwd())
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    runs = [bench(checkout, w["name"], seed, declared["run_seconds"])
            for w in declared["workloads"] for seed in args.seeds]
    commit = git(checkout, "rev-parse", "HEAD")
    status = git(checkout, "status", "--porcelain", "--untracked-files=no")
    record = {
        "tag": args.tag,
        "commit": commit,
        "clean": commit is not None and status == "",
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "runs": runs,
        "tier1": tier1(checkout),
    }
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

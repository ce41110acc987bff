"""torweyl benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Workloads are defined in workloads.py.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median wall time of one iteration of the workload's
  ``torweyl.cli.main`` call(s), timed in-process after imports;
- ``throughput``: work items per second at that median (trials, grid points
  or volume cases);
- ``setup_s``: median over fresh interpreters of ``import torweyl.cli``;
- ``peak_rss_mb``: peak resident memory of the child process that ran the
  workload;
- ``ok_ratio``: operations that succeeded over operations attempted
  (1 - fail ratio; a ratio that is 0 on a healthy run cannot carry a
  relative bound).

``--trace 1`` makes a separate run that alternates untraced and traced
iterations and reports the per-layer metrics of layers.PER_LAYER, including
the tracing overhead (traced minus untraced median wall time).

Each iteration is a closed loop of one caller: the next starts when the
previous one has returned.  No BLAS environment variable is set.  The last
line of standard output is the JSON result; the line before it records the
environment.  Exit status 2 means the checkout holds no torweyl sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
IMPORT_SAMPLES = 5
TIME_LIMIT_S = 170.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import torweyl.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds(env: dict) -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes, for the harness self-tests")
    args = ap.parse_args(argv)
    began = time.perf_counter()

    if not (ROOT / "src" / "torweyl" / "cli.py").is_file():
        print(f"no torweyl sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    env = child_env()
    setup = [import_seconds(env) for _ in range(IMPORT_SAMPLES)]

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure_and_report(args, env, setup, work, WORK / f"spans-{tag}.jsonl",
                                  deadline=began + TIME_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_and_report(args, env: dict, setup: list[float], work: Path, spans: Path,
                       deadline: float) -> int:
    spans.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work),
           "--result", str(work / "result.json"), "--spans", str(spans)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                               timeout=deadline - time.perf_counter())
    except subprocess.TimeoutExpired:
        print("workload did not finish within the time limit", file=sys.stderr)
        return 1
    if child.returncode != 0:
        sys.stderr.write(child.stderr[-4000:])
        print(f"measurement process exited with {child.returncode}", file=sys.stderr)
        return 1
    res = json.loads((work / "result.json").read_text())

    import checks
    import layers
    import numpy
    import scipy

    wl = workloads.make(args.workload, args.seed, work / "configs", args.smoke)
    golden = json.loads((HERE / "golden.json").read_text())
    outcome = checks.check(work / "iter0", wl, golden, res["codes"][0], args.smoke)
    problems = list(outcome.problems)
    if res["mismatch"]:
        problems.append(f"iterations wrote different outputs: {res['mismatch']}")

    if any(codes != res["codes"][0] for codes in res["codes"]):
        problems.append(f"exit codes differ between iterations: {res['codes']}")
    # every iteration wrote the same bytes, so each failed the operations
    # that the checked first one failed
    iterations = len(res["codes"])
    attempted = outcome.attempted * iterations
    failed = outcome.failed * iterations

    notes = []
    if args.trace:
        metrics_raw = dict(res["layers"])
        ref = golden["counts"].get(args.workload, {}).get(str(args.seed), {})
        compared = changed = 0
        for h, got in outcome.counts.items():
            for a, b in zip(got, ref.get(h, [])):
                compared += 1
                changed += a != b
        metrics_raw["experiments.trials_failed"] = float(outcome.failed)
        metrics_raw["experiments.counts_changed"] = float(changed)
        metrics_raw["experiments.counts_compared"] = float(compared)
        for name in layers.required(wl):
            if not metrics_raw[name] > 0.0:
                problems.append(f"per-layer metric {name} was not measured")
        share = metrics_raw["trace.spectral_toeplitz_share"]
        if args.workload == "weyl-acceptance" and not args.smoke and share <= 0.5:
            notes.append(f"discrepancy: spectral plus Toeplitz self time is "
                         f"{share:.2f} of the traced time, expected most of it")
        metrics = {name: {"value": float(metrics_raw[name]), "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        wall = statistics.median(res["wall"])
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "throughput": {"value": wl.items / wall, "unit": "items/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["maxrss_kb"] / 1024.0, "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for n in notes:
        print(n, file=sys.stderr)
    environment = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "iterations": iterations, "wall_samples": res["wall"],
        "traced_wall_samples": res["traced_wall"], "setup_samples": setup,
        "items_per_iteration": wl.items, "matrix": outcome.matrix,
        "cases": res["cases"], "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": res["blas"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "notes": notes,
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

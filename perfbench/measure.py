"""Closed-loop measurement of one workload in a fresh interpreter.

run.py starts this script as a child process, so the child's peak resident
memory is the workload's own.  It imports torweyl, then calls
``torweyl.cli.main`` on the workload's generated configs, one iteration after
another, until the time budget is spent (to the nearest iteration) and at
least ``MIN_ITERATIONS`` ran.
The first iteration's outputs are kept for the output checks; every later
iteration must write byte-identical files.

With ``--trace 1`` it alternates untraced and traced iterations (swapping
which goes first in each pair) and records spans around the functions
listed in layers.PATCHES.  The result goes to a JSON file; spans are
appended as JSON lines to the ``--spans`` file after the loop ends.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import filecmp
import io
import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import layers
import workloads
from tracer import Tracer

MIN_ITERATIONS = 3


def blas_libraries() -> list[dict]:
    """OpenBLAS builds loaded in this process, with the thread count in effect."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in info:
                    get_threads.restype = ctypes.c_int
                    info["threads"] = get_threads()
                if get_config is not None and "config" not in info:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
        out.append(info)
    return out


def same_tree(a: Path, b: Path) -> str | None:
    """None if both trees hold the same files with the same bytes."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return f"file sets differ: {sorted(set(files_a) ^ set(files_b))[:5]}"
    for rel in files_a:
        if not filecmp.cmp(a / rel, b / rel, shallow=False):
            return f"{rel} differs"
    return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args()

    from torweyl import cli

    wl = workloads.make(args.workload, args.seed, args.work / "configs", args.smoke)

    def iteration(out: Path, tracer: Tracer | None) -> tuple[float, list[int]]:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            for argv in wl.calls(out):
                if tracer is None:
                    codes.append(cli.main(argv))
                else:
                    with tracer.span("cli.main"):
                        codes.append(cli.main(argv))
            wall = time.perf_counter() - start
        return wall, codes

    reference = args.work / "iter0"
    walls, traced_walls, codes, per_iteration = [], [], [], []
    mismatch = None
    tracers = []
    start = time.perf_counter()
    k = 0
    while True:
        if args.trace:
            # pairs of one untraced and one traced iteration, taking turns
            # at going first: U T, T U, U T, ...
            traced = (k + k // 2) % 2 == 1
            enough = k >= 2 and k % 2 == 0
            step = statistics.median(walls) + statistics.median(traced_walls) if enough else 0.0
        else:
            traced = False
            enough = k >= MIN_ITERATIONS
            step = statistics.median(walls) if enough else 0.0
        # stop at the iteration boundary nearest the time budget
        if enough and time.perf_counter() - start + 0.5 * step >= args.seconds:
            break
        out = args.work / f"iter{k}"
        tracer = None
        if traced:
            tracer = Tracer()
            layers.install(tracer)
        try:
            wall, iter_codes = iteration(out, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        codes.append(iter_codes)
        if tracer is None:
            walls.append(wall)
        else:
            traced_walls.append(wall)
            per_iteration.append(layers.iteration_metrics(tracer.spans, wl.size.workers))
            tracers.append((k, tracer))
        if k > 0:
            mismatch = mismatch or same_tree(reference, out)
            shutil.rmtree(out, ignore_errors=True)
        k += 1

    for index, tracer in tracers:
        tracer.write_jsonl(args.spans, workload=wl.name, seed=wl.seed, iteration=index)
    result = {
        "wall": walls,
        "traced_wall": traced_walls,
        "codes": codes,
        "mismatch": mismatch,
        "cases": list(wl.cases),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas": blas_libraries(),
        "layers": (layers.combine(per_iteration, walls, traced_walls)
                   if per_iteration else None),
    }
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()

"""Record the reference values the output checks compare against.

Run from the repository root on the commit whose values are the reference:

    PYTHONPATH=src python3 perfbench/make_golden.py

It writes ``perfbench/golden.json`` with

- ``weyl``: prediction, tube volume and volume-grid cell area per h;
- ``phase``: volume and kappa fit per phase-volumes case, each with the
  change one quadrature cell can make (for kappa, propagated through the
  least-squares slope);
- ``counts``: the eigenvalue counts of both weyl workloads for the seeds in
  ``COUNT_SEEDS``, used only for the informational ``counts_changed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import sys
from pathlib import Path

import numpy as np

import workloads
from torweyl import cli
from torweyl.symbols import (
    BoundaryTube, Disk, Rectangle, catalog_symbol, certified_xi_bound,
    default_grid, sublevel_volumes,
)

COUNT_SEEDS = range(0, 21)
HERE = Path(__file__).resolve().parent


def run(wl, out: Path) -> None:
    for argv in wl.calls(out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"{argv} exited with {code}")


def weyl_reference(tmp: Path) -> dict:
    wl = workloads.make("weyl-acceptance", 0, tmp / "cfg")
    run(wl, tmp / "out")
    report = json.loads((tmp / "out" / "report.json").read_text())
    spec = catalog_symbol("xi2+exp(ix)")
    xb = certified_xi_bound(spec, BoundaryTube(Rectangle(*workloads.WEYL_REGION), 0.1))
    cell = (2 * math.pi / 1024) * (2 * xb / 1024)
    return {f"{rec['h']:g}": {"prediction": rec["prediction"],
                              "tube_volume": rec["tube_volume"], "cell": cell}
            for rec in report["per_h"]}


def phase_reference(tmp: Path, smoke: bool) -> dict:
    wl = workloads.make("phase-volumes", 0, tmp / "cfg", smoke=smoke)
    run(wl, tmp / "out")
    n = wl.size.phase_n
    cases = {c[0]: c for c in workloads.PHASE_CASES}
    out = {}
    for case in sorted(wl.cases):
        got = json.loads((tmp / "out" / case / "volume.json").read_text())
        _, model, z = cases[case]
        spec = catalog_symbol(model)
        # the kappa fit as cmd_volume runs it: default grid, t in [1e-4, 1e-1]
        grid = default_grid(spec, Disk(z, math.sqrt(0.1)), n_x=2048, n_xi=2048)
        lt = np.log(np.geomspace(1e-4, 1e-1, 8))
        vols = sublevel_volumes(spec, z, np.exp(lt), grid)
        w = (lt - lt.mean()) / np.sum((lt - lt.mean()) ** 2)
        out[case] = {
            "volume": got["volume"],
            "volume_tol": (2 * math.pi / n) * (2 * got["xi_bound"] / n),
            "kappa_hat": got["kappa_hat"],
            "kappa_tol": float(np.sum(np.abs(w) * grid.cell_area / vols)),
        }
    return out


def counts(tmp: Path) -> dict:
    out: dict = {}
    for name in ("weyl-acceptance", "weyl-small-pool"):
        for seed in COUNT_SEEDS:
            wl = workloads.make(name, seed, tmp / "cfg")
            run(wl, tmp / "out")
            report = json.loads((tmp / "out" / "report.json").read_text())
            out.setdefault(name, {})[str(seed)] = {
                f"{rec['h']:g}": [t["count"] for t in rec["trials"]]
                for rec in report["per_h"]}
            shutil.rmtree(tmp / "out")
    return out


def main() -> None:
    tmp = Path(".bench_work") / "golden"
    shutil.rmtree(tmp, ignore_errors=True)
    golden = {
        "weyl": weyl_reference(tmp / "weyl"),
        "phase": {"full": phase_reference(tmp / "phase", False),
                  "smoke": phase_reference(tmp / "phase-smoke", True)},
        "counts": counts(tmp / "counts"),
    }
    text = json.dumps(golden, indent=1, sort_keys=True)
    # one line per list of counts
    text = re.sub(r"\[[-\d,\s]*\]", lambda m: json.dumps(json.loads(m.group())), text)
    (HERE / "golden.json").write_text(text + "\n")
    shutil.rmtree(tmp)


if __name__ == "__main__":
    main()

"""Output checks that any backward-stable eigen or SVD path passes.

- predictions, tube volumes, phase volumes and kappa fits agree with the
  values recorded at the commit that defined the benchmark (``golden.json``)
  to within one quadrature cell;
- every trial has N eigenvalues, and the region count recomputed from the
  eigenvalue CSV equals the reported count;
- |sum(lambda) - tr A| <= TRACE_C * N * eps * ||A||_2 (the drawn potential
  has no zero mode, so tr A = tr P of the unperturbed matrix);
- sampled pseudospectrum values agree with an independent numpy SVD of a
  matrix the benchmark rebuilds itself.

No check compares an eigenvalue count with a recorded count: counts follow
LAPACK rounding, so they only feed the informational ``counts_changed``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from torweyl.operators import GridParams, assemble_differential
from torweyl.perturbation import derive_params, sample_potential, split_seed
from torweyl.symbols import catalog_symbol
from workloads import WEYL_REGION

EPS = float(np.finfo(float).eps)
# |sum(lambda) - tr A| measured 0.02-0.5 of N eps ||A|| on the seeded trials
TRACE_C = 10.0
# sigma_min of two backward-stable SVDs differ by up to ~N eps ||A - z||;
# above that floor they must agree to this relative tolerance
PSEUDO_REL = 1e-8
PSEUDO_SAMPLES = 12


@dataclass
class Outcome:
    """Result of checking one iteration's outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, list[int]] = field(default_factory=dict)
    matrix: dict[str, dict] = field(default_factory=dict)


def read_rows(path: Path) -> list[list[str]]:
    """Data rows of a versioned CSV (schema row and header dropped)."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[2:]


def read_eigs(path: Path) -> np.ndarray:
    rows = read_rows(path)
    return np.array([complex(float(a), float(b)) for a, b in rows])


def trace_defect(eigs: np.ndarray, entries: np.ndarray) -> float:
    """|sum(eigs) - tr A| in units of N eps ||A||_2."""
    n = entries.shape[0]
    scale = n * EPS * float(np.linalg.norm(entries, 2))
    return abs(complex(eigs.sum()) - complex(np.trace(entries))) / scale


def count_in_rect(eigs: np.ndarray, rect) -> int:
    re_lo, re_hi, im_lo, im_hi = rect
    inside = ((eigs.real >= re_lo) & (eigs.real <= re_hi)
              & (eigs.imag >= im_lo) & (eigs.imag <= im_hi))
    return int(np.count_nonzero(inside))


def check_eigs(o: Outcome, label: str, path: Path, base: np.ndarray,
               count: int | None = None, rect=None) -> None:
    """Eigenvalue-list checks against the matrix whose trace it must carry."""
    if not path.is_file():
        o.problems.append(f"{label}: missing {path.name}")
        return
    eigs = read_eigs(path)
    if len(eigs) != base.shape[0]:
        o.problems.append(f"{label}: {len(eigs)} eigenvalues, N = {base.shape[0]}")
        return
    defect = trace_defect(eigs, base)
    if not defect <= TRACE_C:
        o.problems.append(f"{label}: |sum(lambda) - tr A| = {defect:.3g} "
                          f"N eps ||A|| > {TRACE_C:g}")
    if count is not None and count_in_rect(eigs, rect) != count:
        o.problems.append(f"{label}: CSV holds {count_in_rect(eigs, rect)} "
                          f"eigenvalues in the region, report says {count}")


def check_weyl(out: Path, wl, golden: dict, codes: list[int]) -> Outcome:
    o = Outcome(attempted=wl.items)
    if codes[0] != 0:
        o.failed = wl.items
        return o
    report = json.loads((out / "report.json").read_text())
    spec = catalog_symbol("xi2+exp(ix)")
    hs = [rec["h"] for rec in report["per_h"]]
    if hs != list(wl.size.h_values):
        o.problems.append(f"report covers h = {hs}, expected {wl.size.h_values}")
    for rec in report["per_h"]:
        h, tag = rec["h"], f"{rec['h']:g}"
        o.matrix[tag] = {"N": rec["matrix_dim"], "K": rec["K"],
                         "D": rec["plan"]["D"]}
        ref = golden["weyl"].get(tag)
        if ref is None:
            o.problems.append(f"h = {tag}: no recorded prediction")
        else:
            if abs(rec["prediction"] - ref["prediction"]) > ref["cell"] / (2 * math.pi * h):
                o.problems.append(f"h = {tag}: prediction {rec['prediction']!r} "
                                  f"vs recorded {ref['prediction']!r}")
            if abs(rec["tube_volume"] - ref["tube_volume"]) > ref["cell"]:
                o.problems.append(f"h = {tag}: tube volume {rec['tube_volume']!r} "
                                  f"vs recorded {ref['tube_volume']!r}")
        if len(rec["trials"]) != wl.size.trials:
            o.problems.append(f"h = {tag}: {len(rec['trials'])} trials reported")
        P = assemble_differential(spec, GridParams(h=h, K=rec["K"])).entries
        labelled = [("base", rec["baseline"])] + list(
            (str(i), t) for i, t in enumerate(rec["trials"]))
        for label, trial in labelled:
            if trial["error"] is not None:
                o.failed += label != "base"
                if label == "base":
                    o.problems.append(f"h = {tag}: baseline failed: {trial['error']}")
                continue
            check_eigs(o, f"h = {tag} trial {label}", out / f"eigs_{tag}_{label}.csv",
                       P, trial["count"], WEYL_REGION)
        o.counts[tag] = [t["count"] for t in rec["trials"]]
    return o


def check_spectrum(out: Path, wl, codes: list[int]) -> Outcome:
    o = Outcome(attempted=wl.items)
    if codes[0] != 0:
        o.failed = wl.items
        return o
    params = json.loads((out / "params.json").read_text())
    h, K, tag = params["h"], params["K"], f"{params['h']:g}"
    o.matrix[tag] = {"N": params["N"], "K": K, "D": params["plan"]["D"]}
    spec = catalog_symbol("xi2+exp(ix)")
    grid = GridParams(h=h, K=K)
    P = assemble_differential(spec, grid).entries
    check_eigs(o, "base", out / f"eigs_{tag}_base.csv", P)
    check_eigs(o, "perturbed", out / f"eigs_{tag}_0.csv", P)

    # the perturbed matrix, rebuilt as cmd_spectrum draws it but with the
    # Toeplitz matrix from scipy instead of the program's convolution_matrix
    plan = derive_params(n=1, s="2", epsilon="0.5", kappa=str(1.0 / (2 * spec.m)),
                         h=h, mode="effective", delta_eff=1e-12, l_cap=h * K)
    if json.loads(json.dumps(plan.as_dict())) != params["plan"]:
        o.problems.append("rebuilt perturbation plan differs from params.json")
    pot = sample_potential(plan, split_seed(wl.seed, 0))
    c = pot.q.coeffs
    col = np.array([c.get(j, 0j) for j in range(grid.N)])
    row = np.array([c.get(-j, 0j) for j in range(grid.N)])
    A = P + (plan.delta / pot.sup_q()) * scipy.linalg.toeplitz(col, row)

    rows = read_rows(out / f"pseudospec_{tag}.csv")
    if len(rows) != wl.items:
        o.problems.append(f"{len(rows)} pseudospectrum points, expected {wl.items}")
    values = [float(r[2]) for r in rows]
    o.failed = sum(1 for v in values if math.isnan(v))
    eye = np.eye(grid.N)
    for i in random.Random(wl.seed).sample(range(len(rows)), min(PSEUDO_SAMPLES, len(rows))):
        z = complex(float(rows[i][0]), float(rows[i][1]))
        sv = np.linalg.svd(A - z * eye, compute_uv=False)
        ref, floor = float(sv[-1]), grid.N * EPS * float(sv[0])
        if not abs(values[i] - ref) <= max(PSEUDO_REL * ref, floor):
            o.problems.append(f"pseudospectrum at {z}: {values[i]!r} vs "
                              f"independent {ref!r} (floor {floor:.3g})")
    return o


def check_volume(out: Path, wl, golden: dict, codes: list[int],
                 smoke: bool) -> Outcome:
    o = Outcome(attempted=wl.items)
    ref = golden["phase"]["smoke" if smoke else "full"]
    for case, code in zip(wl.cases, codes):
        path = out / case / "volume.json"
        if code != 0 or not path.is_file():
            o.failed += 1
            continue
        got = json.loads(path.read_text())
        want = ref[case]
        for key, tol in (("volume", "volume_tol"), ("kappa_hat", "kappa_tol")):
            if abs(got[key] - want[key]) > want[tol]:
                o.problems.append(f"{case}: {key} {got[key]!r} vs recorded "
                                  f"{want[key]!r} (tolerance {want[tol]:.3g})")
    return o


def check(out: Path, wl, golden: dict, codes: list[int], smoke: bool) -> Outcome:
    if wl.kind == "weyl":
        return check_weyl(out, wl, golden, codes)
    if wl.kind == "spectrum":
        return check_spectrum(out, wl, codes)
    return check_volume(out, wl, golden, codes, smoke)

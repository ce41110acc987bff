"""Text formats for symbols, regions, plans and reports.

Everything here is line-oriented and diff-friendly.  Floats are written with
repr (shortest round-trip), so identical inputs always produce identical
bytes; reports carry no timestamps.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence

import numpy as np

from .perturbation import PerturbationPlan
from .symbols import BoundaryTube, Disk, Rectangle, Region, SymbolSpec, TrigPoly

SYMBOL_HEADER = "symbol v1"
PLAN_HEADER = "plan v1"


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def dumps_symbol(spec: SymbolSpec) -> str:
    lines = [SYMBOL_HEADER, f"m {spec.m}"]
    for alpha in range(spec.m + 1):
        poly = spec.a[alpha]
        lines.append(f"alpha {alpha} real {int(poly.real)}")
        for k, c in poly.items():
            lines.append(f"{k} {c.real!r} {c.imag!r}")
    if spec.h_corrections is not None:
        for alpha in range(spec.m + 1):
            poly = spec.h_corrections[alpha]
            if poly.is_zero():
                continue
            lines.append(f"correction {alpha} real {int(poly.real)}")
            for k, c in poly.items():
                lines.append(f"{k} {c.real!r} {c.imag!r}")
    return "\n".join(lines) + "\n"


def loads_symbol(text: str) -> SymbolSpec:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SYMBOL_HEADER:
        raise ValueError(f"expected leading {SYMBOL_HEADER!r} line")
    if not lines[1].startswith("m "):
        raise ValueError("expected symbol order line 'm <int>'")
    m = int(lines[1].split()[1])
    coeffs: list[dict[int, complex]] = [dict() for _ in range(m + 1)]
    flags = [False] * (m + 1)
    corrections: list[dict[int, complex]] | None = None
    corr_flags = [False] * (m + 1)
    current: dict[int, complex] | None = None
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] == "alpha":
            alpha = int(parts[1])
            flags[alpha] = bool(int(parts[3]))
            current = coeffs[alpha]
        elif parts[0] == "correction":
            if corrections is None:
                corrections = [dict() for _ in range(m + 1)]
            alpha = int(parts[1])
            corr_flags[alpha] = bool(int(parts[3]))
            current = corrections[alpha]
        else:
            if current is None:
                raise ValueError(f"coefficient line before any section: {ln!r}")
            k, re, im = int(parts[0]), float(parts[1]), float(parts[2])
            current[k] = complex(re, im)
    a = tuple(TrigPoly(c, real=f) for c, f in zip(coeffs, flags))
    hc = None
    if corrections is not None:
        hc = tuple(TrigPoly(c, real=f) for c, f in zip(corrections, corr_flags))
    return SymbolSpec(m=m, a=a, h_corrections=hc)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def dumps_region(region: Region) -> str:
    if isinstance(region, Rectangle):
        return (f"rectangle {region.re_lo!r} {region.re_hi!r} "
                f"{region.im_lo!r} {region.im_hi!r}")
    if isinstance(region, Disk):
        return (f"disk {region.center.real!r} {region.center.imag!r} "
                f"{region.radius!r}")
    if isinstance(region, BoundaryTube):
        return f"tube {region.r!r} {dumps_region(region.base)}"
    raise TypeError(f"not a region: {region!r}")


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def plan_to_text(plan: PerturbationPlan) -> str:
    lines = [PLAN_HEADER]
    for key, val in plan.as_dict().items():
        lines.append(f"{key} = {val!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV and JSON reports
# ---------------------------------------------------------------------------

def csv_text(schema: str, header: Sequence[str],
             rows: Iterable[Sequence]) -> str:
    """CSV with the versioned schema string on row 1."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"schema={schema}"])
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, complex):
        return f"{float(v.real)!r}+{float(v.imag)!r}j"
    return str(v)


def json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def eigs_csv(eigvals: np.ndarray) -> str:
    rows = [(float(z.real), float(z.imag)) for z in eigvals]
    return csv_text("torweyl.eigs.v1", ("re", "im"), rows)


def pseudospec_csv(points: Sequence[complex], values: Sequence[float]) -> str:
    rows = [(float(z.real), float(z.imag), float(v))
            for z, v in zip(points, values)]
    return csv_text("torweyl.pseudospec.v1", ("re", "im", "value"), rows)


def trials_csv(report_dict: dict) -> str:
    """Flat per-trial rows across every h in a report dictionary."""
    rows = []
    for rec in report_dict["per_h"]:
        for label, trial in [("baseline", rec["baseline"])] + [
            (str(i), t) for i, t in enumerate(rec["trials"])
        ]:
            rows.append((
                rec["h"], label, trial["seed"], trial["count"],
                rec["prediction"], trial["relative_error"],
                trial["error"] or "",
            ))
    return csv_text(
        "torweyl.trials.v1",
        ("h", "trial", "seed", "count", "prediction", "relative_error", "error"),
        rows,
    )

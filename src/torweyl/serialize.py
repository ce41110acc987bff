"""Text formats for symbols, regions and reports.

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

from .symbols import BoundaryTube, Disk, Rectangle, Region, SymbolSpec, TrigPoly

SYMBOL_HEADER = "symbol v1"


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
    """The symbol of a text in ``dumps_symbol``'s format.

    The header, ``m <m>``, and sections ``alpha <a> real <0|1>``, one for
    each a in 0..m, and ``correction <a> real <0|1>``, at most one for each,
    each followed by lines ``k re im``: an integer k, given once, and a
    finite amplitude.  Anything else raises ValueError naming the line.
    The sections, never the declared m, size what is built.
    """
    rows = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1)
            if ln.strip()]
    if not rows or rows[0][1] != SYMBOL_HEADER.split():
        raise ValueError(f"expected leading {SYMBOL_HEADER!r} line")
    order = rows[1][1] if len(rows) > 1 else []
    if len(order) != 2 or order[0] != "m" or not order[1].isdecimal():
        raise ValueError("expected the order line 'm <m>' after the header")
    m, sections, current = int(order[1]), {}, None
    for no, parts in rows[2:]:
        try:
            if parts[0] in ("alpha", "correction"):
                if len(parts) != 4 or parts[2:] not in (["real", "0"], ["real", "1"]):
                    raise ValueError(f"expected '{parts[0]} <a> real <0|1>'")
                key = (parts[0], int(parts[1]))
                if not 0 <= key[1] <= m:
                    raise ValueError(f"index outside 0..{m}")
                if key in sections:
                    raise ValueError("section given twice")
                current = sections[key] = (parts[3] == "1", {})
            elif current is None:
                raise ValueError("coefficient line before any section")
            elif len(parts) != 3:
                raise ValueError("expected a coefficient line 'k re im'")
            else:
                k, c = int(parts[0]), complex(float(parts[1]), float(parts[2]))
                if not np.isfinite(c):
                    raise ValueError("amplitude is not finite")
                if k in current[1]:
                    raise ValueError(f"frequency {k} given twice")
                current[1][k] = c
        except ValueError as exc:
            raise ValueError(f"symbol line {no} {' '.join(parts)!r}: {exc}") from None
    # the indices are distinct and in 0..m, so m + 1 of them are all of 0..m
    if sum(kind == "alpha" for kind, _ in sections) != m + 1:
        raise ValueError(f"expected an 'alpha <a>' section for each a in 0..{m}")
    polys = {key: TrigPoly(c, real=real) for key, (real, c) in sections.items()}
    hc = tuple(polys.get(("correction", a), TrigPoly.zero()) for a in range(m + 1))
    return SymbolSpec(m=m, a=tuple(polys["alpha", a] for a in range(m + 1)),
                      h_corrections=hc if len(polys) > m + 1 else None)


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
    return str(v)


def json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


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

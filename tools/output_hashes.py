"""sha256 of everything the shipped configs write.

Runs every ``configs/*.cfg`` through ``torweyl.cli.main`` with no overrides,
each in its own directory under a temporary root, and prints one sorted
``sha256  path`` line per output file (``<config stem>/<file>``) and per
command's stdout (``<config stem>.stdout``), after a first line that names
the CPU kernel of numpy's bundled OpenBLAS (``None`` where numpy bundles
none).  Two checkouts produce the same bytes exactly when their listings
are equal.  ``tools/output_hashes.txt`` is the committed reference
listing, and a change that keeps every output byte-identical gives an
empty diff against it:

    diff <(PYTHONPATH=src python tools/output_hashes.py) tools/output_hashes.txt

The run takes about 10 s on a 2-CPU VM; ``weyl_acceptance.cfg``
dominates.  The ``weyl_*`` and ``spectrum`` hashes depend on LAPACK's
rounding and so on the OpenBLAS kernel chosen for the CPU model: they match
the reference only under the kernel its first line names.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from torweyl.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the subcommand that reads each shipped config
COMMAND = {
    "derive_params": "derive-params",
    "volume": "volume",
    "spectrum": "spectrum",
    "weyl_acceptance": "weyl-ensemble",
    "weyl_small": "weyl-ensemble",
    "line_check": "line-check",
    "identity_checks": "identity-checks",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def openblas_kernel() -> str | None:
    """The CPU kernel that numpy's bundled OpenBLAS dispatches to, or None
    where numpy bundles none.  That library, already loaded with numpy, is
    the one whose zgees ``torweyl.spectral`` calls."""
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            corename = lib.scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def output_hashes(root: Path) -> list[str]:
    lines = []
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        out = root / cfg.stem
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([COMMAND[cfg.stem], "--config", str(cfg),
                         "--out", str(out)])
        if code != 0:
            raise SystemExit(f"{cfg.name}: exit code {code}")
        lines.append(f"{digest(stdout.getvalue().encode())}  {cfg.stem}.stdout")
        lines += [f"{digest(p.read_bytes())}  {p.relative_to(root)}"
                  for p in out.iterdir()]
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"openblas kernel: {openblas_kernel()}", *output_hashes(Path(tmp))]
        sys.stdout.write("".join(line + "\n" for line in lines))

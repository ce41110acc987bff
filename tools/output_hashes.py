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
dominates.  The ``weyl_*``, ``spectrum`` and ``identity_checks`` hashes
depend on LAPACK's rounding and so on the OpenBLAS kernel chosen for the CPU
model: they match the reference only under the kernel its first line names.
``tests/test_output_hashes.py`` checks every config but ``weyl_acceptance``
against the reference, line by line, with ``config_hashes``.  numpy's OpenBLAS
names the generic x86-64 kernel (``OPENBLAS_CORETYPE=Prescott`` or
``Core2``) ``Katmai``, so a first line ``openblas kernel: Katmai`` means
that kernel.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from torweyl.cli import main
from torweyl.spectral import _openblas_kernel as openblas_kernel

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


def config_hashes(cfg: Path, root: Path) -> list[str]:
    """The lines of one shipped config: its command's stdout and each file
    that the command writes into ``root / <config stem>``."""
    out = root / cfg.stem
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([COMMAND[cfg.stem], "--config", str(cfg), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{cfg.name}: exit code {code}")
    return [f"{digest(stdout.getvalue().encode())}  {cfg.stem}.stdout",
            *(f"{digest(p.read_bytes())}  {p.relative_to(root)}"
              for p in out.iterdir())]


def output_hashes(root: Path) -> list[str]:
    lines = [line for cfg in sorted(CONFIGS.glob("*.cfg"))
             for line in config_hashes(cfg, root)]
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"openblas kernel: {openblas_kernel()}", *output_hashes(Path(tmp))]
        sys.stdout.write("".join(line + "\n" for line in lines))

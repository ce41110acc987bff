"""sha256 of everything the shipped configs write.

Runs every ``configs/*.cfg`` through ``torweyl.cli.main`` with no overrides,
each in its own directory under a temporary root, and prints one sorted
``sha256  path`` line per output file (``<config stem>/<file>``) and per
command's stdout (``<config stem>.stdout``).  Two checkouts produce the same
bytes exactly when their listings are equal.  ``tools/output_hashes.txt`` is
the committed reference listing, and a change that keeps every output
byte-identical gives an empty diff against it:

    diff <(PYTHONPATH=src python tools/output_hashes.py) tools/output_hashes.txt

The run takes about 10 s on a 2-CPU VM; ``weyl_acceptance.cfg``
dominates.  The ``weyl_*`` and ``spectrum`` hashes depend on LAPACK's
rounding and so on the OpenBLAS kernel chosen for the CPU model: they match
the reference only on the CPU model it was recorded on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

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
        sys.stdout.write("".join(line + "\n" for line in output_hashes(Path(tmp))))

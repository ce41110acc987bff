"""The shipped configs write the bytes that tools/output_hashes.txt lists.

Every config but ``weyl_acceptance`` (about 7 s; ``tools/output_hashes.py``
still covers it) runs here as ``tools/output_hashes.py`` runs it, and each
of its lines must equal the listing's.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
LISTING = ROOT / "tools" / "output_hashes.txt"


@pytest.mark.parametrize("stem", sorted(
    p.stem for p in CONFIGS.glob("*.cfg") if p.stem != "weyl_acceptance"))
def test_outputs_match_the_listing(stem, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from output_hashes import config_hashes, openblas_kernel

    first, *lines = LISTING.read_text().splitlines()
    kernel = f"openblas kernel: {openblas_kernel()}"
    if kernel != first:
        pytest.skip(f"the listing was made under '{first}', and LAPACK's "
                    f"rounding differs under '{kernel}'")
    listed = sorted(line for line in lines
                    if line.split("  ", 1)[1].startswith((f"{stem}/", f"{stem}.stdout")))
    got = sorted(config_hashes(CONFIGS / f"{stem}.cfg", tmp_path))
    assert got == listed

"""The four benchmark workloads.

Each workload is generated from the benchmark seed: the seed goes into the
config the program reads (master seed or perturbation seed) or, for
``phase-volumes``, which has no randomness, sets the order of its cases.
The program sees only the generated config files and CLI overrides.

Why these four (each optimisation named in the ROADMAP gets one workload that
exercises it and one that bypasses it):

- ``weyl-acceptance``: the calibrated counting run at three h; compute-bound
  in the Toeplitz build and the dense eigen/SVD/LU layer at N = 447.
- ``weyl-small-pool``: many small trials on two worker threads; the only
  workload on the pool path, dominated by per-trial overhead.
- ``pseudospec-grid``: one matrix, many shifts; the spectral layer the other
  way round, with a negligible Toeplitz build.
- ``phase-volumes``: phase-space quadrature only, no dense linear algebra.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("weyl-acceptance", "weyl-small-pool", "pseudospec-grid",
         "phase-volumes")

# The acceptance config (configs/weyl_acceptance.cfg), owned by the benchmark
# so that edits to the shipped configs do not change what is measured.
WEYL_CFG = """\
symbol.model = xi2+exp(ix)
region.rect = 0.05 0.95 -0.55 0.55
omega.rect = -0.2 1.4 -0.9 1.3
run.h_list = 0.05 0.02 0.01
run.trials_n = 20
run.master_seed = {seed}
plan.s = 2
plan.epsilon = 0.5
plan.kappa = auto
plan.tau0 = sqrt_h
plan.mode = effective
plan.delta_eff = 1e-12
probes.boundary_n = 5
probes.tube_r = 0.05
report.rel_tol = 0.15
report.eps_tilde_factor = 10
grid.vol_n_x = 1024
grid.vol_n_xi = 1024
"""
WEYL_REGION = (0.05, 0.95, -0.55, 0.55)

# configs/spectrum.cfg with the seed substituted
SPECTRUM_CFG = """\
symbol.model = xi2+exp(ix)
region.rect = 0.05 0.95 -0.55 0.55
grid.h = 0.05
grid.k_rule = auto
perturb.mode = effective
perturb.delta_eff = 1e-12
perturb.seed = {seed}
pseudospec.enabled = 1
pseudospec.n_re = {n_re}
pseudospec.n_im = {n_im}
"""

VOLUME_CFG = """\
symbol.model = {model}
region.disk = {re!r} {im!r} 0.35
grid.n_x = {n}
grid.n_xi = {n}
kappa.z = {re!r} {im!r}
kappa.t_lo = 1e-4
kappa.t_hi = 1e-1
kappa.points_n = 8
"""

# the five probe points per catalog symbol of acceptance criterion 09
PHASE_CASES = tuple(
    [(f"xi2-z{i}", "xi2+exp(ix)", cmath.exp(1j * th))
     for i, th in enumerate((0.25, 0.55, 0.85, 1.15, 1.45))]
    + [(f"xi1-z{i}", "xi+exp(-ix)", z)
       for i, z in enumerate((0.3 + 0.4j, -0.2 + 0.6j, 0.5 - 0.5j,
                              1.2 + 0.2j, -0.8 - 0.3j))]
)


@dataclass(frozen=True)
class Size:
    """Problem size of one workload; ``smoke`` sizes exist for self-tests."""

    h_values: tuple[float, ...]
    trials: int = 0
    workers: int = 1
    grid: tuple[int, int] = (0, 0)      # pseudospectrum n_re x n_im
    phase_n: int = 0                    # volume quadrature grid per axis


SIZES = {
    "weyl-acceptance": {
        "full": Size(h_values=(0.05, 0.02, 0.01), trials=1),
        "smoke": Size(h_values=(0.05,), trials=2)},
    "weyl-small-pool": {
        "full": Size(h_values=(0.05,), trials=100, workers=2),
        "smoke": Size(h_values=(0.05,), trials=4, workers=2)},
    "pseudospec-grid": {
        "full": Size(h_values=(0.02,), grid=(24, 12)),
        "smoke": Size(h_values=(0.05,), grid=(6, 4))},
    "phase-volumes": {
        "full": Size(h_values=(), phase_n=4096),
        "smoke": Size(h_values=(), phase_n=512)},
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                           # "weyl", "spectrum" or "volume"
    seed: int
    size: Size
    config_dir: Path
    cases: tuple[str, ...] = ()         # phase-volumes, in run order

    @property
    def items(self) -> int:
        """Work items per iteration: trials, grid points or volume cases."""
        if self.kind == "weyl":
            return self.size.trials * len(self.size.h_values)
        if self.kind == "spectrum":
            return self.size.grid[0] * self.size.grid[1]
        return len(self.cases)

    def calls(self, out: Path) -> list[list[str]]:
        """CLI argument lists of one iteration, writing under ``out``."""
        if self.kind == "volume":
            return [["volume", "--config", str(self.config_dir / f"{c}.cfg"),
                     "--out", str(out / c)] for c in self.cases]
        if self.kind == "spectrum":
            return [["spectrum", "--config", str(self.config_dir / "spectrum.cfg"),
                     "--out", str(out), "--h", repr(self.size.h_values[0])]]
        argv = ["weyl-ensemble", "--config", str(self.config_dir / "weyl.cfg"),
                "--out", str(out), "--trials", str(self.size.trials),
                "--workers", str(self.size.workers)]
        for h in self.size.h_values:
            argv += ["--h", repr(h)]
        return [argv]


def make(name: str, seed: int, config_dir: Path, smoke: bool = False) -> Workload:
    """Write the workload's configs under ``config_dir`` and describe it."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    size = SIZES[name]["smoke" if smoke else "full"]
    config_dir.mkdir(parents=True, exist_ok=True)
    if name.startswith("weyl-"):
        (config_dir / "weyl.cfg").write_text(WEYL_CFG.format(seed=seed))
        return Workload(name, "weyl", seed, size, config_dir)
    if name == "pseudospec-grid":
        n_re, n_im = size.grid
        (config_dir / "spectrum.cfg").write_text(
            SPECTRUM_CFG.format(seed=seed, n_re=n_re, n_im=n_im))
        return Workload(name, "spectrum", seed, size, config_dir)
    cases = PHASE_CASES[::5] if smoke else PHASE_CASES   # smoke: one per symbol
    for case, model, z in cases:
        (config_dir / f"{case}.cfg").write_text(VOLUME_CFG.format(
            model=model, re=z.real, im=z.imag, n=size.phase_n))
    order = [c[0] for c in cases]
    random.Random(seed).shuffle(order)
    return Workload(name, "volume", seed, size, config_dir, tuple(order))

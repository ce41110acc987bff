"""Fixtures and helpers shared by the test modules."""

import tracemalloc
from pathlib import Path

import pytest

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def traced_peak(fn, *args):
    """fn(*args), and the peak of the memory tracemalloc traces while it
    runs, above the memory traced at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return out, peak


def trial_budget(n):
    """The memory budget of one factored N x N matrix, shared by a
    weyl-ensemble trial and a spectrum run: two N x N arrays, zgees'
    workspace (the one np.linalg.eig's zgeev asks for) and 1 MiB."""
    from scipy.linalg import lapack

    lwork = int(lapack.zgeev_lwork(n, compute_vl=0, compute_vr=1)[0].real)
    return 2 * 16 * n * n + 16 * lwork + 2**20


@pytest.fixture(scope="session")
def weyl_config(tmp_path_factory):
    """By the name of a shipped config file, the ExperimentConfig that
    ``weyl-ensemble`` builds from it, captured before any trial runs."""
    from torweyl import cli

    class Captured(Exception):
        pass

    def capture(config, workers=1):
        raise Captured(config)

    def build(name):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "run_ensemble", capture)
            with pytest.raises(Captured) as caught:
                cli.main(["weyl-ensemble", "--config", str(CONFIGS / name),
                          "--out", str(tmp_path_factory.mktemp("weyl"))])
        return caught.value.args[0]

    return build


@pytest.fixture(scope="session")
def acceptance_config(weyl_config):
    return weyl_config("weyl_acceptance.cfg")

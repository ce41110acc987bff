"""Fixtures shared by the test modules."""

from pathlib import Path

import pytest

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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

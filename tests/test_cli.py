"""Command-line front door tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torweyl.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    build_parser,
    main,
    parse_config,
    read_keys,
)
from torweyl.serialize import dumps_region, dumps_symbol
from torweyl.symbols import Disk, SymbolSpec, TrigPoly, catalog_symbol

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_missing_file_names_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "derive-params",
                           "--config", str(tmp_path / "nope.cfg"),
                           "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "nope.cfg" in err

    def test_unknown_key_names_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("plan.s = 2\nplan.bogus = 1\n")
        code, _, err = run(capsys, "derive-params", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "plan.bogus" in err and "line 2" in err

    def test_malformed_line_reported(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("plan.s 2\n")
        code, _, err = run(capsys, "derive-params", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == EXIT_CONFIG and "line 1" in err

    def test_bad_value_reported(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("plan.s = 2\nplan.epsilon = frog\n"
                       "plan.kappa = 0.25\nplan.h = 0.1\n")
        code, _, err = run(capsys, "derive-params", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == EXIT_CONFIG and "plan.epsilon" in err


class TestDeriveParams:
    def test_reference_output(self, capsys, tmp_path):
        code, out, _ = run(capsys, "derive-params",
                           "--config", str(CONFIGS / "derive_params.cfg"),
                           "--out", str(tmp_path))
        assert code == EXIT_OK
        assert "M = 2.75" in out
        assert "M_tilde = 4.0" in out
        assert "N1 = 10.0" in out
        params = json.loads((tmp_path / "params.json").read_text())
        assert params["D"] == 11246
        assert (tmp_path / "params.txt").exists()

    def test_invalid_window_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("plan.s = 2\nplan.epsilon = 1.6\n"
                       "plan.kappa = 0.25\nplan.h = 0.1\n")
        code, _, err = run(capsys, "derive-params", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == EXIT_CONFIG and "epsilon" in err


class TestVolume:
    def test_strip_volume_and_kappa(self, capsys, tmp_path):
        code, out, _ = run(capsys, "volume",
                           "--config", str(CONFIGS / "volume.cfg"),
                           "--out", str(tmp_path))
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "volume.json").read_text())
        assert payload["volume"] == pytest.approx(4.0784, rel=5e-3)
        assert payload["prediction"] == pytest.approx(64.91, rel=5e-3)
        assert payload["kappa_hat"] == pytest.approx(1.0, abs=0.05)
        assert "volume =" in out

    def test_symbol_file_matches_catalog_model(self, capsys, tmp_path):
        path = tmp_path / "p.sym"
        path.write_text(dumps_symbol(catalog_symbol("xi+exp(-ix)")))
        by_file = {k: v for k, v in VOLUME_TINY.items() if k != "symbol.model"}
        by_file["symbol.file"] = str(path)
        outputs = []
        for name, entries in (("model", VOLUME_TINY), ("file", by_file)):
            code, _, _ = run(capsys, "volume",
                             "--config", str(write_cfg(tmp_path, entries)),
                             "--out", str(tmp_path / name))
            assert code == EXIT_OK
            outputs.append((tmp_path / name / "volume.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_degenerate_kappa_is_numeric_failure(self, capsys, tmp_path):
        cfg = tmp_path / "vol.cfg"
        cfg.write_text(
            "symbol.model = xi+exp(-ix)\nregion.rect = -1 1 0.1 0.9\n"
            "grid.n_x = 256\ngrid.n_xi = 256\nkappa.z = 9 9\n")
        code, _, err = run(capsys, "volume", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == EXIT_NUMERIC


class TestSpectrum:
    def test_outputs_written(self, capsys, tmp_path):
        code, out, _ = run(capsys, "spectrum",
                           "--config", str(CONFIGS / "spectrum.cfg"),
                           "--out", str(tmp_path))
        assert code == EXIT_OK
        eigs = (tmp_path / "eigs_0.05_base.csv").read_text().splitlines()
        assert eigs[0] == "schema=torweyl.eigs.v1"
        assert eigs[1] == "re,im"
        assert (tmp_path / "eigs_0.05_0.csv").exists()
        pseudo = (tmp_path / "pseudospec_0.05.csv").read_text().splitlines()
        assert pseudo[0] == "schema=torweyl.pseudospec.v1"
        assert pseudo[1] == "re,im,value"
        assert len(pseudo) == 2 + 24 * 12

    @pytest.mark.filterwarnings("error")
    def test_unperturbed_resolvent_floor_does_not_overflow(self, capsys, tmp_path):
        # sigma_min of the unperturbed triangle falls to 1e-170 on this grid:
        # unscaled, the inverse iteration squared 1 / sigma^2 and numpy
        # warned of an overflow in dot
        cfg = tmp_path / "spectrum.cfg"
        cfg.write_text("symbol.model = xi2+exp(ix)\n"
                       "region.rect = 0.05 0.95 -0.55 0.55\ngrid.h = 0.01\n"
                       "pseudospec.n_re = 3\npseudospec.n_im = 3\n")
        code, _, _ = run(capsys, "spectrum", "--config", str(cfg),
                         "--out", str(tmp_path / "out"))
        assert code == EXIT_OK
        rows = (tmp_path / "out" / "pseudospec_0.01.csv").read_text().splitlines()
        values = [float(r.split(",")[2]) for r in rows[2:]]
        assert len(values) == 9 and all(0.0 < v < 1e-20 for v in values)


class TestWeylEnsemble:
    def test_outputs_and_determinism(self, capsys, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out_dir in (out_a, out_b):
            code, _, _ = run(capsys, "weyl-ensemble",
                             "--config", str(CONFIGS / "weyl_small.cfg"),
                             "--out", str(out_dir),
                             "--trials", "1", "--seed", "7")
            assert code == EXIT_OK
        for name in ("report.json", "trials.csv", "params.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        report = json.loads((out_a / "report.json").read_text())
        assert report["schema"] == "torweyl.report.v3"
        for gone in ("z_probes", "require_symmetry", "real_potentials",
                     "omega_clearance"):
            assert gone not in report["config"]
        params = json.loads((out_a / "params.json").read_text())
        assert params["schema"] == "torweyl.params.v3"
        assert params["config"] == report["config"]
        # the rounding floor of every trial matrix, the baseline's too
        records = [report["per_h"][0]["baseline"], *report["per_h"][0]["trials"]]
        assert all(r["eta"] > 0.0 for r in records)
        assert report["config"]["master_seed"] == 7
        assert report["config"]["n_trials"] == 1
        rows = (out_a / "trials.csv").read_text().splitlines()
        assert rows[0] == "schema=torweyl.trials.v1"
        assert (out_a / "eigs_0.1_base.csv").exists()
        assert (out_a / "eigs_0.1_0.csv").exists()

    def test_outputs_do_not_depend_on_blas_threads_or_workers(self, tmp_path):
        # OPENBLAS_NUM_THREADS is read when the library loads, so each
        # setting runs in its own interpreter
        settings = {"blas1": ({"OPENBLAS_NUM_THREADS": "1"}, []),
                    "blas2": ({"OPENBLAS_NUM_THREADS": "2"}, []),
                    "workers2": ({}, ["--workers", "2"])}
        for name, (blas_env, flags) in settings.items():
            env = {k: v for k, v in os.environ.items()
                   if k != "OPENBLAS_NUM_THREADS"}
            env.update(blas_env, PYTHONPATH=str(ROOT / "src"))
            subprocess.run(
                [sys.executable, "-m", "torweyl.cli", "weyl-ensemble",
                 "--config", str(CONFIGS / "weyl_acceptance.cfg"),
                 "--out", str(tmp_path / name),
                 "--h", "0.05", "--trials", "6", *flags],
                env=env, check=True, capture_output=True, timeout=300)
        files = sorted(p.name for p in (tmp_path / "blas1").iterdir())
        assert {"report.json", "trials.csv"} <= set(files)
        for name in settings:
            assert sorted(p.name for p in (tmp_path / name).iterdir()) == files
            for f in files:
                assert ((tmp_path / name / f).read_bytes()
                        == (tmp_path / "blas1" / f).read_bytes()), (name, f)

    def test_symmetry_violation_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "weyl.cfg"
        cfg.write_text(
            "symbol.model = xi+exp(-ix)\nregion.rect = 0.2 0.8 -0.4 0.4\n"
            "omega.rect = -0.2 1.4 -0.9 1.3\nrun.h_list = 0.1\n")
        code, _, err = run(capsys, "weyl-ensemble", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == EXIT_CONFIG

    def test_omega_disk(self, capsys, tmp_path):
        # a disk about the region that leaves the strip |Im p| <= 1 the
        # symbol's range lies in
        omega = Disk(0.5 + 0.2j, 1.2)
        entries = {k: v for k, v in WEYL_TINY.items() if k != "omega.rect"}
        entries["omega.disk"] = "0.5 0.2 1.2"
        code, _, _ = run(capsys, "weyl-ensemble",
                         "--config", str(write_cfg(tmp_path, entries)),
                         "--out", str(tmp_path / "out"))
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["omega"] == dumps_region(omega)


class TestLineCheck:
    def test_residuals_and_counts(self, capsys, tmp_path):
        code, out, _ = run(capsys, "line-check",
                           "--config", str(CONFIGS / "line_check.cfg"),
                           "--out", str(tmp_path))
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "linecheck.json").read_text())
        assert max(payload["residuals"]) <= 1e-8
        assert payload["region_counts"] == [0] * 5
        assert "max quasimode residual" in out


class TestIdentityChecks:
    def test_all_pass(self, capsys, tmp_path):
        code, out, _ = run(capsys, "identity-checks",
                           "--config", str(CONFIGS / "identity_checks.cfg"),
                           "--out", str(tmp_path))
        assert code == EXIT_OK
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        payload = json.loads((tmp_path / "identity_checks.json").read_text())
        assert all(c["pass"] for c in payload["checks"])


# each shipped config and the subcommand that reads it
SHIPPED = {
    "derive_params.cfg": "derive-params",
    "volume.cfg": "volume",
    "spectrum.cfg": "spectrum",
    "weyl_acceptance.cfg": "weyl-ensemble",
    "weyl_small.cfg": "weyl-ensemble",
    "line_check.cfg": "line-check",
    "identity_checks.cfg": "identity-checks",
}

WEYL_TINY = {
    "symbol.model": "xi2+exp(ix)",
    "region.rect": "0.2 0.8 -0.4 0.4",
    "omega.rect": "-0.2 1.4 -0.9 1.3",
    "run.h_list": "0.1",
    "run.trials_n": "1",
    "grid.vol_n_x": "64",
    "grid.vol_n_xi": "64",
}
VOLUME_TINY = {
    "symbol.model": "xi+exp(-ix)",
    "region.rect": "-1 1 0.1 0.9",
    "grid.n_x": "64",
    "grid.n_xi": "64",
    "kappa.z": "0 0.5",
}
SPECTRUM_TINY = {
    "symbol.model": "xi2+exp(ix)",
    "region.rect": "0.2 0.8 -0.4 0.4",
    "grid.h": "0.1",
}
LINE_SHIPPED = {name: value for name, (value, _)
                in parse_config(CONFIGS / "line_check.cfg").items()}


def write_cfg(tmp_path, entries: dict) -> Path:
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


class TestKeyTables:
    def test_key_counts(self):
        counts = {name: len(table) for name, (_, table) in COMMANDS.items()}
        assert counts == {"derive-params": 8, "volume": 11, "spectrum": 12,
                          "weyl-ensemble": 23, "line-check": 9,
                          "identity-checks": 5}

    def test_every_shipped_config_is_listed(self):
        assert sorted(p.name for p in CONFIGS.glob("*.cfg")) == sorted(SHIPPED)

    @pytest.mark.parametrize("cfg_name, command", sorted(SHIPPED.items()))
    def test_shipped_config_parses_and_unknown_key_named(
            self, capsys, tmp_path, cfg_name, command):
        text = (CONFIGS / cfg_name).read_text()
        args = build_parser().parse_args([command, "--config", "unused"])
        cfg = parse_config(CONFIGS / cfg_name)
        read_keys(cfg, COMMANDS[command][1], args)   # raises on any bad key
        bad = tmp_path / "bad.cfg"
        bad.write_text(text + "bogus.key = 1\n")
        lineno = len(text.splitlines()) + 1
        code, _, err = run(capsys, command, "--config", str(bad),
                           "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "bogus.key" in err and f"line {lineno}" in err


class TestBadNumbers:
    @pytest.mark.parametrize("command, entries, flags, needle", [
        ("weyl-ensemble", {**WEYL_TINY, "plan.delta_eff": "nan"}, [],
         "line 8: key 'plan.delta_eff'"),
        ("weyl-ensemble", {**WEYL_TINY, "plan.delta_eff": "-inf"}, [],
         "line 8: key 'plan.delta_eff'"),
        ("weyl-ensemble", {**WEYL_TINY, "run.h_list": "2"}, [], "h must lie"),
        ("weyl-ensemble", {**WEYL_TINY, "probes.tube_r": "0"}, [],
         "tube radius"),
        ("line-check", None, ["--h", "1.5"], "h must lie"),
        ("volume", {**VOLUME_TINY, "grid.n_x": "0"}, [], "at least one cell"),
        ("spectrum", None, ["--h", "0"], "h must lie"),
        ("volume", VOLUME_TINY, ["--h", "0"], "volume.h"),
        ("volume", VOLUME_TINY, ["--h", "2"], "volume.h"),
        ("volume", {**VOLUME_TINY, "kappa.points_n": "2"}, [],
         "key 'kappa.points_n'"),
        ("volume", {**VOLUME_TINY, "kappa.t_lo": "0"}, [], "kappa.t_lo"),
        ("volume", {**VOLUME_TINY, "kappa.t_lo": "0.5"}, [], "kappa.t_lo"),
        ("spectrum", {**SPECTRUM_TINY, "pseudospec.n_re": "-1"}, [],
         "key 'pseudospec.n_re'"),
        ("line-check", {"line.g_coeffs": "-1 1 0", "line.k_max": "-1"}, [],
         "key 'line.k_max'"),
        ("identity-checks", {"checks.det_dim": "2"}, [], "key 'checks.det_dim'"),
        ("identity-checks", {"checks.det_dim": "0"}, [], "key 'checks.det_dim'"),
        ("identity-checks", {"checks.fu_dim": "-1"}, [], "key 'checks.fu_dim'"),
        ("weyl-ensemble", {**WEYL_TINY, "probes.boundary_n": "-1"}, [],
         "key 'probes.boundary_n'"),
        ("weyl-ensemble", {**WEYL_TINY, "run.h_list": "0.1 0.1"}, [],
         "h_list repeats"),
        ("weyl-ensemble", WEYL_TINY, ["--h", "0.1", "--h", "0.1"],
         "h_list repeats"),
        # a check or a perturbed half that runs no trial must not pass
        ("identity-checks", {"checks.det_trials_n": "0"}, [],
         "key 'checks.det_trials_n'"),
        ("identity-checks", {"checks.fu_trials_n": "-1"}, [],
         "key 'checks.fu_trials_n'"),
        ("line-check", {**LINE_SHIPPED, "line.trials_n": "0"}, [],
         "key 'line.trials_n'"),
    ])
    def test_exit_config(self, capsys, tmp_path, command, entries, flags,
                         needle):
        if entries is None:
            cfg = CONFIGS / {v: k for k, v in SHIPPED.items()}[command]
        else:
            cfg = write_cfg(tmp_path, entries)
        code, _, err = run(capsys, command, "--config", str(cfg),
                           "--out", str(tmp_path / "out"), *flags)
        assert code == EXIT_CONFIG
        assert needle in err

    # p = e^{ix} + (1 + e^{ix}) xi^2, whose top coefficient vanishes at
    # x = pi; and p = 2 + e^{ix}, of order 0, whose floor |p| >= 1 lies
    # below the region's |z|, so that no xi-slab holds the preimage
    @pytest.mark.parametrize("command, entries", [
        ("volume", VOLUME_TINY),
        ("spectrum", SPECTRUM_TINY),
        ("weyl-ensemble", WEYL_TINY),
    ])
    @pytest.mark.parametrize("spec, region, needle", [
        (SymbolSpec(m=2, a=(TrigPoly.wave(1), TrigPoly.zero(),
                            TrigPoly({0: 1.0 + 0j, 1: 1.0 + 0j}))),
         None, "elliptic"),
        (SymbolSpec(m=0, a=(TrigPoly({0: 2.0 + 0j, 1: 1.0 + 0j}),)),
         "1.5 2.5 -0.4 0.4", "cannot certify"),
    ], ids=["non-elliptic", "order-0"])
    def test_symbol_without_a_certified_slab(self, capsys, tmp_path, command,
                                             entries, spec, region, needle):
        path = tmp_path / "p.sym"
        path.write_text(dumps_symbol(spec))
        entries = {k: v for k, v in entries.items() if k != "symbol.model"}
        entries["symbol.file"] = str(path)
        if region is not None:
            entries["region.rect"] = region
        code, _, err = run(capsys, command,
                           "--config", str(write_cfg(tmp_path, entries)),
                           "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert needle in err

    # each command that builds a Fourier grid, with its K key set to 2048
    @pytest.mark.parametrize("command, entries", [
        ("spectrum", {**SPECTRUM_TINY, "grid.k_rule": "2048"}),
        ("weyl-ensemble", {**WEYL_TINY, "grid.k_rule": "2048"}),
        ("line-check", {"line.g_coeffs": "-1 1 0", "line.grid_K": "2048"}),
    ])
    def test_matrix_past_the_dimension_cap(self, capsys, tmp_path, command,
                                           entries):
        # K = 2048 gives N = 4097: rejected before any matrix is assembled
        cfg = write_cfg(tmp_path, entries)
        code, _, err = run(capsys, command, "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert "N = 4097" in err and "exceeds the cap 4096" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["derive-params", "volume", "spectrum",
                                         "line-check"])
    def test_single_h_command_rejects_second_h(self, capsys, tmp_path, command):
        cfg = CONFIGS / {v: k for k, v in SHIPPED.items()}[command]
        code, _, err = run(capsys, command, "--config", str(cfg),
                           "--out", str(tmp_path), "--h", "0.1", "--h", "0.05")
        assert code == EXIT_CONFIG
        assert "--h given 2 times" in err

    @pytest.mark.parametrize("entries, flags", [
        (WEYL_TINY, ["--workers", "0"]),
        ({**WEYL_TINY, "run.workers_n": "0"}, []),
    ])
    def test_worker_count_below_one(self, capsys, tmp_path, entries, flags):
        code, _, err = run(capsys, "weyl-ensemble",
                           "--config", str(write_cfg(tmp_path, entries)),
                           "--out", str(tmp_path / "out"), *flags)
        assert code == EXIT_CONFIG
        assert "workers" in err

"""Command-line front door tests."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import trial_budget, traced_peak

from torweyl import spectral
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

    def test_run_holds_two_matrices(self, capsys, tmp_path):
        # the unperturbed form goes once its eigenvalues are written, P once
        # its perturbed copy exists, and that copy once factored, so a
        # seeded run stays within a weyl-ensemble trial's budget; P and the
        # unperturbed form held through the perturbed zgees would not
        cfg = tmp_path / "spectrum.cfg"
        cfg.write_text("symbol.model = xi2+exp(ix)\n"
                       "region.rect = 0.05 0.95 -0.55 0.55\ngrid.h = 0.02\n"
                       "perturb.seed = 1\n"
                       "pseudospec.n_re = 4\npseudospec.n_im = 2\n")
        argv = ["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        code, peak = traced_peak(main, argv)
        capsys.readouterr()
        assert code == EXIT_OK
        n = json.loads((tmp_path / "out" / "params.json").read_text())["N"]
        assert n == 219
        assert peak <= trial_budget(n)


class TestWeylEnsemble:
    def test_outputs_and_determinism(self, capsys, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out_dir in (out_a, out_b):
            code, stdout, _ = run(capsys, "weyl-ensemble",
                                  "--config", str(CONFIGS / "weyl_small.cfg"),
                                  "--out", str(out_dir),
                                  "--trials", "1", "--seed", "7")
            assert code == EXIT_OK
            # no count-error bound is fitted or printed
            assert "count-bound" not in stdout
        for name in ("report.json", "trials.csv", "params.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        report = json.loads((out_a / "report.json").read_text())
        assert report["schema"] == "torweyl.report.v4"
        for gone in ("z_probes", "require_symmetry", "real_potentials",
                     "omega_clearance"):
            assert gone not in report["config"]
        # the fitted bound is gone, and no value is stated twice
        assert "c_fit" not in report
        for rec in report["per_h"]:
            assert "success_fraction_bound" not in rec and "eps0" not in rec
            for trial in [rec["baseline"], *rec["trials"]]:
                assert "prediction" not in trial
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

    def test_counts_do_not_depend_on_the_openblas_kernel(
            self, capsys, tmp_path, monkeypatch):
        # at delta = 1e-3 no count rests on LAPACK's rounding: a child on
        # OpenBLAS's generic x86-64 kernel (OPENBLAS_CORETYPE is read when
        # the library loads) counts what this process's kernel counts
        if spectral._numpy_blas() is None:
            pytest.skip("numpy bundles no OpenBLAS, whose kernel "
                        "OPENBLAS_CORETYPE would choose")
        if platform.machine() not in ("x86_64", "AMD64"):
            pytest.skip(f"the Prescott kernel is x86-64 only, and this "
                        f"machine is {platform.machine()}")
        monkeypatch.syspath_prepend(str(ROOT / "tools"))
        from output_hashes import openblas_kernel

        cfg = write_cfg(tmp_path, {
            **WEYL_ACCEPTANCE, "run.h_list": "0.05 0.02", "run.trials_n": "4",
            "plan.delta_eff": "1e-3", "grid.vol_n_x": "256",
            "grid.vol_n_xi": "256"})
        argv = ["weyl-ensemble", "--config", str(cfg), "--out"]
        code, _, _ = run(capsys, *argv, str(tmp_path / "native"))
        assert code == EXIT_OK
        child = ("import sys\n"
                 "from output_hashes import openblas_kernel\n"
                 "from torweyl.cli import main\n"
                 f"code = main({argv + [str(tmp_path / 'prescott')]!r})\n"
                 "print(openblas_kernel())\n"
                 "sys.exit(code)\n")
        done = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_CORETYPE="Prescott",
                     PYTHONPATH=os.pathsep.join(
                         [str(ROOT / "src"), str(ROOT / "tools")])),
            timeout=300)
        assert done.returncode == 0, done.stderr
        # the child really ran another kernel
        assert done.stdout.splitlines()[-1] != openblas_kernel()

        def counts(name):
            rows = (tmp_path / name / "trials.csv").read_text().splitlines()[2:]
            return [row.split(",")[:4] for row in rows]   # h, trial, seed, count

        assert len(counts("native")) == 2 * (1 + 4)
        assert counts("prescott") == counts("native")

    def test_too_wide_for_a_later_h_fails_before_any_trial(
            self, capsys, tmp_path, monkeypatch):
        # e^{60ix} fits h = 0.05's 2K = 86, but not the 2K = 44 of h = 0.1,
        # which comes second: every h's grid is checked before the first
        # h's baseline runs
        from torweyl import experiments

        ran = []
        monkeypatch.setattr(experiments, "_baseline_trial",
                            lambda ctx: ran.append(ctx.h))
        monkeypatch.setattr(experiments, "_run_trial_in_context",
                            lambda ctx, i: ran.append(ctx.h))
        symbol = dumps_symbol(SymbolSpec(m=2, a=(
            TrigPoly({1: 1.0 + 0j, 60: 0.01 + 0j}), TrigPoly.zero(),
            TrigPoly.constant(1.0))))
        entries = by_file({**WEYL_TINY, "run.h_list": "0.05 0.1"}, symbol)
        path = tmp_path / "p.sym"
        path.write_text(entries["symbol.file"])
        cfg = write_cfg(tmp_path, {**entries, "symbol.file": str(path)})
        code, _, err = run(capsys, "weyl-ensemble", "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
        assert ran == []
        assert code == EXIT_CONFIG
        assert "coefficient a_0 has bandwidth 60 > 2K = 44" in err

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
WEYL_ACCEPTANCE = {name: value for name, (value, _)
                   in parse_config(CONFIGS / "weyl_acceptance.cfg").items()}


def by_file(entries: dict, text: str) -> dict:
    """The entries with their symbol.model replaced by a symbol file whose
    text is ``text`` (written by the test that reads the entries)."""
    return {**{k: v for k, v in entries.items() if k != "symbol.model"},
            "symbol.file": text}


# xi^2 + e^{ix} + e^{400ix}/100: elliptic and even, but wider than any 2K the
# tiny configs' grids reach
WIDE_SYMBOL = dumps_symbol(SymbolSpec(m=2, a=(
    TrigPoly({1: 1.0 + 0j, 400: 0.01 + 0j}), TrigPoly.zero(),
    TrigPoly.constant(1.0))))
# xi + e^{-ix} with its top section numbered -1, which a list index would
# read as the top section
NEGATIVE_SECTION = dumps_symbol(catalog_symbol("xi+exp(-ix)")).replace(
    "alpha 1 ", "alpha -1 ")


def write_cfg(tmp_path, entries: dict) -> Path:
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


class TestImportPath:
    def test_commands_import_neither_scipy_numpy_ma_nor_concurrent_futures(self, tmp_path):
        # scipy serves only the fallback for a numpy without OpenBLAS;
        # importing it costs each process about 0.26 s and 21 MB resident.
        # numpy.ma (np.percentile's import) and concurrent.futures hold
        # about 1.1 and 0.4 MB resident that no command needs
        runs = {"volume": (VOLUME_TINY, []),
                "spectrum": ({**SPECTRUM_TINY, "perturb.seed": "1"}, []),
                "weyl-ensemble": ({**WEYL_TINY, "run.trials_n": "2"},
                                  ["--workers", "2"]),
                "identity-checks": ({"checks.det_trials_n": "5",
                                     "checks.fu_trials_n": "2"}, [])}
        argvs = []
        for command, (entries, flags) in runs.items():
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
            argvs.append([command, "--config", str(cfg),
                          "--out", str(tmp_path / command), *flags])
        unwanted = ["scipy", "numpy.ma", "concurrent.futures"]
        script = ("import json, sys\n"
                  "import torweyl.cli\n"
                  f"codes = [torweyl.cli.main(argv) for argv in {argvs!r}]\n"
                  f"print(json.dumps([codes, [m for m in {unwanted!r} "
                  "if m in sys.modules]]))\n")
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        codes, loaded = json.loads(done.stdout.splitlines()[-1])
        assert codes == [EXIT_OK] * len(runs)
        assert loaded == []


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
        # a coefficient wider than 2K, in each command that builds a grid
        ("spectrum", by_file(SPECTRUM_TINY, WIDE_SYMBOL), [],
         "coefficient a_0 has bandwidth 400 > 2K = 42"),
        ("weyl-ensemble", by_file(WEYL_TINY, WIDE_SYMBOL), [],
         "coefficient a_0 has bandwidth 400 > 2K"),
        ("line-check", {"line.g_coeffs": "300 1 0", "line.grid_K": "96"}, [],
         "coefficient a_0 has bandwidth 300 > 2K = 192"),
        # malformed symbol files
        ("volume", by_file(VOLUME_TINY, "symbol v1\n"), [],
         "expected the order line 'm <m>'"),
        ("volume", by_file(VOLUME_TINY, "symbol v1\nm 1\nalpha 0\n"), [],
         "symbol line 3 'alpha 0': expected 'alpha <a> real <0|1>'"),
        ("volume", by_file(VOLUME_TINY, "symbol v1\nm 1\nalpha 5 real 0\n"),
         [], "symbol line 3 'alpha 5 real 0': index outside 0..1"),
        ("volume", by_file(VOLUME_TINY, "symbol v1\nm 1\nalpha 0 real 0\n1 1\n"),
         [], "symbol line 4 '1 1': expected a coefficient line 'k re im'"),
        ("volume", by_file(VOLUME_TINY, NEGATIVE_SECTION), [],
         "symbol line 5 'alpha -1 real 1': index outside 0..1"),
        # frequencies of line.g_coeffs are integers, each given once
        ("line-check", {"line.g_coeffs": "1.5 1 0"}, [],
         "key 'line.g_coeffs': frequency 1.5: expected integers, each once"),
        ("line-check", {"line.g_coeffs": "1 1 0 1 2 0"}, [],
         "key 'line.g_coeffs': frequency 1: expected integers, each once"),
    ])
    def test_exit_config(self, capsys, tmp_path, command, entries, flags,
                         needle):
        if entries is None:
            cfg = CONFIGS / {v: k for k, v in SHIPPED.items()}[command]
        else:
            if "symbol.file" in entries:    # the row gives the file's text
                path = tmp_path / "p.sym"
                path.write_text(entries["symbol.file"])
                entries = {**entries, "symbol.file": str(path)}
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

    # the kappa fit's disk |w - z| <= sqrt(t_hi), not the region, has no
    # certified xi-slab: p = 3 + e^{ix}/2, of order 0, whose floor |p| >= 2.5
    # clears the region but not the disk around z = 9; and xi + e^{-ix} with
    # t_hi = 1e200, whose floor clears that disk only beyond |xi| = 2^200
    @pytest.mark.parametrize("spec, entries", [
        (SymbolSpec(m=0, a=(TrigPoly({0: 3.0 + 0j, 1: 0.5 + 0j}),)),
         {"region.disk": "0.5 0 0.2", "kappa.z": "9 0"}),
        (catalog_symbol("xi+exp(-ix)"),
         {"region.disk": "0 0 0.5", "kappa.z": "0.3 0.4", "kappa.t_hi": "1e200"}),
    ], ids=["order-0", "beyond-2^200"])
    def test_kappa_disk_without_a_certified_slab(self, capsys, tmp_path, spec,
                                                 entries):
        path = tmp_path / "p.sym"
        path.write_text(dumps_symbol(spec))
        code, _, err = run(capsys, "volume", "--config",
                           str(write_cfg(tmp_path, {"symbol.file": str(path),
                                                    **entries})),
                           "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert "kappa.z" in err and "kappa.t_hi" in err

    # p = 2 + e^{ix}, of order 0, whose range |p - 2| = 1 misses the region,
    # so that its xi-slab is certified, but which has no kappa floor 1/(2m)
    @pytest.mark.parametrize("command, entries", [
        ("spectrum", {**SPECTRUM_TINY, "perturb.seed": "1"}),
        ("weyl-ensemble", WEYL_TINY),
    ])
    def test_order_0_symbol_has_no_kappa_floor(self, capsys, tmp_path, command,
                                               entries):
        path = tmp_path / "p.sym"
        path.write_text(dumps_symbol(
            SymbolSpec(m=0, a=(TrigPoly({0: 2.0 + 0j, 1: 1.0 + 0j}),))))
        entries = {k: v for k, v in entries.items() if k != "symbol.model"}
        entries["symbol.file"] = str(path)
        code, _, err = run(capsys, command,
                           "--config", str(write_cfg(tmp_path, entries)),
                           "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert "order-0 symbol has no kappa floor" in err

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

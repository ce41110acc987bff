"""Experiment orchestration tests: trials, ensembles, line model, probes."""

import dataclasses
import json
import math
import sys
import threading

import numpy as np
import pytest
from conftest import trial_budget, traced_peak

from torweyl import experiments
from torweyl.experiments import (
    ExperimentConfig,
    InvalidConfigError,
    ResolutionError,
    TrialResult,
    _context_for_h,
    _quartiles,
    _run_trial_in_context,
    boundary_probes,
    line_count_in_region,
    line_model_check,
    line_spectrum,
    logdet_formula_gap,
    run_ensemble,
    shifted_symbol_for,
    trace_formula_gap,
    validate_config,
    weyl_prediction,
)
from torweyl.operators import (
    GridParams,
    assemble_differential,
    assemble_toroidal_pdo,
)
from torweyl.perturbation import build_perturbed, derive_params, sample_potential
from torweyl.serialize import json_text
from torweyl.spectral import BumpFunction, schur, singular_values
from torweyl.symbols import (
    Disk,
    PhaseGrid,
    Rectangle,
    TrigPoly,
    catalog_symbol,
    certified_xi_bound,
    range_samples,
    volume_preimage,
)

TWO_PI = 2.0 * math.pi


def scan_distance(samples, z):
    """The reference: min |samples - z| by a scan over every sample."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return np.array([np.min(np.abs(samples - zz)) for zz in z])


def small_config(**kw):
    args = dict(
        spec=catalog_symbol("xi2+exp(ix)"),
        region=Rectangle(0.2, 0.8, -0.4, 0.4),
        omega=Rectangle(-0.2, 1.4, -0.9, 1.3),
        h_list=(0.1,),
        n_trials=3,
        master_seed=5,
        delta_eff=1e-12,
        n_probes=2,
        vol_n_x=256,
        vol_n_xi=256,
    )
    args.update(kw)
    return ExperimentConfig(**args)


class TestWeylPrediction:
    def test_strip_model_reference_value(self):
        spec = catalog_symbol("xi+exp(-ix)")
        region = Rectangle(-1, 1, 0.1, 0.9)
        bound = certified_xi_bound(spec, region)
        grid = PhaseGrid(n_x=2048, xi_lo=-bound, xi_hi=bound, n_xi=2048)
        pred = weyl_prediction(volume_preimage(spec, region, grid), 0.01)
        exact = 4.0 * (math.asin(0.9) - math.asin(0.1)) / (TWO_PI * 0.01)
        assert pred == pytest.approx(exact, rel=2e-3)
        assert pred == pytest.approx(64.91, rel=5e-3)

    def test_halving_h_doubles_exactly(self):
        spec = catalog_symbol("xi2+exp(ix)")
        region = Rectangle(0.2, 0.8, -0.4, 0.4)
        grid = PhaseGrid(n_x=128, xi_lo=-1.5, xi_hi=1.5, n_xi=128)
        volume = volume_preimage(spec, region, grid)
        assert weyl_prediction(volume, 0.02) == pytest.approx(
            2.0 * weyl_prediction(volume, 0.04), rel=0.0)

    def test_empty_region(self):
        spec = catalog_symbol("xi2+exp(ix)")
        region = Rectangle(10.0, 11.0, 10.0, 11.0)
        grid = PhaseGrid(n_x=64, xi_lo=-5.0, xi_hi=5.0, n_xi=64)
        assert weyl_prediction(volume_preimage(spec, region, grid), 0.05) == 0.0


class TestConfigValidation:
    def test_symmetry_required_for_weyl_runs(self):
        with pytest.raises(InvalidConfigError, match="even"):
            validate_config(small_config(spec=catalog_symbol("xi+exp(-ix)")))

    def test_region_must_sit_inside_omega(self):
        with pytest.raises(InvalidConfigError, match="Omega"):
            validate_config(small_config(omega=Rectangle(0.3, 0.6, -0.1, 0.1)))

    def test_omega_must_escape_symbol_range(self):
        with pytest.raises(InvalidConfigError, match="escape"):
            validate_config(small_config(omega=Rectangle(0.1, 1.0, -0.5, 0.5)))

    def test_tube_counting_region_rejected(self):
        from torweyl.symbols import BoundaryTube

        tube = BoundaryTube(Rectangle(0.2, 0.8, -0.4, 0.4), 0.05)
        with pytest.raises(InvalidConfigError, match="rectangle or a disk"):
            validate_config(small_config(region=tube))

    def test_close_boundary_flagged_as_warning(self):
        cfg = small_config(region=Rectangle(0.2, 0.8, -0.97, 0.97),
                           omega=Rectangle(-0.3, 1.5, -1.4, 1.4))
        info = validate_config(cfg)
        assert any("tube" in w for w in info.warnings)

    def test_outcomes_match_scan(self, monkeypatch, weyl_config):
        # the band-sorted distances give the errors and warnings that a scan
        # over every range sample gives: on the shipped weyl configs, as the
        # CLI parses them, and on the two configs above whose outcome rests
        # on those distances
        from torweyl import experiments

        configs = [weyl_config("weyl_acceptance.cfg"), weyl_config("weyl_small.cfg")]
        configs += [small_config(omega=Rectangle(0.1, 1.0, -0.5, 0.5)),
                    small_config(region=Rectangle(0.2, 0.8, -0.97, 0.97),
                                 omega=Rectangle(-0.3, 1.5, -1.4, 1.4))]

        def outcome(cfg):
            try:
                return validate_config(cfg).warnings
            except InvalidConfigError as exc:
                return str(exc)

        got = [outcome(cfg) for cfg in configs]
        monkeypatch.setattr(experiments, "distance_to_samples", scan_distance)
        assert got == [outcome(cfg) for cfg in configs]
        assert got[:2] == [(), ()]
        assert "escape" in got[2] and any("tube" in w for w in got[3])

    def test_default_probes_on_boundary(self):
        region = Rectangle(0.0, 1.0, 0.0, 1.0)
        probes = boundary_probes(region, 5)
        assert len(probes) == 5
        assert np.allclose(region.boundary_distance(np.array(probes)), 0.0,
                           atol=1e-12)


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_config()
        a = run_ensemble(cfg).per_h[0].trials[2]
        b = run_ensemble(cfg).per_h[0].trials[2]
        assert a.as_dict() == b.as_dict()
        assert np.array_equal(a.eigvals, b.eigvals)

    def test_zero_delta_reproduces_baseline_count(self):
        cfg = small_config(delta_eff=0.0, n_trials=1)
        rep = run_ensemble(cfg)
        rec = rep.per_h[0]
        assert rec.trials[0].count == rec.baseline.count

    def test_failed_trial_recorded_not_dropped(self, monkeypatch):
        import torweyl.experiments as exp

        real_sample = exp.sample_potential
        boom_seed = {}

        def flaky(plan, seed):
            if not boom_seed:
                boom_seed["seed"] = seed
                raise RuntimeError("injected draw failure")
            return real_sample(plan, seed)

        monkeypatch.setattr(exp, "sample_potential", flaky)
        rep = run_ensemble(small_config(n_trials=3))
        rec = rep.per_h[0]
        assert len(rec.trials) == 3
        failed = [t for t in rec.trials if t.error is not None]
        assert len(failed) == 1
        assert "injected draw failure" in failed[0].error
        assert failed[0].as_dict()["relative_error"] is None
        healthy = [t for t in rec.trials if t.error is None]
        assert all(t.count >= 0 for t in healthy)


class TestRunEnsemble:
    def test_trial_independent_of_ensemble_size(self):
        one = run_ensemble(small_config(n_trials=1)).per_h[0].trials[0]
        three = run_ensemble(small_config(n_trials=3)).per_h[0].trials[0]
        assert one.as_dict() == three.as_dict()

    def test_success_fraction_monotone_in_tolerance(self):
        cfg = small_config(n_trials=4)
        rep = run_ensemble(cfg)
        errs = [t.relative_error for t in rep.per_h[0].trials]
        fracs = [np.mean([e <= tol for e in errs])
                 for tol in (0.05, 0.1, 0.2, 0.5, 1.0, 10.0)]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))

    def test_report_identical_across_worker_counts(self):
        cfg = small_config(n_trials=4)
        solo = json_text(run_ensemble(cfg, workers=1).as_dict())
        pooled = json_text(run_ensemble(cfg, workers=4).as_dict())
        assert solo == pooled

    @staticmethod
    def _trial_threads(monkeypatch, threads, raise_in_helper=False):
        """Patch the trial and Thread so that each trial records its thread
        and waits until ``threads`` threads hold one trial each; returns the
        recorded (thread, index) list and the helper threads started."""
        barrier = threading.Barrier(threads, timeout=60)
        taken, started = [], []
        run_one = experiments._run_trial_in_context

        def recording(ctx, i):
            taken.append((threading.get_ident(), i))
            barrier.wait()
            if raise_in_helper and threading.get_ident() != caller:
                raise RuntimeError("helper failed")
            return run_one(ctx, i)

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        caller = threading.get_ident()
        monkeypatch.setattr(experiments, "_run_trial_in_context", recording)
        monkeypatch.setattr(experiments.threading, "Thread", Counted)
        return taken, started

    @pytest.mark.parametrize("workers, n_trials, helpers", [
        (1, 3, 0), (2, 2, 1), (5, 3, 2)])
    def test_caller_runs_trials_beside_its_helpers(
            self, monkeypatch, workers, n_trials, helpers):
        taken, started = self._trial_threads(monkeypatch, helpers + 1)
        rep = run_ensemble(small_config(n_trials=n_trials), workers=workers)
        threads = {ident for ident, _ in taken}
        assert threading.get_ident() in threads
        assert len(threads) == helpers + 1 and len(started) == helpers
        assert sorted(i for _, i in taken) == list(range(n_trials))
        assert all(t.error is None for t in rep.per_h[0].trials)

    def test_every_index_runs_once_under_rapid_thread_switching(self, monkeypatch):
        taken = []

        def record(ctx, i):
            taken.append(i)
            return i
        monkeypatch.setattr(experiments, "_run_trial_in_context", record)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # more threads than cores, so that they preempt one another
            slots = experiments._run_trials(None, 300, workers=6)
        finally:
            sys.setswitchinterval(interval)
        assert slots == list(range(300))
        assert sorted(taken) == list(range(300))

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_trial_left_without_a_result_raises(self, monkeypatch):
        taken, _ = self._trial_threads(monkeypatch, 2, raise_in_helper=True)
        with pytest.raises(RuntimeError) as err:
            run_ensemble(small_config(n_trials=2), workers=2)
        lost = [i for ident, i in taken if ident != threading.get_ident()]
        assert str(err.value) == f"trial {lost[0]} returned no result"

    def test_ingredients_present(self):
        rep = run_ensemble(small_config(n_trials=2))
        rec = rep.per_h[0]
        assert rec.plan.eps0 > 0
        assert rec.eps_tilde == pytest.approx(10.0 * rec.plan.eps0)
        assert rec.tube_volume > 0

    def test_trials_csv_layout(self):
        from torweyl.serialize import trials_csv

        rep = run_ensemble(small_config(n_trials=2))
        lines = trials_csv(rep.as_dict()).splitlines()
        assert lines[0] == "schema=torweyl.trials.v1"
        assert lines[1].split(",") == ["h", "trial", "seed", "count",
                                       "prediction", "relative_error", "error"]
        # baseline row plus one row per trial, for each h
        assert len(lines) == 2 + len(rep.per_h) * (1 + 2)
        assert lines[2].split(",")[1] == "baseline"
        # each row's prediction is its h record's
        preds = {rec.h: rec.prediction for rec in rep.per_h}
        rows = [line.split(",") for line in lines[2:]]
        assert all(float(row[4]) == preds[float(row[0])] for row in rows)


class TestReportRecords:
    """Each record is written from its own fields, and every float among
    them, however deep, follows one rule: a value that is not finite is
    written null, never left to fail the whole report."""

    def test_non_finite_eta_is_written_null(self):
        trial = TrialResult(seed=1, count=0, relative_error=0.0,
                            sigma_min_probes=(1.0,), logdet_probes=(-2.0,),
                            eta=math.inf)
        d = json.loads(json_text(trial.as_dict()))
        assert d["eta"] is None
        assert d["sigma_min_probes"] == [1.0] and d["logdet_probes"] == [-2.0]

    def test_non_finite_h_record_floats_are_written_null(self):
        rec = run_ensemble(small_config(n_trials=1)).per_h[0]
        bad = dataclasses.replace(rec, prediction=math.nan,
                                  tube_volume=-math.inf, eps_tilde=math.inf)
        d = json.loads(json_text(bad.as_dict()))
        assert d["prediction"] is None and d["tube_volume"] is None
        assert d["eps_tilde"] is None
        assert d["h"] == rec.h and d["trials"] == [rec.trials[0].as_dict()]


class TestQuartiles:
    def test_equal_numpy_percentile_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in range(1, 65):
            # draws from n // 3 + 1 values, so most sizes have ties
            pool = rng.random(n // 3 + 1) * 10.0 ** rng.integers(-4, 3, n // 3 + 1)
            v = rng.choice(pool, size=n)
            want = tuple(np.percentile(v, [25.0, 50.0, 75.0]).tolist())
            assert _quartiles([math.nan, *v.tolist(), math.inf]) == want

    def test_no_finite_value(self):
        assert all(math.isnan(q) for q in _quartiles([math.nan, -math.inf]))


class TestMemoryBudget:
    # budgets from the array sizes of the acceptance setup; each call runs
    # once untraced first, so lazy imports and caches stay out of the peak

    def test_range_samples_are_held_once(self, acceptance_config):
        # the samples and one block of x-rows' work, never the samples twice
        # (as blocks joined by np.concatenate would hold them)
        grid = validate_config(acceptance_config).vol_grid
        samples, peak = traced_peak(range_samples, acceptance_config.spec, grid)
        assert peak < 2 * samples.nbytes

    def test_range_check_holds_samples_keys_and_permutation(self, acceptance_config):
        # the samples, their float keys and the int64 permutation: 2x the
        # samples' bytes, with no sorted copy of the samples
        info = validate_config(acceptance_config)
        samples = range_samples(acceptance_config.spec, info.vol_grid).nbytes
        _, peak = traced_peak(validate_config, acceptance_config)
        assert peak <= 2.5 * samples

    def test_trial_holds_two_matrices(self, acceptance_config):
        # the trial assembles its own P (the sum and one term live), adds
        # c conv to a copy of P through conv's view of 2N - 1 values and
        # drops P; the Schur form needs A, T and zgees' workspace; A is gone
        # before T is copied for the probes
        info = validate_config(acceptance_config)
        ctx = _context_for_h(acceptance_config, 0.01, info, 1.0)
        assert ctx.grid.N == 447
        _run_trial_in_context(ctx, 0)
        trial, peak = traced_peak(_run_trial_in_context, ctx, 0)
        assert trial.error is None
        assert peak <= trial_budget(ctx.grid.N)

    def test_run_holds_no_matrix_between_trials(self, acceptance_config):
        # no h keeps a matrix once its trials are done, so the whole run
        # stays within one trial's budget at the largest N; three held P's
        # (0.13 + 0.81 + 3.2 MB) would not
        config = dataclasses.replace(acceptance_config, n_trials=1)
        run_ensemble(config)
        report, peak = traced_peak(run_ensemble, config)
        n = max(rec.matrix_dim for rec in report.per_h)
        assert n == 447
        assert peak <= trial_budget(n)


class TestLineModel:
    def test_free_transport_exact(self):
        res = line_model_check(TrigPoly.zero(), 0.1, 3, GridParams(h=0.1, K=16))
        assert np.array_equal(res.residuals, np.zeros(7))
        assert np.allclose(res.lambdas, 0.1 * np.arange(-3, 4), atol=0.0)
        assert res.max_line_deviation == 0.0

    def test_wave_coefficient_quasimodes(self):
        res = line_model_check(TrigPoly.wave(-1), 0.1, 5,
                               GridParams(h=0.1, K=96))
        assert np.max(res.residuals) <= 1e-8
        assert res.tail_ratio <= 1e-10
        assert res.line_im == 0.0

    def test_perturbation_shifts_line_without_spreading(self):
        g = TrigPoly.wave(-1)
        q = TrigPoly({0: 0.5 + 2.0j, 1: 0.3, -1: 0.1j})
        delta = 1e-3
        res = line_model_check(g + q.scaled(delta), 0.1, 3,
                               GridParams(h=0.1, K=96))
        assert res.line_im == pytest.approx(delta * 2.0)
        assert res.max_line_deviation == 0.0
        assert np.max(res.residuals) <= 1e-8

    def test_unresolvable_tail_raises(self):
        with pytest.raises(ResolutionError, match="increase K"):
            line_model_check(TrigPoly.wave(-1), 0.1, 3, GridParams(h=0.1, K=12))

    def test_counts_off_the_line_vanish(self):
        g = TrigPoly.wave(-1)
        for region in (Rectangle(-0.33, 0.33, 0.15, 0.7),
                       Rectangle(-0.33, 0.33, -0.7, -0.15),
                       Disk(0.0 + 0.5j, 0.35)):
            assert line_count_in_region(g, 0.1, region) == 0

    def test_counts_on_the_line(self):
        lam = line_spectrum(TrigPoly.zero(), 0.1, -3, 3)
        assert np.allclose(lam, 0.1 * np.arange(-3, 4))
        assert line_count_in_region(TrigPoly.zero(), 0.1,
                                    Rectangle(-0.33, 0.33, -0.1, 0.1)) == 7


class TestSpectralFloor:
    def test_perturbation_lifts_smallest_singular_value(self):
        # the spectral floor rises under a random multiplicative bump for
        # most draws; observed fraction recorded against the 90% mark
        spec = catalog_symbol("xi2+exp(ix)")
        h = 0.05
        grid = GridParams(h=h, K=45)
        plan = derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=h,
                             mode="effective", delta_eff=1e-12, l_cap=h * 45)
        P = assemble_differential(spec, grid)
        z = 0.4 + 0.1j
        [t1_base] = singular_values(schur(P), [z])
        wins = 0
        trials = 50
        for i in range(trials):
            pot = sample_potential(plan, 1000 + i)
            pd = build_perturbed(P, plan, pot)
            if singular_values(schur(pd), [z])[0] >= t1_base:
                wins += 1
        assert wins >= int(0.9 * trials)


class TestMedianRegression:
    def test_interior_rectangle_median_at_h002(self):
        # calibration regression: this interior rectangle tracks the count
        # prediction to median relative error ~0.11 at h = 0.02
        cfg = ExperimentConfig(
            spec=catalog_symbol("xi2+exp(ix)"),
            region=Rectangle(0.05, 0.95, -0.45, 0.45),
            omega=Rectangle(-0.2, 1.4, -0.9, 1.3),
            h_list=(0.02,),
            n_trials=20,
            master_seed=2024,
            delta_eff=1e-12,
            n_probes=0,
            vol_n_x=1024,
            vol_n_xi=1024,
        )
        rep = run_ensemble(cfg)
        assert rep.per_h[0].rel_err_quartiles[1] <= 0.15


class TestLogdetBand:
    def test_trial_logdet_band_narrows_with_h(self):
        # per-trial ln|det(P_delta - z)| against the mode-aligned quadrature
        # of ln|p - z|: the relative band width at the smallest h stays
        # within the width at the largest h (endpoint trend only; the band
        # constants are not pinned by theory)
        spec = catalog_symbol("xi2+exp(ix)")
        z = 0.5 + 0.55j
        rel_widths = []
        for h in (0.1, 0.025):
            K = int(math.ceil(1.5 * 1.5 / h))
            grid = GridParams(h=h, K=K)
            P = assemble_differential(spec, grid)
            plan = derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=h,
                                 mode="effective", delta_eff=1e-12,
                                 l_cap=h * K)
            n_x = 4 * K + 4
            x = np.arange(n_x) * (TWO_PI / n_x)
            xi = h * grid.k_values()
            p = spec.eval_principal(x[:, None], xi[None, :])
            quad = float(np.sum(np.log(np.abs(p - z)))) / n_x
            devs = []
            for i in range(5):
                from torweyl.perturbation import split_seed
                from torweyl.spectral import log_abs_det

                pot = sample_potential(plan, split_seed(31, i))
                pd = build_perturbed(P, plan, pot)
                devs.append(abs(log_abs_det(pd, z) - quad))
            rel_widths.append(max(devs) / abs(quad))
        assert rel_widths[1] <= rel_widths[0]


class TestFormulaGaps:
    def test_shifted_symbol_keeps_matrix_invertible(self):
        spec = catalog_symbol("xi2+exp(ix)")
        z = 0.5 + 0.3j
        xi_bound = certified_xi_bound(spec, Disk(z, 0.6))
        ptilde, grid, info = shifted_symbol_for(spec, z, [z], 0.05, xi_bound)
        pt = assemble_toroidal_pdo(ptilde, grid).entries
        smallest = np.linalg.svd(pt - z * np.eye(grid.N),
                                 compute_uv=False)[-1]
        assert smallest >= 0.02

    def test_gap_records_are_consistent(self):
        # the operator side from the eigenvalues of S = A* A with
        # A = (Ptilde - z)^{-1} (P - z); the quadrature side as the mean over
        # the 4K + 4 x-nodes of the sum over the modes xi = h k
        spec = catalog_symbol("xi2+exp(ix)")
        z, alpha = 0.5 + 0.3j, 0.1
        xi_bound = certified_xi_bound(spec, Disk(z, 0.6))
        chi = BumpFunction()
        ptilde, grid, _ = shifted_symbol_for(spec, z, [z], 0.1, xi_bound)
        eye = np.eye(grid.N)
        a = np.linalg.solve(assemble_toroidal_pdo(ptilde, grid).entries - z * eye,
                            assemble_differential(spec, grid).entries - z * eye)
        lam = np.linalg.eigvalsh(a.conj().T @ a)
        x = (np.arange(4 * grid.K + 4) * (TWO_PI / (4 * grid.K + 4)))[:, None]
        xi = grid.h * grid.k_values()[None, :]
        s = (np.abs(spec.eval_principal(x, xi) - z) ** 2
             / np.abs(ptilde(x, xi) - z) ** 2)
        trace_gap = abs(np.sum(chi(lam / alpha)) - np.sum(chi(s / alpha)) / len(s))
        logdet_gap = abs(np.sum(np.log(lam + alpha * chi(lam / alpha)))
                         - np.sum(np.log(s)) / len(s))
        tr = trace_formula_gap(spec, ptilde, z, alpha, grid, chi)
        ld = logdet_formula_gap(spec, ptilde, z, alpha, grid, chi)
        assert tr.gap == pytest.approx(trace_gap, abs=1e-9)
        assert ld.gap == pytest.approx(logdet_gap, abs=1e-9)

"""End-to-end experiments.

Builds the operator for each h, derives the perturbation plan, runs seeded
Monte Carlo trials, and compares eigenvalue counts in a spectral-plane
region against the phase-space volume prediction vol(p^{-1}(Gamma))/(2 pi h).
Also houses the transport-line counterexample harness (hD + g has a line
spectrum no multiplicative perturbation can spread) and the trace /
log-determinant quadrature comparisons.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import serialize
from .operators import (
    GridParams,
    OperatorMatrix,
    assemble_differential,
    assemble_toroidal_pdo,
    differential_terms,
    truncation_grid,
)
from .perturbation import (
    PerturbationPlan,
    build_perturbed,
    derive_params,
    sample_potential,
    split_seed,
)
from .spectral import (
    BumpFunction,
    SingularMatrixError,
    count_in_region,
    eigenvalues,
    log_abs_det,
    schur,
    single_blas_thread,
    singular_values,
)
from .symbols import (
    TWO_PI,
    BoundaryTube,
    PhaseGrid,
    Region,
    SymbolSpec,
    TrigPoly,
    certified_xi_bound,
    check_symmetry,
    distance_to_samples,
    kappa_floor,
    range_samples,
    volume_preimage,
)


class InvalidConfigError(ValueError):
    """A config file, or the configuration read from it, is invalid."""


class ResolutionError(ValueError):
    """The truncation cannot resolve the requested quasimode."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    spec: SymbolSpec
    region: Region
    omega: Region
    h_list: tuple[float, ...]
    s: float = 2.0
    epsilon: float = 0.5
    kappa: object = "auto"          # "auto" means the universal floor 1/(2m)
    tau0: float | None = None       # None means sqrt(h), per h
    mode: str = "effective"
    delta_eff: float | None = 1e-12
    n_trials: int = 20
    master_seed: int = 0
    k_rule: object = "auto"         # "auto" or an explicit K
    n_probes: int = 5
    tube_r: float = 0.05
    rel_tol: float = 0.15
    eps_tilde_factor: float = 10.0
    vol_n_x: int = 512
    vol_n_xi: int = 512

    def resolved_kappa(self) -> float:
        return kappa_floor(self.spec) if self.kappa == "auto" else float(self.kappa)

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "spec"}
        out.update(
            symbol=serialize.dumps_symbol(self.spec),
            region=serialize.dumps_region(self.region),
            omega=serialize.dumps_region(self.omega),
            kappa="auto" if self.kappa == "auto" else float(self.kappa),
            kappa_resolved=self.resolved_kappa(),
        )
        return out


def boundary_probes(region: Region, n: int) -> tuple[complex, ...]:
    """n points along the boundary of a region (of a tube's base)."""
    base = region.base if isinstance(region, BoundaryTube) else region
    return tuple(complex(z) for z in base.boundary_points(n))


# how far from the sampled symbol range some point of Omega's boundary must
# lie, and how far no point 2r off the region may lie without a warning
OMEGA_CLEARANCE = 0.05


@dataclass(frozen=True)
class ValidationInfo:
    vol_grid: PhaseGrid             # h-independent volume quadrature grid
    warnings: tuple[str, ...]


def validate_config(config: ExperimentConfig) -> ValidationInfo:
    """Structural checks before any trial runs.

    Hard requirements: evenness for Weyl runs, a certified xi-slab (which
    needs ellipticity), the region inside the declared window Omega, and
    Omega escaping the sampled symbol range somewhere.  The soft 2r
    clearance of the region from the sampled range is a warning only.
    """
    if not check_symmetry(config.spec):
        raise InvalidConfigError(
            "symbol is not even in xi; Weyl counting runs require symmetry"
        )
    if isinstance(config.region, BoundaryTube):
        raise InvalidConfigError(
            "the counting region must be a rectangle or a disk; boundary "
            "tubes only enter the error-budget ingredients"
        )
    warnings: list[str] = []
    probe = BoundaryTube(config.region, 2.0 * config.tube_r)
    # called here, not through symbols.default_grid, so that the benchmark's
    # hook on experiments.certified_xi_bound times it
    xi_bound = certified_xi_bound(config.spec, probe)
    grid = PhaseGrid(n_x=config.vol_n_x, xi_lo=-xi_bound, xi_hi=xi_bound,
                     n_xi=config.vol_n_xi)

    mesh = boundary_probes(config.region, 64)
    if not bool(np.all(config.omega.contains(mesh))):
        raise InvalidConfigError("region is not contained in the declared Omega")

    # the Omega mesh and the 2r offsets of the region mesh share one search
    omega_mesh = boundary_probes(config.omega, 128)
    ring = 2.0 * config.tube_r * np.exp(1j * TWO_PI * np.arange(8) / 8.0)
    offsets = np.asarray(mesh) + ring[:, None]
    dist = distance_to_samples(range_samples(config.spec, grid),
                               np.concatenate([omega_mesh, offsets.ravel()]))
    omega_dist, tube_dist = dist[:len(omega_mesh)], dist[len(omega_mesh):]
    if float(np.max(omega_dist)) <= OMEGA_CLEARANCE:
        raise InvalidConfigError(
            "Omega appears to be contained in the sampled symbol range; "
            "it must escape the range somewhere"
        )
    if float(np.max(tube_dist)) > OMEGA_CLEARANCE:
        warnings.append(
            "region is within 2r of the sampled range boundary: a point of "
            "its 2r boundary tube lies off the sampled range"
        )
    return ValidationInfo(vol_grid=grid, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# predictions and trials
# ---------------------------------------------------------------------------

def weyl_prediction(volume: float, h: float) -> float:
    """The count prediction vol(p^{-1}(region)) / (2 pi h) from the volume."""
    return volume / (TWO_PI * h)


@dataclass(frozen=True)
class TrialResult:
    seed: int | None
    count: int
    relative_error: float
    sigma_min_probes: tuple[float, ...]
    logdet_probes: tuple[float | None, ...]
    eta: float | None = None
    error: str | None = None
    eigvals: np.ndarray | None = None

    def as_dict(self) -> dict:
        # raw eigenvalues stay out: the eigenvalue CSV files carry them
        rel = self.relative_error if math.isfinite(self.relative_error) else None
        return {
            "seed": self.seed,
            "count": self.count,
            "relative_error": rel,
            "sigma_min_probes": list(self.sigma_min_probes),
            "logdet_probes": list(self.logdet_probes),
            "eta": self.eta,
            "error": self.error,
        }


@dataclass(frozen=True)
class _TrialContext:
    """What the trials of one h share.  It holds no matrix: each trial
    assembles its own P and drops it once perturbed."""

    config: ExperimentConfig
    h: float
    grid: GridParams
    plan: PerturbationPlan
    prediction: float
    z_probes: tuple[complex, ...]


def _context_for_h(config: ExperimentConfig, h: float, info: ValidationInfo,
                   volume: float) -> _TrialContext:
    """Everything one h needs; ``volume`` is vol(p^{-1}(region)), which
    does not depend on h.  A coefficient too wide for this h's grid raises
    BandwidthError here, before any trial runs."""
    grid = truncation_grid(h, info.vol_grid.xi_hi, config.k_rule)
    differential_terms(config.spec, grid)
    plan = derive_params(
        n=1,
        s=config.s,
        epsilon=config.epsilon,
        kappa=config.resolved_kappa(),
        h=h,
        tau0=config.tau0,
        mode=config.mode,
        delta_eff=config.delta_eff,
        l_cap=h * grid.K,
    )
    return _TrialContext(
        config=config, h=h, grid=grid, plan=plan,
        prediction=weyl_prediction(volume, h),
        z_probes=boundary_probes(config.region, config.n_probes),
    )


def _relative_error(count: int, prediction: float) -> float:
    if prediction > 0.0:
        return abs(count - prediction) / prediction
    return 0.0 if count == 0 else math.inf


def _rounding_floor(matrix: OperatorMatrix) -> float:
    """eta = N eps ||A||_F: a probe value below it describes rounding."""
    a = matrix.entries
    return a.shape[0] * float(np.finfo(float).eps) * float(np.linalg.norm(a))


def _measure(ctx: _TrialContext, matrix: OperatorMatrix,
             seed: int | None) -> TrialResult:
    """Eigenvalues, region count and boundary probes of one trial matrix,
    all from its one Schur form.

    The matrix is released once its Schur form and eta are taken: the
    sigma_min probes share one working copy of T, and the caller's
    perturbed matrix has no other owner.
    """
    form = schur(matrix)
    eta = _rounding_floor(matrix)
    del matrix
    eigs = eigenvalues(form)
    count = count_in_region(eigs, ctx.config.region)
    sig = singular_values(form, ctx.z_probes)
    logd = []
    for z in ctx.z_probes:
        try:
            logd.append(log_abs_det(form, z))
        except SingularMatrixError:
            logd.append(None)
    return TrialResult(
        seed=seed,
        count=count,
        relative_error=_relative_error(count, ctx.prediction),
        sigma_min_probes=tuple(sig),
        logdet_probes=tuple(logd),
        eta=eta,
        eigvals=eigs,
    )


def _run_trial_in_context(ctx: _TrialContext, trial_index: int) -> TrialResult:
    seed = split_seed(ctx.config.master_seed, trial_index)
    try:
        pot = sample_potential(ctx.plan, seed)
        # no name holds P or the perturbed matrix: P goes once it is
        # perturbed, and _measure releases the perturbed matrix
        return _measure(ctx, build_perturbed(
            assemble_differential(ctx.config.spec, ctx.grid), ctx.plan, pot), seed)
    except Exception as exc:  # a failed trial is recorded, never dropped
        return TrialResult(
            seed=seed, count=-1, relative_error=math.nan,
            sigma_min_probes=(), logdet_probes=(),
            error=f"{type(exc).__name__}: {exc}",
        )


def _baseline_trial(ctx: _TrialContext) -> TrialResult:
    """Unperturbed operator, run first: isolates truncation artifacts."""
    return _measure(ctx, assemble_differential(ctx.config.spec, ctx.grid), None)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HRecord:
    h: float
    K: int
    matrix_dim: int
    prediction: float
    plan: PerturbationPlan
    baseline: TrialResult
    trials: tuple[TrialResult, ...]
    eps_tilde: float
    tube_volume: float
    rel_err_quartiles: tuple[float, float, float]
    success_fraction_rel: float

    def as_dict(self) -> dict:
        return {
            "h": self.h,
            "K": self.K,
            "matrix_dim": self.matrix_dim,
            "prediction": self.prediction,
            "plan": self.plan.as_dict(),
            "baseline": self.baseline.as_dict(),
            "trials": [t.as_dict() for t in self.trials],
            "eps_tilde": self.eps_tilde,
            "tube_volume": self.tube_volume,
            "rel_err_quartiles": [
                q if math.isfinite(q) else None for q in self.rel_err_quartiles
            ],
            "success_fraction_rel": self.success_fraction_rel,
        }


@dataclass(frozen=True)
class WeylReport:
    config: ExperimentConfig
    per_h: tuple[HRecord, ...]
    validation_warnings: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "schema": "torweyl.report.v4",
            "config": self.config.as_dict(),
            "per_h": [rec.as_dict() for rec in self.per_h],
            "validation_warnings": list(self.validation_warnings),
        }


def _quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """numpy's "linear" 25/50/75 percentiles of the finite values, bit for
    bit, without np.percentile: it imports numpy.ma (about 1 MB resident)."""
    v = sorted(x for x in values if math.isfinite(x))
    if not v:
        return (math.nan, math.nan, math.nan)

    def at(q: float) -> float:
        pos = q * (len(v) - 1)
        lo = math.floor(pos)
        a, b = v[lo], v[min(lo + 1, len(v) - 1)]
        t = pos - lo
        # numpy's _lerp: exact at both ends of the step
        return a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)
    return (at(0.25), at(0.5), at(0.75))


def _run_trials(ctx: _TrialContext, n_trials: int, workers: int) -> list[TrialResult]:
    """Trials 0..n_trials-1 of one h, in index order.

    The calling thread and min(workers, n_trials) - 1 helper threads take
    indices from one iterator; with one worker no helper starts (a helper
    gets an OpenBLAS buffer of its own: weyl-acceptance peak RSS 82.7 ->
    93.0 MB when one worker ran in a pool).
    """
    slots: list[TrialResult | None] = [None] * n_trials
    indices = iter(range(n_trials))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            slots[i] = _run_trial_in_context(ctx, i)

    helpers = [threading.Thread(target=work) for _ in range(min(workers, n_trials) - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    # a helper that died leaves its slot empty: never fold it as a trial
    for i, trial in enumerate(slots):
        if trial is None:
            raise RuntimeError(f"trial {i} returned no result")
    return slots


def run_ensemble(config: ExperimentConfig, workers: int = 1) -> WeylReport:
    """Full Monte Carlo report over the configured h list.

    Trials are independent tasks keyed by (h, trial index), run by the
    calling thread and up to ``workers - 1`` helper threads, and folded in
    index order.  Their linear algebra runs on one BLAS thread
    (``single_blas_thread``), so on a given CPU the report is a pure function
    of the configuration for any worker count and any BLAS thread setting.
    """
    if config.n_trials < 1:
        raise InvalidConfigError("n_trials must be at least 1")
    if workers < 1:
        raise InvalidConfigError("workers must be at least 1")
    # a repeated h would rerun the same seeded trials into the same files
    if len(set(config.h_list)) < len(config.h_list):
        raise InvalidConfigError(f"h_list repeats an h: {list(config.h_list)}")
    info = validate_config(config)
    # the volumes depend on neither h nor the trial
    volume = volume_preimage(config.spec, config.region, info.vol_grid)
    tube_volume = volume_preimage(
        config.spec, BoundaryTube(config.region, config.tube_r), info.vol_grid)
    # every h is set up before any trial runs, so a bad h fails fast
    contexts = [_context_for_h(config, h, info, volume) for h in config.h_list]
    records: list[HRecord] = []
    # the trial threads each drive a single-threaded BLAS, rather than all
    # of them sharing the cores with BLAS threads of their own
    with single_blas_thread():
        for ctx in contexts:
            baseline = _baseline_trial(ctx)
            trials = _run_trials(ctx, config.n_trials, workers)
            ok = [t for t in trials if t.error is None]
            hits = sum(1 for t in ok if t.relative_error <= config.rel_tol)
            records.append(HRecord(
                h=ctx.h,
                K=ctx.grid.K,
                matrix_dim=ctx.grid.N,
                prediction=ctx.prediction,
                plan=ctx.plan,
                baseline=baseline,
                trials=tuple(trials),
                eps_tilde=config.eps_tilde_factor * ctx.plan.eps0,
                tube_volume=tube_volume,
                rel_err_quartiles=_quartiles([t.relative_error for t in ok]),
                success_fraction_rel=hits / len(ok) if ok else 0.0,
            ))
    return WeylReport(
        config=config,
        per_h=tuple(records),
        validation_warnings=info.warnings,
    )


# ---------------------------------------------------------------------------
# the hD + g line model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineModelResult:
    lambdas: np.ndarray
    residuals: np.ndarray
    line_im: float
    max_line_deviation: float
    tail_ratio: float


def _antiderivative(g: TrigPoly) -> TrigPoly:
    """Periodic primitive of g - <g>."""
    return TrigPoly({k: c / (1j * k) for k, c in g.coeffs.items() if k != 0})


def line_spectrum(g: TrigPoly, h: float, k_lo: int, k_hi: int) -> np.ndarray:
    """Exact eigenvalues <g> + h k of hD + g for k in [k_lo, k_hi]."""
    ks = np.arange(k_lo, k_hi + 1)
    return g.mean() + h * ks


def line_count_in_region(g: TrigPoly, h: float, region: Region) -> int:
    """Count of the closed-form spectrum inside the region."""
    lo, hi, _, _ = region.bounds()
    mean = g.mean().real
    k_lo = int(math.floor((lo - mean) / h)) - 1
    k_hi = int(math.ceil((hi - mean) / h)) + 1
    return count_in_region(line_spectrum(g, h, k_lo, k_hi), region)


def line_model_check(g: TrigPoly, h: float, k_max: int,
                     grid: GridParams) -> LineModelResult:
    """Quasimode residuals for P = hD + Conv(g) on the truncation.

    The analytic eigenfunctions u_k = exp(ikx - (i/h) G0(x)) with G0' = g - <g>
    are expanded in Fourier modes by FFT, truncated to the grid, and the
    relative residual of (P - lambda_k) u_k is returned for |k| <= k_max,
    lambda_k = <g> + h k.  P is assembled first, so a g wider than 2K is a
    BandwidthError; then a Fourier tail dropped by the truncation above
    1e-10 relative raises ResolutionError.
    """
    spec = SymbolSpec(m=1, a=(g, TrigPoly.constant(1.0)))
    P = assemble_differential(spec, grid).entries
    G0 = _antiderivative(g)
    n_fft = 1
    while n_fft < max(8 * (grid.K + 1), 256):
        n_fft *= 2
    x = np.arange(n_fft) * (TWO_PI / n_fft)
    v = np.exp(-1j / h * G0(x))
    coeffs = np.fft.fft(v) / n_fft          # coeffs[n % n_fft] of e^{inx}
    freqs = np.fft.fftfreq(n_fft, d=1.0 / n_fft).astype(int)
    total = float(np.sum(np.abs(coeffs) ** 2))
    keep = np.abs(freqs) <= grid.K - k_max
    outside = float(np.sum(np.abs(coeffs[~keep]) ** 2))
    tail_ratio = math.sqrt(outside / total)
    if tail_ratio > 1e-10:
        raise ResolutionError(
            f"Fourier tail ratio {tail_ratio:.3e} exceeds 1e-10; "
            f"increase K beyond {grid.K}"
        )

    kvals = grid.k_values()
    lambdas = line_spectrum(g, h, -k_max, k_max)
    residuals = np.empty(lambdas.shape, dtype=float)
    for i, k in enumerate(range(-k_max, k_max + 1)):
        # |j - k| <= 2K < n_fft / 2: index (j - k) mod n_fft is mode j - k
        u = coeffs[(kvals - k) % n_fft]
        residuals[i] = (float(np.linalg.norm(P @ u - lambdas[i] * u))
                        / float(np.linalg.norm(u)))
    line_im = g.mean().imag
    return LineModelResult(
        lambdas=lambdas,
        residuals=residuals,
        line_im=line_im,
        max_line_deviation=float(np.max(np.abs(lambdas.imag - line_im))),
        tail_ratio=tail_ratio,
    )


# ---------------------------------------------------------------------------
# trace and log-determinant quadrature comparisons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormulaGap:
    gap: float


def _pz_spectrum(spec: SymbolSpec, ptilde, z: complex, grid: GridParams):
    """Eigenvalues of S = A* A with A the discrete (Ptilde - z)^{-1} (P - z)."""
    P = assemble_differential(spec, grid).entries
    Pt = assemble_toroidal_pdo(ptilde, grid).entries
    eye = np.eye(grid.N)
    A = np.linalg.solve(Pt - z * eye, P - z * eye)
    S = A.conj().T @ A
    return np.linalg.eigvalsh(0.5 * (S + S.conj().T))


def _mode_aligned_quadrature(spec: SymbolSpec, ptilde, z: complex,
                             grid: GridParams) -> np.ndarray:
    """Values of s = |p - z|^2 / |ptilde - z|^2 on the grid's x-nodes (rows)
    times its xi-nodes h k (columns).  These sit at the midpoints of the cells
    [h(k - 1/2), h(k + 1/2)], so (2 pi h)^{-1} * sum * cell = mean over x of
    the mode sum.
    """
    x, xi = grid.x_nodes(), grid.xi_nodes()
    p = spec.eval_principal(x[:, None], xi[None, :])
    pt = np.asarray(ptilde(x[:, None], xi[None, :]), dtype=complex)
    return np.abs(p - z) ** 2 / np.abs(pt - z) ** 2


def trace_formula_gap(spec: SymbolSpec, ptilde, z: complex, alpha: float,
                      grid: GridParams, chi: BumpFunction) -> FormulaGap:
    """tr chi(S/alpha) against (2 pi h)^{-1} iint chi(s/alpha) dx dxi."""
    lam = _pz_spectrum(spec, ptilde, z, grid)
    trace_val = float(np.sum(chi(lam / alpha)))
    s = _mode_aligned_quadrature(spec, ptilde, z, grid)
    quad = float(np.sum(chi(s / alpha))) / len(s)
    return FormulaGap(gap=abs(trace_val - quad))


def logdet_formula_gap(spec: SymbolSpec, ptilde, z: complex, alpha: float,
                       grid: GridParams, chi: BumpFunction) -> FormulaGap:
    """ln det(S + alpha chi(S/alpha)) against (2 pi h)^{-1} iint ln s dx dxi."""
    lam = _pz_spectrum(spec, ptilde, z, grid)
    logdet = float(np.sum(np.log(lam + alpha * chi(lam / alpha))))
    s = _mode_aligned_quadrature(spec, ptilde, z, grid)
    if np.any(s == 0.0):
        raise ValueError("quadrature node hits p(x, xi) = z exactly; move z")
    quad = float(np.sum(np.log(s))) / len(s)
    return FormulaGap(gap=abs(logdet - quad))


# ---------------------------------------------------------------------------
# the auxiliary symbol ptilde: p lifted off the test points
# ---------------------------------------------------------------------------

class GuardError(RuntimeError):
    """No lifted symbol cleared the separation guards."""


def bump_profile(t):
    """Smooth cutoff equal to 1 on [0, 1], supported in [0, 2]."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    u = t[mid] - 1.0
    fa = np.exp(-1.0 / (1.0 - u))
    fb = np.exp(-1.0 / u)
    out[mid] = fa / (fa + fb)
    return out


def make_lifted_symbol(spec: SymbolSpec, shift: float,
                       xi_on: float, xi_off: float):
    """Symbol pushed upward on the whole frequency window |xi| <= xi_on,
    equal to p for |xi| >= xi_off."""
    if not xi_on < xi_off:
        raise ValueError("need xi_on < xi_off")
    width = xi_off - xi_on

    def lifted(x, xi):
        xi = np.asarray(xi, dtype=float)
        profile = bump_profile(1.0 + (np.abs(xi) - xi_on) / width)
        return spec.eval_principal(x, xi) + 1j * shift * profile

    return lifted


# the distance a candidate ptilde keeps from every test point on the sampled
# grid (SYMBOL_GUARD), and the smallest singular value its quantization keeps
# at every test point (MATRIX_GUARD)
SYMBOL_GUARD = 0.1
MATRIX_GUARD = 0.02


def _matrix_guard_ok(candidate, test_points, grid: GridParams) -> bool:
    pt = assemble_toroidal_pdo(candidate, grid)
    return all(s >= MATRIX_GUARD for s in singular_values(pt, test_points))


def shifted_symbol_for(spec: SymbolSpec, z_center: complex,
                       test_points: Sequence[complex], h: float,
                       xi_bound: float):
    """Guard-validated auxiliary symbol ptilde on a mode-aligned slab.

    ptilde is p lifted by i*shift on the whole frequency window
    |xi| <= xi_on (``make_lifted_symbol``), so it equals p outside a compact
    set.  A candidate must keep the symbol at least SYMBOL_GUARD away from
    every test point on the sampled grid and keep the quantized operator at
    least MATRIX_GUARD from singular there.  The lift is used because it
    cannot wind: a bump in the symbol's values can leave x -> p(x, xi)
    winding around a test point, and then the quantization is exponentially
    near-singular even though the symbol clears the pointwise guard, while
    an x-row lifted whole passes above the test points.

    Returns (ptilde, grid, (shift, xi_on)); raises GuardError when no
    (xi_on, shift) candidate clears both guards.
    """
    grid = truncation_grid(h, xi_bound)
    K = grid.K
    phase = PhaseGrid(n_x=grid.n_x, xi_lo=-(h * (K + 0.5)),
                      xi_hi=h * (K + 0.5), n_xi=grid.N)
    x, xi = phase.x_nodes()[:, None], phase.xi_nodes()[None, :]
    pts = [complex(z) for z in test_points]
    span = max(abs(z - z_center) for z in pts)
    top = max(z.imag for z in pts)
    for xi_margin in (0.2, 0.5, 0.8):
        xi_on = min(_winding_xi_bound(spec, pts) + xi_margin, xi_bound - 0.05)
        xi_off = xi_on + 0.3
        for shift in (top + 1.5 + span, top + 3.0 + span, top + 6.0 + span):
            candidate = make_lifted_symbol(spec, shift, xi_on, xi_off)
            moved = np.asarray(candidate(x, xi))
            clear = min(float(np.min(np.abs(moved - z))) for z in pts)
            if clear >= SYMBOL_GUARD and _matrix_guard_ok(candidate, pts, grid):
                return candidate, grid, (shift, xi_on)
    raise GuardError("no frequency lift cleared the symbol and matrix guards")


def _winding_xi_bound(spec: SymbolSpec, test_points) -> float:
    """Largest |xi| whose x-row could pass near a test point (by the l1
    spread of the x-dependent coefficients around the xi-monomial part)."""
    spread = sum(poly.sup_bound() for a, poly in enumerate(spec.a)
                 if poly.bandwidth > 0 or a < spec.m)
    worst = max((abs(z) for z in test_points), default=0.0) + spread
    if spec.m == 0:
        return 0.0
    return worst ** (1.0 / spec.m)

"""Command-line front door.

Subcommands parse a flat key = value config file (dotted keys) and write
reports and plot data under the output directory.  Each subcommand declares
its keys once, in a table of ``Key`` entries; unknown keys, value parsing,
flag overrides and defaults all follow from that table.  All randomness
flows from seeds in the config or flags; nothing is ever seeded from the
clock, so equal invocations write equal bytes.

Exit codes, decided in ``main`` alone by the class of the error: 0 success,
3 numeric failure (a solver or an SVD that fails, a singular shift, a
degenerate gap or fit, an unresolved quasimode, an arithmetic error), and 2
for any other ValueError, a bad input value: out of range or not finite, a
repeated --h on a single-h command, N above 4096, a coefficient wider than
2K, no certified xi-slab, a malformed symbol file, a non-integer or repeated
frequency in line.g_coeffs, a config or symbol file that cannot be read, an
--out that is, or lies under, a file, an output file that cannot be written
(the files written before it stay).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import serialize
from .experiments import (
    ExperimentConfig,
    InvalidConfigError,
    ResolutionError,
    line_count_in_region,
    line_model_check,
    run_ensemble,
    weyl_prediction,
)
from .operators import (
    GridParams,
    admissible_h,
    assemble_differential,
    truncation_grid,
)
from .perturbation import (
    build_perturbed,
    derive_params,
    sample_potential,
    seeded_generator,
    split_seed,
)
from .spectral import (
    BumpFunction,
    DegenerateGapError,
    SingularMatrixError,
    SolverError,
    det_factorization_residual,
    eigenvalues,
    grushin_solve,
    pseudospectrum,
    schur,
    single_blas_thread,
    spectral_functional,
)
from .symbols import (
    ContainmentError,
    DegenerateFitError,
    Disk,
    Rectangle,
    TrigPoly,
    catalog_symbol,
    certified_xi_bound,
    default_grid,
    estimate_kappa,
    kappa_floor,
    volume_preimage,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# caught before ValueError, which several of them subclass
_NUMERIC_ERRORS = (
    SolverError, SingularMatrixError, DegenerateGapError, DegenerateFitError,
    ResolutionError, np.linalg.LinAlgError, ArithmeticError,
)


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

def read_file(path: Path, what: str) -> str:
    """A config or symbol file's text; an unreadable one is a config error."""
    try:
        return path.read_text()
    except OSError as exc:
        raise InvalidConfigError(f"cannot read {what} {path}: {exc.strerror}") from None


def parse_config(path: Path) -> dict[str, tuple[str, int]]:
    """Read `key = value` lines; returns key -> (value, line number)."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(read_file(path, "config file").splitlines(),
                                 start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(
                f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise InvalidConfigError(f"line {lineno}: empty key")
        if key in out:
            raise InvalidConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


REQUIRED = object()


@dataclass(frozen=True)
class Key:
    """One config key of a subcommand.

    ``parse`` turns the value text into a value (raising ValueError or
    KeyError on bad text),
    ``default`` is used when the key is absent (REQUIRED makes it an error),
    ``flag`` names the command-line option that overrides the key, and
    ``field`` the ExperimentConfig field the key fills.  An absent key with
    a field is left out, so the dataclass default applies.
    """

    parse: Callable[[str], Any]
    default: Any = None
    flag: str | None = None
    field: str | None = None


def finite(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"not a finite number: {raw!r}")
    return val


def at_least(lo: int) -> Callable[[str], int]:
    """Parser of an integer no smaller than ``lo``."""
    def parse(raw: str) -> int:
        val = int(raw)
        if val < lo:
            raise ValueError(f"must be at least {lo}, got {val}")
        return val
    return parse


def finite_list(raw: str) -> tuple[float, ...]:
    return tuple(finite(tok) for tok in raw.split())


def rational(raw: str) -> str:
    """A number or fraction literal, passed on as text for exact arithmetic."""
    Fraction(raw)
    return raw


def boolean(raw: str) -> bool:
    if raw in ("0", "false", "no"):
        return False
    if raw in ("1", "true", "yes"):
        return True
    raise ValueError(f"expected a boolean, got {raw!r}")


def auto_or(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    return lambda raw: "auto" if raw == "auto" else parse(raw)


def tau0(raw: str) -> float | None:
    return None if raw == "sqrt_h" else finite(raw)


def symbol_file(raw: str):
    return serialize.loads_symbol(read_file(Path(raw), "symbol file"))


def numbers(raw: str, names: str) -> tuple[float, ...]:
    """Exactly one finite number per name in ``names``."""
    vals = finite_list(raw)
    if len(vals) != len(names.split()):
        raise ValueError(f"needs {len(names.split())} numbers ({names}), "
                         f"got {len(vals)}")
    return vals


def rectangle(raw: str) -> Rectangle:
    return Rectangle(*numbers(raw, "re_lo re_hi im_lo im_hi"))


def disk(raw: str) -> Disk:
    re, im, radius = numbers(raw, "re im radius")
    return Disk(complex(re, im), radius)


def point(raw: str) -> complex:
    return complex(*numbers(raw, "re im"))


def trig_poly(raw: str) -> TrigPoly:
    """Flat ``k re im`` triples, each integer frequency k given once."""
    flat = finite_list(raw)
    if not flat or len(flat) % 3 != 0:
        raise ValueError("expected flat k re im triples")
    coeffs: dict[int, complex] = {}
    for k, re, im in zip(flat[::3], flat[1::3], flat[2::3]):
        if not k.is_integer() or int(k) in coeffs:
            raise ValueError(f"frequency {k:g}: expected integers, each once")
        coeffs[int(k)] = complex(re, im)
    return TrigPoly(coeffs)


SYMBOL = {"symbol.model": Key(catalog_symbol), "symbol.file": Key(symbol_file)}
REGION = {"region.rect": Key(rectangle), "region.disk": Key(disk)}
OMEGA = {"omega.rect": Key(rectangle), "omega.disk": Key(disk)}


def read_keys(cfg: dict, table: dict[str, Key], args) -> dict[str, Any]:
    """The config's values by key, parsed, overridden by flags, defaulted."""
    for name, (_, lineno) in cfg.items():
        if name not in table:
            raise InvalidConfigError(f"line {lineno}: unknown key {name!r}")
    out: dict[str, Any] = {}
    for name, key in table.items():
        if name in cfg:
            raw, lineno = cfg[name]
            try:
                out[name] = key.parse(raw)
            except (ValueError, KeyError, ZeroDivisionError) as exc:
                raise InvalidConfigError(
                    f"line {lineno}: key {name!r}: {exc}") from exc
        flag = getattr(args, key.flag) if key.flag else None
        if isinstance(flag, list):          # --h, the one repeatable flag
            if key.parse is finite_list:
                flag = tuple(flag)
            elif len(flag) > 1:
                raise InvalidConfigError(
                    f"--h given {len(flag)} times, but {name} takes one h")
            else:
                flag = flag[0]
        if flag is not None:
            out[name] = flag
        elif name not in out:
            if key.default is REQUIRED:
                raise InvalidConfigError(f"missing required key {name!r}")
            if key.field is None:
                out[name] = key.default
    return out


def one_of(values: dict, first: str, second: str, required: bool = True):
    """The value of whichever of two alternative keys is given."""
    a, b = values[first], values[second]
    if a is not None and b is not None:
        raise InvalidConfigError(f"give {first} or {second}, not both")
    if a is None and b is None and required:
        raise InvalidConfigError(f"missing {first} or {second}")
    return a if a is not None else b


def check_out_dir(out_dir: Path) -> None:
    """Fail before any work on an --out that is, or lies under, a file.  The
    directory itself is made at the first write: a failed run leaves none."""
    nearest = next((p for p in (out_dir, *out_dir.parents) if p.exists()), out_dir)
    if not nearest.is_dir():
        raise InvalidConfigError(f"--out {out_dir}: {nearest} is not a directory")


def _write(out_dir: Path, name: str, text: str) -> None:
    """Write one output file; one that cannot be written is a config error,
    and the files written before it stay."""
    path = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise InvalidConfigError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# the plan.* key names are derive_params' parameter names
DERIVE_PARAMS = {
    "plan.n": Key(int, 1),
    "plan.s": Key(rational, REQUIRED),
    "plan.epsilon": Key(rational, REQUIRED),
    "plan.kappa": Key(rational, REQUIRED),
    "plan.h": Key(finite, REQUIRED, flag="h"),
    "plan.tau0": Key(tau0),
    "plan.mode": Key(str, "derived"),
    "plan.delta_eff": Key(finite),
}


def cmd_derive_params(v: dict, out_dir: Path) -> int:
    plan = derive_params(**{name[len("plan."):]: val for name, val in v.items()})
    d = plan.as_dict()
    for key in ("M_float", "M_tilde_float", "N1_float", "L", "R", "D",
                "delta", "eps0", "mode"):
        label = key.replace("_float", "")
        print(f"{label} = {d[key]}")
    _write(out_dir, "params.json", serialize.json_text(d))
    return EXIT_OK


VOLUME = {
    **SYMBOL, **REGION,
    "grid.n_x": Key(int, 1024),
    "grid.n_xi": Key(int, 1024),
    "volume.h": Key(finite, flag="h"),
    "kappa.z": Key(point),
    "kappa.t_lo": Key(finite, 1e-4),
    "kappa.t_hi": Key(finite, 1e-1),
    "kappa.points_n": Key(at_least(4), 8),
}


def cmd_volume(v: dict, out_dir: Path) -> int:
    h, t_lo, t_hi = v["volume.h"], v["kappa.t_lo"], v["kappa.t_hi"]
    if h is not None:
        try:
            admissible_h(h)
        except ValueError as exc:
            raise InvalidConfigError(f"volume.h: {exc}") from None
    if not 0.0 < t_lo < t_hi:
        raise InvalidConfigError(f"kappa.t_lo = {t_lo!r}, kappa.t_hi = "
                                 f"{t_hi!r}: need 0 < t_lo < t_hi")
    spec = one_of(v, "symbol.model", "symbol.file")
    region = one_of(v, "region.rect", "region.disk")
    grid = default_grid(spec, region, v["grid.n_x"], v["grid.n_xi"])
    vol = volume_preimage(spec, region, grid)
    payload = {
        "schema": "torweyl.volume.v1",
        "symbol": serialize.dumps_symbol(spec),
        "region": serialize.dumps_region(region),
        "xi_bound": grid.xi_hi,
        "n_x": grid.n_x,
        "n_xi": grid.n_xi,
        "volume": vol,
    }
    print(f"volume = {vol!r}")
    if h is not None:
        pred = weyl_prediction(vol, h)
        payload["h"] = h
        payload["prediction"] = pred
        print(f"prediction = {pred!r} at h = {h!r}")
    z = v["kappa.z"]
    if z is not None:
        try:
            kap, r2 = estimate_kappa(spec, z, t_lo=t_lo, t_hi=t_hi,
                                     n_points=v["kappa.points_n"])
        except ContainmentError as exc:
            raise InvalidConfigError(
                f"kappa.z = {z}, kappa.t_hi = {t_hi!r}: no xi-slab provably "
                f"holds the preimage of the disk |w - kappa.z| <= "
                f"sqrt(kappa.t_hi): {exc}") from None
        payload["kappa_hat"] = kap
        payload["kappa_r2"] = r2
        print(f"kappa_hat = {kap!r} (r2 = {r2!r}) at z = {z}")
    _write(out_dir, "volume.json", serialize.json_text(payload))
    return EXIT_OK


SPECTRUM = {
    **SYMBOL, **REGION,
    "grid.h": Key(finite, REQUIRED, flag="h"),
    "grid.k_rule": Key(auto_or(int), "auto"),
    "perturb.mode": Key(str, "effective"),
    "perturb.delta_eff": Key(finite, 1e-12),
    "perturb.seed": Key(int, flag="seed"),
    "pseudospec.enabled": Key(boolean, True),
    "pseudospec.n_re": Key(at_least(1), 40),
    "pseudospec.n_im": Key(at_least(1), 20),
}


# the Schur forms run on one BLAS thread, as run_ensemble's trials do; a
# contextlib context manager can decorate a function
@single_blas_thread()
def cmd_spectrum(v: dict, out_dir: Path) -> int:
    spec = one_of(v, "symbol.model", "symbol.file")
    region = one_of(v, "region.rect", "region.disk")
    h = v["grid.h"]
    grid = truncation_grid(h, certified_xi_bound(spec, region), v["grid.k_rule"])
    seed = v["perturb.seed"]
    # the plan and the draw come first, so that a bad perturb.* value fails
    # before any factorization and any write
    if seed is not None:
        plan = derive_params(
            n=1, s="2", epsilon="0.5", kappa=kappa_floor(spec),
            h=h, mode=v["perturb.mode"], delta_eff=v["perturb.delta_eff"],
            l_cap=h * grid.K,
        )
        pot = sample_potential(plan, split_seed(seed, 0))
    matrix = assemble_differential(spec, grid)
    tag = f"{h:g}"
    # one Schur form per matrix gives its eigenvalues and the resolvent
    # floor; each N x N array is dropped after its last reader, so no more
    # than two are alive at once, as in a weyl-ensemble trial
    target = schur(matrix)
    _write(out_dir, f"eigs_{tag}_base.csv",
           serialize.eigs_csv(eigenvalues(target)))
    payload = {
        "schema": "torweyl.spectrum.v2",
        "h": h, "K": grid.K, "N": grid.N,
    }
    if seed is not None:
        # the base form is written; P goes once its perturbed copy exists
        del target
        matrix = build_perturbed(matrix, plan, pot)
        target = schur(matrix)
        _write(out_dir, f"eigs_{tag}_0.csv",
               serialize.eigs_csv(eigenvalues(target)))
        payload["plan"] = plan.as_dict()
    # the pseudospectrum reads only the form
    del matrix
    if v["pseudospec.enabled"]:
        re_lo, re_hi, im_lo, im_hi = region.bounds()
        res = np.linspace(re_lo, re_hi, v["pseudospec.n_re"])
        ims = np.linspace(im_lo, im_hi, v["pseudospec.n_im"])
        pts = [complex(a, b) for b in ims for a in res]
        vals = pseudospectrum(target, pts)
        _write(out_dir, f"pseudospec_{tag}.csv",
               serialize.pseudospec_csv(pts, vals))
    _write(out_dir, "params.json", serialize.json_text(payload))
    print(f"wrote spectrum outputs for h = {h:g} (N = {grid.N})")
    return EXIT_OK


WEYL_ENSEMBLE = {
    **SYMBOL, **REGION, **OMEGA,
    "run.h_list": Key(finite_list, REQUIRED, flag="h", field="h_list"),
    "run.trials_n": Key(int, flag="trials", field="n_trials"),
    "run.master_seed": Key(int, flag="seed", field="master_seed"),
    "run.workers_n": Key(int, 1, flag="workers"),
    "plan.s": Key(finite, field="s"),
    "plan.epsilon": Key(finite, field="epsilon"),
    "plan.kappa": Key(auto_or(lambda raw: float(Fraction(raw))), field="kappa"),
    "plan.tau0": Key(tau0, field="tau0"),
    "plan.mode": Key(str, field="mode"),
    "plan.delta_eff": Key(finite, field="delta_eff"),
    "probes.boundary_n": Key(at_least(0), field="n_probes"),
    "probes.tube_r": Key(finite, field="tube_r"),
    "report.rel_tol": Key(finite, field="rel_tol"),
    "report.eps_tilde_factor": Key(finite, field="eps_tilde_factor"),
    "grid.k_rule": Key(auto_or(int), field="k_rule"),
    "grid.vol_n_x": Key(int, field="vol_n_x"),
    "grid.vol_n_xi": Key(int, field="vol_n_xi"),
}


def cmd_weyl_ensemble(v: dict, out_dir: Path) -> int:
    config = ExperimentConfig(
        spec=one_of(v, "symbol.model", "symbol.file"),
        region=one_of(v, "region.rect", "region.disk"),
        omega=one_of(v, "omega.rect", "omega.disk"),
        **{WEYL_ENSEMBLE[name].field: val for name, val in v.items()
           if WEYL_ENSEMBLE[name].field},
    )
    report = run_ensemble(config, workers=v["run.workers_n"])
    rd = report.as_dict()
    _write(out_dir, "report.json", serialize.json_text(rd))
    _write(out_dir, "trials.csv", serialize.trials_csv(rd))
    for rec in report.per_h:
        tag = f"{rec.h:g}"
        _write(out_dir, f"eigs_{tag}_base.csv",
               serialize.eigs_csv(rec.baseline.eigvals))
        for i, trial in enumerate(rec.trials):
            if trial.eigvals is not None:
                _write(out_dir, f"eigs_{tag}_{i}.csv",
                       serialize.eigs_csv(trial.eigvals))
        q1, q2, q3 = rec.rel_err_quartiles
        print(f"h = {rec.h:g}: prediction = {rec.prediction:.3f}, "
              f"median relative error = {q2:.3f} "
              f"(IQR {q1:.3f}..{q3:.3f}), "
              f"success@rel_tol = {rec.success_fraction_rel:.2f}")
    return EXIT_OK


LINE_CHECK = {
    **REGION,
    "line.g_coeffs": Key(trig_poly, REQUIRED),
    "line.h": Key(finite, 0.1, flag="h"),
    "line.k_max": Key(at_least(0), 5),
    "line.grid_K": Key(int, 96),
    "line.delta": Key(finite, 0.0),
    "line.seed": Key(int, 0, flag="seed"),
    "line.trials_n": Key(at_least(1), 1),
}


def cmd_line_check(v: dict, out_dir: Path) -> int:
    g, h, k_max = v["line.g_coeffs"], v["line.h"], v["line.k_max"]
    grid = GridParams(h=h, K=v["line.grid_K"])
    result = line_model_check(g, h, k_max, grid)
    payload = {
        "schema": "torweyl.linecheck.v1",
        "h": h,
        "k_max": k_max,
        "grid_K": grid.K,
        "line_im": result.line_im,
        "max_line_deviation": result.max_line_deviation,
        "tail_ratio": result.tail_ratio,
        "residuals": [float(r) for r in result.residuals],
        "lambdas": [[z.real, z.imag] for z in result.lambdas],
    }
    print(f"line Im z = {result.line_im!r}; "
          f"max quasimode residual = {float(np.max(result.residuals)):.3e}")
    delta = v["line.delta"]
    region = one_of(v, "region.rect", "region.disk", required=False)
    if region is not None:
        payload["region"] = serialize.dumps_region(region)
    if delta:
        trials = v["line.trials_n"]
        shifted, counts = [], []
        for i in range(trials):
            rng = seeded_generator(split_seed(v["line.seed"], i))
            q = TrigPoly({k: complex(a, b) for k, (a, b) in zip(
                range(-2, 3), rng.standard_normal((5, 2)))})
            gd = g + q.scaled(delta)
            pert = line_model_check(gd, h, k_max, grid)
            shifted.append(pert.line_im)
            if region is not None:
                counts.append(line_count_in_region(gd, h, region))
        payload["perturbed_line_im"] = shifted
        if region is not None:
            payload["region_counts"] = counts
            print(f"closed-form counts in region over {trials} trials: {counts}")
        print(f"perturbed line Im z values: {[f'{s:.6g}' for s in shifted]}")
    elif region is not None:
        count = line_count_in_region(g, h, region)
        payload["region_counts"] = [count]
        print(f"closed-form count in region: {count}")
    _write(out_dir, "linecheck.json", serialize.json_text(payload))
    return EXIT_OK


IDENTITY_CHECKS = {
    "checks.master_seed": Key(int, 0, flag="seed"),
    "checks.det_trials_n": Key(at_least(1), 50),
    "checks.det_dim": Key(at_least(3), 20),    # up to 3 singular pairs
    "checks.fu_trials_n": Key(at_least(1), 20),
    "checks.fu_dim": Key(at_least(1), 50),
}


def _random_matrix(rng, n, smallest_sv=None):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if smallest_sv is None:
        return a
    u, _, vh = np.linalg.svd(a)
    sv = np.geomspace(1.0, 2.0, n)
    sv[0] = smallest_sv
    return u @ np.diag(sv) @ vh


def cmd_identity_checks(v: dict, out_dir: Path) -> int:
    master = v["checks.master_seed"]
    det_trials, det_dim = v["checks.det_trials_n"], v["checks.det_dim"]
    fu_trials, fu_dim = v["checks.fu_trials_n"], v["checks.fu_dim"]

    results = []
    rng = seeded_generator(split_seed(master, 1))
    worst_det = 0.0
    worst_tiny = 0.0
    for i in range(det_trials):
        a = _random_matrix(rng, det_dim)
        for n_small in (1, 2, 3):
            worst_det = max(worst_det,
                            det_factorization_residual(a, 0.0, n_small))
        if i % 5 == 0:
            a = _random_matrix(rng, det_dim, smallest_sv=1e-10)
            for n_small in (1, 2, 3):
                worst_tiny = max(worst_tiny,
                                 det_factorization_residual(a, 0.0, n_small))
    results.append(("det-factorization", worst_det, 1e-8))
    # the determinant itself is only accurate to eps * condition number, so
    # near-singular shifts grade on the documented looser tolerance
    results.append(("det-factorization-near-singular", worst_tiny, 1e-6))

    worst_block = 0.0
    rng = seeded_generator(split_seed(master, 2))
    for _ in range(10):
        a = _random_matrix(rng, det_dim)
        sol = grushin_solve(a, 0.0, 3)
        n = det_dim
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        vp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rhs = np.concatenate([v, vp])
        uu = np.concatenate([sol.e @ v + sol.e_plus @ vp,
                             sol.e_minus @ v + sol.e_minus_plus @ vp])
        resid = float(np.linalg.norm(sol.block_matrix @ uu - rhs)
                      / np.linalg.norm(rhs))
        worst_block = max(worst_block, resid)
    results.append(("grushin-reassembly", worst_block, 1e-9))

    chi = BumpFunction()
    worst_fu = 0.0
    rng = seeded_generator(split_seed(master, 3))
    for _ in range(fu_trials):
        b = rng.standard_normal((fu_dim, fu_dim)) + 1j * rng.standard_normal(
            (fu_dim, fu_dim))
        s_mat = b.conj().T @ b / fu_dim
        res = spectral_functional(s_mat, chi, alpha=0.3, t_probe=0.37)
        worst_fu = max(worst_fu, res.deriv_residual)
    results.append(("logdet-derivative", worst_fu, 1e-6))

    failed = False
    payload = {"schema": "torweyl.identity.v1", "checks": []}
    for name, worst, tol in results:
        ok = worst <= tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: worst residual "
              f"{worst:.3e} vs tolerance {tol:g}")
        payload["checks"].append(
            {"name": name, "worst": worst, "tolerance": tol, "pass": ok})
    _write(out_dir, "identity_checks.json", serialize.json_text(payload))
    return EXIT_OK if not failed else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS: dict[str, tuple[Callable[[dict, Path], int], dict[str, Key]]] = {
    "derive-params": (cmd_derive_params, DERIVE_PARAMS),
    "volume": (cmd_volume, VOLUME),
    "spectrum": (cmd_spectrum, SPECTRUM),
    "weyl-ensemble": (cmd_weyl_ensemble, WEYL_ENSEMBLE),
    "line-check": (cmd_line_check, LINE_CHECK),
    "identity-checks": (cmd_identity_checks, IDENTITY_CHECKS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torweyl",
        description="Spectral experiments for randomly perturbed operators "
                    "on the torus",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="key = value file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--h", type=finite, action="append",
                        help="override h (repeatable for h lists)")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--workers", type=int, help="worker threads")
    return parser


# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _reuse_heap() -> None:
    """Make glibc serve blocks below 32 MiB from the heap, where freed
    memory is reused, instead of mapping each afresh.  Only ``main`` calls
    this: a library caller that skips it, such as a test, keeps glibc's
    defaults.

    glibc maps a block of at least M_MMAP_THRESHOLD (128 KiB at start-up)
    on its own and unmaps it when it is freed, so the next such block
    faults its pages in again.  The threshold rises by itself only after a
    larger mapped block is freed, which importing scipy used to do by
    accident.  Measured per iteration of the benchmark workloads at seed 1
    (minor page faults, and the median wall time of an in-process loop of
    ``main`` calls after one warm-up call; 5 alternating pairs of fresh
    processes per workload, 2-CPU x86-64 VM with glibc 2.36), these settings
    against none gave: ``phase-volumes`` 1-5 faults against 8.7k, whose
    pruned sweep maps each array of exactly 128 KiB afresh (symbols._HEADS,
    _PAIRS and _PIECE), and 0.18 against 0.21 s (faster in 5 of 5 pairs);
    ``weyl-small-pool`` 9-28 against 1.4k-1.6k and 0.81 against 0.90 s (4
    of 5); ``pseudospec-grid`` 0-9 against 0.5k and ``weyl-acceptance``
    0-13 against 3.4k, with no resolvable time difference; peak RSS within
    0.2 MB.  Otherwise:

    - an explicit threshold stops the rise, so a small one is worse: at
      1 MiB (the trim threshold still raised) the N = 447 trial matrices
      (3.2 MB) are mapped afresh each time, and ``weyl-acceptance`` took
      11.4k faults, 0.45 s against 0.43 s, and 2.2 MB more peak RSS;
    - an explicit threshold also stops the trim threshold from following at
      twice its value, and left at 128 KiB it returns the top of the heap to
      the system at every step: 8.8k-9.0k faults and 0.23 s against 0.20 s
      on ``phase-volumes``, 17.9k-18.3k and 0.50 s on ``weyl-acceptance``.

    32 MiB is glibc's own ceiling for the rising threshold, and 64 MiB twice
    that.  Other C libraries are left as they are.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (ValueError, OSError):
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _reuse_heap()
    args = build_parser().parse_args(argv)
    run, table = COMMANDS[args.command]
    try:
        values = read_keys(parse_config(Path(args.config)), table, args)
        check_out_dir(Path(args.out))
        return run(values, Path(args.out))
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

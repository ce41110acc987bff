"""Per-layer metrics of the traced run.

``PATCHES`` lists every traced function by the module attribute its caller
looks it up under; ``iteration_metrics`` turns the spans of one traced
iteration into the named per-layer metrics.  Every metric is emitted for
every workload; a layer that does not run on a workload reads 0.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

from tracer import Span, Tracer, self_times

H_TAGS = ("0.05", "0.02", "0.01")


def _per_h(stem: str, unit: str, better: str = "lower") -> list[tuple[str, str, str]]:
    return [(f"{stem}.h{t}", unit, better) for t in H_TAGS]


# (name, unit, better); BENCHMARK.json's per_layer list is this table
PER_LAYER = [
    *_per_h("operators.toeplitz_s", "s"),
    ("operators.toeplitz_bytes", "bytes", "lower"),
    ("operators.assemble_s", "s", "lower"),
    *_per_h("spectral.svd_s", "s"),
    *_per_h("spectral.logdet_s", "s"),
    *_per_h("spectral.eig_s", "s"),
    ("spectral.factorizations_per_trial", "count", "lower"),
    ("spectral.dense_n3", "count", "lower"),
    ("spectral.pseudo_s", "s", "lower"),
    ("spectral.pseudo_points", "count", "higher"),
    ("spectral.logdet_singular", "count", "lower"),
    ("spectral.logdet_probes", "count", "higher"),
    ("perturbation.draw_s", "s", "lower"),
    *_per_h("perturbation.build_self_s", "s"),
    ("symbols.volume_s", "s", "lower"),
    ("symbols.sublevel_s", "s", "lower"),
    ("symbols.cells", "count", "lower"),
    ("symbols.range_s", "s", "lower"),
    ("experiments.validate_s", "s", "lower"),
    *_per_h("experiments.trial_s", "s"),
    ("experiments.busy_ratio", "ratio", "higher"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.trials_failed", "count", "lower"),
    ("experiments.counts_changed", "count", "lower"),
    ("experiments.counts_compared", "count", "higher"),
    ("serialize.s", "s", "lower"),
    ("serialize.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spectral_toeplitz_share", "ratio", "lower"),
]


def _dim(op) -> int:
    return op.entries.shape[0] if hasattr(op, "entries") else len(op)


def _h(op):
    return op.grid.h if hasattr(op, "grid") else None


def _dense(op, *args, **kwargs) -> dict:
    return {"h": _h(op), "N": _dim(op)}


def _cells(grid) -> dict:
    return {"cells": grid.n_x * grid.n_xi}


def _trial(ctx, *args, **kwargs) -> dict:
    return {"h": ctx.h, "N": ctx.grid.N}


# (module, attribute, span name, attrs from the call's arguments)
PATCHES = [
    ("torweyl.cli", "run_ensemble", "experiments.run_ensemble", None),
    ("torweyl.cli", "eigenvalues", "spectral.eigenvalues", _dense),
    ("torweyl.cli", "pseudospectrum", "spectral.pseudospectrum",
     lambda op, pts: {"h": _h(op), "N": _dim(op), "points": len(pts)}),
    ("torweyl.cli", "sample_potential", "perturbation.sample_potential", None),
    ("torweyl.cli", "build_perturbed", "perturbation.build_perturbed", _dense),
    ("torweyl.cli", "derive_params", "perturbation.derive_params", None),
    ("torweyl.cli", "assemble_differential", "operators.assemble_differential", None),
    ("torweyl.cli", "certified_xi_bound", "symbols.certified_xi_bound", None),
    ("torweyl.cli", "volume_preimage", "symbols.volume_preimage",
     lambda spec, region, grid: _cells(grid)),
    ("torweyl.cli", "estimate_kappa", "symbols.estimate_kappa", None),
    # cli's file-writing helper: the only place output bytes leave
    ("torweyl.cli", "_write", "serialize.write",
     lambda out_dir, name, text: {"bytes": len(text.encode())}),
    ("torweyl.serialize", "json_text", "serialize.json_text", None),
    ("torweyl.serialize", "eigs_csv", "serialize.eigs_csv", None),
    ("torweyl.serialize", "trials_csv", "serialize.trials_csv", None),
    ("torweyl.serialize", "pseudospec_csv", "serialize.pseudospec_csv", None),
    ("torweyl.experiments", "validate_config", "experiments.validate_config", None),
    ("torweyl.experiments", "assemble_differential", "operators.assemble_differential", None),
    ("torweyl.experiments", "derive_params", "perturbation.derive_params", None),
    ("torweyl.experiments", "certified_xi_bound", "symbols.certified_xi_bound", None),
    ("torweyl.experiments", "volume_preimage", "symbols.volume_preimage",
     lambda spec, region, grid: _cells(grid)),
    ("torweyl.experiments", "range_samples", "symbols.range_samples", None),
    ("torweyl.experiments", "distance_to_samples", "symbols.distance_to_samples", None),
    ("torweyl.experiments", "sample_potential", "perturbation.sample_potential", None),
    ("torweyl.experiments", "build_perturbed", "perturbation.build_perturbed", _dense),
    ("torweyl.experiments", "eigenvalues", "spectral.eigenvalues", _dense),
    ("torweyl.experiments", "count_in_region", "spectral.count_in_region", None),
    ("torweyl.experiments", "singular_values", "spectral.singular_values", _dense),
    ("torweyl.experiments", "log_abs_det", "spectral.log_abs_det", _dense),
    # run_ensemble has no public per-trial entry point; these two private
    # functions are where one trial (perturbed or unperturbed) runs
    ("torweyl.experiments", "_run_trial_in_context", "experiments.trial", _trial),
    ("torweyl.experiments", "_baseline_trial", "experiments.baseline", _trial),
    ("torweyl.perturbation", "convolution_matrix", "operators.toeplitz",
     lambda u, grid, **kw: {"h": grid.h, "N": grid.N, "D": len(u.coeffs)}),
    ("torweyl.operators", "convolution_matrix", "operators.convolution_matrix", None),
    ("torweyl.symbols", "sublevel_volumes", "symbols.sublevel_volumes",
     lambda spec, z, t_values, grid: _cells(grid)),
]

DENSE = ("spectral.eigenvalues", "spectral.singular_values", "spectral.log_abs_det")


def install(tracer: Tracer) -> None:
    for module, attr, name, attrs in PATCHES:
        tracer.patch(importlib.import_module(module), attr, name, attrs)


def _tag(sp: Span) -> str:
    return f"h{sp.attrs['h']:g}"


def iteration_metrics(spans: list[Span], workers: int) -> dict:
    """Per-layer metrics of one traced iteration.

    ``trials_failed``, ``counts_changed`` and ``counts_compared`` come from
    the output checks and stay 0 here.
    """
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
    parent = {sp.id: sp.parent for sp in spans}
    name_of = {sp.id: sp.name for sp in spans}

    def under(sp: Span, ancestor: str) -> bool:
        p = sp.parent
        while p is not None:
            if name_of.get(p) == ancestor:
                return True
            p = parent.get(p)
        return False

    def add(name: str, value: float) -> None:
        if name in m:           # h values outside H_TAGS have no metric
            m[name] += value

    def total(*names: str) -> float:
        return float(sum(sp.duration for n in names for sp in by_name[n]))

    for sp in by_name["operators.toeplitz"]:
        add(f"operators.toeplitz_s.{_tag(sp)}", sp.duration)
        m["operators.toeplitz_bytes"] += sp.attrs["D"] * sp.attrs["N"] ** 2 * 16
    m["operators.assemble_s"] = total("operators.assemble_differential")

    for stem, name in (("svd_s", "spectral.singular_values"),
                       ("logdet_s", "spectral.log_abs_det"),
                       ("eig_s", "spectral.eigenvalues")):
        for sp in by_name[name]:
            if sp.attrs["h"] is not None:
                add(f"spectral.{stem}.{_tag(sp)}", sp.duration)
    dense = [sp for n in DENSE for sp in by_name[n]]
    trials = by_name["experiments.trial"]
    if trials:
        per_trial = sum(1 for sp in dense if under(sp, "experiments.trial"))
        m["spectral.factorizations_per_trial"] = per_trial / len(trials)
    pseudo = by_name["spectral.pseudospectrum"]
    m["spectral.dense_n3"] = float(
        sum(sp.attrs["N"] ** 3 for sp in dense)
        + sum(sp.attrs["points"] * sp.attrs["N"] ** 3 for sp in pseudo))
    m["spectral.pseudo_s"] = total("spectral.pseudospectrum")
    m["spectral.pseudo_points"] = float(sum(sp.attrs["points"] for sp in pseudo))
    logdet = by_name["spectral.log_abs_det"]
    m["spectral.logdet_singular"] = float(
        sum(1 for sp in logdet if sp.attrs.get("error") == "SingularMatrixError"))
    m["spectral.logdet_probes"] = float(len(logdet))

    m["perturbation.draw_s"] = total("perturbation.sample_potential")
    for sp in by_name["perturbation.build_perturbed"]:
        add(f"perturbation.build_self_s.{_tag(sp)}", own[sp.id])

    m["symbols.volume_s"] = total("symbols.volume_preimage")
    m["symbols.sublevel_s"] = total("symbols.sublevel_volumes")
    m["symbols.cells"] = float(sum(
        sp.attrs["cells"] for n in ("symbols.volume_preimage", "symbols.sublevel_volumes")
        for sp in by_name[n]))
    m["symbols.range_s"] = total("symbols.range_samples", "symbols.distance_to_samples")

    m["experiments.validate_s"] = total("experiments.validate_config")
    by_h: dict[str, list[Span]] = defaultdict(list)
    for sp in trials:
        by_h[_tag(sp)].append(sp)
    busy = capacity = 0.0
    for tag, group in by_h.items():
        add(f"experiments.trial_s.{tag}", statistics.median(sp.duration for sp in group))
        busy += sum(sp.duration for sp in group)
        capacity += workers * (max(sp.end for sp in group) - min(sp.start for sp in group))
    if capacity > 0.0:
        m["experiments.busy_ratio"] = busy / capacity
    m["experiments.self_s"] = sum(own[sp.id] for sp in by_name["experiments.run_ensemble"])

    m["serialize.s"] = sum(sp.duration for sp in spans if sp.name.startswith("serialize."))
    m["serialize.bytes"] = float(sum(sp.attrs["bytes"] for sp in by_name["serialize.write"]))
    m["cli.self_s"] = sum(own[sp.id] for sp in by_name["cli.main"])

    # self times partition the traced busy time of all threads (the wall
    # time of a serial iteration)
    spectral_self = sum(own[sp.id] for sp in spans if sp.name.startswith("spectral."))
    toeplitz_self = sum(own[sp.id] for sp in by_name["operators.toeplitz"])
    m["trace.spectral_toeplitz_share"] = (spectral_self + toeplitz_self) / sum(own.values())
    return m


def combine(per_iteration: list[dict], untraced_wall: list[float],
            traced_wall: list[float]) -> dict:
    """Median of each metric over the traced iterations, plus the overhead."""
    out = {name: statistics.median(d[name] for d in per_iteration)
           for name, _, _ in PER_LAYER}
    out["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(untraced_wall)
    return out


def required(wl) -> list[str]:
    """Per-layer metrics whose layer runs on the workload; each must be > 0."""
    if wl.kind == "volume":
        return ["symbols.volume_s", "symbols.sublevel_s", "symbols.cells",
                "serialize.s", "serialize.bytes", "cli.self_s"]
    tags = [f"h{h:g}" for h in wl.size.h_values]
    common = ["operators.toeplitz_bytes", "operators.assemble_s", "spectral.dense_n3",
              "perturbation.draw_s", "serialize.s", "serialize.bytes", "cli.self_s"]
    common += [f"{stem}.{t}" for t in tags for stem in (
        "operators.toeplitz_s", "spectral.eig_s", "perturbation.build_self_s")]
    if wl.kind == "spectrum":
        return common + ["spectral.pseudo_s", "spectral.pseudo_points"]
    return common + [
        "spectral.factorizations_per_trial", "spectral.logdet_probes",
        "symbols.volume_s", "symbols.cells", "symbols.range_s",
        "experiments.validate_s", "experiments.busy_ratio", "experiments.self_s",
    ] + [f"{stem}.{t}" for t in tags for stem in (
        "spectral.svd_s", "spectral.logdet_s", "experiments.trial_s")]

"""torweyl: spectral experiments for non-self-adjoint operators on the torus.

Build symbols and their dense Fourier-basis matrices, derive admissible
random-perturbation parameters, and compare eigenvalue counts against the
phase-space volume prediction, together with the supporting determinant,
trace, and Sobolev-norm identities.
"""

from .symbols import (
    BoundaryTube,
    Disk,
    PhaseGrid,
    Rectangle,
    SymbolSpec,
    TrigPoly,
    catalog_symbol,
    check_ellipticity,
    check_symmetry,
    estimate_kappa,
    volume_preimage,
)
from .operators import (
    GridParams,
    OperatorMatrix,
    assemble_differential,
    assemble_multiplier,
    assemble_toroidal_pdo,
    hs_norm,
)
from .perturbation import (
    PerturbationPlan,
    RandomPotential,
    build_perturbed,
    derive_params,
    sample_potential,
)
from .spectral import (
    BumpFunction,
    GrushinSolution,
    SpectrumResult,
    coupling_matrix,
    count_in_region,
    det_factorization_residual,
    eigenvalues,
    grushin_solve,
    log_abs_det,
    pseudospectrum,
    singular_values,
    spectral_functional,
)
from .experiments import (
    ExperimentConfig,
    WeylReport,
    line_count_in_region,
    line_model_check,
    run_ensemble,
    run_trial,
    singular_ladder_profile,
    weyl_prediction,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryTube", "Disk", "PhaseGrid", "Rectangle", "SymbolSpec", "TrigPoly",
    "catalog_symbol", "check_ellipticity", "check_symmetry", "estimate_kappa",
    "volume_preimage",
    "GridParams", "OperatorMatrix", "assemble_differential",
    "assemble_multiplier", "assemble_toroidal_pdo", "hs_norm",
    "PerturbationPlan", "RandomPotential", "build_perturbed", "derive_params",
    "sample_potential",
    "BumpFunction", "GrushinSolution", "SpectrumResult", "coupling_matrix",
    "count_in_region", "det_factorization_residual", "eigenvalues",
    "grushin_solve", "log_abs_det", "pseudospectrum", "singular_values",
    "spectral_functional",
    "ExperimentConfig", "WeylReport", "line_count_in_region",
    "line_model_check", "run_ensemble", "run_trial",
    "singular_ladder_profile", "weyl_prediction",
]

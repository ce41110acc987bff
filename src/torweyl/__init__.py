"""torweyl: spectral experiments for non-self-adjoint operators on the torus.

Build symbols and their dense Fourier-basis matrices, derive admissible
random-perturbation parameters, and compare eigenvalue counts against the
phase-space volume prediction, together with the supporting determinant,
trace, and Sobolev-norm identities.  Import from the submodules
(``torweyl.symbols``, ``torweyl.experiments``, ...).
"""

__version__ = "0.1.0"

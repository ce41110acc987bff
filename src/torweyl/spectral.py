"""Dense linear-algebra layer.

Eigenvalues and singular values of shifted operators, log-determinants by
pivoted factorization, bordered (Grushin) block systems built from singular
pairs, the scalar functional-calculus identities for Hermitian positive
matrices, and the scope in which the bundled BLAS runs on one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.linalg

from .operators import OperatorMatrix
from .symbols import Region


class SolverError(RuntimeError):
    """The dense solver failed to converge."""


class SingularMatrixError(ValueError):
    """Log-determinant requested at a numerically singular shift."""


class DegenerateGapError(ValueError):
    """Projection rank falls inside a singular-value cluster."""


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

# the OpenBLAS copies the numpy and scipy wheels bundle: the package, the
# library file in its ``<package>.libs`` directory, and the suffix of the
# thread-count entry points
_OPENBLAS_COPIES = (
    (np, "libscipy_openblas64_-*.so", "64_"),
    (scipy, "libscipy_openblas-*.so", ""),
)


@functools.cache
def _openblas_threads() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of each bundled OpenBLAS copy found.

    Opening a library that is already loaded returns the loaded copy, so the
    functions act on the BLAS that numpy and scipy call.
    """
    found = []
    for package, pattern, suffix in _OPENBLAS_COPIES:
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((get, put))
    return tuple(found)


class _BlasPin:
    """Process-wide count of open ``single_blas_thread`` scopes.

    The thread count is global to each library, so the first scope to open
    pins it and the last to close restores it, whichever threads they run on.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.saved: list[tuple[Callable[[int], None], int]] = []

    def enter(self) -> None:
        with self.lock:
            if self.depth == 0:
                copies = _openblas_threads()
                self.saved = [(put, get()) for get, put in copies]
                for _, put in copies:
                    put(1)
            self.depth += 1

    def exit(self) -> None:
        with self.lock:
            self.depth -= 1
            if self.depth == 0:
                for put, n in self.saved:
                    put(n)
                self.saved = []


_PIN = _BlasPin()


@contextlib.contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the enclosed dense linear algebra on one BLAS thread.

    Sets every OpenBLAS copy bundled with numpy and scipy to one thread and
    restores each copy's previous count on exit, on an exception too.  One
    thread makes LAPACK's rounding independent of the core count, and lets
    worker threads each run their own factorization without contending for
    the cores.  Where no bundled OpenBLAS is found (numpy or scipy built
    against another BLAS), this does nothing.
    """
    _PIN.enter()
    try:
        yield
    finally:
        _PIN.exit()


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, OperatorMatrix):
        return np.asarray(op.entries, dtype=complex)
    return np.asarray(op, dtype=complex)


def eigenvalues(op) -> np.ndarray:
    """All eigenvalues of the dense matrix."""
    a = _as_matrix(op)
    try:
        # eig with vectors, though the vectors are dropped: eigvals and zgees
        # round differently, and the calibrated counts are pinned to this
        # rounding until counts are certified against it
        w, _ = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    return w


def count_in_region(eigs: np.ndarray, region: Region) -> int:
    """Eigenvalues inside the closed region, listing multiplicity.

    Points exactly on the boundary count as inside.
    """
    return int(np.count_nonzero(region.contains(eigs)))


def singular_values(op, z: complex = 0.0) -> np.ndarray:
    """Singular values of (M - z), ascending."""
    a = _as_matrix(op)
    shifted = a - z * np.eye(a.shape[0])
    try:
        sv = np.linalg.svd(shifted, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SVD did not converge: {exc}") from exc
    return sv[::-1].copy()


def log_abs_det(op, z: complex = 0.0) -> float:
    """ln |det(M - z)| as the sum of pivot log-magnitudes of a pivoted LU."""
    a = _as_matrix(op)
    shifted = a - z * np.eye(a.shape[0])
    with warnings.catch_warnings():
        # an exactly zero pivot is reported as SingularMatrixError below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, _ = scipy.linalg.lu_factor(shifted, check_finite=False)
    diag = np.abs(np.diag(lu))
    if np.any(diag == 0.0):
        smallest = float(singular_values(shifted)[0])
        raise SingularMatrixError(
            f"M - z is singular to working precision (smallest singular "
            f"value {smallest:.3e})"
        )
    return float(np.sum(np.log(diag)))


# ---------------------------------------------------------------------------
# Grushin block systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrushinSolution:
    e: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    e_minus_plus: np.ndarray
    block_matrix: np.ndarray


def _singular_frame(shifted: np.ndarray, n_small: int):
    """Right and left singular vectors of the n_small smallest singular
    values, ascending, with a gap check."""
    n = shifted.shape[0]
    if not (1 <= n_small <= n):
        raise ValueError(f"n_small must lie in [1, {n}]")
    try:
        u, sv, vh = np.linalg.svd(shifted)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SVD did not converge: {exc}") from exc
    order = np.argsort(sv)
    t = sv[order]
    if n_small < n and t[n_small] - t[n_small - 1] <= 1e-12:
        raise DegenerateGapError(
            f"singular values t_{n_small} = {t[n_small - 1]:.3e} and "
            f"t_{n_small + 1} = {t[n_small]:.3e} are not separated"
        )
    e_vecs = vh.conj().T[:, order[:n_small]]
    f_vecs = u[:, order[:n_small]]
    return e_vecs, f_vecs


def grushin_solve(op, z: complex, n_small: int) -> GrushinSolution:
    """Solve the bordered system built from the lowest singular pairs.

    With (M - z) e_j = t_j f_j the block matrix [[M - z, R_-], [R_+, 0]] is
    inverted; for the defining matrix itself the corner block is -diag(t_j).
    """
    a = _as_matrix(op)
    shifted = a - z * np.eye(a.shape[0])
    e_vecs, f_vecs = _singular_frame(shifted, n_small)
    n = shifted.shape[0]
    block = np.zeros((n + n_small, n + n_small), dtype=complex)
    block[:n, :n] = shifted
    block[:n, n:] = f_vecs
    block[n:, :n] = e_vecs.conj().T
    try:
        inv = np.linalg.solve(block, np.eye(n + n_small, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"bordered system is singular: {exc}") from exc
    return GrushinSolution(
        e=inv[:n, :n],
        e_plus=inv[:n, n:],
        e_minus=inv[n:, :n],
        e_minus_plus=inv[n:, n:],
        block_matrix=block,
    )


def det_factorization_residual(op, z: complex, n_small: int) -> float:
    """Relative defect of ln|det(M - z)| = ln|det block| + ln|det corner|.

    Where ln|det(M - z)| is exactly 0 the absolute defect is returned.
    """
    if n_small == 0:
        return 0.0
    sol = grushin_solve(op, z, n_small)
    ld_full = log_abs_det(op, z)
    ld_block = log_abs_det(sol.block_matrix)
    ld_corner = log_abs_det(sol.e_minus_plus)
    defect = abs(ld_full - (ld_block + ld_corner))
    # ln|det| = 0 leaves nothing to be relative to: report the defect itself
    return defect / abs(ld_full) if ld_full != 0.0 else defect


# ---------------------------------------------------------------------------
# functional calculus on Hermitian positive matrices
# ---------------------------------------------------------------------------

class BumpFunction:
    """chi(t) = exp(1 - 1/(1 - t^2)) on [0, 1), zero beyond.

    Extended evenly to t < 0, so chi is smooth with chi(0) = 1 > 0, and the
    derivative is available in closed form.
    """

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        u = np.abs(t)
        out = np.zeros(u.shape)
        mask = u < 1.0
        um = u[mask]
        out[mask] = np.exp(1.0 - 1.0 / (1.0 - um**2))
        return out

    def deriv(self, t):
        u = np.asarray(t, dtype=float)
        out = np.zeros(u.shape)
        mask = np.abs(u) < 1.0
        um = u[mask]
        chi = np.exp(1.0 - 1.0 / (1.0 - um**2))
        out[mask] = chi * (-2.0 * um / (1.0 - um**2) ** 2)
        return out

    def psi(self, t):
        """(chi - t * chi')/(t + chi); the derivative kernel of the
        regularized log-determinant."""
        t = np.asarray(t, dtype=float)
        chi = self(t)
        return (chi - t * self.deriv(t)) / (t + chi)


@dataclass(frozen=True)
class FunctionalResult:
    deriv_residual: float


def spectral_functional(op, chi: BumpFunction, alpha: float,
                        t_probe: float) -> FunctionalResult:
    """The log-det derivative identity on a Hermitian PSD matrix.

    deriv_residual compares a central finite difference of the regularized
    log-determinant t -> sum ln(lambda_j + t chi(lambda_j / t)) at t_probe
    against the exact derivative sum (1/t) psi(lambda_j / t); the identity
    is exact eigenvalue by eigenvalue, so the residual is finite-difference
    noise only.
    """
    a = _as_matrix(op)
    herm_defect = np.linalg.norm(a - a.conj().T)
    scale = max(1.0, float(np.linalg.norm(a)))
    if herm_defect > 1e-12 * scale:
        raise ValueError(
            f"matrix is not Hermitian to tolerance: defect {herm_defect:.3e}"
        )
    if not (0.0 < alpha < 1.0) or not (0.0 < t_probe < 1.0):
        raise ValueError("alpha and t_probe must lie in (0, 1)")
    lam = np.linalg.eigvalsh(0.5 * (a + a.conj().T))

    def reg_logdet(t: float) -> float:
        return float(np.sum(np.log(lam + t * chi(lam / t))))

    step = 1e-5 * t_probe
    fd = (reg_logdet(t_probe + step) - reg_logdet(t_probe - step)) / (2.0 * step)
    exact = float(np.sum(chi.psi(lam / t_probe)) / t_probe)
    return FunctionalResult(deriv_residual=abs(fd - exact))


# inverse iteration for sigma_min(T - z): residual tolerance relative to the
# Rayleigh quotient, and steps per point before the dense SVD takes over
PSEUDO_TOL = 1e-10
PSEUDO_STEPS = 100


def pseudospectrum(op, z_grid: Sequence[complex]) -> list[float]:
    """Smallest singular value of M - z per grid point, from one Schur form.

    Method (EigTool's; Trefethen, Acta Numerica 1999): M is factored once
    into the complex Schur form M = Z T Z* (LAPACK zgees).  Singular values
    are unitarily invariant, so sigma_min(M - z) = sigma_min(T - z) and Z is
    never formed.  For each z the diagonal of T is shifted in place and
    sigma_min(T - z) = rho^{-1/2} is found by inverse iteration on
    B = ((T - z)* (T - z))^{-1}: two triangular solves, O(N^2), per step,
    from a fixed start vector, so the output is a pure function of the
    input.  A step stops once ||B x - rho x|| <= PSEUDO_TOL * rho, where
    rho = x* B x and |x| = 1.

    Accuracy: each value agrees with a dense SVD of M - z to within
    max(1e-10 * sigma_min, N * eps * ||M - z||_2); the second term is the
    backward error of the Schur form.

    Special cases and failures:
    - a diagonal entry of T - z that is exactly 0 gives 0.0;
    - a point whose iteration overflows or does not pass the residual test
      within PSEUDO_STEPS steps (clustered smallest singular values) is
      evaluated by a dense SVD of T - z instead, and is NaN if that SVD
      does not converge;
    - if the Schur factorization fails (zgees info != 0), every point is NaN.
    """
    a = _as_matrix(op)
    n = a.shape[0]
    # the default (minimal) workspace: the optimal one raised peak memory
    # by more than it saved in time
    t, _, _, _, _, info = scipy.linalg.lapack.zgees(
        lambda w: False, a, compute_v=0)
    if info != 0:
        return [float("nan") for _ in z_grid]
    eigs = np.diag(t).copy()
    on_diag = np.diag_indices(n)
    rng = np.random.default_rng(0)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    out = []
    for z in z_grid:
        t[on_diag] = eigs - z
        out.append(_sigma_min_triangular(t, start))
    return out


def _sigma_min_triangular(t: np.ndarray, x: np.ndarray) -> float:
    """sigma_min of the upper-triangular t; see ``pseudospectrum``."""
    if np.any(np.diag(t) == 0.0):
        return 0.0
    trsv = scipy.linalg.blas.ztrsv
    for _ in range(PSEUDO_STEPS):
        y = trsv(t, x, trans=2)                  # (T - z)^{-*} x
        rho = np.vdot(y, y).real                 # x* B x
        if not np.isfinite(rho):
            break
        bx = trsv(t, y, overwrite_x=1)           # B x
        resid = np.linalg.norm(bx - rho * x)
        if resid <= PSEUDO_TOL * rho:
            return float(1.0 / np.sqrt(rho))
        if not np.isfinite(resid):
            break
        x = bx / np.linalg.norm(bx)
    try:
        return float(np.linalg.svd(t, compute_uv=False)[-1])
    except np.linalg.LinAlgError:
        return float("nan")

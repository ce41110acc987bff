"""Dense linear-algebra layer.

One complex Schur form per matrix (``schur``), from which the eigenvalues,
the smallest singular value and ln|det| at any shift are read; dense SVDs
and pivoted LUs for plain matrices; bordered (Grushin) block systems built
from singular pairs; the scalar functional-calculus identities for
Hermitian positive matrices; and the scope in which the bundled BLAS runs
on one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .operators import GridParams, OperatorMatrix
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
    ("numpy", "libscipy_openblas64_-*.so", "64_"),
    ("scipy", "libscipy_openblas-*.so", ""),
)


def _loaded_openblas(package: str, pattern: str,
                     names: Sequence[str]) -> Iterator[tuple]:
    """The named functions of each OpenBLAS library file bundled with the
    package that this process has already loaded and that exports them all.

    A package that is not imported is not searched, and a library file
    that is not loaded is not loaded here, so the functions found act on
    the BLAS that the package calls.
    """
    module = sys.modules.get(package)
    if module is None:
        return
    libs = Path(module.__file__).parents[1] / f"{package}.libs"
    for path in sorted(libs.glob(pattern)):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            fns = tuple(getattr(lib, name) for name in names)
        except (OSError, AttributeError):
            continue
        yield fns


def _openblas_kernel() -> str | None:
    """The CPU kernel that numpy's bundled OpenBLAS dispatches to, or None
    where numpy bundles none: the library whose zgees ``schur`` calls."""
    package, pattern, _ = _OPENBLAS_COPIES[0]
    for (corename,) in _loaded_openblas(package, pattern,
                                        ["scipy_openblas_get_corename64_"]):
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def _openblas_threads() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of each bundled OpenBLAS copy that
    is loaded now."""
    found = []
    for package, pattern, suffix in _OPENBLAS_COPIES:
        for get, put in _loaded_openblas(package, pattern, [
                f"scipy_openblas_get_num_threads{suffix}",
                f"scipy_openblas_set_num_threads{suffix}"]):
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
                if _numpy_blas() is None:
                    # the fallback's calls go to scipy's OpenBLAS, which is
                    # pinned only if it is loaded when the scope opens
                    import scipy.linalg  # noqa: F401
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

    Sets every OpenBLAS copy bundled with numpy and scipy that is loaded
    when the outermost scope opens to one thread, and restores each copy's
    previous count when the outermost scope closes, on an exception too.
    A copy loaded later, such as scipy's by an import inside the scope, is
    pinned only from the next outermost scope on; where numpy bundles no
    OpenBLAS, the scope imports scipy first, so that the fallback's BLAS is
    pinned.  One thread makes LAPACK's rounding independent of the core
    count, and lets worker threads each run their own factorization without
    contending for the cores.  Where no bundled OpenBLAS is found (numpy and
    scipy built against another BLAS), this does nothing.
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


# ---------------------------------------------------------------------------
# the Schur form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurForm:
    """Complex Schur form A = Z T Z* of a square matrix, without Z.

    ``entries`` is the upper-triangular T, Fortran-ordered (the layout the
    triangular solves read without a copy) and read-only; ``grid`` is the
    operator's grid, None for a plain array.  No library code reads
    ``grid``: the benchmark's per-layer spans (perfbench/layers.py) label
    each spectral call with ``op.grid.h``, and the form is what
    ``experiments._measure`` passes to those calls.
    """

    entries: np.ndarray
    grid: GridParams | None


_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_COL_MAJOR = 102
# LAPACKE_zgeev_work(layout, jobvl, jobvr, n, a, lda, w, vl, ldvl, vr, ldvr,
#                    work, lwork, rwork)
_GEEV_ARGS = [ctypes.c_int, ctypes.c_char, ctypes.c_char, _I64, _PTR, _I64,
              _PTR, _PTR, _I64, _PTR, _I64, _PTR, _I64, _PTR]
# LAPACKE_zgees_work(layout, jobvs, sort, select, n, a, lda, sdim, w, vs,
#                    ldvs, work, lwork, rwork, bwork)
_GEES_ARGS = [ctypes.c_int, ctypes.c_char, ctypes.c_char, _PTR, _I64, _PTR,
              _I64, _PTR, _PTR, _PTR, _I64, _PTR, _I64, _PTR, _PTR]
# cblas_ztrsv(layout, uplo, trans, diag, n, a, lda, x, incx)
_TRSV_ARGS = [ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int, _I64,
              _PTR, _I64, _PTR, _I64]
# its leading arguments for an upper triangle with a non-unit diagonal, by
# whether the solve is with the adjoint (CblasConjTrans) or not (CblasNoTrans)
_TRSV_LEAD = {adjoint: tuple(map(ctypes.c_int, (_COL_MAJOR, 121, trans, 131)))
              for adjoint, trans in ((False, 111), (True, 113))}


@functools.cache
def _numpy_blas():
    """(zgeev_work, zgees_work, cblas_ztrsv) of the ILP64 OpenBLAS that numpy
    bundles, or None where numpy was built against another BLAS; scipy's
    zgees and ztrsv are then the fallback.  The calls release the GIL."""
    package, pattern, _ = _OPENBLAS_COPIES[0]
    fns = next(_loaded_openblas(package, pattern, [
        "scipy_LAPACKE_zgeev_work64_", "scipy_LAPACKE_zgees_work64_",
        "scipy_cblas_ztrsv64_"]), None)
    for fn, args, res in zip(fns or (), (_GEEV_ARGS, _GEES_ARGS, _TRSV_ARGS),
                             (_I64, _I64, None)):
        fn.argtypes, fn.restype = args, res
    return fns


def _schur_numpy_lapack(t: np.ndarray, blas) -> int:
    """Overwrite the Fortran-ordered t with its Schur form; LAPACK's info."""
    geev, gees, _ = blas
    n = t.shape[0]
    ld = max(n, 1)
    # np.linalg.eig's workspace: zgeev's answer for right eigenvectors.  The
    # Hessenberg and QR steps block by the workspace they are given, so the
    # same workspace makes them round as eig's do
    query = np.zeros(1, dtype=complex)
    dummy = np.zeros(1, dtype=complex)
    rdummy = np.zeros(1)
    info = geev(_COL_MAJOR, b"N", b"V", n, dummy.ctypes.data, ld,
                dummy.ctypes.data, dummy.ctypes.data, 1, dummy.ctypes.data,
                ld, query.ctypes.data, -1, rdummy.ctypes.data)
    if info != 0:
        return int(info)
    lwork = max(int(query[0].real), 1)
    w = np.empty(ld, dtype=complex)
    work = np.empty(lwork, dtype=complex)
    rwork = np.empty(ld)
    sdim = _I64(0)
    # the call releases the GIL, so trials on worker threads factor at once
    return int(gees(_COL_MAJOR, b"N", b"N", None, n, t.ctypes.data, ld,
                    ctypes.byref(sdim), w.ctypes.data, dummy.ctypes.data, 1,
                    work.ctypes.data, lwork, rwork.ctypes.data, None))


def _schur_scipy(t: np.ndarray) -> tuple[np.ndarray, int]:
    from scipy.linalg import lapack
    lwork = lapack.zgeev_lwork(t.shape[0], compute_vl=0, compute_vr=1)[0]
    t, _, _, _, _, info = lapack.zgees(lambda w: False, t, compute_v=0,
                                       lwork=max(int(lwork.real), 1),
                                       overwrite_a=1)
    return t, info


# zgees scales a matrix whose largest |entry| lies outside
# [sqrt(safmin)/eps, eps/sqrt(safmin)] = [2^-459, 2^459], with LAPACK's
# safmin = 2^-1022 and precision eps = 2^-52
_UNSCALED = (math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps,
             np.finfo(float).eps / math.sqrt(np.finfo(float).tiny))


def _triangular_schur(a: np.ndarray) -> np.ndarray | None:
    """zgees' T for a triangular matrix that it leaves unscaled, without
    calling it; None for any other matrix.

    zgees balances by permutation first, and zgebal isolates the
    eigenvalues of a triangular matrix one row per pass, in O(N^3)
    comparisons; no QR step follows.  In an upper-triangular matrix the
    last active row is always the one isolated, so nothing moves and T is
    the matrix.  In a lower-triangular one with no zero on its subdiagonal,
    row j is the only row that can be isolated at pass j, and it goes to
    position N + 1 - j, so T is the matrix reversed along both axes (the
    unperturbed ``xi2+exp(ix)`` matrix is lower bidiagonal).  A zero on
    the subdiagonal allows other orders, so LAPACK decides.  The checks
    read the matrix row by row and make no N x N temporary.
    """
    n = a.shape[0]
    upper = all(not a[j, :j].any() for j in range(1, n))
    lower = (not upper and all(not a[j, j + 1:].any() for j in range(n - 1))
             and bool(np.all(np.diagonal(a, -1))))
    if not (upper or lower):
        return None
    if not _UNSCALED[0] <= max(float(np.abs(row).max()) for row in a) <= _UNSCALED[1]:
        return None
    return np.array(a if upper else a[::-1, ::-1], order="F")


def schur(op) -> SchurForm:
    """The one dense factorization of a matrix: its complex Schur form.

    LAPACK zgees without Schur vectors, called in the OpenBLAS that numpy
    bundles with the workspace that np.linalg.eig's zgeev asks for, so
    diag(T) is eig's eigenvalue array bit for bit.  (zgees balances by
    permutation only, which keeps T unitarily similar to M; zgeev may
    also scale, and where it does the two round differently.  Balancing
    scales none of the matrices the shipped configs build.)  Where numpy bundles
    no OpenBLAS, scipy's zgees runs with the same workspace.  A triangular
    matrix whose T zgees would only permute gets that T without LAPACK
    (``_triangular_schur``).

    Raises ValueError unless the matrix is square and 2-D, and SolverError
    on a non-finite entry and when the QR iteration does not converge, as
    np.linalg.eig does.
    """
    a = _as_matrix(op)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"Schur form of a non-square array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise SolverError("matrix has non-finite entries")
    t = _triangular_schur(a)
    if t is None:
        t = np.array(a, order="F")
        blas = _numpy_blas()
        if blas is not None:
            info = _schur_numpy_lapack(t, blas)
        else:
            t, info = _schur_scipy(t)
        if info != 0:
            raise SolverError(f"Schur factorization did not converge (info {info})")
    t.setflags(write=False)
    return SchurForm(t, op.grid if isinstance(op, OperatorMatrix) else None)


def _as_form(op) -> SchurForm:
    return op if isinstance(op, SchurForm) else schur(op)


def eigenvalues(op) -> np.ndarray:
    """All eigenvalues of the matrix: the diagonal of its Schur form."""
    return np.diag(_as_form(op).entries).copy()


def count_in_region(eigs: np.ndarray, region: Region) -> int:
    """Eigenvalues inside the closed region, listing multiplicity.

    Points exactly on the boundary count as inside.
    """
    return int(np.count_nonzero(region.contains(eigs)))


def singular_values(op, shifts: Sequence[complex]) -> list[float]:
    """Smallest singular value of M - z for each shift z.

    From a Schur form, sigma_min(T - z) by inverse iteration on one working
    copy of T, made only if there is a shift (see ``pseudospectrum``); from
    a plain matrix, by a dense SVD per shift.
    """
    if isinstance(op, SchurForm):
        if len(shifts) == 0:
            return []
        diag = np.diag(op.entries).copy()
        t = np.array(op.entries, order="F")
        y = np.empty(len(diag), dtype=complex)
        solve = _triangular_solver(t, y)
        start = _start_vector(len(diag))
        out = []
        for z in shifts:
            np.fill_diagonal(t, diag - z)
            out.append(_sigma_min_triangular(t, start, y, solve))
        return out
    a = _as_matrix(op)
    try:
        return [float(np.linalg.svd(a - z * np.eye(len(a)), compute_uv=False)[-1])
                for z in shifts]
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SVD did not converge: {exc}") from exc


def log_abs_det(op, z: complex = 0.0) -> float:
    """ln |det(M - z)|.

    From a Schur form, the sum of ln|t_ii - z|; from a plain matrix, the
    sum of pivot log-magnitudes of the partial-pivot LU (zgetrf) in numpy's
    LAPACK, by np.linalg.slogdet.  Plain matrices keep the LU and are not
    sent through ``schur``: on identity-checks' near-singular matrices
    (N = 20, smallest singular value 1e-10) the worst det-factorization
    residual read 9.3e-8 by the LU and 3.1e-7 by the Schur form, against a
    tolerance of 1e-6.  An exactly zero pivot raises SingularMatrixError.
    """
    if isinstance(op, SchurForm):
        diag = np.abs(np.diag(op.entries) - z)
        if np.all(diag):
            return float(np.sum(np.log(diag)))
    else:
        a = _as_matrix(op)
        sign, logdet = np.linalg.slogdet(a - z * np.eye(a.shape[0]))
        if sign != 0:
            return float(logdet)
    raise SingularMatrixError(
        f"M - z is singular to working precision (smallest singular "
        f"value {singular_values(op, [z])[0]:.3e})"
    )


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
    into the complex Schur form M = Z T Z* (``schur``; pass the form to
    reuse it).  Singular values are unitarily invariant, so
    sigma_min(M - z) = sigma_min(T - z) and Z is never formed.  T is copied
    once; for each z the copy's diagonal is set to diag(T) - z, and
    sigma_min(T - z) = rho^{-1/2} is found by inverse iteration on
    B = ((T - z)* (T - z))^{-1}: two triangular solves, O(N^2), per step,
    from a fixed start vector, so the output is a pure function of the
    input.  A step stops once ||B x - rho x|| <= PSEUDO_TOL * rho, where
    rho = x* B x and |x| = 1.  The iterates are rescaled by powers of 2,
    which is exact, so rho-sized values are never squared and a tiny
    sigma_min needs no SVD.

    Accuracy: each value agrees with a dense SVD of M - z to within
    max(1e-10 * sigma_min, N * eps * ||M - z||_2); the second term is the
    backward error of the Schur form.

    Special cases and failures:
    - a diagonal entry of T - z that is exactly 0 gives 0.0;
    - a point whose iteration overflows or does not pass the residual test
      within PSEUDO_STEPS steps (clustered smallest singular values) is
      evaluated by a dense SVD of T - z instead, and is NaN if that SVD
      does not converge;
    - if the Schur factorization of a plain matrix fails (non-finite
      entries, or no convergence), every point is NaN.
    """
    try:
        form = _as_form(op)
    except SolverError:
        return [float("nan") for _ in z_grid]
    return singular_values(form, z_grid)


@functools.cache
def _start_vector(n: int) -> np.ndarray:
    """The fixed unit start vector of the inverse iteration, read-only."""
    rng = np.random.default_rng(0)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    start.setflags(write=False)
    return start


def _triangular_solver(t: np.ndarray, y: np.ndarray) -> Callable[[bool], None]:
    """solve(adjoint), which overwrites y with t^{-1} y, or with t^{-*} y
    where adjoint, for the Fortran-ordered upper-triangular complex t.

    ztrsv of numpy's OpenBLAS, which releases the GIL, or scipy's where
    numpy bundles no OpenBLAS.  Both arrays are checked here, once, because
    the solves write through their addresses.
    """
    n = t.shape[0]
    if not (t.dtype == complex and t.flags.f_contiguous and t.shape == (n, n)
            and y.dtype == complex and y.flags.c_contiguous
            and y.flags.writeable and y.shape == (n,)):
        raise ValueError("expected a square Fortran-ordered complex t and a "
                         "writeable contiguous complex vector y of its size")
    blas = _numpy_blas()
    if blas is None:
        from scipy.linalg.blas import ztrsv

        def solve(adjoint: bool) -> None:
            np.copyto(y, ztrsv(t, y, trans=2 if adjoint else 0, overwrite_x=1))

        return solve
    trsv = blas[2]
    # arguments made ctypes objects once: converting nine per call cost
    # about 1.5 us, 7% of one solve at N = 219; the pointers keep the arrays
    # alive
    tail = (_I64(n), t.ctypes.data_as(_PTR), _I64(max(n, 1)),
            y.ctypes.data_as(_PTR), _I64(1))
    calls = {adjoint: lead + tail for adjoint, lead in _TRSV_LEAD.items()}

    def solve(adjoint: bool) -> None:
        trsv(*calls[adjoint])

    return solve


def _sigma_min_triangular(t: np.ndarray, x: np.ndarray, y: np.ndarray,
                          solve: Callable[[bool], None]) -> float:
    """sigma_min of the upper-triangular t from the start vector x, with
    ``solve`` from ``_triangular_solver(t, y)``; see ``pseudospectrum``.

    Each step scales y by a power of 2 sy ~ sigma and B x by a further
    power of 2 sb ~ sigma, so every vector is O(1) where unscaled ones are
    O(1 / sigma^2) and their squares overflow below sigma ~ 1e-77.  A power
    of 2 scales exactly, so the value is that of the unscaled iteration
    wherever that one does not overflow.
    """
    if np.any(np.diag(t) == 0.0):
        return 0.0
    for _ in range(PSEUDO_STEPS):
        y[:] = x
        solve(adjoint=True)                      # y = (T - z)^{-*} x
        top = float(np.max(np.abs(y)))
        if not top < math.inf:
            break
        sy = 2.0 ** -math.frexp(top)[1]
        y *= sy
        rho = np.vdot(y, y).real                 # sy^2 x* B x
        sb = 2.0 ** -math.frexp(rho / sy)[1]
        solve(adjoint=False)                     # y = sy B x
        y *= sb
        resid = np.linalg.norm(y - (rho / sy * sb) * x)
        if resid <= PSEUDO_TOL * rho / sy * sb:  # both sides times sy sb
            return float(sy / np.sqrt(rho))
        if not np.isfinite(resid):
            break
        x = y / np.linalg.norm(y)
    try:
        return float(np.linalg.svd(t, compute_uv=False)[-1])
    except np.linalg.LinAlgError:
        return float("nan")

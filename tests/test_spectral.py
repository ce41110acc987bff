"""Dense linear-algebra layer tests."""

import functools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

from torweyl import spectral
from torweyl.operators import (
    GridParams,
    assemble_differential,
    convolution_matrix,
    truncation_grid,
)
from torweyl.perturbation import (
    build_perturbed,
    derive_params,
    sample_potential,
    split_seed,
)
from torweyl.spectral import (
    BumpFunction,
    DegenerateGapError,
    SchurForm,
    SingularMatrixError,
    SolverError,
    count_in_region,
    det_factorization_residual,
    eigenvalues,
    grushin_solve,
    log_abs_det,
    pseudospectrum,
    schur,
    single_blas_thread,
    singular_values,
    spectral_functional,
)
from torweyl.symbols import (
    BoundaryTube,
    Disk,
    Rectangle,
    TrigPoly,
    catalog_symbol,
    certified_xi_bound,
    kappa_floor,
)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def with_smallest_sv(rng, n, smallest):
    u, _, vh = np.linalg.svd(random_complex(rng, n))
    sv = np.geomspace(1.0, 2.0, n)
    sv[0] = smallest
    return u @ np.diag(sv) @ vh


def svd_ascending(a, z=0.0):
    """The full singular spectrum of a - z, ascending: the reference."""
    return np.linalg.svd(a - z * np.eye(a.shape[0]), compute_uv=False)[::-1]


ACCEPTANCE_REGION = Rectangle(0.05, 0.95, -0.55, 0.55)


@functools.cache
def acceptance_matrices(h):
    """configs/weyl_acceptance.cfg's unperturbed matrix at h and its first
    two trial matrices."""
    spec = catalog_symbol("xi2+exp(ix)")
    # validate_config certifies the xi-slab on the tube of radius 2 tube_r
    bound = certified_xi_bound(spec, BoundaryTube(ACCEPTANCE_REGION, 0.1))
    grid = truncation_grid(h, bound)
    P = assemble_differential(spec, grid)
    plan = derive_params(n=1, s=2.0, epsilon=0.5, kappa=kappa_floor(spec),
                         h=h, mode="effective", delta_eff=1e-12,
                         l_cap=h * grid.K)
    return (P, *(build_perturbed(P, plan, sample_potential(plan, split_seed(2024, i)))
                 for i in range(2)))


@functools.cache
def eig_bytes(h):
    """np.linalg.eig's eigenvalue arrays of acceptance_matrices(h)."""
    with single_blas_thread():
        return [np.linalg.eig(m.entries)[0].tobytes() for m in acceptance_matrices(h)]


class TestSchur:
    @pytest.mark.parametrize("path", ["numpy-lapack", "scipy"])
    @pytest.mark.parametrize("h", [0.05, 0.02, 0.01])
    def test_diagonal_is_eig_bit_for_bit(self, monkeypatch, path, h):
        # N = 91, 225 and 447: the last two are past zgehrd's blocking
        # crossover, where the workspace decides how LAPACK rounds
        if path == "scipy":
            monkeypatch.setattr(spectral, "_numpy_lapacke", lambda: None)
        elif spectral._numpy_lapacke() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        with single_blas_thread():
            got = [np.diag(schur(m).entries).tobytes() for m in acceptance_matrices(h)]
        assert got == eig_bytes(h)

    def test_form_is_upper_triangular_and_unitarily_similar(self):
        rng = np.random.default_rng(21)
        a = random_complex(rng, 40)
        form = schur(a)
        t = form.entries
        assert isinstance(form, SchurForm) and form.grid is None
        assert t.flags.f_contiguous and not t.flags.writeable
        assert np.all(np.tril(t, -1) == 0.0)
        sv_a = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(np.linalg.svd(t, compute_uv=False), sv_a,
                           rtol=0.0, atol=1e-12 * sv_a[0])

    def test_operator_grid_is_kept(self):
        # perfbench/layers.py reads op.grid.h on the form to tag its spans
        P = acceptance_matrices(0.05)[0]
        assert schur(P).grid == P.grid

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entry_raises(self, bad):
        m = np.eye(4, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eig(m)
        with pytest.raises(SolverError):
            schur(m)

    @pytest.mark.parametrize("path", ["numpy-lapack", "scipy"])
    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4,), (2, 2, 2)])
    def test_non_square_array_raises(self, monkeypatch, path, shape):
        # zgees would read and write n * n entries of a 3 x 2 buffer
        if path == "scipy":
            monkeypatch.setattr(spectral, "_numpy_lapacke", lambda: None)
        with pytest.raises(ValueError, match="non-square"):
            schur(np.ones(shape, dtype=complex))

    def test_probes_agree_with_svd_and_lu_above_the_floor(self):
        # the trials' probe gate: sigma_min within eta of the dense SVD
        # where it is at least 100 eta, ln|det| within 1e-6 of the LU's
        checked = 0
        for m in acceptance_matrices(0.05)[1:]:
            a = m.entries
            eta = a.shape[0] * np.finfo(float).eps * np.linalg.norm(a)
            form = schur(m)
            for z in ACCEPTANCE_REGION.boundary_points(5):
                ref = singular_values(m, z)
                if ref >= 100 * eta:
                    checked += 1
                    assert abs(singular_values(form, z) - ref) <= eta
                    assert log_abs_det(form, z) == pytest.approx(
                        log_abs_det(m, z), rel=1e-6)
        assert checked > 0


class TestEigenvalues:
    def test_diagonal(self):
        eigs = eigenvalues(np.diag([-0.3, 0.0, 0.3]).astype(complex))
        assert np.allclose(sorted(eigs.real), [-0.3, 0.0, 0.3])

    def test_nilpotent_shift(self):
        m = convolution_matrix(TrigPoly.wave(1), GridParams(h=1.0, K=1))
        eigs = eigenvalues(m)
        assert eigs.shape == (3,) and np.allclose(eigs, 0.0)

    def test_hermitian_matches_symmetric_solver(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, 40)
        herm = a + a.conj().T
        eigs = eigenvalues(herm)
        oracle = np.linalg.eigvalsh(herm)
        assert np.allclose(sorted(eigs.real), oracle, atol=1e-10)
        assert np.max(np.abs(eigs.imag)) < 1e-10


class TestCountInRegion:
    def test_empty(self):
        eigs = eigenvalues(np.zeros((1, 1), dtype=complex))
        assert count_in_region(eigs, Rectangle(1, 2, 1, 2)) == 0

    def test_single_point(self):
        eigs = eigenvalues(np.array([[0.5 + 0.5j]]))
        assert count_in_region(eigs, Rectangle(0, 1, 0, 1)) == 1

    def test_boundary_counts_inside(self):
        eigs = eigenvalues(np.array([[1.0 + 0.5j]]))
        assert count_in_region(eigs, Rectangle(0, 1, 0, 1)) == 1

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(2)
        eigs = eigenvalues(random_complex(rng, 30))
        small = Disk(0.0, 2.0)
        big = Disk(0.0, 5.0)
        assert count_in_region(eigs, small) <= count_in_region(eigs, big)


class TestSingularValues:
    def test_unitary(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(random_complex(rng, 12))
        assert singular_values(q, 0.0) == pytest.approx(1.0)

    def test_diagonal_shift(self):
        d = np.diag([1.0, 3.0, -2.0]).astype(complex)
        assert singular_values(d, z=0.5) == pytest.approx(0.5)
        assert singular_values(schur(d), z=0.5) == pytest.approx(0.5)

    def test_squares_match_hermitian_eigenvalues(self):
        rng = np.random.default_rng(4)
        a = random_complex(rng, 25)
        z = 0.3 - 0.7j
        shifted = a - z * np.eye(25)
        lam = np.linalg.eigvalsh(shifted.conj().T @ shifted)[0]
        for op in (a, schur(a)):
            assert singular_values(op, z) ** 2 == pytest.approx(lam, rel=1e-10, abs=0.0)


class TestLogAbsDet:
    def test_identity(self):
        assert log_abs_det(np.eye(4, dtype=complex)) == pytest.approx(0.0)

    def test_diagonal(self):
        assert log_abs_det(np.diag([2.0, 3.0]).astype(complex)) == pytest.approx(
            math.log(6.0))

    def test_matches_singular_value_sum(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, 30)
        z = 1.0 + 0.2j
        rhs = float(np.sum(np.log(svd_ascending(a, z))))
        assert log_abs_det(a, z) == pytest.approx(rhs, rel=1e-8)
        assert log_abs_det(schur(a), z) == pytest.approx(rhs, rel=1e-8)

    def test_singular_matrix_reports(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        for op in (a, schur(a)):
            with pytest.raises(SingularMatrixError, match="singular value"):
                log_abs_det(op)


class TestGrushin:
    def test_diagonal_corner_is_minus_t(self):
        d = np.diag([0.001, 0.5, 2.0, 3.0]).astype(complex)
        sol = grushin_solve(d, 0.0, 2)
        assert np.allclose(sol.e_minus_plus, -np.diag([0.001, 0.5]), atol=1e-12)
        assert np.allclose(np.sort(np.linalg.svd(sol.e_minus_plus,
                                                 compute_uv=False)),
                           svd_ascending(d)[:2], atol=1e-9)

    def test_hand_solved_two_by_two(self):
        a = np.array([[0.0, 0.0], [0.0, 2.0]], dtype=complex)
        sol = grushin_solve(a, 0.0, 1)
        assert np.allclose(sol.e_minus_plus, [[0.0]], atol=1e-12)

    def test_corner_singular_values_match_ladder(self):
        rng = np.random.default_rng(14)
        a = random_complex(rng, 15)
        sol = grushin_solve(a, 0.2 - 0.1j, 4)
        got = np.sort(np.linalg.svd(sol.e_minus_plus, compute_uv=False))
        assert np.allclose(got, svd_ascending(a, 0.2 - 0.1j)[:4], atol=1e-9)

    def test_reassembly_residual(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, 20)
        sol = grushin_solve(a, 0.1 + 0.2j, 3)
        v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        vp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rhs = np.concatenate([v, vp])
        solution = np.concatenate([
            sol.e @ v + sol.e_plus @ vp,
            sol.e_minus @ v + sol.e_minus_plus @ vp,
        ])
        resid = np.linalg.norm(sol.block_matrix @ solution - rhs)
        assert resid <= 1e-9 * np.linalg.norm(rhs)

    def test_degenerate_gap_rejected(self):
        d = np.diag([1.0, 1.0, 3.0]).astype(complex)
        with pytest.raises(DegenerateGapError):
            grushin_solve(d, 0.0, 1)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            grushin_solve(np.eye(3, dtype=complex), 0.0, 0)


class TestDetFactorization:
    def test_zero_rank_convention(self):
        assert det_factorization_residual(np.eye(3, dtype=complex), 0.0, 0) == 0.0

    def test_zero_logdet_gives_absolute_defect(self):
        # ln 2 + ln 0.5 is exactly 0, so there is no scale to divide by
        m = np.diag([2.0, 0.5]).astype(complex)
        assert log_abs_det(m, 0.0) == 0.0
        assert det_factorization_residual(m, 0.0, 1) <= 1e-14

    def test_random_well_conditioned(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10):
            a = random_complex(rng, 20)
            for n_small in (1, 2, 3):
                worst = max(worst,
                            det_factorization_residual(a, 0.0, n_small))
        assert worst <= 1e-8

    def test_near_singular_extracts_small_factor(self):
        rng = np.random.default_rng(8)
        a = with_smallest_sv(rng, 20, 1e-10)
        assert det_factorization_residual(a, 0.0, 2) <= 1e-6


class TestBumpFunction:
    def test_value_at_zero_and_support(self):
        chi = BumpFunction()
        assert chi(0.0) == pytest.approx(1.0)
        assert chi(np.array([0.5]))[0] > 0.0
        assert chi(np.array([1.0, 2.0, -1.5])).tolist() == [0.0, 0.0, 0.0]

    def test_derivative_matches_finite_difference(self):
        chi = BumpFunction()
        t = np.linspace(-1.3, 1.3, 41)
        step = 1e-6
        fd = (chi(t + step) - chi(t - step)) / (2 * step)
        assert np.allclose(chi.deriv(t), fd, atol=1e-6)

    def test_psi_closed_form(self):
        chi = BumpFunction()
        assert chi.psi(0.0) == pytest.approx(1.0)
        e = np.array([0.2, 0.7, 3.0])
        expect = (chi(e) - e * chi.deriv(e)) / (e + chi(e))
        assert np.allclose(chi.psi(e), expect, atol=0.0)


class TestSpectralFunctional:
    def test_zero_matrix(self):
        chi = BumpFunction()
        # at lambda = 0 both sides are n / t (chi(0) = psi(0) = 1), so only
        # the finite-difference error remains
        n = 6
        res = spectral_functional(np.zeros((n, n), dtype=complex), chi,
                                  alpha=0.25, t_probe=0.3)
        assert res.deriv_residual <= 1e-8

    def test_identity_outside_support(self):
        chi = BumpFunction()
        # chi(1 / t) = 0 near t = 0.5: both sides of the identity are 0
        res = spectral_functional(np.eye(5, dtype=complex), chi,
                                  alpha=0.5, t_probe=0.5)
        assert res.deriv_residual == 0.0

    def test_derivative_identity_on_random_psd(self):
        chi = BumpFunction()
        rng = np.random.default_rng(11)
        b = random_complex(rng, 50)
        s = b.conj().T @ b / 50
        res = spectral_functional(s, chi, alpha=0.3, t_probe=0.37)
        assert res.deriv_residual <= 1e-6

    def test_non_hermitian_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="Hermitian"):
            spectral_functional(random_complex(rng, 8), BumpFunction(),
                                alpha=0.3, t_probe=0.3)


def assert_matches_svd(a, zs, got):
    """Each value within max(1e-10 * ref, N * eps * ||A - z||_2) of dense SVD."""
    n = a.shape[0]
    for z, val in zip(zs, got):
        sv = np.linalg.svd(a - z * np.eye(n), compute_uv=False)
        tol = max(1e-10 * sv[-1], n * np.finfo(float).eps * sv[0])
        assert abs(val - sv[-1]) <= tol, (z, val, sv[-1], tol)


class TestPseudospectrum:
    def test_normal_matrix_gives_distance(self):
        d = np.diag([1.0, 2.0, 3.0j]).astype(complex)
        zs = [0.0, 1.5, 2.0 + 1.0j]
        got = pseudospectrum(d, zs)
        for val, z in zip(got, zs):
            dist = min(abs(z - w) for w in (1.0, 2.0, 3.0j))
            assert val == pytest.approx(dist, abs=1e-12)

    def test_lipschitz_in_z(self):
        rng = np.random.default_rng(13)
        a = random_complex(rng, 15)
        z1, z2 = 0.4 + 0.1j, 0.9 - 0.3j
        v1, v2 = pseudospectrum(a, [z1, z2])
        assert abs(v1 - v2) <= abs(z1 - z2) + 1e-12

    def test_nilpotent_shift_value(self):
        m = np.eye(3, k=-1).astype(complex)
        assert_matches_svd(m, [0.5], pseudospectrum(m, [0.5]))

    def test_random_non_normal_grid_through_spectrum(self):
        rng = np.random.default_rng(14)
        a = random_complex(rng, 40)
        radius = float(np.max(np.abs(np.linalg.eigvals(a))))
        axis = np.linspace(-1.2 * radius, 1.2 * radius, 9)
        zs = [complex(x, y) for y in axis for x in axis]
        assert_matches_svd(a, zs, pseudospectrum(a, zs))

    def test_jordan_block(self):
        j = np.eye(12, k=1).astype(complex)
        axis = np.linspace(-1.3, 1.3, 7)
        zs = [complex(x, y) + 0.01 for y in axis for x in axis]
        assert_matches_svd(j, zs, pseudospectrum(j, zs))

    def test_tied_smallest_singular_value(self):
        # 0 and 0.2i are equidistant from the eigenvalues 1 and -1
        d = np.diag([1.0, -1.0, 3.0j, 4.0]).astype(complex)
        got = pseudospectrum(d, [0.0, 0.2j])
        assert_matches_svd(d, [0.0, 0.2j], got)
        assert got[0] == pytest.approx(1.0, abs=1e-12)

    def test_shift_on_diagonal_entry_is_zero(self):
        t = np.triu(random_complex(np.random.default_rng(15), 6))
        assert pseudospectrum(t, [t[2, 2], t[2, 2] + 0.5])[0] == 0.0

    @staticmethod
    def assert_nan_everywhere_after_failed_schur():
        with pytest.raises(SolverError, match="did not converge"):
            schur(np.eye(4, dtype=complex))
        got = pseudospectrum(np.eye(4, dtype=complex), [0.0, 2.0, 1j])
        assert len(got) == 3 and all(math.isnan(v) for v in got)

    def test_schur_failure_gives_nan_everywhere(self, monkeypatch):
        if spectral._numpy_lapacke() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        geev, gees = spectral._numpy_lapacke()

        def failing(*args):
            gees(*args)
            return 1

        monkeypatch.setattr(spectral, "_numpy_lapacke", lambda: (geev, failing))
        self.assert_nan_everywhere_after_failed_schur()

    def test_fallback_schur_failure_gives_nan_everywhere(self, monkeypatch):
        zgees = scipy.linalg.lapack.zgees

        def failing(*args, **kwargs):
            return zgees(*args, **kwargs)[:-1] + (1,)

        monkeypatch.setattr(spectral, "_numpy_lapacke", lambda: None)
        monkeypatch.setattr(scipy.linalg.lapack, "zgees", failing)
        self.assert_nan_everywhere_after_failed_schur()

    def test_non_finite_matrix_gives_nan(self):
        # schur refuses the matrix, as np.linalg.eig does
        m = np.eye(4, dtype=complex)
        m[1, 2] = np.inf
        got = pseudospectrum(m, [0.0, 2.0])
        assert len(got) == 2 and all(math.isnan(v) for v in got)

    @pytest.mark.parametrize("tiny", [1e-120, 1e-200])
    def test_tiny_smallest_singular_value_without_overflow(self, tiny):
        # unscaled, the iteration squares values of size 1 / tiny^2: numpy
        # warned of an overflow and the dense SVD took over
        d = np.diag([tiny, 1.0, 2.0]).astype(complex)
        d[0, 1] = tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pseudospectrum(d, [0.0, 0.5])
        # sigma_min = tiny (1 - tiny^2 / 2 + ...)
        assert got[0] == pytest.approx(tiny, rel=1e-12, abs=0.0)
        assert_matches_svd(d, [0.5], got[1:])

    def test_a_form_is_reused(self, monkeypatch):
        rng = np.random.default_rng(17)
        a = random_complex(rng, 20)
        form = schur(a)
        monkeypatch.setattr(spectral, "schur", None)
        zs = [0.1, 0.2j]
        assert_matches_svd(a, zs, pseudospectrum(form, zs))

    def test_repeat_call_is_bit_identical(self):
        rng = np.random.default_rng(16)
        a = random_complex(rng, 30)
        zs = [complex(x, 0.3) for x in np.linspace(-5, 5, 11)]
        first = np.array(pseudospectrum(a, zs))
        assert first.tobytes() == np.array(pseudospectrum(a, zs)).tobytes()


class TestSingleBlasThread:
    @pytest.fixture
    def copies(self):
        """Every bundled OpenBLAS copy found, set to 2 threads for the test."""
        copies = spectral._openblas_threads()
        if not copies:
            pytest.skip("no bundled OpenBLAS copy found")
        original = [get() for get, _ in copies]
        for _, put in copies:
            put(2)
        yield copies
        for (_, put), n in zip(copies, original):
            put(n)

    @staticmethod
    def threads(copies):
        return [get() for get, _ in copies]

    def test_pins_every_copy_and_restores(self, copies):
        with single_blas_thread():
            assert self.threads(copies) == [1] * len(copies)
            with single_blas_thread():
                assert self.threads(copies) == [1] * len(copies)
            assert self.threads(copies) == [1] * len(copies)
        assert self.threads(copies) == [2] * len(copies)

    def test_restores_after_exception(self, copies):
        with pytest.raises(SolverError):
            with single_blas_thread():
                assert self.threads(copies) == [1] * len(copies)
                raise SolverError("inside")
        assert self.threads(copies) == [2] * len(copies)

    def test_without_openblas_does_nothing(self, copies, monkeypatch):
        monkeypatch.setattr(spectral, "_openblas_threads", lambda: ())
        with single_blas_thread():
            assert self.threads(copies) == [2] * len(copies)
            eigs = eigenvalues(np.diag([1.0, 2.0]))
        assert sorted(eigs.real) == [1.0, 2.0]
        assert self.threads(copies) == [2] * len(copies)

    def test_overlapping_scopes_on_threads(self, copies):
        # scopes that open and close on several threads at once keep the
        # copies pinned while any is open and restore them after the last
        wrong = []

        def work():
            for _ in range(200):
                with single_blas_thread():
                    if self.threads(copies) != [1] * len(copies):
                        wrong.append(self.threads(copies))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == []
        assert self.threads(copies) == [2] * len(copies)

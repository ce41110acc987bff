"""Matrix assembly, norms, and shifted-symbol tests."""

import math

import numpy as np
import pytest

from torweyl.operators import (
    MAX_DIM,
    BandwidthError,
    GridParams,
    assemble_differential,
    assemble_toroidal_pdo,
    convolution_matrix,
    hs_norm,
    sup_norm,
    truncation_grid,
)
from torweyl.experiments import (
    GuardError,
    bump_profile,
    make_lifted_symbol,
    shifted_symbol_for,
)
from torweyl.spectral import schur, singular_values
from torweyl.symbols import (
    Disk,
    PhaseGrid,
    SymbolSpec,
    TrigPoly,
    catalog_symbol,
    certified_xi_bound,
)

TWO_PI = 2.0 * math.pi


def flip(n):
    return np.eye(n)[::-1]


class TestAssembleDifferential:
    def test_pure_frequency_is_diagonal(self):
        spec = SymbolSpec(m=1, a=(TrigPoly.zero(), TrigPoly.constant(1.0)))
        got = assemble_differential(spec, GridParams(h=0.3, K=1)).entries
        assert np.array_equal(got, np.diag([-0.3, 0.0, 0.3]).astype(complex))

    def test_multiplier_is_shift(self):
        spec = SymbolSpec(m=0, a=(TrigPoly.wave(1),))
        got = assemble_differential(spec, GridParams(h=1.0, K=1)).entries
        expected = np.eye(3, k=-1).astype(complex)
        assert np.array_equal(got, expected)

    def test_hand_assembled_sum(self):
        spec = SymbolSpec(m=2, a=(TrigPoly.wave(1), TrigPoly.zero(),
                                  TrigPoly.constant(1.0)))
        got = assemble_differential(spec, GridParams(h=1.0, K=1)).entries
        expected = np.diag([1.0, 0.0, 1.0]) + np.eye(3, k=-1)
        assert np.allclose(got, expected, atol=0.0)

    def test_h_corrections_enter_with_weight_h(self):
        base = SymbolSpec(m=1, a=(TrigPoly.zero(), TrigPoly.constant(1.0)))
        corrected = SymbolSpec(
            m=1,
            a=(TrigPoly.zero(), TrigPoly.constant(1.0)),
            h_corrections=(TrigPoly.constant(1.0), TrigPoly.zero()),
        )
        h = 0.25
        grid = GridParams(h=h, K=2)
        diff = (assemble_differential(corrected, grid).entries
                - assemble_differential(base, grid).entries)
        assert np.allclose(diff, h * np.eye(5), atol=0.0)

    def test_bandwidth_overflow_names_coefficient(self):
        wide = SymbolSpec(m=1, a=(TrigPoly.wave(5), TrigPoly.constant(1.0)))
        with pytest.raises(BandwidthError, match="a_0"):
            assemble_differential(wide, GridParams(h=0.5, K=1))

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(5)
        grid = GridParams(h=0.2, K=6)

        def random_spec():
            polys = []
            for _ in range(3):
                polys.append(TrigPoly({k: complex(*rng.standard_normal(2))
                                       for k in range(-2, 3)}))
            polys.append(TrigPoly.constant(complex(*rng.standard_normal(2))))
            return SymbolSpec(m=3, a=tuple(polys))

        a, b = random_spec(), random_spec()
        summed = SymbolSpec(m=3, a=tuple(pa + pb for pa, pb in zip(a.a, b.a)))
        lhs = assemble_differential(summed, grid).entries
        rhs = (assemble_differential(a, grid).entries
               + assemble_differential(b, grid).entries)
        assert np.allclose(lhs, rhs, atol=1e-15)

    def test_conjugation_symmetry_for_even_real_specs(self):
        # with a real even symbol whose x-dependence sits at order zero,
        # the matrix satisfies M^T = J M J for the frequency flip J
        rng = np.random.default_rng(7)
        a0 = TrigPoly({0: 0.3})
        for k in (1, 2, 3):
            c = complex(*rng.standard_normal(2))
            a0 = a0 + TrigPoly({k: c, -k: c.conjugate()}, real=True)
        spec = SymbolSpec(m=2, a=(a0, TrigPoly.zero(), TrigPoly.constant(2.0)))
        m = assemble_differential(spec, GridParams(h=0.15, K=5)).entries
        j = flip(11)
        assert np.array_equal(m.T, j @ m @ j)


class TestTruncationGrid:
    def test_dimension_cap(self):
        # N = 2K + 1 = 4095 passes; 4097, explicit, from the K rule or built
        # directly, does not
        assert truncation_grid(0.1, 1.0, 2047).N == MAX_DIM - 1
        with pytest.raises(ValueError, match="exceeds the cap 4096"):
            truncation_grid(0.1, 1.0, 2048)
        with pytest.raises(ValueError, match="N = 4097 at h = 0.1 exceeds"):
            GridParams(h=0.1, K=2048)
        with pytest.raises(ValueError, match="exceeds the cap"):
            truncation_grid(0.001, 1.5)


class TestAssembleMultiplier:
    def test_constant_gives_identity(self):
        got = convolution_matrix(TrigPoly.constant(1.0), GridParams(h=0.1, K=3))
        assert np.array_equal(got, np.eye(7).astype(complex))

    def test_cosine_gives_symmetric_toeplitz(self):
        cosine = TrigPoly({1: 0.5, -1: 0.5}, real=True)
        got = convolution_matrix(cosine, GridParams(h=0.1, K=2))
        expected = 0.5 * (np.eye(5, k=1) + np.eye(5, k=-1))
        assert np.array_equal(got, expected.astype(complex))

    def test_real_symbol_hermitian_persymmetric(self):
        q = TrigPoly({0: 0.5, 1: 1 - 0.5j, -1: 1 + 0.5j, 2: 2j, -2: -2j},
                     real=True)
        m = convolution_matrix(q, GridParams(h=0.1, K=3))
        assert np.allclose(m, m.conj().T, atol=0.0)          # Hermitian
        j = flip(7)
        assert np.array_equal(m, j @ m.T @ j)                # persymmetric
        assert np.array_equal(m, np.conj(j @ m @ j))         # combined

    def test_matches_order_zero_differential(self):
        q = TrigPoly({2: 1 + 1j, -1: 0.5})
        grid = GridParams(h=0.7, K=4)
        a = convolution_matrix(q, grid)
        b = assemble_differential(SymbolSpec(m=0, a=(q,)), grid).entries
        assert np.array_equal(a, b)

    def test_single_mode_matches_quadrature(self):
        # <Conv(q) e, f> against the integral of conj(f) q e over the torus,
        # the functions built from their Fourier coefficients
        rng = np.random.default_rng(10)
        grid = GridParams(h=1.0, K=5)
        e = rng.standard_normal((grid.N, 3)) + 1j * rng.standard_normal((grid.N, 3))
        f = rng.standard_normal((grid.N, 3)) + 1j * rng.standard_normal((grid.N, 3))
        q = TrigPoly({2: 0.7 - 0.3j})
        got = f.conj().T @ convolution_matrix(q, grid) @ e
        n_g = 256
        x = np.arange(n_g) * (TWO_PI / n_g)
        basis = np.exp(1j * np.outer(x, grid.k_values())) / math.sqrt(TWO_PI)
        e_fun, f_fun = basis @ e, basis @ f
        oracle = f_fun.conj().T @ (q(x)[:, None] * e_fun) * (TWO_PI / n_g)
        assert np.allclose(got, oracle, atol=1e-12)


class TestToroidalPdo:
    def test_frequency_symbol_matches_differential(self):
        grid = GridParams(h=0.3, K=5)
        got = assemble_toroidal_pdo(lambda x, xi: xi + 0.0 * x, grid).entries
        expected = np.diag(0.3 * np.arange(-5, 6)).astype(complex)
        assert np.allclose(got, expected, atol=1e-14)

    def test_band_limited_multiplier_exact(self):
        g = TrigPoly({1: 0.3 + 0.2j, -2: 1.1, 3: -0.4j})
        grid = GridParams(h=0.1, K=8)
        a = assemble_toroidal_pdo(lambda x, xi: g(x) + 0.0 * xi, grid).entries
        b = convolution_matrix(g, grid)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_constant_symbol(self):
        grid = GridParams(h=0.2, K=3)
        got = assemble_toroidal_pdo(lambda x, xi: 2.5j + 0.0 * x + 0.0 * xi,
                                    grid).entries
        assert np.allclose(got, 2.5j * np.eye(7), atol=1e-14)

    def test_bandwidth_2k_multiplier_is_not_aliased(self):
        # modes +-2K, the widest a truncation holds, on the 4K + 4 point grid
        grid = GridParams(h=0.1, K=4)
        g = TrigPoly({8: 0.5 - 0.2j, -8: 0.3j, 7: 1.0})
        a = assemble_toroidal_pdo(lambda x, xi: g(x) + 0.0 * xi, grid).entries
        assert np.max(np.abs(a - convolution_matrix(g, grid))) < 1e-12

    def test_mixed_symbol_matches_differential_assembly(self):
        # x-dependent coefficients times frequency powers quantize to the
        # same matrix through either assembly path
        a0 = TrigPoly({1: 0.5 - 0.25j, -1: 0.3, 0: 1.0})
        a2 = TrigPoly({2: 0.2j, 0: 1.5})
        spec = SymbolSpec(m=2, a=(a0, TrigPoly.zero(), a2))
        grid = GridParams(h=0.2, K=6)
        direct = assemble_differential(spec, grid).entries
        quantized = assemble_toroidal_pdo(
            lambda x, xi: a0(x) + a2(x) * xi**2, grid).entries
        assert np.max(np.abs(direct - quantized)) < 1e-12

    def test_matrix_entries_immutable(self):
        spec = SymbolSpec(m=1, a=(TrigPoly.zero(), TrigPoly.constant(1.0)))
        op = assemble_differential(spec, GridParams(h=0.5, K=2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestHsNorm:
    def test_single_mode(self):
        q = TrigPoly({3: 1.0 / math.sqrt(TWO_PI)})
        for h, s in ((0.5, 2.0), (0.1, 1.0)):
            assert hs_norm(q, s, h) == pytest.approx((1 + (h * 3) ** 2) ** (s / 2))

    def test_constant(self):
        q = TrigPoly.constant(2.0)
        assert hs_norm(q, 1.5, 0.3) == pytest.approx(2.0 * math.sqrt(TWO_PI))

    def test_two_mode_parseval(self):
        q = TrigPoly({0: 1.0, 1: 1.0})
        assert hs_norm(q, 1.0, 1.0) == pytest.approx(math.sqrt(6 * math.pi))

    def test_classical_mode_freezes_h(self):
        q = TrigPoly({4: 1.0, -2: 2.0})
        assert hs_norm(q, 2.0, 0.01, mode="classical") == pytest.approx(
            hs_norm(q, 2.0, 1.0))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            hs_norm(TrigPoly.constant(1.0), 1.0, 0.1, mode="fancy")


def random_band(rng, kmax):
    g = rng.standard_normal((2 * kmax + 1, 2))
    return TrigPoly({k: complex(a, b)
                     for k, (a, b) in zip(range(-kmax, kmax + 1), g)})


class TestSobolevInequalities:
    """The multiplication and sup-norm bounds hold with one constant
    across the h range when the random band scales like 1/h."""

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_ratio_statistics_uniform_in_h(self, s):
        stats = {}
        for h in (0.1, 0.05, 0.02):
            kmax = int(math.ceil(1.0 / h))
            rng = np.random.default_rng(1234)
            r_prod, r_sup, r_mixed = [], [], []
            for _ in range(40):
                u = random_band(rng, kmax)
                v = random_band(rng, kmax)
                uv = u * v
                nu, nv = hs_norm(u, s, h), hs_norm(v, s, h)
                r_prod.append(hs_norm(uv, s, h) / (h ** -0.5 * nu * nv))
                r_sup.append(sup_norm(u) / (h ** -0.5 * nu))
                r_mixed.append(hs_norm(uv, s, h)
                               / (hs_norm(u, s, h, mode="classical") * nv))
            stats[h] = (max(r_prod), max(r_sup), max(r_mixed))
        for i in range(3):
            assert stats[0.02][i] <= 1.2 * stats[0.1][i]


class TestShiftedSymbols:
    def test_bump_profile_shape(self):
        t = np.array([0.0, 0.5, 1.0, 1.2, 1.8, 2.0, 3.0])
        phi = bump_profile(t)
        assert np.array_equal(phi[:3], [1.0, 1.0, 1.0])
        assert phi[3] > phi[4] > 0.0
        assert np.array_equal(phi[5:], [0.0, 0.0])

    def test_shifted_symbol_clears_guard(self):
        spec = catalog_symbol("xi2+exp(ix)")
        z = 0.5 + 0.3j
        h = 0.1
        ptilde, grid, _ = shifted_symbol_for(
            spec, z, [z], h, certified_xi_bound(spec, Disk(z, 0.6)))
        # the mode-aligned slab the guard is checked on
        phase = PhaseGrid(n_x=4 * grid.K + 4, xi_lo=-(h * (grid.K + 0.5)),
                          xi_hi=h * (grid.K + 0.5), n_xi=grid.N)
        x = phase.x_nodes()
        xi = phase.xi_nodes()
        vals = np.asarray(ptilde(x[:, None], xi[None, :]))
        assert float(np.min(np.abs(vals - z))) >= 0.1

    def test_guard_failure_raises(self):
        # xi_bound = 1 caps the lift window below |xi| = 0.95, so p itself,
        # unlifted, passes through a test point at the node xi = 1.4 of the
        # sampled grid for every candidate
        spec = catalog_symbol("xi2+exp(ix)")
        h, xi_bound = 0.1, 1.0
        K = truncation_grid(h, xi_bound).K
        x = 3.5 * TWO_PI / (4 * K + 4)      # an x node of the sampled grid
        z = complex(spec.eval_principal(x, 14 * h))
        with pytest.raises(GuardError):
            shifted_symbol_for(spec, z, [z], h, xi_bound)

    def test_lift_keeps_matrix_invertible_over_z_grid(self):
        for name in ("xi2+exp(ix)", "xi+exp(-ix)"):
            spec = catalog_symbol(name)
            for z in (complex(re, im) for re in (-1.0, 0.25, 1.5)
                      for im in (-0.8, 0.0, 0.8)):
                xi_bound = certified_xi_bound(spec, Disk(z, 0.6))
                ptilde, grid, _ = shifted_symbol_for(spec, z, [z], 0.1,
                                                     xi_bound)
                pt = assemble_toroidal_pdo(ptilde, grid)
                assert singular_values(schur(pt), [z])[0] >= 0.02, (name, z)

    def test_lifted_symbol_agrees_outside_window(self):
        spec = catalog_symbol("xi2+exp(ix)")
        lifted = make_lifted_symbol(spec, shift=2.0, xi_on=1.0, xi_off=1.3)
        x = np.linspace(0, TWO_PI, 32)
        far = spec.eval_principal(x, np.full_like(x, 1.5))
        assert np.allclose(np.asarray(lifted(x, np.full_like(x, 1.5))), far,
                           atol=0.0)
        near = np.asarray(lifted(x, np.zeros_like(x)))
        assert np.allclose(near, spec.eval_principal(x, np.zeros_like(x)) + 2j,
                           atol=1e-15)


class TestSupNorm:
    def test_matches_dense_evaluation(self):
        q = TrigPoly({1: 1.0, -3: 2j, 5: -0.7})
        x = np.linspace(0, TWO_PI, 100_001)
        assert sup_norm(q) == pytest.approx(float(np.max(np.abs(q(x)))), rel=1e-6)

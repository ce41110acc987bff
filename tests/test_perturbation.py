"""Parameter windows, potential sampling, and perturbed assembly tests."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from torweyl.operators import GridParams, assemble_differential, truncation_grid
from torweyl.perturbation import (
    EmptyBasisError,
    ParameterError,
    build_perturbed,
    derive_params,
    epsilon_zero,
    sample_potential,
    split_seed,
)
from torweyl.symbols import (
    BoundaryTube,
    Rectangle,
    SymbolSpec,
    TrigPoly,
    catalog_symbol,
    certified_xi_bound,
    kappa_floor,
)

TWO_PI = 2.0 * math.pi


def alpha(pot):
    """The drawn coefficients alpha_k = sqrt(2 pi) c_k, in order of k."""
    return np.array([c for _, c in pot.q.items()]) * math.sqrt(TWO_PI)


class TestDeriveParams:
    def test_reference_exponents(self):
        plan = derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=0.1)
        assert plan.big_m == Fraction(11, 4)
        assert plan.big_m_tilde == Fraction(4)
        assert plan.n1 == Fraction(10)
        assert plan.delta == pytest.approx(plan.tau0 * 0.1 ** 11)

    def test_mode_count(self):
        plan = derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=0.1)
        assert plan.L == pytest.approx(0.1 ** -2.75)
        assert plan.D == 2 * math.floor(plan.L / 0.1)
        assert plan.D == 11246

    def test_window_checks_exact(self):
        for eps in ("0.5", "0.25", "1.2"):
            plan = derive_params(n=1, s=2, epsilon=eps, kappa="1/4", h=0.05)
            assert all(plan.window_checks().values())

    def test_epsilon_out_of_range(self):
        with pytest.raises(ParameterError):
            derive_params(n=1, s=2, epsilon=1.6, kappa=0.25, h=0.1)

    def test_kappa_out_of_range(self):
        with pytest.raises(ParameterError):
            derive_params(n=1, s=2, epsilon=0.5, kappa=1.5, h=0.1)

    def test_tau0_window(self):
        with pytest.raises(ParameterError):
            derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=0.04, tau0=0.3)
        plan = derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=0.04, tau0=0.2)
        assert plan.tau0 == 0.2

    def test_eps0_formula(self):
        h, tau0, kappa = 0.07, 0.11, 0.3
        plan = derive_params(n=1, s=2, epsilon=0.5, kappa=kappa, h=h, tau0=tau0)
        lh = math.log(1.0 / h)
        expected = (h ** kappa + h * lh) * (math.log(1.0 / tau0) + lh ** 2)
        assert plan.eps0 == pytest.approx(expected, rel=1e-15)
        assert epsilon_zero(h, tau0, kappa) == plan.eps0

    def test_effective_mode_requires_delta(self):
        with pytest.raises(ParameterError):
            derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=0.1,
                          mode="effective")

    def test_effective_delta_above_h_flags_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=0.1,
                                 mode="effective", delta_eff=0.5)
        assert plan.delta_warning
        assert any("not small against h" in str(w.message) for w in caught)

    def test_l_cap_recorded(self):
        plan = derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=0.1,
                             l_cap=2.0)
        assert plan.l_capped
        assert plan.L == 2.0
        assert plan.l_uncapped == pytest.approx(0.1 ** -2.75)
        assert plan.D == 2 * math.floor(2.0 / 0.1)

    def test_exponent_arithmetic_is_exact_for_decimal_inputs(self):
        plan = derive_params(n=1, s="7/3", epsilon="0.1", kappa="0.3", h=0.02)
        s, eps, kap = Fraction(7, 3), Fraction(1, 10), Fraction(3, 10)
        m_min = (3 - kap) / (s - Fraction(1, 2) - eps)
        assert plan.big_m == m_min
        assert plan.n1 == plan.big_m_tilde + s * plan.big_m + Fraction(1, 2)


class TestSamplePotential:
    def plan(self, **kw):
        args = dict(n=1, s=2, epsilon=0.5, kappa=0.25, h=0.1, l_cap=0.1 * 12)
        args.update(kw)
        return derive_params(**args)

    def test_deterministic_given_seed(self):
        plan = self.plan()
        a = sample_potential(plan, 987654321)
        b = sample_potential(plan, 987654321)
        assert np.array_equal(alpha(a), alpha(b))
        assert a.q == b.q

    def test_within_radius(self):
        plan = self.plan()
        for seed in range(5):
            pot = sample_potential(plan, seed)
            assert np.linalg.norm(alpha(pot)) <= plan.R * (1 + 1e-12)
            assert alpha(pot).shape == (plan.D,)

    def test_empty_basis(self):
        plan = self.plan(l_cap=0.01)     # L/h < 1, so no admissible modes
        with pytest.raises(EmptyBasisError):
            sample_potential(plan, 0)

    def test_component_means_vanish_statistically(self):
        # with 10^4 draws each coefficient's empirical mean stays below the
        # three-sigma scale 3 R / sqrt(n D)
        plan = self.plan(l_cap=0.1 * 4)   # D = 8
        n = 10_000
        acc = np.zeros(plan.D, dtype=complex)
        for i in range(n):
            acc += alpha(sample_potential(plan, split_seed(555, i)))
        mean = acc / n
        assert np.max(np.abs(mean)) <= 3.0 * plan.R / math.sqrt(n * plan.D)

    def test_norm_bounds_scale_with_plan_exponents(self):
        # hs-norm of a draw stays within the L^s R envelope, and the sup
        # norm within the sqrt(D) R envelope, uniformly over h
        from torweyl.operators import hs_norm, sup_norm

        vals = []
        for h in (0.1, 0.05):
            plan = derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=h)
            pot = sample_potential(plan, 42)
            n1 = float(plan.n1)
            scaled_hs = hs_norm(pot.q, 2.0, h) * h ** (n1 - 0.5)
            scaled_sup = sup_norm(pot.q) * h ** n1
            vals.append((scaled_hs, scaled_sup))
            assert scaled_hs <= 2.0
            assert scaled_sup <= 2.0
        # the hs envelope is h-stable; the sup envelope decays with h, so
        # boundedness means no growth as h shrinks
        ratio_hs = vals[0][0] / vals[1][0]
        assert 0.2 <= ratio_hs <= 5.0
        assert vals[1][1] <= 1.5 * vals[0][1]


class TestBuildPerturbed:
    def setup_method(self):
        self.spec = SymbolSpec(m=2, a=(TrigPoly.wave(1), TrigPoly.zero(),
                                       TrigPoly.constant(1.0)))
        self.grid = GridParams(h=0.1, K=12)
        self.P = assemble_differential(self.spec, self.grid)

    def test_zero_delta_returns_base_entrywise(self):
        plan = derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=0.1,
                             mode="effective", delta_eff=0.0, l_cap=0.1 * 12)
        pot = sample_potential(plan, 5)
        out = build_perturbed(self.P, plan, pot)
        assert np.array_equal(out.entries, self.P.entries)

    def test_derived_mode_norm_bound(self):
        plan = derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=0.1,
                             l_cap=0.1 * 12)
        pot = sample_potential(plan, 9)
        out = build_perturbed(self.P, plan, pot)
        diff = np.linalg.norm(out.entries - self.P.entries, ord=2)
        budget = plan.delta * 0.1 ** float(plan.n1) * pot.q.sup_bound()
        assert diff <= budget * (1 + 1e-12)

    def test_effective_mode_norm_is_delta_scale(self):
        plan = derive_params(n=1, s=2, epsilon=0.5, kappa=0.25, h=0.1,
                             mode="effective", delta_eff=1e-6, l_cap=0.1 * 12)
        pot = sample_potential(plan, 9)
        out = build_perturbed(self.P, plan, pot)
        diff = np.linalg.norm(out.entries - self.P.entries, ord=2)
        assert 0.05e-6 <= diff <= 1.5e-6

    @pytest.mark.parametrize("h", [0.05, 0.02, 0.01])
    def test_cap_hk_keeps_the_band_off_the_corners(self, h):
        # configs/weyl_acceptance.cfg's plan: with l_cap = hK the added
        # Toeplitz matrix has modes |k| <= K only, so it is exactly 0
        # wherever |j - k| > K; at 2hK it reaches the corners
        spec = catalog_symbol("xi2+exp(ix)")
        region = Rectangle(0.05, 0.95, -0.55, 0.55)
        grid = truncation_grid(h, certified_xi_bound(spec, BoundaryTube(region, 0.1)))
        P = assemble_differential(spec, grid)
        j = np.arange(grid.N)
        off_band = np.abs(j[:, None] - j[None, :]) > grid.K
        assert not P.entries[off_band].any()
        added = {}
        for cap in (1, 2):
            plan = derive_params(n=1, s=2, epsilon=0.5, kappa=kappa_floor(spec),
                                 h=h, mode="effective", delta_eff=1e-12,
                                 l_cap=cap * h * grid.K)
            pot = sample_potential(plan, split_seed(2024, 0))
            added[cap] = build_perturbed(P, plan, pot).entries - P.entries
        assert np.count_nonzero(added[1][off_band]) == 0
        assert added[2][-1, 0] != 0 and added[2][0, -1] != 0



class TestSeedSplitting:
    def test_distinct_trials_distinct_seeds(self):
        seeds = {split_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_stable_values(self):
        assert split_seed(7, 3) == split_seed(7, 3)
        assert split_seed(7, 3) != split_seed(8, 3)

"""Symbol, region, and phase-space volume tests."""

import math

import numpy as np
import pytest

from torweyl.symbols import (
    BoundaryTube,
    ContainmentError,
    DegenerateFitError,
    Disk,
    PhaseGrid,
    Rectangle,
    SymbolSpec,
    TrigPoly,
    boundary_cell_measure,
    catalog_symbol,
    certified_xi_bound,
    check_ellipticity,
    check_symmetry,
    distance_to_samples,
    estimate_kappa,
    sublevel_volumes,
    volume_preimage,
)
from torweyl import serialize

TWO_PI = 2.0 * math.pi


def spec_xi2_exp():
    # p = xi^2 + e^{ix}
    return SymbolSpec(m=2, a=(TrigPoly.wave(1), TrigPoly.zero(),
                              TrigPoly.constant(1.0)))


class TestTrigPoly:
    def test_evaluation_matches_plain_sum(self):
        poly = TrigPoly({0: 1.5, 2: 0.25 - 1j, -3: 2j})
        x = np.linspace(0, TWO_PI, 17)
        direct = sum(c * np.exp(1j * k * x) for k, c in poly.coeffs.items())
        assert np.allclose(poly(x), direct, atol=1e-14)

    def test_zero_polynomial_has_empty_map(self):
        assert TrigPoly({1: 0.0, -4: 0j}).coeffs == {}
        assert TrigPoly.zero().is_zero()

    def test_real_flag_checked_exactly(self):
        TrigPoly({1: 1 + 2j, -1: 1 - 2j}, real=True)
        with pytest.raises(ValueError):
            TrigPoly({1: 1 + 2j, -1: 1 + 2j}, real=True)

    def test_real_poly_evaluates_with_zero_imaginary_part(self):
        poly = TrigPoly({0: 0.7, 1: 1 + 2j, -1: 1 - 2j, 5: -3j, -5: 3j},
                        real=True)
        x = np.linspace(0, TWO_PI, 257)
        assert np.all(poly(x).imag == 0.0)

    def test_product_matches_pointwise(self):
        rng = np.random.default_rng(0)
        a = TrigPoly({k: complex(*rng.standard_normal(2)) for k in range(-3, 4)})
        b = TrigPoly({k: complex(*rng.standard_normal(2)) for k in range(-2, 5)})
        x = np.linspace(0, TWO_PI, 33)
        assert np.allclose((a * b)(x), a(x) * b(x), atol=1e-12)

    def test_uniform_samples_match_direct_evaluation(self):
        poly = TrigPoly({-2: 1j, 0: 0.5, 7: 2.0})
        n = 64
        x = np.arange(n) * (TWO_PI / n)
        assert np.allclose(poly.uniform_samples(n), poly(x), atol=1e-12)
        with pytest.raises(ValueError):
            poly.uniform_samples(14)


class TestEvalSymbol:
    def test_principal_at_x0_xi1(self):
        assert spec_xi2_exp().eval_principal(0.0, 1.0) == pytest.approx(2.0)

    def test_only_a0_survives_at_xi0(self):
        val = spec_xi2_exp().eval_principal(math.pi / 2, 0.0)
        assert val == pytest.approx(1j)


class TestStructureChecks:
    def test_constant_top_coefficient(self):
        holds, c = check_ellipticity(spec_xi2_exp())
        assert holds and c == pytest.approx(1.0)

    def test_vanishing_top_coefficient(self):
        cosine = TrigPoly({1: 0.5, -1: 0.5}, real=True)
        spec = SymbolSpec(m=1, a=(TrigPoly.zero(), cosine))
        holds, c = check_ellipticity(spec)
        assert not holds and math.isinf(c)

    def test_two_plus_cosine(self):
        spec = SymbolSpec(
            m=2,
            a=(TrigPoly.zero(), TrigPoly.zero(),
               TrigPoly.constant(2.0) + TrigPoly({1: 0.5, -1: 0.5}, real=True)),
        )
        holds, c = check_ellipticity(spec)
        assert holds and c == pytest.approx(1.0, abs=1e-4)

    def test_constant_bounds_an_oscillating_top_coefficient(self):
        # every one of the 256 samples of a_2 = 1 + 0.999 cos 256x reads
        # 1.999; the true minimum is 0.001
        top = TrigPoly.constant(1.0) + TrigPoly({256: 0.999 / 2, -256: 0.999 / 2},
                                                real=True)
        spec = SymbolSpec(m=2, a=(TrigPoly.zero(), TrigPoly.zero(), top))
        holds, c = check_ellipticity(spec)
        true_min = float(np.min(np.abs(top.uniform_samples(1 << 16))))
        assert holds and 1.0 / c <= true_min * (1.0 + 1e-12)
        region = Disk(0.5, 0.1)
        b = certified_xi_bound(spec, region)
        # the wider slab holds the certified slab's nodes and more
        slab = PhaseGrid(n_x=4096, xi_lo=-b, xi_hi=b, n_xi=1024)
        wide = PhaseGrid(n_x=4096, xi_lo=-4.0 * b, xi_hi=4.0 * b, n_xi=4096)
        vol = volume_preimage(spec, region, slab)
        assert vol > 0.0 and vol == volume_preimage(spec, region, wide)

    def test_symmetry_even_spec(self):
        assert check_symmetry(spec_xi2_exp())

    def test_symmetry_odd_power_fails(self):
        assert not check_symmetry(catalog_symbol("xi+exp(-ix)"))
        cubic = SymbolSpec(m=3, a=(TrigPoly.constant(1.0), TrigPoly.zero(),
                                   TrigPoly.zero(), TrigPoly.constant(1.0)))
        assert not check_symmetry(cubic)

    def test_even_symbol_evaluates_evenly_in_xi(self):
        spec = spec_xi2_exp()
        x = np.linspace(0, TWO_PI, 40)
        for xi in (0.3, 1.7, 2.5):
            a = spec.eval_principal(x, np.full_like(x, xi))
            b = spec.eval_principal(x, np.full_like(x, -xi))
            assert np.array_equal(a, b)

    def test_top_coefficient_carries_no_h_correction(self):
        with pytest.raises(ValueError):
            SymbolSpec(
                m=1,
                a=(TrigPoly.zero(), TrigPoly.constant(1.0)),
                h_corrections=(TrigPoly.zero(), TrigPoly.constant(1.0)),
            )


class TestRegions:
    def test_rectangle_membership_closed(self):
        r = Rectangle(0.0, 1.0, 0.0, 1.0)
        assert r.contains(0.5 + 0.5j)
        assert r.contains(1.0 + 0.0j)          # boundary counts as inside
        assert not r.contains(1.0001 + 0.5j)

    def test_disk_membership(self):
        d = Disk(1j, 0.5)
        assert d.contains(1j) and d.contains(0.5 + 1j)
        assert not d.contains(0.51 + 1j)

    def test_rectangle_boundary_distance(self):
        r = Rectangle(0.0, 2.0, 0.0, 1.0)
        assert r.boundary_distance(1.0 + 0.5j) == pytest.approx(0.5)
        assert r.boundary_distance(3.0 + 0.5j) == pytest.approx(1.0)
        assert r.boundary_distance(1.0 + 0.0j) == pytest.approx(0.0)

    def test_tube_membership(self):
        t = BoundaryTube(Rectangle(0.0, 2.0, 0.0, 1.0), 0.25)
        assert t.contains(0.0 + 0.5j)
        assert t.contains(-0.2 + 0.5j)
        assert not t.contains(1.0 + 0.5j)       # deep interior excluded

    def test_nested_tube_rejected(self):
        base = BoundaryTube(Disk(0, 1.0), 0.1)
        with pytest.raises(TypeError):
            BoundaryTube(base, 0.1)

    def test_tube_radius_positive(self):
        with pytest.raises(ValueError):
            BoundaryTube(Disk(0, 1.0), 0.0)


class TestCertification:
    def test_uncertified_grid_raises_with_bound(self):
        spec = catalog_symbol("xi+exp(-ix)")
        grid = PhaseGrid(n_x=64, xi_lo=-1.0, xi_hi=1.0, n_xi=64)
        with pytest.raises(ContainmentError, match="sup|floor"):
            volume_preimage(spec, Rectangle(-1, 1, 0.1, 0.9), grid)

    def test_certified_bound_is_certified(self):
        spec = spec_xi2_exp()
        region = Rectangle(0.0, 1.5, -0.5, 0.5)
        bound = certified_xi_bound(spec, region)
        grid = PhaseGrid(n_x=32, xi_lo=-bound, xi_hi=bound, n_xi=32)
        volume_preimage(spec, region, grid)     # must not raise


class TestVolumes:
    def test_strip_volume_closed_form(self):
        # p = xi + e^{-ix}: vol of the preimage of [-1,1] x [0.1, 0.9]
        # reduces to (length in xi) * (measure of x with -sin x in the band)
        spec = catalog_symbol("xi+exp(-ix)")
        region = Rectangle(-1, 1, 0.1, 0.9)
        exact = 4.0 * (math.asin(0.9) - math.asin(0.1))
        bound = certified_xi_bound(spec, region)
        coarse = PhaseGrid(n_x=1024, xi_lo=-bound, xi_hi=bound, n_xi=1024)
        fine = PhaseGrid(n_x=2048, xi_lo=-bound, xi_hi=bound, n_xi=2048)
        v1 = volume_preimage(spec, region, coarse)
        v2 = volume_preimage(spec, region, fine)
        assert v1 == pytest.approx(exact, rel=5e-3)
        assert v2 == pytest.approx(exact, rel=2e-3)
        assert abs(v2 - exact) <= abs(v1 - exact) + coarse.cell_area

    def test_disjoint_region_gives_zero(self):
        spec = catalog_symbol("xi+exp(-ix)")
        region = Rectangle(-1, 1, 5.0, 6.0)     # range has |Im| <= 1
        grid = PhaseGrid(n_x=128, xi_lo=-8, xi_hi=8, n_xi=128)
        assert volume_preimage(spec, region, grid) == 0.0

    def test_disk_sublevel_closed_form(self):
        # p = xi: {|p - 0| <= sqrt(t)} has volume 2*pi * 2*sqrt(t)
        spec = SymbolSpec(m=1, a=(TrigPoly.zero(), TrigPoly.constant(1.0)))
        grid = PhaseGrid(n_x=16, xi_lo=-2, xi_hi=2, n_xi=100_000)
        vol = volume_preimage(spec, Disk(0.0, math.sqrt(0.04)), grid)
        assert vol == pytest.approx(4.0 * math.pi * 0.2, rel=1e-3)

    def test_additivity_over_disjoint_split(self):
        spec = catalog_symbol("xi+exp(-ix)")
        grid = PhaseGrid(n_x=512, xi_lo=-3, xi_hi=3, n_xi=512)
        whole = Rectangle(-1, 1, 0.1, 0.9)
        left = Rectangle(-1, 0.013, 0.1, 0.9)
        right = Rectangle(0.013, 1, 0.1, 0.9)
        v = volume_preimage(spec, whole, grid)
        vl = volume_preimage(spec, left, grid)
        vr = volume_preimage(spec, right, grid)
        assert abs(vl + vr - v) <= 2.0 * grid.cell_area

    def test_refinement_within_boundary_cell_budget(self):
        spec = spec_xi2_exp()
        region = Rectangle(0.2, 1.2, -0.4, 0.4)
        bound = certified_xi_bound(spec, region)
        coarse = PhaseGrid(n_x=256, xi_lo=-bound, xi_hi=bound, n_xi=256)
        fine = PhaseGrid(n_x=512, xi_lo=-bound, xi_hi=bound, n_xi=512)
        budget = boundary_cell_measure(spec, region, coarse)
        drift = abs(volume_preimage(spec, region, fine)
                    - volume_preimage(spec, region, coarse))
        assert drift < budget

    def test_sublevel_volumes_monotone(self):
        spec = spec_xi2_exp()
        t = np.geomspace(1e-3, 1e-1, 8)
        grid = PhaseGrid(n_x=512, xi_lo=-2.0, xi_hi=2.0, n_xi=512)
        v = sublevel_volumes(spec, 0.5 + 0.3j, t, grid)
        assert np.all(np.diff(v) >= 0.0)

    def test_monotone_under_region_inclusion(self):
        # on one grid, nested regions give exactly nested midpoint counts
        spec = spec_xi2_exp()
        grid = PhaseGrid(n_x=256, xi_lo=-2.0, xi_hi=2.0, n_xi=256)
        small = Rectangle(0.3, 0.7, -0.3, 0.3)
        big = Rectangle(0.2, 0.9, -0.4, 0.4)
        assert volume_preimage(spec, small, grid) <= volume_preimage(
            spec, big, grid)


class TestKappaEstimate:
    def test_pure_frequency_symbol_has_half_slope(self):
        # V_0(t) = 4*pi*sqrt(t) for p = xi, so the log-log slope is 1/2
        spec = SymbolSpec(m=1, a=(TrigPoly.zero(), TrigPoly.constant(1.0)))
        kap, r2 = estimate_kappa(spec, 0.0, 1e-4, 1e-1, 8)
        assert kap == pytest.approx(0.5, abs=0.02)
        assert r2 > 0.999

    def test_generic_interior_point_has_unit_slope(self):
        spec = catalog_symbol("xi+exp(-ix)")
        kap, r2 = estimate_kappa(spec, 0.5j, 1e-4, 1e-1, 8)
        assert kap == pytest.approx(1.0, abs=0.05)
        assert r2 > 0.999

    def test_empty_sublevel_raises_degenerate_fit(self):
        spec = catalog_symbol("xi+exp(-ix)")
        with pytest.raises(DegenerateFitError):
            estimate_kappa(spec, 5.0 + 5.0j, 1e-4, 1e-1, 6)

    def test_floor_ratio_bounded_for_interior_points(self):
        # V_z(t) / t^{1/(2m)} stays within a factor 10 of its median
        spec = catalog_symbol("xi+exp(-ix)")
        t = np.geomspace(1e-4, 1e-1, 13)
        grid = PhaseGrid(n_x=2048, xi_lo=-2.6, xi_hi=2.6, n_xi=2048)
        v = sublevel_volumes(spec, 0.3 + 0.4j, t, grid)
        ratio = v / np.sqrt(t)
        assert ratio.max() <= 10.0 * np.median(ratio)


class TestSerialization:
    def test_symbol_round_trip(self):
        spec = SymbolSpec(
            m=2,
            a=(TrigPoly({1: 1 + 2j, -1: 1 - 2j}, real=True), TrigPoly.zero(),
               TrigPoly.constant(1.0)),
            h_corrections=(TrigPoly({2: 0.5j}), TrigPoly.zero(),
                           TrigPoly.zero()),
        )
        back = serialize.loads_symbol(serialize.dumps_symbol(spec))
        assert back == spec

    def test_region_records(self):
        assert (serialize.dumps_region(Rectangle(-1, 1, 0.25, 0.75))
                == "rectangle -1 1 0.25 0.75")
        assert (serialize.dumps_region(Disk(0.5 + 0.25j, 1.5))
                == "disk 0.5 0.25 1.5")
        assert (serialize.dumps_region(BoundaryTube(Rectangle(0, 1, 0, 1), 0.1))
                == "tube 0.1 rectangle 0 1 0 1")


def scan_distance(samples, z):
    """The reference: min |samples - z| by a scan over every sample."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return np.array([np.min(np.abs(samples - zz)) for zz in z])


class TestDistanceToSamples:
    # the band search measures the same |s - z| values as the scan, so the
    # distances are equal bit for bit, not just close

    def test_matches_scan_for_array_z(self):
        rng = np.random.default_rng(11)
        samples = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        z = 2.0 * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
        z[:3] = samples[:3]                      # exact hits are 0
        got = distance_to_samples(samples, z)
        assert got.shape == z.shape
        assert np.all(got[:3] == 0.0)
        assert np.array_equal(got, scan_distance(samples, z))

    def test_matches_scan_for_samples_on_a_line(self):
        # every sample has the same imaginary part: one band of zero height
        rng = np.random.default_rng(13)
        samples = rng.standard_normal(500) + 0.25j
        z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        assert np.array_equal(distance_to_samples(samples, z),
                              scan_distance(samples, z))
        assert distance_to_samples(samples[:1], z[:1])[0] == abs(samples[0] - z[0])

    def test_matches_scan_for_scalar_z(self):
        rng = np.random.default_rng(12)
        samples = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        got = distance_to_samples(samples, 0.3 - 1.7j)
        assert got.shape == (1,)
        assert got[0] == scan_distance(samples, 0.3 - 1.7j)[0]

    def test_matches_scan_on_random_sample_sets(self):
        # clouds of varied size, shape and spread, queried inside and around
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 5000))
            scale = 10.0 ** rng.uniform(-3, 3)
            samples = scale * (rng.standard_normal(n)
                               + 1j * rng.uniform(0.1, 10.0) * rng.standard_normal(n))
            z = 2.0 * scale * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
            assert np.array_equal(distance_to_samples(samples, z),
                                  scan_distance(samples, z))

    def test_matches_scan_on_acceptance_config(self, acceptance_config,
                                               monkeypatch):
        # validate_config's own range samples and query points
        from torweyl import experiments

        calls = []

        def record(samples, z):
            calls.append((samples, z))
            return distance_to_samples(samples, z)

        monkeypatch.setattr(experiments, "distance_to_samples", record)
        experiments.validate_config(acceptance_config)
        (samples, z), = calls
        assert (samples.size, z.size) == (209_720, 640)
        assert np.array_equal(distance_to_samples(samples, z),
                              scan_distance(samples, z))

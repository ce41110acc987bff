"""Property tests: TrigPoly algebra, the text-format round trips and the
Toeplitz build of convolution matrices."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from torweyl import serialize  # noqa: E402
from torweyl.operators import GridParams, convolution_matrix  # noqa: E402
from torweyl.symbols import (  # noqa: E402
    BoundaryTube,
    Disk,
    Rectangle,
    SymbolSpec,
    TrigPoly,
)

SETTINGS = settings(max_examples=60, deadline=None)
X = np.linspace(0.0, 2.0 * math.pi, 17)

reals = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                  allow_infinity=False)
amplitudes = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                allow_infinity=False)
coeff_maps = st.dictionaries(st.integers(-6, 6), amplitudes, max_size=6)


@st.composite
def trig_polys(draw, real=None):
    coeffs = draw(coeff_maps)
    if real is None:
        real = draw(st.booleans())
    if real:
        # enforce c_{-k} = conj(c_k) exactly, with a real mean
        for k in [k for k in coeffs if k > 0]:
            coeffs[-k] = coeffs[k].conjugate()
        coeffs = {k: c for k, c in coeffs.items() if k > 0 or -k in coeffs}
        if 0 in coeffs:
            coeffs[0] = complex(coeffs[0].real, 0.0)
    return TrigPoly(coeffs, real=real)


@st.composite
def symbol_specs(draw):
    m = draw(st.integers(0, 3))
    a = tuple(draw(trig_polys()) for _ in range(m + 1))
    hc = None
    if m >= 1 and draw(st.booleans()):
        lower = [draw(trig_polys(real=False)) for _ in range(m)]
        assume(any(not p.is_zero() for p in lower))
        hc = tuple(lower) + (TrigPoly.zero(),)
    return SymbolSpec(m=m, a=a, h_corrections=hc)


@st.composite
def regions(draw):
    re_lo, re_hi = sorted(draw(st.tuples(reals, reals)))
    im_lo, im_hi = sorted(draw(st.tuples(reals, reals)))
    radius = draw(st.floats(min_value=0.0, max_value=1e3))
    base = draw(st.sampled_from([
        Rectangle(re_lo, re_hi, im_lo, im_hi),
        Disk(complex(re_lo, im_hi), radius),
    ]))
    if draw(st.booleans()):
        return BoundaryTube(base, draw(st.floats(min_value=1e-6, max_value=10.0)))
    return base


def close(got, want):
    scale = 1.0 + float(np.max(np.abs(want)))
    return np.allclose(got, want, rtol=0.0, atol=1e-12 * scale)


class TestTrigPolyAlgebra:
    @SETTINGS
    @given(trig_polys(), trig_polys())
    def test_sum_is_pointwise(self, a, b):
        assert close((a + b)(X), a(X) + b(X))

    @SETTINGS
    @given(trig_polys(), trig_polys())
    def test_product_is_pointwise(self, a, b):
        assert close((a * b)(X), a(X) * b(X))

    @SETTINGS
    @given(trig_polys(), amplitudes)
    def test_scaled_is_pointwise(self, a, factor):
        assert close(a.scaled(factor)(X), factor * a(X))


class TestRoundTrips:
    @SETTINGS
    @given(symbol_specs())
    def test_symbol(self, spec):
        assert serialize.loads_symbol(serialize.dumps_symbol(spec)) == spec

    @SETTINGS
    @given(regions())
    def test_region(self, region):
        assert serialize.loads_region(serialize.dumps_region(region)) == region


def convolution_matrix_by_loop(u: TrigPoly, grid: GridParams) -> np.ndarray:
    """Reference: the sum over coefficients of c_k times a shifted identity."""
    n = grid.N
    out = np.zeros((n, n), dtype=complex)
    for k, c in u.items():
        out += c * np.eye(n, k=-k)
    return out


class TestConvolutionMatrix:
    @SETTINGS
    @given(trig_polys(), st.integers(0, 4))
    @example(TrigPoly({0: complex(-0.0, 1.0), 2: complex(1.0, -0.0),
                       -3: complex(-2.0, -0.0)}), 0)
    def test_toeplitz_build_matches_loop_bit_for_bit(self, u, extra):
        grid = GridParams(h=0.1, K=max(1, (u.bandwidth + 1) // 2) + extra)
        got = convolution_matrix(u, grid)
        want = convolution_matrix_by_loop(u, grid)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

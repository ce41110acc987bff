"""Symbols p(x, xi) on the phase space of the 1-torus.

A symbol is a polynomial in the frequency variable xi whose coefficients are
finite Fourier series in x.  This module carries the structural checks
(classical ellipticity, evenness in xi) and all phase-space volume
computations: preimage measures of spectral-plane regions by midpoint
quadrature, and the log-log slope diagnostic for the small-t growth exponent
of sublevel-set volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

import numpy as np

TWO_PI = 2.0 * math.pi


class ContainmentError(ValueError):
    """The quadrature grid does not certifiably contain the preimage."""


class DegenerateFitError(ValueError):
    """A sublevel-set volume vanished inside the requested t-range."""


# ---------------------------------------------------------------------------
# trigonometric polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigPoly:
    """Finite Fourier series u(x) = sum_k c_k e^{ikx} on [0, 2*pi).

    ``coeffs`` maps integer frequencies to complex amplitudes; exact zeros are
    dropped so the zero polynomial has an empty map.  A polynomial flagged
    ``real`` must satisfy c_{-k} == conj(c_k) exactly.
    """

    coeffs: Mapping[int, complex]
    real: bool = False

    def __post_init__(self):
        clean = {int(k): complex(c) for k, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", clean)
        if self.real:
            for k, c in clean.items():
                if clean.get(-k, 0j) != c.conjugate():
                    raise ValueError(
                        f"real-flagged TrigPoly violates c_-k = conj(c_k) at k={k}"
                    )

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls({})

    @classmethod
    def constant(cls, c: complex) -> "TrigPoly":
        return cls({0: c}, real=bool(complex(c).imag == 0.0))

    @classmethod
    def wave(cls, k: int) -> "TrigPoly":
        """Single exponential e^{ikx}."""
        return cls({k: 1.0})

    @property
    def bandwidth(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def mean(self) -> complex:
        return self.coeffs.get(0, 0j)

    def sup_bound(self) -> float:
        """Rigorous sup-norm bound: the l1 mass of the coefficients."""
        return float(sum(abs(c) for c in self.coeffs.values()))

    def derivative_bound(self) -> float:
        """Rigorous sup-norm bound on u': sum_k |k| |c_k|."""
        return float(sum(abs(k) * abs(c) for k, c in self.items()))

    def __call__(self, x):
        """Evaluate at x (scalar or ndarray).

        Frequencies are paired as (+k, -k) so that conjugate-symmetric
        coefficients cancel their imaginary parts exactly in floating point.
        """
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.coeffs.get(0, 0j), dtype=complex)
        done = {0}
        for k in sorted(self.coeffs, key=abs):
            if k in done:
                continue
            done.update((k, -k))
            kk = abs(k)
            ek = np.exp(1j * kk * x)
            pair = self.coeffs.get(kk, 0j) * ek + self.coeffs.get(-kk, 0j) * np.conj(ek)
            out = out + pair
        return out

    def uniform_samples(self, n: int) -> np.ndarray:
        """Values at x_j = 2*pi*j/n via FFT; needs n > 2 * bandwidth.

        Much faster than ``__call__`` when the polynomial carries many modes.
        """
        if n <= 2 * self.bandwidth:
            raise ValueError(f"n = {n} aliases bandwidth {self.bandwidth}")
        spectrum = np.zeros(n, dtype=complex)
        for k, c in self.coeffs.items():
            spectrum[k % n] += c
        return np.fft.ifft(spectrum) * n

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        merged = dict(self.coeffs)
        for k, c in other.coeffs.items():
            merged[k] = merged.get(k, 0j) + c
        return TrigPoly(merged, real=self.real and other.real)

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        """Pointwise product; coefficient convolution."""
        out: dict[int, complex] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0j) + c1 * c2
        real = self.real and other.real
        if real:
            # the sums for k and -k round differently; restore exact symmetry
            out = {k: complex(c.real) if k == 0 else c
                   for k, c in out.items() if k >= 0}
            out.update({-k: c.conjugate() for k, c in list(out.items()) if k > 0})
        return TrigPoly(out, real=real)

    def scaled(self, factor: complex) -> "TrigPoly":
        f = complex(factor)
        return TrigPoly(
            {k: f * c for k, c in self.coeffs.items()},
            real=self.real and f.imag == 0.0,
        )

    def items(self) -> Iterator[tuple[int, complex]]:
        return iter(sorted(self.coeffs.items()))


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolSpec:
    """An order-m symbol p(x, xi) = sum_{a<=m} a_a(x) xi^a.

    ``a`` lists the coefficient Fourier series for xi^0 .. xi^m.  Optional
    ``h_corrections`` hold the first-order-in-h parts of the lower-order
    coefficients; the top coefficient admits none.
    """

    m: int
    a: tuple[TrigPoly, ...]
    h_corrections: tuple[TrigPoly, ...] | None = None

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("symbol order must be non-negative")
        if len(self.a) != self.m + 1:
            raise ValueError(f"expected {self.m + 1} coefficients, got {len(self.a)}")
        object.__setattr__(self, "a", tuple(self.a))
        if self.h_corrections is not None:
            hc = tuple(self.h_corrections)
            if len(hc) != self.m + 1:
                raise ValueError("h_corrections must match coefficient count")
            if not hc[self.m].is_zero():
                raise ValueError("top-order coefficient must not carry an h correction")
            object.__setattr__(self, "h_corrections", hc)

    @property
    def top(self) -> TrigPoly:
        return self.a[self.m]

    def eval_principal(self, x, xi):
        """p(x, xi) by Horner recursion in xi; broadcasts over arrays."""
        x = np.asarray(x, dtype=float)
        return _horner([c(x) for c in self.a], xi)

    def lower_order_sup_bounds(self) -> list[float]:
        return [self.a[alpha].sup_bound() for alpha in range(self.m)]


def _horner(coeff_values: list, xi) -> np.ndarray:
    """sum_a coeff_values[a] * xi^a by Horner recursion; broadcasts over arrays.

    xi is real, so each product rounds the same in every numpy loop; the
    complex products of a symbol's values all happen in its coefficients.
    """
    xi = np.asarray(xi, dtype=float)
    out = coeff_values[-1]
    if len(coeff_values) == 1:      # p = a_0(x): no xi factor broadcasts it
        return np.broadcast_to(out, np.broadcast_shapes(out.shape, xi.shape)).copy()
    for values in coeff_values[-2::-1]:
        out = out * xi + values
    return out


def check_ellipticity(spec: SymbolSpec) -> tuple[bool, float]:
    """Classical-ellipticity test with a rigorous constant.

    Returns (holds, C) with |p_m(x, xi)| >= |xi|^m / C for every x.  1/C is
    the larger of two lower bounds on |a_m| = |sum_k c_k e^{ikx}|: the
    minimum over 256 samples less (pi / 256) sum |k| |c_k|, the Lipschitz
    bound over half a sample spacing, and |c_0| - sum_{k != 0} |c_k|.  A top
    coefficient vanishing on the grid (to relative machine level, so that an
    exact zero hit by rounding still counts) yields (False, inf).
    """
    n = 256
    top = spec.top
    x = np.arange(n) * (TWO_PI / n)
    vals = np.abs(top(x))
    lipschitz = top.derivative_bound()
    rest = sum(abs(c) for k, c in top.items() if k != 0)
    amin = max(float(np.min(vals)) - math.pi / n * lipschitz,
               abs(top.mean()) - rest)
    if amin <= 1e-12 * float(np.max(vals)):
        return False, math.inf
    return True, 1.0 / amin


def check_symmetry(spec: SymbolSpec) -> bool:
    """Exact coefficient-level test that p(x, -xi) = p(x, xi)."""
    return all(spec.a[alpha].is_zero() for alpha in range(1, spec.m + 1, 2))


# ---------------------------------------------------------------------------
# spectral-plane regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self):
        if self.re_lo > self.re_hi or self.im_lo > self.im_hi:
            raise ValueError("degenerate rectangle bounds")

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        return (
            (z.real >= self.re_lo)
            & (z.real <= self.re_hi)
            & (z.imag >= self.im_lo)
            & (z.imag <= self.im_hi)
        )

    def distance(self, z):
        """Distance from z to the closed rectangle (zero inside)."""
        z = np.asarray(z, dtype=complex)
        dx_out = np.maximum.reduce([self.re_lo - z.real, z.real - self.re_hi,
                                    np.zeros(z.shape)])
        dy_out = np.maximum.reduce([self.im_lo - z.imag, z.imag - self.im_hi,
                                    np.zeros(z.shape)])
        return np.hypot(dx_out, dy_out)

    def boundary_distance(self, z):
        """Distance from z to the rectangle's boundary curve."""
        z = np.asarray(z, dtype=complex)
        outside = self.distance(z)
        return np.where(outside > 0.0, outside, np.maximum(self.depth(z), 0.0))

    def depth(self, z):
        """Distance from z inside the rectangle to its boundary; negative
        outside."""
        z = np.asarray(z, dtype=complex)
        return np.minimum.reduce([z.real - self.re_lo, self.re_hi - z.real,
                                  z.imag - self.im_lo, self.im_hi - z.imag])

    def sup_abs(self) -> float:
        corners = [complex(r, i) for r in (self.re_lo, self.re_hi)
                   for i in (self.im_lo, self.im_hi)]
        return max(abs(c) for c in corners)

    def bounds(self) -> tuple[float, float, float, float]:
        """(re_lo, re_hi, im_lo, im_hi) of the smallest enclosing box."""
        return self.re_lo, self.re_hi, self.im_lo, self.im_hi

    def boundary_points(self, n: int) -> np.ndarray:
        """n points equally spaced in arclength along the boundary."""
        w = self.re_hi - self.re_lo
        ht = self.im_hi - self.im_lo
        perim = 2.0 * (w + ht)
        ts = (np.arange(n) + 0.5) / n * perim
        pts = np.empty(n, dtype=complex)
        for i, t in enumerate(ts):
            if t < w:
                pts[i] = complex(self.re_lo + t, self.im_lo)
            elif t < w + ht:
                pts[i] = complex(self.re_hi, self.im_lo + (t - w))
            elif t < 2 * w + ht:
                pts[i] = complex(self.re_hi - (t - w - ht), self.im_hi)
            else:
                pts[i] = complex(self.re_lo, self.im_hi - (t - 2 * w - ht))
        return pts


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("disk radius must be non-negative")

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        return np.abs(z - self.center) <= self.radius

    def distance(self, z):
        """Distance from z to the closed disk (zero inside)."""
        z = np.asarray(z, dtype=complex)
        return np.maximum(np.abs(z - self.center) - self.radius, 0.0)

    def boundary_distance(self, z):
        z = np.asarray(z, dtype=complex)
        return np.abs(np.abs(z - self.center) - self.radius)

    def depth(self, z):
        """Distance from z inside the disk to its boundary; negative outside."""
        z = np.asarray(z, dtype=complex)
        return self.radius - np.abs(z - self.center)

    def sup_abs(self) -> float:
        return abs(self.center) + self.radius

    def bounds(self) -> tuple[float, float, float, float]:
        c, r = self.center, self.radius
        return c.real - r, c.real + r, c.imag - r, c.imag + r

    def boundary_points(self, n: int) -> np.ndarray:
        th = TWO_PI * (np.arange(n) + 0.5) / n
        return self.center + self.radius * np.exp(1j * th)


@dataclass(frozen=True)
class BoundaryTube:
    """Closed r-neighborhood of the boundary of a rectangle or disk."""

    base: Union[Rectangle, Disk]
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("tube radius must be positive")
        if not isinstance(self.base, (Rectangle, Disk)):
            raise TypeError("boundary tube base must be a rectangle or a disk")

    def contains(self, z):
        return self.base.boundary_distance(z) <= self.r

    def distance(self, z):
        """Distance from z to the tube (zero inside)."""
        return np.maximum(self.base.boundary_distance(z) - self.r, 0.0)

    def depth(self, z):
        """Distance from z inside the tube to its complement; negative
        outside."""
        return self.r - self.base.boundary_distance(z)

    def sup_abs(self) -> float:
        return self.base.sup_abs() + self.r


Region = Union[Rectangle, Disk, BoundaryTube]


# ---------------------------------------------------------------------------
# quadrature grids and certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseGrid:
    """Midpoint tensor grid over [0, 2*pi) x [xi_lo, xi_hi]."""

    n_x: int
    xi_lo: float
    xi_hi: float
    n_xi: int

    def __post_init__(self):
        if self.n_x < 1 or self.n_xi < 1:
            raise ValueError("grid must have at least one cell per axis")
        if not self.xi_lo < self.xi_hi:
            raise ValueError("xi bounds must be increasing")

    def x_nodes(self) -> np.ndarray:
        return (np.arange(self.n_x) + 0.5) * (TWO_PI / self.n_x)

    def xi_nodes(self) -> np.ndarray:
        step = (self.xi_hi - self.xi_lo) / self.n_xi
        return self.xi_lo + (np.arange(self.n_xi) + 0.5) * step

    @property
    def cell_area(self) -> float:
        return (TWO_PI / self.n_x) * ((self.xi_hi - self.xi_lo) / self.n_xi)


def symbol_floor(spec: SymbolSpec, r: float, ell_constant: float) -> float:
    """Crude lower bound for |p(x, xi)| at |xi| = r.

    Uses |p| >= |xi|^m / C - sum of the lower-order coefficient sup norms
    times |xi|^a.  Loose by design; looseness only enlarges grids.
    """
    sups = spec.lower_order_sup_bounds()
    return r**spec.m / ell_constant - sum(s * r**a for a, s in enumerate(sups))


def _floor_slope(spec: SymbolSpec, r: float, ell_constant: float) -> float:
    sups = spec.lower_order_sup_bounds()
    slope = spec.m * r ** (spec.m - 1) / ell_constant if spec.m >= 1 else 0.0
    return slope - sum(a * s * r ** (a - 1) for a, s in enumerate(sups) if a >= 1)


def _slab_failure(spec: SymbolSpec, r: float, ell_constant: float,
                  target: float) -> str | None:
    """Why |xi| = r bounds no certified xi-slab for sup|z| = target, or None:
    the floor must exceed target at r and not decrease, so it stays above."""
    val = symbol_floor(spec, r, ell_constant)
    if not val > target:
        return (f"floor |xi|^m/C - lower-order sup = {val:.6g} at |xi|={r:.6g} "
                f"does not exceed sup|z| = {target:.6g} over the region")
    if _floor_slope(spec, r, ell_constant) < 0.0:
        return (f"ellipticity floor is decreasing at |xi|={r:.6g}; "
                "enlarge the xi bounds")
    return None


def certify_grid(spec: SymbolSpec, region: Region, grid: PhaseGrid) -> tuple[bool, str]:
    """Check that the grid's xi-slab contains the preimage of the region:
    both xi endpoints must pass ``_slab_failure``."""
    holds, c = check_ellipticity(spec)
    if not holds:
        return False, "top coefficient vanishes on the sample grid"
    target = region.sup_abs()
    for r in (abs(grid.xi_lo), abs(grid.xi_hi)):
        failure = _slab_failure(spec, r, c, target)
        if failure is not None:
            return False, failure
    return True, "certified"


def certified_xi_bound(spec: SymbolSpec, region: Region) -> float:
    """Smallest xi magnitude (within 1%) whose floor certifies the region."""
    holds, c = check_ellipticity(spec)
    if not holds:
        raise ContainmentError("symbol is not elliptic; no xi bound exists")
    target = region.sup_abs()
    if spec.m == 0:
        # the floor is the constant 1/C, whose slope is 0
        failure = _slab_failure(spec, 1.0, c, target)
        if failure is None:
            return 1.0
        raise ContainmentError(
            f"order-0 symbol cannot certify a compact preimage: {failure}")

    def ok(r: float) -> bool:
        return _slab_failure(spec, r, c, target) is None

    hi = 1.0
    for _ in range(200):
        if ok(hi):
            break
        hi *= 2.0
    else:
        raise ContainmentError("no certified xi bound below 2^200")
    lo = hi / 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 0.01 * hi:
            break
    return hi


def default_grid(spec: SymbolSpec, region: Region, n_x: int, n_xi: int) -> PhaseGrid:
    xb = certified_xi_bound(spec, region)
    return PhaseGrid(n_x=n_x, xi_lo=-xb, xi_hi=xb, n_xi=n_xi)


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

_CHUNK_ROWS = 128
_BLOCK = 32         # xi nodes per tile of the pruned sweep
_TILE_ROWS = 8      # x-rows per tile
_SUB = 8            # xi nodes per sub-tile: one row of a quarter tile
_SWEEP_ROWS = 512   # x-rows per step, whose coefficients are made together
_HEADS = 8192       # tile heads per step at most, 128 KiB: fewer rows on wide grids
_PAIRS = 2048       # kept (row, block) pairs per chunk, 128 KiB of sub-tile heads
_PIECE = 1024       # sub-tiles per array the pruned sweep yields: 128 KiB of p


def _coefficients(spec: SymbolSpec, rows: np.ndarray) -> list:
    """a_a(x) for one block of x-rows, as a column, as eval_principal makes it.

    Gathering from these values, rather than evaluating the coefficients at
    gathered x, keeps each node's bits: numpy multiplies complex arrays of
    256 KiB or more in place by another loop, which rounds differently.
    """
    return [c(rows[:, None]) for c in spec.a]


def _judge(region: Region, heads: np.ndarray, reach: float,
           whole: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Masks (near, deep) of the tiles whose heads lie within reach of the
    region, and, with ``whole``, of those deeper inside it than reach."""
    near = ~(region.distance(heads) > reach)     # a NaN keeps its tile
    if not whole:
        return near, None
    deep = region.depth(heads) > reach
    return near & ~deep, deep


def _near_region(spec: SymbolSpec, region: Region, grid: PhaseGrid,
                 whole: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """p at the grid nodes that can lie in the region, by tiles of nodes.

    The grid is cut into tiles of _TILE_ROWS x-rows by _BLOCK xi nodes, and
    each row of a tile into sub-tiles of _SUB nodes; each is judged by p at
    its first node, its head.  On the slab |xi| <= R,
    L_xi = sum_a a ||a_a||_1 R^(a-1) bounds |dp/dxi| and
    L_x = sum_a ||a_a'||_1 R^a bounds |dp/dx|, so p moves by at most
    L_xi (_BLOCK - 1) dxi + L_x (_TILE_ROWS - 1) dx within a tile, and by
    L_xi (_SUB - 1) dxi within a sub-tile, which has one row and so no
    x-term.  The reach of each is that bound plus a slack of 4096
    (1 + bandwidth) ulps of the largest |p| and |z| involved, far above the
    rounding error of p and of the region's distances.  A tile or sub-tile
    whose head lies farther than its reach from the region is skipped: each
    of its nodes lies outside the region in floating point too.  With
    ``whole``, one whose head lies deeper inside the region than its reach
    is counted whole: each of its nodes lies inside in floating point too.
    The sub-tiles of the tiles left are judged in turn, and only the
    sub-tiles left then are evaluated, by eval_principal's arithmetic: the
    coefficients a_a(x) on the step's block of rows, as the full grid
    computes them, then Horner's rule on the kept nodes.  Each node gets
    the full grid's value, so counts over the yielded values, plus the
    nodes counted whole, are the full grid's counts.

    Yields pairs (n, values): n nodes counted whole, all inside the region,
    and p at the nodes of kept sub-tiles, in row-major order.  Each step
    takes _SWEEP_ROWS rows, or fewer on grids of more than 128 blocks so
    that its tile heads stay within _HEADS.  The sub-tiles of its kept
    tiles are judged in chunks of consecutive tile rows holding at most
    _PAIRS kept (row, block) pairs (one tile row may hold more), and each
    array yielded holds at most _PIECE sub-tiles.  So the working arrays
    stay within about 128 KiB and in cache, whatever share of the grid is
    kept.  On ``phase-volumes``, judging a whole step's sub-tiles at once
    raised the peak RSS from 35.3 to 38.4 MB for no clear gain in speed,
    and also yielding a whole step's nodes at once to 52.1 MB for 3-13%.
    Arrays of exactly 128 KiB reuse their memory only because ``cli.main``
    raises glibc's initial mmap threshold (``cli._reuse_heap``); otherwise
    each is mapped and faulted in afresh.  Measured on ``phase-volumes``
    without that call (before tiles, with every row's blocks judged by
    their own heads), other sizes are no cure: 64 KiB arrays (32 rows, 128
    blocks) took no faults but 0.44-0.64 s per iteration against
    0.40-0.49 s, for the longer loop; arrays just under 128 KiB (63 rows,
    255 blocks) made glibc trim and regrow the top of the heap, 118k faults
    and 0.63-0.74 s.
    """
    x, xi = grid.x_nodes(), grid.xi_nodes()
    r = max(abs(grid.xi_lo), abs(grid.xi_hi))
    sups = [c.sup_bound() for c in spec.a]
    l_xi = sum(a * s * r ** (a - 1) for a, s in enumerate(sups) if a >= 1)
    l_x = sum(c.derivative_bound() * r ** a for a, c in enumerate(spec.a))
    scale = sum(s * r ** a for a, s in enumerate(sups)) + region.sup_abs()
    slack = 2.0 ** -40 * (1 + max(c.bandwidth for c in spec.a)) * scale
    step = (grid.xi_hi - grid.xi_lo) / grid.n_xi
    reach = (l_xi * (_BLOCK - 1) * step
             + l_x * (_TILE_ROWS - 1) * (TWO_PI / grid.n_x) + slack)
    sub_reach = l_xi * (_SUB - 1) * step + slack
    per_block = _BLOCK // _SUB
    n_blocks = -(-grid.n_xi // _BLOCK)
    cols = np.arange(n_blocks * _BLOCK).reshape(n_blocks * per_block, _SUB)
    valid = cols < grid.n_xi                    # the last block may be partial
    sub_xi = xi[np.minimum(cols, grid.n_xi - 1)]
    sub_heads = sub_xi[:, 0].reshape(n_blocks, per_block)
    sub_widths = np.count_nonzero(valid, axis=1).reshape(n_blocks, per_block)
    widths = sub_widths.sum(axis=1)
    rows = _TILE_ROWS * max(1, min(_SWEEP_ROWS // _TILE_ROWS, _HEADS // n_blocks))
    for lo in range(0, len(x), rows):
        coeffs = _coefficients(spec, x[lo:lo + rows])
        n_rows = len(coeffs[0])
        heights = np.minimum(n_rows - np.arange(0, n_rows, _TILE_ROWS), _TILE_ROWS)
        heads = _horner([c[::_TILE_ROWS] for c in coeffs], sub_heads[None, :, 0])
        kept, deep = _judge(region, heads, reach, whole)
        inside = 0 if deep is None else int(heights @ deep @ widths)
        ends = np.cumsum(np.count_nonzero(kept, axis=1) * heights)
        start = 0
        while start < len(ends):                # a chunk of tile rows
            done = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + _PAIRS, "right")))
            if ends[stop - 1] > done:
                first = start * _TILE_ROWS
                i, b = np.nonzero(np.repeat(kept[start:stop], _TILE_ROWS,
                                            axis=0)[:n_rows - first])
                chunk = [c[first:][i] for c in coeffs]
                near, deep = _judge(region, _horner(chunk, sub_heads[b]),
                                    sub_reach, whole)
                if deep is not None:
                    inside += int(sub_widths[b][deep].sum())
                j, s = np.nonzero(near)         # row-major: rows, then xi
                s += b[j] * per_block
                for lo_k in range(0, len(j), _PIECE):
                    jk, sk = j[lo_k:lo_k + _PIECE], s[lo_k:lo_k + _PIECE]
                    vals = _horner([c[jk] for c in chunk], sub_xi[sk])
                    yield inside, vals[valid[sk]]
                    inside = 0
            start = stop
        if inside:
            yield inside, xi[:0]


def volume_preimage(spec: SymbolSpec, region: Region, grid: PhaseGrid) -> float:
    """Midpoint-rule measure of {(x, xi) : p(x, xi) in region}.

    Tiles of grid nodes, and then the sub-tiles of the tiles kept, that
    cannot reach the region are skipped, those deep inside it are counted
    whole, and only the sub-tiles left are evaluated; the count equals the
    count over every node.
    """
    ok, msg = certify_grid(spec, region, grid)
    if not ok:
        raise ContainmentError(msg)
    count = sum(inside + int(np.count_nonzero(region.contains(vals)))
                for inside, vals in _near_region(spec, region, grid, whole=True))
    return count * grid.cell_area


def sublevel_volumes(spec: SymbolSpec, z: complex, t_values,
                     grid: PhaseGrid) -> np.ndarray:
    """Volumes of {|p - z|^2 <= t} for every t in one sweep of the grid.

    The sweep skips the tiles, and then the sub-tiles, that cannot reach
    the largest disk and sorts |p - z|^2 over the sub-tiles left; none is
    counted whole, since one count per t would be needed.
    """
    t = np.asarray(t_values, dtype=float)
    disk = Disk(z, math.sqrt(float(t.max())))
    ok, msg = certify_grid(spec, disk, grid)
    if not ok:
        raise ContainmentError(msg)
    counts = np.zeros(t.shape, dtype=np.int64)
    for _, vals in _near_region(spec, disk, grid):
        s = np.abs(vals - z) ** 2
        counts += np.searchsorted(np.sort(s), t, side="right")
    return counts * grid.cell_area


def boundary_cell_measure(spec: SymbolSpec, region: Region, grid: PhaseGrid) -> float:
    """Total measure of cells whose corners disagree about membership.

    This is the midpoint rule's bookkeeping quantity: refining the grid can
    move the measure only within the boundary cells.  The quadrature
    refinement test uses it as its reference budget.
    """
    x = np.arange(grid.n_x + 1) * (TWO_PI / grid.n_x)
    step = (grid.xi_hi - grid.xi_lo) / grid.n_xi
    xi = grid.xi_lo + np.arange(grid.n_xi + 1) * step
    inside = np.concatenate([
        region.contains(spec.eval_principal(x[lo:lo + _CHUNK_ROWS, None],
                                            xi[None, :]))
        for lo in range(0, len(x), _CHUNK_ROWS)])
    cells = inside[:-1, :-1] | inside[1:, :-1] | inside[:-1, 1:] | inside[1:, 1:]
    full = inside[:-1, :-1] & inside[1:, :-1] & inside[:-1, 1:] & inside[1:, 1:]
    return int(np.count_nonzero(cells & ~full)) * grid.cell_area


def kappa_floor(spec: SymbolSpec) -> float:
    """Universal floor 1/(2m) of the sublevel-volume growth exponent kappa.

    Raises ValueError for an order-0 symbol, which has no such floor and no
    Weyl law to test.
    """
    if spec.m < 1:
        raise ValueError("an order-0 symbol has no kappa floor 1/(2m); "
                         "the Weyl law needs a symbol of order m >= 1")
    return 1.0 / (2.0 * spec.m)


def estimate_kappa(spec: SymbolSpec, z: complex, t_lo: float, t_hi: float,
                   n_points: int) -> tuple[float, float]:
    """Least-squares slope of log V_z(t) against log t on a geometric grid.

    The volumes come from one sweep of a fixed 2048 x 2048 grid over the
    certified xi-slab of the disk |w - z| <= sqrt(t_hi).  Returns (slope, r2).
    Only finite scales are observable, so this reports a fit, never a
    certified exponent.  The caller ensures 0 < t_lo < t_hi and
    n_points >= 4, as ``volume`` does when it reads its kappa keys.
    """
    grid = default_grid(spec, Disk(z, math.sqrt(t_hi)), n_x=2048, n_xi=2048)
    t = np.geomspace(t_lo, t_hi, n_points)
    vols = sublevel_volumes(spec, z, t, grid)
    if np.any(vols == 0.0):
        raise DegenerateFitError(
            f"V_z(t) vanished for some t in [{t_lo:g}, {t_hi:g}]; "
            "z lies outside the closure of the symbol range at that scale"
        )
    lt = np.log(t)
    lv = np.log(vols)
    slope, intercept = np.polyfit(lt, lv, 1)
    fit = slope * lt + intercept
    ss_res = float(np.sum((lv - fit) ** 2))
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def range_samples(spec: SymbolSpec, grid: PhaseGrid) -> np.ndarray:
    """Samples of p over the grid, decimated to about 200 000.

    Each block of _CHUNK_ROWS x-rows contributes every stride-th of its nodes
    in row-major order, and only those nodes are evaluated.  They are written
    into one preallocated array: the working set is the samples plus one
    block's coefficients, indices and values.
    """
    stride = max(1, grid.n_x * grid.n_xi // 200_000)
    x, xi, n = grid.x_nodes(), grid.xi_nodes(), grid.n_xi
    starts = range(0, grid.n_x, _CHUNK_ROWS)
    # a block of r rows yields ceil(r n / stride) samples
    out = np.empty(sum(-(-min(_CHUNK_ROWS, grid.n_x - lo) * n // stride) for lo in starts),
                   dtype=complex)
    at = 0
    for lo in starts:
        block = x[lo:lo + _CHUNK_ROWS]
        rows, cols = np.divmod(np.arange(0, len(block) * n, stride), n)
        coeffs = _coefficients(spec, block)
        out[at:at + len(rows)] = _horner([c[rows, 0] for c in coeffs], xi[cols])
        at += len(rows)
    return out


def distance_to_samples(samples: np.ndarray, z) -> np.ndarray:
    """Min distance from each z to the sampled symbol values.

    The samples are sorted once into horizontal bands, by real part within a
    band.  The distance to every 64th sample bounds a point's distance from
    above, so its nearest sample lies in the bands and real-part windows
    within that bound, and only those candidates are measured.  The result
    agrees with a scan over every sample bit for bit, without that scan's
    O(samples) work per point.  The working set is the samples, their float
    keys and the int64 sorting permutation, half the samples' bytes each:
    the keys are built in preallocated arrays and sorted in place, and each
    point gathers its candidates through the permutation.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    samples = np.asarray(samples, dtype=complex).ravel()
    n_bands = max(1, math.isqrt(samples.size) // 8)
    im_lo, re_lo = samples.imag.min(), samples.real.min()
    height = (samples.imag.max() - im_lo) / n_bands or 1.0
    width = 2.0 * ((samples.real.max() - re_lo) or 1.0)

    # both work on scalars, or in place in ``out`` when it is given
    def band(im, out=None):
        b = np.floor_divide(np.subtract(im, im_lo, out=out), height, out=out)
        return np.clip(b, 0, n_bands - 1, out=out)

    def key(b, re, out=None):
        # the band index plus the real part mapped monotonely into [0, 1/2]
        part = np.divide(np.subtract(re, re_lo, out=out), width, out=out)
        return np.add(b, np.clip(part, 0.0, 0.5, out=out), out=out)

    keys = key(band(samples.imag, np.empty(samples.size)), samples.real,
               np.empty(samples.size))
    order = np.argsort(keys)
    keys.sort()
    coarse = samples[::64]
    out = np.empty(z.shape, dtype=float)
    for i, zz in enumerate(z):
        bound = np.min(np.abs(coarse - zz))
        bands = np.arange(band(zz.imag - bound), band(zz.imag + bound) + 1)
        lo = np.searchsorted(keys, key(bands, zz.real - bound), "left")
        hi = np.searchsorted(keys, key(bands, zz.real + bound), "right")
        near = samples[np.concatenate([order[a:b] for a, b in zip(lo, hi)])]
        out[i] = np.min(np.abs(near - zz), initial=bound)
    return out


# ---------------------------------------------------------------------------
# model catalog
# ---------------------------------------------------------------------------

def catalog_symbol(name: str) -> SymbolSpec:
    """Built-in models used throughout the experiments and the CLI.

    ``xi2+exp(ix)``   : p = xi^2 + e^{ix}, order 2, even in xi.
    ``xi+exp(-ix)``   : p = xi + e^{-ix}, order 1 (odd, no symmetry).
    """
    if name == "xi2+exp(ix)":
        return SymbolSpec(m=2, a=(TrigPoly.wave(1), TrigPoly.zero(),
                                  TrigPoly.constant(1.0)))
    if name == "xi+exp(-ix)":
        return SymbolSpec(m=1, a=(TrigPoly.wave(-1), TrigPoly.constant(1.0)))
    raise KeyError(f"unknown catalog symbol {name!r}")

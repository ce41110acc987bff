"""Dense matrix realizations in the truncated Fourier basis.

Basis convention: eps_k(x) = e^{ikx} / sqrt(2*pi) for k = -K..K, so an
h-differential operator is a sum of Toeplitz convolution factors times
diagonal frequency powers, and a general symbol is quantized by sampling
x on a uniform grid (Kohn-Nirenberg, symbol to the left).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .symbols import TWO_PI, SymbolSpec, TrigPoly


class BandwidthError(ValueError):
    """A coefficient's Fourier support exceeds what the truncation holds."""


# the largest matrix dimension N = 2K + 1 a grid may have, checked before any
# matrix is built: the dense eigensolve and probes of one trial stay at desk scale
MAX_DIM = 4096


def admissible_h(h: float) -> None:
    """Raise ValueError unless h lies in (0, 1], the semiclassical range that
    every command accepts."""
    if not 0.0 < h <= 1.0:
        raise ValueError(f"h must lie in (0, 1], got {h!r}")


@dataclass(frozen=True)
class GridParams:
    """Semiclassical parameter and Fourier truncation; dimension N = 2K + 1."""

    h: float
    K: int

    def __post_init__(self):
        admissible_h(self.h)
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.N > MAX_DIM:
            raise ValueError(f"matrix dimension N = {self.N} at h = {self.h:g} "
                             f"exceeds the cap {MAX_DIM}")

    @property
    def N(self) -> int:
        return 2 * self.K + 1

    @property
    def n_x(self) -> int:
        """Quantization x-grid size: 4K + 4 removes aliasing at bandwidth 2K."""
        return 4 * self.K + 4

    def k_values(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def x_nodes(self) -> np.ndarray:
        return np.arange(self.n_x) * (TWO_PI / self.n_x)

    def xi_nodes(self) -> np.ndarray:
        return self.h * self.k_values()


def truncation_grid(h: float, xi_bound: float, k_rule: object = "auto") -> GridParams:
    """Grid whose frequencies h*k cover 1.5 times a certified |xi| bound.

    ``k_rule`` is "auto" for K = ceil(1.5 * xi_bound / h), or an explicit K.
    """
    if k_rule != "auto":
        K = int(k_rule)
    else:
        # h <= 0 skips the division and is rejected by GridParams
        K = int(math.ceil(1.5 * xi_bound / h)) if h > 0 else 1
    return GridParams(h=h, K=K)


@dataclass(frozen=True)
class OperatorMatrix:
    entries: np.ndarray
    grid: GridParams

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (self.grid.N, self.grid.N):
            raise ValueError(f"entries must be {self.grid.N}x{self.grid.N}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def convolution_matrix(u: TrigPoly, grid: GridParams, *, label: str = "q") -> np.ndarray:
    """Toeplitz matrix of multiplication by u: entry (j, k) = c_{j-k}.

    A read-only view of the 2N - 1 values c_{-(N-1)}..c_{N-1}, so building
    it costs O(N) memory; a caller that needs a matrix of its own copies it,
    or adds the view into one.
    """
    if u.bandwidth > 2 * grid.K:
        raise BandwidthError(
            f"coefficient {label} has bandwidth {u.bandwidth} > 2K = {2 * grid.K}"
        )
    # first column c_0..c_{N-1}, first row c_0..c_{-(N-1)}; adding into zeros
    # turns a signed zero part of c into +0, as a sum of shifted identities does
    col = np.zeros(grid.N, dtype=complex)
    row = np.zeros(grid.N, dtype=complex)
    for k, c in u.items():
        if k >= 0:
            col[k] += c
        if k <= 0:
            row[-k] += c
    # vals = c_{-(N-1)}..c_{N-1}, so entry (j, k) = vals[N - 1 + j - k]: row j
    # is the window of vals starting at j, read backwards
    vals = np.concatenate((row[:0:-1], col))
    return np.lib.stride_tricks.sliding_window_view(vals, grid.N)[:, ::-1]


def differential_terms(spec: SymbolSpec, grid: GridParams) -> list[tuple[np.ndarray, int]]:
    """(Toeplitz view, power of xi) of each nonzero term of sum_a a_a(x) (hD)^a,
    then of h times the first-order corrections.

    Each view holds 2N - 1 values, so building them all checks every
    coefficient's bandwidth against the grid in O(N) memory and time.
    """
    terms = []
    for alpha in range(spec.m + 1):
        coeff = spec.a[alpha]
        if not coeff.is_zero():
            terms.append((convolution_matrix(coeff, grid, label=f"a_{alpha}"), alpha))
    if spec.h_corrections is not None:
        for alpha in range(spec.m + 1):
            corr = spec.h_corrections[alpha]
            if not corr.is_zero():
                # h c rounds each part of c once, as h times its view would
                terms.append((convolution_matrix(corr.scaled(grid.h), grid,
                                                 label=f"h-correction a_{alpha}"), alpha))
    return terms


def assemble_differential(spec: SymbolSpec, grid: GridParams) -> OperatorMatrix:
    """Matrix of sum_a a_a(x) (hD)^a, plus h times any first-order corrections."""
    w = grid.xi_nodes().astype(float)
    total = np.zeros((grid.N, grid.N), dtype=complex)
    for conv, alpha in differential_terms(spec, grid):
        total += conv * (w**alpha)[None, :]
    return OperatorMatrix(total, grid)


def assemble_toroidal_pdo(symbol: Callable, grid: GridParams) -> OperatorMatrix:
    """Kohn-Nirenberg quantization of a general symbol(x, xi).

    Entry (j, k) = (1/n_x) sum_x symbol(x, h k) e^{-i (j-k) x} over the
    grid's x-nodes.  ``symbol`` must accept broadcast ndarray arguments.
    """
    k = grid.k_values()
    vals = np.asarray(symbol(grid.x_nodes()[:, None], grid.xi_nodes()[None, :]),
                      dtype=complex)
    spectra = np.fft.fft(vals, axis=0) / grid.n_x
    offset = (k[:, None] - k[None, :]) % grid.n_x
    entries = spectra[offset, np.arange(grid.N)[None, :]]
    return OperatorMatrix(entries, grid)


# ---------------------------------------------------------------------------
# semiclassical Sobolev norms
# ---------------------------------------------------------------------------

def hs_norm(q: TrigPoly, s: float, h: float, mode: str = "semiclassical") -> float:
    """Fourier-weighted norm (sum_k (1 + (hk)^2)^s |<q, eps_k>|^2)^{1/2}.

    ``classical`` mode is the plain Sobolev norm (h frozen to 1).  The inner
    products against the normalized exponentials are sqrt(2*pi) c_k.
    """
    if mode == "classical":
        h = 1.0
    elif mode != "semiclassical":
        raise ValueError(f"unknown norm mode {mode!r}")
    total = 0.0
    for k, c in q.items():
        total += (1.0 + (h * k) ** 2) ** s * TWO_PI * abs(c) ** 2
    return math.sqrt(total)


def sup_norm(q: TrigPoly) -> float:
    """Max of |q| on a uniform grid of at least 4096 points (dense enough for
    band-limited q)."""
    n = max(4096, 4 * q.bandwidth + 4)
    return float(np.max(np.abs(q.uniform_samples(n))))

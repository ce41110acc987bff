"""Admissible parameter windows and random multiplicative potentials.

The exponent bookkeeping (M, M~, N1, mode cutoff L, coefficient radius R)
is done in exact rational arithmetic so the window inequalities can be
verified symbolically.  Potentials are drawn uniformly from the coefficient
ball with a counter-based generator, so trials are reproducible and
splittable by seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .operators import OperatorMatrix, admissible_h, convolution_matrix, sup_norm
from .symbols import TWO_PI, TrigPoly

Rational = Union[int, float, str, Fraction]


class ParameterError(ValueError):
    """Inputs violate the admissible parameter window."""


class EmptyBasisError(ValueError):
    """The mode cutoff leaves no basis functions to draw from."""


def _as_fraction(x: Rational) -> Fraction:
    try:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        # floats are read as their decimal literal so 0.1 means 1/10
        return Fraction(repr(float(x)))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParameterError(f"not a rational value: {x!r}") from exc


@dataclass(frozen=True)
class PerturbationPlan:
    """Every derived parameter of the perturbation scheme.

    Exponents are exact rationals; realized sizes (L, R, delta, eps0) are
    floats.  ``mode`` is ``derived`` for delta = tau0 * h^(N1 + n), the weight the
    exponent bookkeeping dictates, or ``effective`` for a configured delta that is actually representable at
    machine precision.
    """

    n: int
    s: Fraction
    epsilon: Fraction
    kappa: Fraction
    h: float
    tau0: float
    big_m: Fraction
    big_m_tilde: Fraction
    n1: Fraction
    L: float
    R: float
    D: int
    delta: float
    eps0: float
    mode: str
    l_uncapped: float
    l_capped: bool
    delta_warning: bool

    def window_checks(self) -> dict[str, bool]:
        """Exact checks of the admissibility inequalities on the exponents."""
        n, s, eps, kap = Fraction(self.n), self.s, self.epsilon, self.kappa
        m_min = (3 * n - kap) / (s - Fraction(n, 2) - eps)
        mt_min = Fraction(3 * n, 2) - kap + (Fraction(n, 2) + eps) * self.big_m
        return {
            "M >= (3n-kappa)/(s-n/2-eps)": self.big_m >= m_min,
            "M~ >= 3n/2-kappa+(n/2+eps)M": self.big_m_tilde >= mt_min,
            "L exponent within window": -self.big_m <= -m_min,
            "R exponent within window": -self.big_m_tilde <= -mt_min,
            "N1 = M~ + sM + n/2": self.n1
            == self.big_m_tilde + s * self.big_m + Fraction(n, 2),
        }

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "s": str(self.s),
            "epsilon": str(self.epsilon),
            "kappa": str(self.kappa),
            "h": self.h,
            "tau0": self.tau0,
            "M": str(self.big_m),
            "M_float": float(self.big_m),
            "M_tilde": str(self.big_m_tilde),
            "M_tilde_float": float(self.big_m_tilde),
            "N1": str(self.n1),
            "N1_float": float(self.n1),
            "L": self.L,
            "R": self.R,
            "D": self.D,
            "delta": self.delta,
            "eps0": self.eps0,
            "mode": self.mode,
            "L_uncapped": self.l_uncapped,
            "L_capped": self.l_capped,
            "delta_warning": self.delta_warning,
        }


def epsilon_zero(h: float, tau0: float, kappa: float, n: int = 1) -> float:
    """(h^kappa + h^n ln(1/h)) (ln(1/tau0) + (ln(1/h))^2)."""
    lh = math.log(1.0 / h)
    return (h**kappa + h**n * lh) * (math.log(1.0 / tau0) + lh**2)


def derive_params(
    n: int,
    s: Rational,
    epsilon: Rational,
    kappa: Rational,
    h: float,
    tau0: float | None = None,
    mode: str = "derived",
    delta_eff: float | None = None,
    l_cap: float | None = None,
) -> PerturbationPlan:
    """Derive the minimal admissible plan for the given inputs.

    The window exponents are taken at equality (smallest admissible M and
    M~, hence the smallest mode count and coefficient radius), with the
    unspecified window constants set to 1, so every ``window_checks``
    inequality holds exactly.  ``l_cap``, when given, clamps
    the mode cutoff to what a finite matrix can represent; the clamp is
    recorded and the exponent checks keep referring to the uncapped value.
    Callers pass hK: q's modes |k| <= K keep its Toeplitz band |j - k| <= K
    off the matrix corners (at 2hK it reaches them, and the acceptance
    rectangle's mean count fell from 16.88 to 13.75); the modes
    hK < |xi| <= L(h) are left out.
    """
    s_f = _as_fraction(s)
    eps_f = _as_fraction(epsilon)
    kap_f = _as_fraction(kappa)
    n_f = Fraction(n)
    if n < 1:
        raise ParameterError("dimension n must be a positive integer")
    if not s_f > n_f / 2:
        raise ParameterError(f"need s > n/2, got s = {s_f}")
    if not (0 < eps_f < s_f - n_f / 2):
        raise ParameterError(
            f"need 0 < epsilon < s - n/2 = {s_f - n_f / 2}, got {eps_f}"
        )
    if not (0 < kap_f <= 1):
        raise ParameterError(f"need kappa in (0, 1], got {kap_f}")
    admissible_h(h)
    if tau0 is None:
        tau0 = math.sqrt(h)
    if not (0.0 < tau0 <= math.sqrt(h)):
        raise ParameterError(f"need 0 < tau0 <= sqrt(h) = {math.sqrt(h):g}")

    big_m = (3 * n_f - kap_f) / (s_f - n_f / 2 - eps_f)
    big_m_tilde = Fraction(3 * n, 2) - kap_f + (n_f / 2 + eps_f) * big_m
    n1 = big_m_tilde + s_f * big_m + n_f / 2

    l_uncapped = h ** float(-big_m)
    capped = l_cap is not None and l_cap < l_uncapped
    L = float(l_cap) if capped else l_uncapped
    R = h ** float(-big_m_tilde)
    D = 2 * int(math.floor(L / h))

    delta_warning = False
    if mode == "derived":
        delta = tau0 * h ** (float(n1) + n)
    elif mode == "effective":
        if delta_eff is None:
            raise ParameterError("effective mode requires delta_eff")
        if delta_eff < 0:
            raise ParameterError("delta_eff must be non-negative")
        delta = float(delta_eff)
        if delta >= h:
            delta_warning = True
            warnings.warn(
                f"effective delta = {delta:g} is not small against h = {h:g}",
                RuntimeWarning,
                stacklevel=2,
            )
    else:
        raise ParameterError(f"unknown mode {mode!r}")

    return PerturbationPlan(
        n=n, s=s_f, epsilon=eps_f, kappa=kap_f, h=h, tau0=tau0,
        big_m=big_m, big_m_tilde=big_m_tilde, n1=n1,
        L=L, R=R, D=D, delta=delta,
        eps0=epsilon_zero(h, tau0, float(kap_f), n),
        mode=mode, l_uncapped=l_uncapped, l_capped=capped,
        delta_warning=delta_warning,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

_MAX_MODES = 4_000_000


@dataclass(frozen=True)
class RandomPotential:
    """A draw q = sum_{0 < h|k| <= L} alpha_k eps_k with |alpha| <= R.

    The coefficients alpha_k are sqrt(2 pi) times q's Fourier coefficients.
    """

    q: TrigPoly

    def sup_q(self) -> float:
        """Sampled sup norm of q; the multiplication-operator norm scale."""
        return sup_norm(self.q)


def split_seed(master_seed: int, trial_index: int) -> int:
    """Stable per-trial key for the counter-based generator."""
    golden = 0x9E3779B97F4A7C15
    return (master_seed * golden + trial_index * 0xBF58476D1CE4E5B9 + 1) % 2**64


def seeded_generator(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by the seed mod 2^64."""
    return np.random.Generator(np.random.Philox(key=seed % 2**64))


def sample_potential(plan: PerturbationPlan, seed: int) -> RandomPotential:
    """Draw alpha uniformly on the radius-R coefficient ball of C^D.

    The draw is a Gaussian direction times a calibrated radius.  Identical
    (plan, seed) inputs reproduce the draw bit for bit.
    """
    if plan.D == 0:
        raise EmptyBasisError("mode cutoff L admits no nonzero frequencies")
    if plan.D > _MAX_MODES:
        raise ParameterError(
            f"D = {plan.D} modes is beyond desk scale; cap L (l_cap) first"
        )
    d = plan.D
    k_max = d // 2
    ks = np.concatenate([np.arange(-k_max, 0), np.arange(1, k_max + 1)])
    rng = seeded_generator(seed)
    g = rng.standard_normal(2 * d)
    vec = (g[0::2] + 1j * g[1::2])
    vec /= np.linalg.norm(vec)
    radius = plan.R * rng.uniform() ** (1.0 / (2 * d))
    alpha = radius * vec
    coeffs = {int(k): a / math.sqrt(TWO_PI) for k, a in zip(ks, alpha)}
    return RandomPotential(q=TrigPoly(coeffs))


def build_perturbed(P: OperatorMatrix, plan: PerturbationPlan,
                    pot: RandomPotential) -> OperatorMatrix:
    """P + delta h^N1 Conv(q).

    In effective mode the convolution is normalized by sup|q|, the
    multiplication-operator norm, so the added term has operator norm
    delta up to truncation; that is the point of an effective delta: a
    perturbation of a prescribed size.
    """
    grid = P.grid
    entries = np.array(P.entries, dtype=complex)
    if plan.delta != 0.0:
        # q's coefficients are scaled, not its Toeplitz matrix, whose
        # read-only view is added into the copy: a complex value times a
        # real factor rounds each part once, so each entry is P + (c conv)
        # bit for bit, and no second N x N array is made
        if plan.mode == "derived":
            q = pot.q.scaled(plan.delta * grid.h ** float(plan.n1))
        else:
            scale = pot.sup_q()
            q = pot.q.scaled(plan.delta / scale) if scale > 0.0 else None
        if q is not None:
            entries += convolution_matrix(q, grid)
    return OperatorMatrix(entries, grid)

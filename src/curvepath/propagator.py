"""Periodic Green function without the zero mode, and the counter algebra.

The free fluctuation propagator on a thermal circle of circumference beta is

    G(x) = x^2/(2 beta) - |x|/2 + beta/12,    x = tau - tau' reduced mod beta,

the Green function of -d_tau^2 on periodic functions with the constant mode
projected out. It solves -G'' = delta(x) - 1/beta and has G(0) = beta/12.
(The quadratic middle term sometimes quoted for this kernel is fixed here to
|x|/2 by dimensional analysis and by the defining equation; ode_residual
verifies the choice.)

Divergent coincidence values are never floated: they are carried as counter
polynomials in two integer mode counts, N_prop = 2M (nonzero modes kept in
the propagator) and N_all = 2M + 1 (all periodic eigenmodes, the count the
invariant measure produces per time slice). A result is regularization
independent exactly when the two counter coefficients cancel; the surviving
finite part then picks up the unit offset N_all - N_prop = 1.

The cutoff-M quantities live here only: the frequencies omega_m = 2 pi m /
beta, the truncated mode sums, the sharp pair table (pair_truncated) and each
mode's spread (mode_sd). The Wick sharp sums and the Monte Carlo read them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["CounterPolynomial", "PeriodicPropagator"]


def _check_beta(beta: float) -> None:
    """Reject an inverse temperature that is not a finite float > 0."""
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be a finite float > 0, got {beta!r}")


def _all(flags) -> bool:
    """True when a flag, or every flag of a batch, is set."""
    return bool(flags.all() if isinstance(flags, np.ndarray) else flags)


def _any(flags) -> bool:
    """True when a flag, or any flag of a batch, is set."""
    return bool(flags.any() if isinstance(flags, np.ndarray) else flags)


@dataclass(frozen=True)
class CounterPolynomial:
    """constant + coeff_nprop * N_prop + coeff_nall * N_all.

    The coefficients are floats, or arrays of shape (N,) holding one
    polynomial per point of a batch; every operation acts point by point.
    """

    constant: float = 0.0
    coeff_nprop: float = 0.0
    coeff_nall: float = 0.0

    def __add__(self, other: "CounterPolynomial") -> "CounterPolynomial":
        return CounterPolynomial(self.constant + other.constant,
                                 self.coeff_nprop + other.coeff_nprop,
                                 self.coeff_nall + other.coeff_nall)

    def __sub__(self, other: "CounterPolynomial") -> "CounterPolynomial":
        return self + other.scaled(-1.0)

    def scaled(self, factor: float) -> "CounterPolynomial":
        return CounterPolynomial(self.constant * factor,
                                 self.coeff_nprop * factor,
                                 self.coeff_nall * factor)

    def __mul__(self, other):
        if isinstance(other, CounterPolynomial):
            counters = (other.coeff_nprop != 0.0) | (other.coeff_nall != 0.0)
            if not _any(counters):
                return self.scaled(other.constant)
            if _any((self.divergent_weight() != 0.0) & (other.divergent_weight() != 0.0)):
                raise ValueError("product of two counter-carrying polynomials "
                                 "(degree > 1 in the counters) is outside the algebra")
            if _all(counters):
                return other.scaled(self.constant)
            # a batch mixing both cases takes each point's product from its own case
            left, right = self.scaled(other.constant), other.scaled(self.constant)
            return CounterPolynomial(*(np.where(counters, b, a)
                                       for a, b in zip(left.coefficients(), right.coefficients())))
        return self.scaled(float(other))

    __rmul__ = __mul__

    def coefficients(self) -> tuple:
        """(constant, coeff_nprop, coeff_nall)."""
        return self.constant, self.coeff_nprop, self.coeff_nall

    def row(self, k) -> "CounterPolynomial":
        """The polynomial, with float coefficients, at index k of a batch; a
        scalar coefficient holds for every point."""
        return CounterPolynomial(*(float(c[k] if isinstance(c, np.ndarray) else c)
                                   for c in self.coefficients()))

    def divergent_weight(self) -> float:
        """Slope of value_at(M) in 2M; zero means cutoff independent."""
        return self.coeff_nprop + self.coeff_nall

    @property
    def is_finite(self):
        """Whether the counters cancel: a bool, or a bool array over a batch."""
        # |weight| <= 1e-12 max(|coeff_nprop|, |coeff_nall|, 1e-300), bound by bound
        weight = abs(self.divergent_weight())
        return ((weight <= 1e-12 * abs(self.coeff_nprop)) | (weight <= 1e-12 * abs(self.coeff_nall))
                | (weight <= 1e-12 * 1e-300))

    def value_at(self, M: int) -> float:
        return self.constant + self.coeff_nprop * (2 * M) + self.coeff_nall * (2 * M + 1)

    def finite_value(self) -> float:
        """Limit value when the divergent weights cancel (N_all - N_prop = 1)."""
        finite = self.is_finite
        if not _all(finite):
            k = np.unravel_index(np.argmin(finite), np.shape(finite))
            raise ValueError(f"counter polynomial is divergent: {self.row(k)}")
        return self.constant + self.coeff_nall

    def as_dict(self) -> dict:
        return {"constant": self.constant, "coeff_nprop": self.coeff_nprop,
                "coeff_nall": self.coeff_nall}


@dataclass(frozen=True)
class PeriodicPropagator:
    """Thermal circle data: inverse temperature and Matsubara cutoff."""

    beta: float
    M: int

    def __post_init__(self):
        _check_beta(self.beta)
        if self.M < 1:
            raise ValueError(f"mode cutoff must be >= 1, got {self.M}")
        if not math.isfinite(2.0 * math.pi * self.M / self.beta):
            raise ValueError(f"omega_M = 2 pi M / beta overflows float64 at beta = {self.beta!r}, "
                             f"M = {self.M}")

    def omega(self, m) -> np.ndarray:
        return 2.0 * math.pi * np.asarray(m, dtype=float) / self.beta

    # closed forms ---------------------------------------------------------

    def _reduce(self, x) -> np.ndarray:
        return np.mod(np.asarray(x, dtype=float), self.beta)

    def green_closed(self, tau, taup=0.0) -> np.ndarray | float:
        x = self._reduce(np.asarray(tau) - np.asarray(taup))
        val = x * x / (2.0 * self.beta) - x / 2.0 + self.beta / 12.0
        return float(val) if np.ndim(val) == 0 else val

    # mode sums -------------------------------------------------------------

    def _inverse_squares(self) -> np.ndarray | None:
        """1 / omega_m^2, m = 1..M, or None where the last underflows (beta
        below about 1e-153 M) or their sum overflows (beta above about 6.6e154):
        the mode sums and the draw's spread then take scaled forms."""
        with np.errstate(over="ignore", divide="ignore"):
            inverse_square = 1.0 / self.omega(np.arange(1, self.M + 1)) ** 2
            total = np.sum(inverse_square)
        normal = inverse_square[-1] >= np.finfo(float).tiny and total <= np.finfo(float).max
        return inverse_square if normal else None

    def _mode_weights(self) -> tuple[float, np.ndarray]:
        """c and w_m, m = 1..M, with c w_m = (2 / beta) / omega_m^2: the mode
        sums are c sum_m f_m w_m. They are 2 / beta and 1 / omega_m^2, or
        the scaled form beta / (2 pi^2) and 1 / m^2 (see _inverse_squares)."""
        inverse_square = self._inverse_squares()
        if inverse_square is not None:
            return 2.0 / self.beta, inverse_square
        return self.beta / (2.0 * math.pi**2), 1.0 / np.arange(1.0, self.M + 1) ** 2

    def mode_sd(self) -> np.ndarray:
        """Spread of the real and the imaginary part of each mode m = 1..M under the
        free action, sqrt(1 / (2 beta omega_m^2)) or its scaled form sqrt(beta / 8) / (pi m)."""
        m = np.arange(1, self.M + 1)
        if self._inverse_squares() is None:
            return math.sqrt(self.beta / 8.0) / (math.pi * m)
        return np.sqrt(1.0 / (2.0 * self.beta * self.omega(m) ** 2))

    def green_modes(self, tau, taup=0.0):
        x = np.asarray(tau, dtype=float) - np.asarray(taup, dtype=float)
        m = np.arange(1, self.M + 1)
        om = self.omega(m)
        with np.errstate(over="ignore"):
            phases = np.multiply.outer(np.asarray(x, dtype=float), om)
        if not np.all(np.isfinite(phases)):
            raise ValueError(f"mode phase omega_m (tau - taup) overflows float64 at "
                             f"beta = {self.beta!r}, M = {self.M}")
        scale, weights = self._mode_weights()
        val = scale * np.tensordot(np.cos(phases), weights, axes=(-1, 0))
        return float(val) if np.ndim(val) == 0 else val

    def green0_truncated(self) -> float:
        """Equal-time value of the truncated mode sum, beta/12 - O(1/M)."""
        scale, weights = self._mode_weights()
        return float(scale * np.sum(weights))

    def pair_truncated(self) -> dict[tuple[int, int], float]:
        """pair_counters at the cutoff M, with the truncated green0 (no mixed
        pair enters a plan): the sharp table of every cutoff-M Wick sum."""
        return {(0, 0): self.green0_truncated(), (1, 1): 2 * self.M / self.beta}

    # the finite rule table ---------------------------------------------------

    def pair_counters(self) -> dict[tuple[int, int], CounterPolynomial]:
        """Coincidence value of a Wick pair, keyed by the derivative orders
        at its two ends: the exact beta/12, the vanishing mixed derivative,
        and the double derivative carrying its full mode count."""
        mixed = CounterPolynomial()
        return {
            (0, 0): CounterPolynomial(constant=self.beta / 12.0),
            (0, 1): mixed,
            (1, 0): mixed,
            (1, 1): CounterPolynomial(coeff_nprop=1.0 / self.beta),
        }

    def ode_residual(self, tau_grid: Sequence[float]) -> float:
        """max |(-G''_modes)(x) - (delta_M(x) - 1/beta)| away from coincidence.

        -G''_modes and the truncated completeness sum share their Fourier
        coefficients term by term, so the residual probes only rounding; the
        two sides are evaluated independently (open cosine sum against the
        closed Dirichlet ratio) in extended precision, since at M of a few
        hundred the accumulated phase error of double-precision trig already
        exceeds the advertised 1e-12. The grid must keep a margin of
        beta/(10 M) from the coincidence point.
        """
        grid = np.asarray(tau_grid, dtype=float)
        margin = self.beta / (10.0 * self.M)
        xr = self._reduce(grid)
        dist = np.minimum(xr, self.beta - xr)
        if np.any(dist < margin):
            raise ValueError("grid point too close to the coincidence point")
        ld = np.longdouble
        u = xr.astype(ld) / ld(self.beta)          # x/beta in [0, 1)
        m = np.arange(1, self.M + 1, dtype=ld)
        pi = ld("3.14159265358979323846264338328")
        phases = 2.0 * pi * np.mod(np.multiply.outer(u, m), ld(1.0))
        minus_ddG = (2.0 / ld(self.beta)) * np.cos(phases).sum(axis=-1)
        num = np.sin(pi * np.mod((2 * self.M + 1) * u, ld(2.0)))
        den = np.sin(pi * u)
        rhs = num / (ld(self.beta) * den) - 1.0 / ld(self.beta)
        return float(np.max(np.abs(minus_ddG - rhs)))


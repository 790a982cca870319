"""Ring of harmonically trapped charges: parameters, equilibrium, pair couplings.

The chain sits on a ring of unit lattice constant and is confined by an
axial trap frequency ``nu`` and a tunable transverse trap frequency ``nu_t``.
Above a critical ``nu_t`` the equilibrium is the flat ring (linear
configuration); below it the sites buckle alternately out of the plane by
``+-b/2`` (zigzag configuration). Interactions are the second-order expansion
of the Coulomb pair potential around the equilibrium, truncated at neighbour
distance ``tau_max``; ``tilde_frequencies`` sums them at each wave number,
for the spectrum of either configuration and the finite ring's critical trap.

Library units are those of the ring of mass m = 2, charge Q = 1 and lattice
constant a = 1: lengths in units of a, frequencies in units of
sqrt(2 Q^2 / (m a^3)), energies and temperatures in that frequency unit
(hbar = k_B = 1). In them the nearest-neighbour bulk transition sits at
``nu_t = 1``. Every result is a function of frequency ratios and T / omega,
so no raw mass, charge or spacing enters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._solvers import brentq
from .errors import ConfigError, NoConvergence

#: Relative residual demanded of the transverse force balance after solving.
EQUILIBRIUM_RTOL = 1e-12

# the largest n whose (2, n) float arrays NumPy can index
_N_MAX = np.iinfo(np.intp).max // (2 * np.dtype(float).itemsize)


class Variant(Enum):
    LINEAR = "linear"
    ZIGZAG = "zigzag"


@dataclass(frozen=True)
class LatticeParams:
    """Static parameters of the ring.

    Parameters
    ----------
    n : int
        Number of sites.
    nu : float
        Axial (in-plane) trap frequency in library units; positive and
        finite.
    tau_max : int, optional
        Neighbour cutoff, the one range input: 1 (the default) is the
        nearest-neighbour ring.
    """

    n: int
    nu: float
    tau_max: int = 1

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 3:
            raise ConfigError(f"n must be an integer >= 3, got {self.n!r}")
        if self.n > _N_MAX:
            raise ConfigError(f"n must be at most {_N_MAX}: a larger ring does not fit an array")
        # written so that a NaN fails it
        if not self.nu > 0:
            raise ConfigError("nu must be positive")
        if not math.isfinite(self.nu):
            raise ConfigError("nu must be finite")
        # a bool is an int, and would store a flag as the range
        if type(self.tau_max) is not int or self.tau_max < 1:
            raise ConfigError(f"tau_max must be a positive integer, got {self.tau_max!r}")
        # no wrap-around: each neighbour distance must be unambiguous on the ring
        if self.tau_max >= self.n / 2:
            raise ConfigError(
                f"tau_max must be < n/2 (got tau_max={self.tau_max}, n={self.n})"
            )
        # an integer would give integer NumPy accumulators downstream
        object.__setattr__(self, "nu", float(self.nu))


def _checked_temperatures(temperatures) -> tuple:
    """Any iterable of temperatures as a tuple, each non-negative and finite."""
    temperatures = tuple(temperatures)
    # written so that a NaN fails it
    if not all(0 <= t < math.inf for t in temperatures):
        raise ConfigError("temperature must be non-negative and finite")
    return temperatures


@dataclass(frozen=True)
class Configuration:
    """Equilibrium shape of the ring: flat, or buckled with displacement b."""

    variant: Variant
    b: float

    def __post_init__(self):
        if self.variant is Variant.LINEAR and self.b != 0.0:
            raise ConfigError("linear configuration must have b == 0")
        if self.variant is Variant.ZIGZAG and not self.b > 0.0:
            raise ConfigError("zigzag configuration must have b > 0")


@dataclass(frozen=True)
class CouplingCoefficients:
    """Second-order pair-coupling coefficients for tau = 1 .. tau_max.

    ``dxy`` stores magnitudes; the alternating site-parity sign of the
    cross coupling is applied where the coefficients are consumed.
    """

    tau: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dxy: np.ndarray


# A bulk sweep row asks for the bulk critical point about six times (row
# dispatch, each bulk average, the stand-in ring's equilibrium).
@functools.lru_cache(maxsize=64)
def _odd_inverse_cubes(tau_max: int) -> float:
    """sum over odd tau <= tau_max of 1 / tau^3."""
    return float(np.sum(1.0 / np.arange(1, tau_max + 1, 2).astype(float) ** 3))


def critical_potential(params: LatticeParams, td_limit: bool = False) -> float:
    """Transverse trap frequency at which the flat ring goes soft.

    With ``td_limit`` the bulk expression (odd-harmonic sum) is returned;
    otherwise the finite-ring value, i.e. the ``nu_t`` at which the softest
    transverse mode of the flat configuration reaches zero. For even ``n``
    the softest mode sits exactly at the zone edge and the two agree.
    """
    if td_limit:
        return math.sqrt(_odd_inverse_cubes(params.tau_max))
    # the flat ring's squared transverse frequencies at nu_t = 0 are minus
    # their softening, which is largest at the softest mode
    _, wy2, _ = tilde_frequencies(params, Configuration(Variant.LINEAR, 0.0), 0.0)
    return math.sqrt(-wy2.min())


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


# The root-find of an LR ring's buckling displacement asks for these squares
# at every step; the cached array is read-only because every caller gets the
# same one.
@functools.lru_cache(maxsize=64)
def _odd_squares(tau_max: int) -> np.ndarray:
    """tau^2 over odd tau <= tau_max."""
    return _read_only(np.arange(1, tau_max + 1, 2, dtype=float) ** 2)


def _force_balance(params: LatticeParams, nu_t: float, b: float) -> float:
    """nu_t^2 - sum_{tau odd} (tau^2 + b^2)^(-3/2), the transverse force
    balance at displacement b; zero at equilibrium."""
    pull = float(np.sum((_odd_squares(params.tau_max) + b**2) ** -1.5))
    return nu_t**2 - pull


def equilibrium_residual(params: LatticeParams, nu_t: float, b: float) -> float:
    """Relative residual of the transverse force balance at displacement b."""
    return abs(_force_balance(params, nu_t, b)) / nu_t**2


def solve_equilibrium(params: LatticeParams, nu_t: float) -> Configuration:
    """Equilibrium configuration of the ring at transverse trap ``nu_t``.

    At or above the critical trap frequency the flat ring is returned.
    Below it the transverse displacement solves the force balance

        nu_t^2 = sum_{tau odd} (tau^2 + b^2)^(-3/2)

    to a relative residual of ``EQUILIBRIUM_RTOL``: in closed form at
    ``tau_max == 1``, by Brent's method otherwise. The buckled pattern
    needs alternating site parity, so even ``n`` is required there.

    Raises
    ------
    ConfigError
        If ``nu_t`` is not positive, or ``n`` is odd in the buckled regime.
    NoConvergence
        If the root-find does not converge or its root misses the
        residual target.
    """
    if not nu_t > 0:
        raise ConfigError("nu_t must be positive")
    if nu_t >= critical_potential(params, td_limit=True):
        return Configuration(Variant.LINEAR, 0.0)
    if params.n % 2:
        raise ConfigError(
            f"zigzag configuration requires even n (got n={params.n})"
        )

    if params.tau_max == 1:
        b = math.sqrt((1.0 / nu_t**2) ** (2 / 3) - 1.0)
    else:
        balance = functools.partial(_force_balance, params, nu_t)
        hi = 10.0
        while balance(hi) < 0:
            hi *= 2.0
            if hi > 1e9:
                raise NoConvergence("could not bracket the buckling displacement")
        try:
            b = brentq(balance, 0.0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
        except RuntimeError as exc:
            raise NoConvergence(f"buckling displacement: {exc}") from None

    res = equilibrium_residual(params, nu_t, b)
    if not res <= EQUILIBRIUM_RTOL:
        raise NoConvergence(
            f"force balance residual {res:.3e} above {EQUILIBRIUM_RTOL:.0e}"
        )
    return Configuration(Variant.ZIGZAG, float(b))


def taylor_coefficients(params: LatticeParams, config: Configuration) -> CouplingCoefficients:
    """Second-order expansion coefficients of the pair potential.

    For each neighbour distance tau the pair energy (1/2) [ dx (x_j - x_k)^2
    + dy (y_j - y_k)^2 +- dxy (x_j - x_k)(y_j - y_k) ] uses half the Hessian
    of 1/r at the equilibrium separation. In the flat configuration
    dx = 1/tau^3, dy = -dx/2 and the cross term vanishes. In the buckled
    configuration odd-tau pairs sit at transverse offset b.
    """
    taus = np.arange(1, params.tau_max + 1, dtype=float)
    b = config.b
    dx = 1.0 / taus**3
    dy = -0.5 * dx
    dxy = np.zeros_like(taus)
    if config.variant is Variant.ZIGZAG:
        odd = (np.arange(1, params.tau_max + 1) % 2) == 1
        rho5 = (taus[odd] ** 2 + b**2) ** 2.5
        dx[odd] = (2 * taus[odd] ** 2 - b**2) / (2 * rho5)
        dy[odd] = (2 * b**2 - taus[odd] ** 2) / (2 * rho5)
        dxy[odd] = 3 * taus[odd] * b / (2 * rho5)
    return CouplingCoefficients(
        tau=np.arange(1, params.tau_max + 1), dx=dx, dy=dy, dxy=dxy
    )


# A ring's trig tables depend on its size and a site distance only, so every
# nu_t and temperature shares them, read-only. tilde_frequencies reads them
# at the neighbour distances, the covariance mode sums at site distances of
# either sign. Doubling the phase is exact.
def _phases(n: int, tau: int) -> np.ndarray:
    """pi l tau / n for l = 1 .. n: the one source of the mode phase."""
    return np.pi * np.arange(1, n + 1, dtype=float) * tau / n


@functools.lru_cache(maxsize=128)
def _sin2_table(n: int, tau: int) -> np.ndarray:
    return _read_only(np.sin(_phases(n, tau)) ** 2)


@functools.lru_cache(maxsize=128)
def _cos_double_table(n: int, tau: int) -> np.ndarray:
    return _read_only(np.cos(2.0 * _phases(n, tau)))


@functools.lru_cache(maxsize=128)
def _sin_double_table(n: int, tau: int) -> np.ndarray:
    return _read_only(np.sin(2.0 * _phases(n, tau)))


@functools.lru_cache(maxsize=128)
def _cos2_table(n: int, tau: int) -> np.ndarray:
    return _read_only(np.cos(_phases(n, tau)) ** 2)


def tilde_frequencies(
    params: LatticeParams, config: Configuration, nu_t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block squared frequencies and cross coupling in the buckled frame.

    Returns arrays ``(wx2, wy2, wxy)`` over l = 1 .. n:

        wx2_l = nu^2   + 2 sum_tau dx_tau sin^2(pi l tau / n)
        wy2_l = nu_t^2 + 2 [even-tau dy sin^2 + odd-tau dy cos^2]
        wxy_l = (1/2) sum_{tau odd} dxy_tau sin(2 pi l tau / n)

    The transverse transform carries a half-zone shift that absorbs the
    alternating sign of the buckled pattern, hence the cos^2 weights of the
    odd-distance transverse couplings there. In the flat configuration
    every weight is sin^2 and the cross coupling vanishes: wx2 and wy2 are
    the squared axial and transverse dispersion at the same l, the one
    source of the flat spectrum and of the finite ring's critical trap.
    """
    coeff = taylor_coefficients(params, config)
    wx2 = np.full(params.n, params.nu**2)
    wy2 = np.full(params.n, nu_t**2)
    wxy = np.zeros(params.n)
    for i, tau in enumerate(coeff.tau.tolist()):
        sin2 = _sin2_table(params.n, tau)
        wx2 += 2.0 * coeff.dx[i] * sin2
        if config.variant is Variant.ZIGZAG and tau % 2 == 1:
            wy2 += 2.0 * coeff.dy[i] * _cos2_table(params.n, tau)
            wxy += 0.5 * coeff.dxy[i] * _sin_double_table(params.n, tau)
        else:
            wy2 += 2.0 * coeff.dy[i] * sin2
    return wx2, wy2, wxy

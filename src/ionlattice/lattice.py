"""Ring of harmonically trapped charges: parameters, equilibrium, pair couplings.

The chain sits on a ring with lattice constant ``a`` and is confined by an
axial trap frequency ``nu`` and a tunable transverse trap frequency ``nu_t``.
Above a critical ``nu_t`` the equilibrium is the flat ring (linear
configuration); below it the sites buckle alternately out of the plane by
``+-b/2`` (zigzag configuration). Interactions are the second-order expansion
of the Coulomb pair potential around the equilibrium, truncated at neighbour
distance ``tau_max``.

hbar and k_B are 1 throughout; mass, charge and length are raw model units.
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


class Model(Enum):
    """Interaction range: nearest neighbour only, or long range (truncated)."""

    NN = "nn"
    LR = "lr"


class Variant(Enum):
    LINEAR = "linear"
    ZIGZAG = "zigzag"


_DEFAULT_TAU_MAX = {Model.NN: 1, Model.LR: 4}


@dataclass(frozen=True)
class LatticeParams:
    """Static parameters of the ring.

    Parameters
    ----------
    n : int
        Number of sites.
    mass, charge, spacing : float
        Particle mass, charge and lattice constant. ``charge`` may be zero
        (free oscillators); the others must be positive.
    nu : float
        Axial (in-plane) trap frequency.
    model : Model
        Interaction range. ``Model.NN`` forces ``tau_max == 1``.
    tau_max : int, optional
        Neighbour cutoff. Defaults to 1 for NN and 4 for LR.
    """

    n: int
    mass: float
    charge: float
    spacing: float
    nu: float
    model: Model = Model.NN
    tau_max: int | None = None

    def __post_init__(self):
        if self.tau_max is None:
            object.__setattr__(self, "tau_max", _DEFAULT_TAU_MAX[self.model])
        if not isinstance(self.n, int) or self.n < 3:
            raise ConfigError(f"n must be an integer >= 3, got {self.n!r}")
        if self.mass <= 0 or self.spacing <= 0 or self.nu <= 0:
            raise ConfigError("mass, spacing and nu must be positive")
        if self.charge < 0:
            raise ConfigError("charge must be non-negative")
        if not isinstance(self.tau_max, int) or self.tau_max < 1:
            raise ConfigError(f"tau_max must be a positive integer, got {self.tau_max!r}")
        if self.model is Model.NN and self.tau_max != 1:
            raise ConfigError("nearest-neighbour model requires tau_max == 1")
        # no wrap-around: each neighbour distance must be unambiguous on the ring
        if self.tau_max >= self.n / 2:
            raise ConfigError(
                f"tau_max must be < n/2 (got tau_max={self.tau_max}, n={self.n})"
            )

    @property
    def coulomb_constant(self) -> float:
        """Coupling scale C = 4 Q^2 / (m a^3)."""
        return 4.0 * self.charge**2 / (self.mass * self.spacing**3)

    @property
    def omega0_sq(self) -> float:
        """Squared frequency unit Q^2 / (m a^3)."""
        return self.charge**2 / (self.mass * self.spacing**3)

    @property
    def nu_t_unit(self) -> float:
        """Frequency unit sqrt(Q^2 / (m a^3)) used for dimensionless reporting."""
        return math.sqrt(self.omega0_sq)

    @property
    def temperature_unit(self) -> float:
        """Temperature unit: half the frequency unit."""
        return 0.5 * self.nu_t_unit


@dataclass(frozen=True)
class Configuration:
    """Equilibrium shape of the ring: flat, or buckled with displacement b."""

    variant: Variant
    b: float

    def __post_init__(self):
        if self.variant is Variant.LINEAR and self.b != 0.0:
            raise ConfigError("linear configuration must have b == 0")
        if self.variant is Variant.ZIGZAG and self.b <= 0.0:
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


def _odd_taus(params: LatticeParams) -> np.ndarray:
    return np.arange(1, params.tau_max + 1, 2)


# A bulk sweep row asks for the bulk critical point about six times (row
# dispatch, each bulk average, the stand-in ring's equilibrium).
@functools.lru_cache(maxsize=64)
def _odd_inverse_cubes(tau_max: int) -> float:
    """sum over odd tau <= tau_max of 1 / tau^3."""
    return float(np.sum(1.0 / np.arange(1, tau_max + 1, 2).astype(float) ** 3))


def _softening(params: LatticeParams, ls: np.ndarray) -> np.ndarray:
    """sum_{tau=1}^{tau_max} sin^2(pi l tau / n) / tau^3 at each wave number
    l of ``ls``; the flat ring's squared axial dispersion is nu^2 + C times
    this sum."""
    taus = np.arange(1, params.tau_max + 1, dtype=float)
    return (np.sin(np.pi * np.outer(ls, taus) / params.n) ** 2 / taus**3).sum(axis=1)


def critical_potential(params: LatticeParams, td_limit: bool = False) -> float:
    """Transverse trap frequency at which the flat ring goes soft.

    With ``td_limit`` the bulk expression (odd-harmonic sum) is returned;
    otherwise the finite-ring value, i.e. the ``nu_t`` at which the softest
    transverse mode of the flat configuration reaches zero. For even ``n``
    the softest mode sits exactly at the zone edge and the two agree.
    """
    c_half = 0.5 * params.coulomb_constant
    if td_limit:
        return math.sqrt(c_half * _odd_inverse_cubes(params.tau_max))
    softening = _softening(params, np.arange(1, params.n + 1, dtype=float))
    return math.sqrt(c_half * float(softening.max()))


def equilibrium_residual(params: LatticeParams, nu_t: float, b: float) -> float:
    """Relative residual of the transverse force balance at displacement b."""
    lhs = 0.5 * params.mass * nu_t**2
    taus = _odd_taus(params).astype(float)
    rhs = params.charge**2 * float(np.sum(((taus * params.spacing) ** 2 + b**2) ** -1.5))
    return abs(lhs - rhs) / lhs


def solve_equilibrium(params: LatticeParams, nu_t: float) -> Configuration:
    """Equilibrium configuration of the ring at transverse trap ``nu_t``.

    At or above the critical trap frequency the flat ring is returned.
    Below it the transverse displacement solves the force balance

        m nu_t^2 / 2 = Q^2 sum_{tau odd} ((tau a)^2 + b^2)^(-3/2)

    to a relative residual of ``EQUILIBRIUM_RTOL``. The buckled pattern
    needs alternating site parity, so even ``n`` is required there.

    Raises
    ------
    ConfigError
        If ``nu_t`` is not positive, or ``n`` is odd in the buckled regime.
    NoConvergence
        If the root does not meet the residual target.
    """
    if nu_t <= 0:
        raise ConfigError("nu_t must be positive")
    if nu_t >= critical_potential(params, td_limit=True) or params.charge == 0:
        return Configuration(Variant.LINEAR, 0.0)
    if params.n % 2:
        raise ConfigError(
            f"zigzag configuration requires even n (got n={params.n})"
        )

    m, q, a = params.mass, params.charge, params.spacing
    if params.model is Model.NN:
        b = math.sqrt((2 * q**2 / (m * nu_t**2)) ** (2 / 3) - a**2)
    else:
        taus = _odd_taus(params).astype(float)

        def balance(b):
            return 0.5 * m * nu_t**2 - q**2 * np.sum(((taus * a) ** 2 + b**2) ** -1.5)

        hi = 10.0 * a
        while balance(hi) < 0:
            hi *= 2.0
            if hi > 1e9 * a:
                raise NoConvergence("could not bracket the buckling displacement")
        b = brentq(balance, 0.0, hi, xtol=1e-300, rtol=8.9e-16)

    res = equilibrium_residual(params, nu_t, b)
    if res > EQUILIBRIUM_RTOL:
        raise NoConvergence(
            f"force balance residual {res:.3e} above {EQUILIBRIUM_RTOL:.0e}"
        )
    return Configuration(Variant.ZIGZAG, float(b))


def taylor_coefficients(params: LatticeParams, config: Configuration) -> CouplingCoefficients:
    """Second-order expansion coefficients of the pair potential.

    For each neighbour distance tau the pair energy (Q^2/2) [ dx (x_j - x_k)^2
    + dy (y_j - y_k)^2 +- dxy (x_j - x_k)(y_j - y_k) ] uses half the Hessian
    of 1/r at the equilibrium separation. In the flat configuration
    dx = 1/(a tau)^3, dy = -dx/2 and the cross term vanishes. In the buckled
    configuration odd-tau pairs sit at transverse offset b.
    """
    taus = np.arange(1, params.tau_max + 1, dtype=float)
    a, b = params.spacing, config.b
    dx = 1.0 / (a * taus) ** 3
    dy = -0.5 * dx
    dxy = np.zeros_like(taus)
    if config.variant is Variant.ZIGZAG:
        odd = (np.arange(1, params.tau_max + 1) % 2) == 1
        rho5 = ((taus[odd] * a) ** 2 + b**2) ** 2.5
        dx[odd] = (2 * (taus[odd] * a) ** 2 - b**2) / (2 * rho5)
        dy[odd] = (2 * b**2 - (taus[odd] * a) ** 2) / (2 * rho5)
        dxy[odd] = 3 * taus[odd] * a * b / (2 * rho5)
    return CouplingCoefficients(
        tau=np.arange(1, params.tau_max + 1), dx=dx, dy=dy, dxy=dxy
    )

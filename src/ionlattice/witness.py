"""Energy-based entanglement witness.

A separable state of the ring cannot have internal energy below a bound
built from effective single-site frequencies; measuring U below it
certifies entanglement somewhere in the chain. The bound used here is

    E_bound = (N / 2) (Omega_x + Omega_y),

with Omega_u^2 = nu_u^2 + 2 sum_{tau>0} d^u_tau the trap frequency
dressed by the full coupling row (library units, see
:mod:`ionlattice.lattice`). The x-y cross coupling of the
buckled phase alternates with the site parity over odd tau, so on every
site its two neighbour terms cancel and it adds nothing to the bound.

U(T) sums omega (1 / expm1(omega / T) + 1/2) over the positive modes in
one pass, and T over the zero modes, left to right in mode order; past
omega / T of about 37 a term is omega / 2 exactly, so no cut-off is needed.
The crossing temperature Tc is a root-find on U(T) minus the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._solvers import brentq
from .errors import DomainError, NoConvergence
from .lattice import (
    Configuration,
    LatticeParams,
    _checked_temperatures,
    solve_equilibrium,
    taylor_coefficients,
)
from .spectrum import ModeSpectrum, build_spectrum

#: absolute tolerance of the crossing temperature Tc, in library units
TC_XTOL = 2e-12


def effective_frequencies(
    params: LatticeParams, nu_t: float, config: Configuration | None = None
) -> tuple[float, float]:
    """Coupling-dressed single-site frequencies (Omega_x, Omega_y)."""
    if config is None:
        config = solve_equilibrium(params, nu_t)
    coeff = taylor_coefficients(params, config)
    wx2 = params.nu**2 + 2.0 * float(np.sum(coeff.dx))
    wy2 = nu_t**2 + 2.0 * float(np.sum(coeff.dy))
    for name, val in (("x", wx2), ("y", wy2)):
        if val < 0.0:
            raise DomainError(
                f"effective {name} frequency squared negative ({val:.6g})"
            )
    return math.sqrt(wx2), math.sqrt(wy2)


def _bound(n: int, omega_x: float, omega_y: float) -> float:
    """E_bound = (N / 2) (Omega_x + Omega_y) of the module docstring."""
    return 0.5 * n * (omega_x + omega_y)


class _Energy:
    """U(T) of the modes ``omega`` (a flat array), summed left to right in
    mode order as a scalar loop over the modes would. No temperature is
    evaluated twice.

    At T > 0 every positive mode carries omega (1 / expm1(omega / T) + 1/2),
    in one pass over them. Past omega / T of about 37 the Bose term is below
    half an ulp of 1/2, so the mode carries omega / 2 exactly; that holds
    also where expm1 overflows to inf, past about 709.8.
    """

    def __init__(self, omega: np.ndarray):
        self._positive = omega > 0.0
        # only a critical point has modes that are not positive
        self._all_positive = bool(self._positive.all())
        self._warm = omega if self._all_positive else omega[self._positive]
        self._memo = {}

    def __call__(self, temperature: float) -> float:
        key = float(temperature).hex()  # the exact bits: -0.0 is not 0.0
        if key not in self._memo:
            self._memo[key] = self._evaluate(temperature)
        return self._memo[key]

    def _evaluate(self, temperature: float) -> float:
        warm = self._warm
        if temperature > 0.0:
            # inf at a subnormal T or past the range of expm1: the cold limit
            with np.errstate(over="ignore"):
                bose = np.expm1(warm / temperature)
            terms = warm * (1.0 / bose + 0.5)
        else:
            terms = 0.5 * warm
        if not self._all_positive:
            # a zero mode takes the equipartition kinetic share T only
            warm_terms, terms = terms, np.full(self._positive.shape, temperature, dtype=float)
            terms[self._positive] = warm_terms
        return float(np.add.accumulate(terms)[-1])


def internal_energy(params: LatticeParams, nu_t: float, temperature: float) -> float:
    """Thermal internal energy U(T) summed over all normal modes."""
    _checked_temperatures((temperature,))
    return _Energy(build_spectrum(params, nu_t).omega.ravel())(temperature)


def separability_bound(params: LatticeParams, nu_t: float) -> float:
    """Energy threshold below which no separable state exists."""
    return _bound(params.n, *effective_frequencies(params, nu_t))


def critical_temperature(params: LatticeParams, nu_t: float) -> float | None:
    """Temperature where U(T) crosses the separability bound.

    Returns None when even the ground state sits above the bound, so the
    witness never triggers.
    """
    return witness_report(params, nu_t, 0.0).critical_temperature


def _crossing(params: LatticeParams, nu_t: float, energy: _Energy, bound: float):
    """The temperature where ``energy`` crosses ``bound``, or None."""
    if energy(0.0) >= bound:
        return None

    def gap(t):
        return energy(t) - bound

    hi = max(params.nu, nu_t)
    for _ in range(200):
        if gap(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise DomainError("no bound crossing found below an extreme temperature")
    try:
        return float(brentq(gap, 0.0, hi, xtol=TC_XTOL, rtol=1e-10))
    except RuntimeError as exc:
        raise NoConvergence(f"crossing temperature: {exc}") from None


@dataclass(frozen=True)
class WitnessReport:
    """Witness summary at one working point."""

    omega_x: float
    omega_y: float
    bound: float
    internal_energy: float
    critical_temperature: float | None


def witness_report(params: LatticeParams, nu_t: float, temperature: float) -> WitnessReport:
    """Evaluate the witness at one (nu_t, T) point."""
    return witness_reports(build_spectrum(params, nu_t), (temperature,))[0]


def witness_reports(spec: ModeSpectrum, temperatures) -> list[WitnessReport]:
    """The witness at every temperature of one mode spectrum; the bound and
    the crossing temperature do not depend on T and are evaluated once."""
    temperatures = _checked_temperatures(temperatures)
    params = spec.params
    wx, wy = effective_frequencies(params, spec.nu_t, spec.config)
    bound = _bound(params.n, wx, wy)
    energy = _Energy(spec.omega.ravel())
    tc = _crossing(params, spec.nu_t, energy, bound)
    return [WitnessReport(wx, wy, bound, energy(t), tc) for t in temperatures]

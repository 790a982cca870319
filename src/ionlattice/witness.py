"""Energy-based entanglement witness.

A separable state of the ring cannot have internal energy below a bound
built from effective single-site frequencies; measuring U below it
certifies entanglement somewhere in the chain. The bound used here is

    E_bound = (N / 2) (Omega_x + Omega_y + Omega_xy),

with Omega_u^2 = nu_u^2 + (4 Q^2 / m) sum_{tau>0} d^u_tau the trap
frequency dressed by the full coupling row. The cross coupling enters
either with its alternating signs (where it cancels exactly by the
antisymmetry of the odd-tau row) or by absolute value; both readings are
provided since they bracket the possible single-site reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._solvers import brentq
from .covariance import WorkingPoint, working_point
from .errors import ConfigError, DomainError
from .lattice import Configuration, LatticeParams, Variant, solve_equilibrium, taylor_coefficients
from .spectrum import build_spectrum

_XY_MODES = ("signed", "absolute")

#: beyond this omega / T the Bose occupation 1 / expm1(omega / T) is far below
#: one ulp of 1/2, so a mode carries exactly omega / 2; expm1 itself overflows
#: past about 709.8
_BOSE_NEGLIGIBLE = 700.0


def effective_frequencies(
    params: LatticeParams,
    nu_t: float,
    config: Configuration | None = None,
    xy_mode: str = "signed",
) -> tuple[float, float, float]:
    """Coupling-dressed single-site frequencies (Omega_x, Omega_y, Omega_xy).

    ``xy_mode`` picks how the alternating cross row is collapsed: "signed"
    sums it as-is (zero, the signs cancel pairwise around the ring) while
    "absolute" sums magnitudes.
    """
    if xy_mode not in _XY_MODES:
        raise ConfigError(f"xy_mode must be one of {_XY_MODES}, got {xy_mode!r}")
    if config is None:
        config = solve_equilibrium(params, nu_t)
    coeff = taylor_coefficients(params, config)
    pref = 4.0 * params.charge**2 / params.mass
    wx2 = params.nu**2 + pref * float(np.sum(coeff.dx))
    wy2 = nu_t**2 + pref * float(np.sum(coeff.dy))
    for name, val in (("x", wx2), ("y", wy2)):
        if val < 0.0:
            raise DomainError(
                f"effective {name} frequency squared negative ({val:.6g})"
            )
    if xy_mode == "signed" or config.variant is Variant.LINEAR:
        wxy = 0.0
    else:
        wxy = pref * float(np.sum(np.abs(coeff.dxy)))
    return math.sqrt(wx2), math.sqrt(wy2), wxy


def _energy(omega: np.ndarray, temperature: float) -> float:
    """U(T) of the modes ``omega`` (a flat array), summed left to right as
    a scalar loop over the modes would, so U and the Tc found from it do
    not move in the last bit."""
    # zero mode: equipartition kinetic share T only
    terms = np.where(omega > 0.0, 0.5 * omega, temperature)
    if temperature > 0.0:
        x = omega / temperature
        warm = (omega > 0.0) & (x <= _BOSE_NEGLIGIBLE)
        # math.expm1, not np.expm1: the vector kernel may differ in the last bit
        bose = 1.0 / np.fromiter(map(math.expm1, x[warm].tolist()), float)
        terms[warm] = omega[warm] * (bose + 0.5)
    return float(np.add.accumulate(terms)[-1])


def internal_energy(params: LatticeParams, nu_t: float, temperature: float) -> float:
    """Thermal internal energy U(T) summed over all normal modes."""
    if temperature < 0:
        raise ConfigError("temperature must be non-negative")
    return _energy(build_spectrum(params, nu_t).omega.ravel(), temperature)


def separability_bound(
    params: LatticeParams, nu_t: float, xy_mode: str = "signed"
) -> float:
    """Energy threshold below which no separable state exists."""
    wx, wy, wxy = effective_frequencies(params, nu_t, xy_mode=xy_mode)
    return 0.5 * params.n * (wx + wy + wxy)


def critical_temperature(
    params: LatticeParams, nu_t: float, xy_mode: str = "signed"
) -> float | None:
    """Temperature where U(T) crosses the separability bound.

    Returns None when even the ground state sits above the bound, so the
    witness never triggers.
    """
    [report] = witness_reports(working_point(params, nu_t), (0.0,), xy_mode)
    return report.critical_temperature


def _crossing(params: LatticeParams, nu_t: float, omega: np.ndarray, bound: float):
    """Tc of the modes ``omega`` against ``bound``, or None."""
    if _energy(omega, 0.0) >= bound:
        return None

    def gap(t):
        return _energy(omega, t) - bound

    hi = max(params.nu, nu_t)
    for _ in range(200):
        if gap(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise DomainError("no bound crossing found below an extreme temperature")
    return float(brentq(gap, 0.0, hi, rtol=1e-10))


@dataclass(frozen=True)
class WitnessReport:
    """Witness summary at one working point."""

    omega_x: float
    omega_y: float
    omega_xy: float
    bound: float
    internal_energy: float
    critical_temperature: float | None
    xy_mode: str
    triggered: bool


def witness_report(
    params: LatticeParams, nu_t: float, temperature: float, xy_mode: str = "signed"
) -> WitnessReport:
    """Evaluate the witness at one (nu_t, T) point."""
    return witness_reports(working_point(params, nu_t), (temperature,), xy_mode)[0]


def witness_reports(
    point: WorkingPoint, temperatures, xy_mode: str = "signed"
) -> list[WitnessReport]:
    """The witness at every temperature of one working point; the bound and
    the crossing temperature do not depend on T and are evaluated once."""
    if any(t < 0 for t in temperatures):
        raise ConfigError("temperature must be non-negative")
    params = point.params
    wx, wy, wxy = effective_frequencies(params, point.nu_t, point.config, xy_mode)
    bound = 0.5 * params.n * (wx + wy + wxy)
    omega = point.spectrum.omega.ravel()
    tc = _crossing(params, point.nu_t, omega, bound)
    reports = []
    for t in temperatures:
        u = _energy(omega, t)
        reports.append(
            WitnessReport(
                omega_x=wx,
                omega_y=wy,
                omega_xy=wxy,
                bound=bound,
                internal_energy=u,
                critical_temperature=tc,
                xy_mode=xy_mode,
                triggered=bool(u < bound),
            )
        )
    return reports

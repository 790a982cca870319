"""Normal modes of the ring in both configurations.

Translation invariance reduces the quadratic Hamiltonian to independent
wave-number blocks l = 1 .. n. In the flat configuration the axial and
transverse branches decouple and the dispersion is analytic. In the buckled
configuration the two directions mix within each block: ``build_spectrum``
gives every block's normal frequencies and mixing weights in closed form,
and ``symplectic_diagonalize`` brings one block to normal form with
``np.linalg.eigh`` as the independent oracle for them.

The transverse Fourier transform carries a half-zone shift that absorbs the
alternating sign of the buckled pattern; its trace is that odd-distance
transverse couplings enter with cos^2 weights where all other terms carry
sin^2, and that the transverse branch of the flat ring maps onto the buckled
labels as l -> l + n/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ImaginaryFrequency, NumericalFailure
from .lattice import (
    Configuration,
    CouplingCoefficients,
    LatticeParams,
    Variant,
    _softening,
    solve_equilibrium,
    taylor_coefficients,
)

#: Squared frequencies more negative than this raise; values in [-tol, 0) clamp to 0.
RADICAND_TOL = 1e-12

#: Couplings below this fraction of the squared frequency unit Q^2/(m a^3)
#: leave a block of ``build_spectrum`` unmixed (1e-14 at m = 2, Q = a = 1).
COUPLING_TOL = 2e-14


def symplectic_form(k: int) -> np.ndarray:
    """Symplectic form of k modes with interleaved quadratures (q1, p1, q2, p2, ...)."""
    omega = np.zeros((2 * k, 2 * k))
    i = np.arange(k)
    omega[2 * i, 2 * i + 1] = 1.0
    omega[2 * i + 1, 2 * i] = -1.0
    return omega


def _sqrt_radicand(w2, branch: str):
    """Square root with the clamp window; raises on a radicand below it and
    on a non-finite one (an overflow in the raw units). An array is indexed
    by l = 1 .. n, and the error lists the offending wave numbers; a scalar
    (one block of the oracle) has none to give."""
    w2 = np.asarray(w2, dtype=float)

    def at(mask) -> tuple:
        if w2.ndim == 0:
            return "", None
        ls = (np.flatnonzero(mask) + 1).tolist()
        return f" at l={ls}", ls

    finite = np.isfinite(w2)
    if not finite.all():
        raise NumericalFailure(f"{branch} branch: squared frequency not finite{at(~finite)[0]}")
    bad = w2 < -RADICAND_TOL
    if bad.any():
        where, ls = at(bad)
        raise ImaginaryFrequency(
            f"{branch} branch unstable: squared frequency negative{where}", modes=ls
        )
    return np.sqrt(np.where(w2 < 0.0, 0.0, w2))


def linear_dispersion(params: LatticeParams, nu_t: float):
    """Axial and transverse mode frequencies of the flat ring, as arrays
    over l = 1 .. n. The axial branch does not depend on ``nu_t``."""
    c = params.coulomb_constant
    softening = _softening(params, np.arange(1, params.n + 1, dtype=float))
    wx = _sqrt_radicand(params.nu**2 + c * softening, "axial")
    wy = _sqrt_radicand(nu_t**2 - 0.5 * c * softening, "transverse")
    return wx, wy


def tilde_frequencies(
    params: LatticeParams, config: Configuration, nu_t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block squared frequencies and cross coupling in the buckled frame.

    Returns arrays ``(wx2, wy2, wxy)`` over l = 1 .. n:

        wx2_l = nu^2   + (4 Q^2/m) sum_tau dx_tau sin^2(pi l tau / n)
        wy2_l = nu_t^2 + (4 Q^2/m) [even-tau dy sin^2 + odd-tau dy cos^2]
        wxy_l = (Q^2/m) sum_{tau odd} dxy_tau sin(2 pi l tau / n)

    In the flat configuration only the cross coupling wxy vanishes; wx2 and
    wy2 are the squares of ``linear_dispersion``'s branches at the same l.
    """
    coeff: CouplingCoefficients = taylor_coefficients(params, config)
    pref = 4.0 * params.charge**2 / params.mass
    ls = np.arange(1, params.n + 1, dtype=float)
    wx2 = np.full(params.n, params.nu**2)
    wy2 = np.full(params.n, nu_t**2)
    wxy = np.zeros(params.n)
    for i, tau in enumerate(coeff.tau):
        phase = np.pi * ls * tau / params.n
        wx2 += pref * coeff.dx[i] * np.sin(phase) ** 2
        if config.variant is Variant.ZIGZAG and tau % 2 == 1:
            wy2 += pref * coeff.dy[i] * np.cos(phase) ** 2
            wxy += (pref / 4.0) * coeff.dxy[i] * np.sin(2.0 * phase)
        else:
            wy2 += pref * coeff.dy[i] * np.sin(phase) ** 2
    return wx2, wy2, wxy


def coupling_matrix(
    params: LatticeParams, config: Configuration, nu_t: float, l: int
) -> np.ndarray:
    """4x4 quadratic-form block for wave number ``l``, ordered (X, Px, Y, Py)."""
    if not 1 <= l <= params.n:
        raise ConfigError(f"l must be in 1..{params.n}, got {l}")
    wx2, wy2, wxy = tilde_frequencies(params, config, nu_t)
    m = params.mass
    i = l - 1
    return np.array(
        [
            [0.5 * m * wx2[i], 0.0, 0.5 * m * wxy[i], 0.0],
            [0.0, 0.5 / m, 0.0, 0.0],
            [0.5 * m * wxy[i], 0.0, 0.5 * m * wy2[i], 0.0],
            [0.0, 0.0, 0.0, 0.5 / m],
        ]
    )


def symplectic_diagonalize(block: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Normal-form frequencies and symplectic congruence of one 4x4 block.

    Returns ``(wv, ww, S)`` with ``wv >= ww`` such that
    ``S @ block @ S.T = diag(wv/2, wv/2, ww/2, ww/2)`` and
    ``S @ J @ S.T = J`` for ``J = symplectic_form(2)``. The rotation is the
    eigenvector matrix of the 2x2 squared-frequency matrix from
    ``np.linalg.eigh``; any orthogonal one makes ``S`` symplectic. The
    normal-mode quadratures are obtained from the block quadratures via
    ``S^-T``.
    """
    block = np.asarray(block, dtype=float)
    if block.shape != (4, 4) or not np.allclose(block, block.T, atol=1e-12):
        raise ConfigError("expected a symmetric 4x4 block")
    m = 0.5 / block[1, 1]
    w2, vectors = np.linalg.eigh(2.0 * block[::2, ::2] / m)
    wv = float(_sqrt_radicand(w2[1], "upper normal"))
    ww = float(_sqrt_radicand(w2[0], "lower normal"))
    if ww <= 0.0:
        raise DomainError("zero-frequency mode admits no normal-form scaling")

    S = np.zeros((4, 4))
    for row, w, vector in ((0, wv, vectors[:, 1]), (2, ww, vectors[:, 0])):
        r = np.sqrt(m * w)
        S[row, ::2] = vector / r
        S[row + 1, 1::2] = vector * r
    return wv, ww, S


@dataclass(frozen=True)
class ModeSpectrum:
    """Full normal-mode spectrum at a given transverse trap frequency.

    ``omega`` has shape (2, n): per wave number l = 1 .. n, the frequencies
    of the two branches. ``c2``/``s2``/``cs`` are the squared cosine,
    squared sine and cosine*sine of the per-block mixing angle; site
    x-moments weight branch 0 by ``c2`` and branch 1 by ``s2``, y-moments
    the other way round. Buckled configuration: branch 0 is the upper and
    branch 1 the lower normal branch. Flat configuration: branch 0 is the
    axial and branch 1 the transverse dispersion, unmixed (weights exactly
    1, 0, 0) and indexed without the half-zone shift.
    """

    params: LatticeParams
    nu_t: float
    config: Configuration
    omega: np.ndarray
    c2: np.ndarray
    s2: np.ndarray
    cs: np.ndarray

    @property
    def variant(self) -> Variant:
        return self.config.variant


def build_spectrum(
    params: LatticeParams, nu_t: float, config: Configuration | None = None
) -> ModeSpectrum:
    """Assemble the full mode spectrum at ``nu_t``, solving the equilibrium
    unless ``config`` (the one at this ``nu_t``) is given."""
    if config is None:
        config = solve_equilibrium(params, nu_t)
    if config.variant is Variant.LINEAR:
        zeros = np.zeros(params.n)
        omega = np.array(linear_dispersion(params, nu_t))
        return ModeSpectrum(params, nu_t, config, omega, np.ones(params.n), zeros, zeros)

    wx2, wy2, wxy = tilde_frequencies(params, config, nu_t)
    delta = wx2 - wy2
    big_r = np.hypot(delta, 2.0 * wxy)
    wv = _sqrt_radicand(0.5 * (wx2 + wy2 + big_r), "upper normal")
    ww = _sqrt_radicand(0.5 * (wx2 + wy2 - big_r), "lower normal")

    tiny = np.abs(wxy) < COUPLING_TOL * params.omega0_sq
    safe_r = np.where(big_r > 0.0, big_r, 1.0)
    c2 = np.where(tiny, np.where(delta >= 0.0, 1.0, 0.0), (big_r + delta) / (2 * safe_r))
    s2 = np.where(tiny, np.where(delta >= 0.0, 0.0, 1.0), (big_r - delta) / (2 * safe_r))
    cs = np.where(tiny, 0.0, wxy / safe_r)
    return ModeSpectrum(params, nu_t, config, np.array([wv, ww]), c2, s2, cs)

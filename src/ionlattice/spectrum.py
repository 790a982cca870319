"""Normal modes of the ring in both configurations.

Translation invariance reduces the quadratic Hamiltonian to independent
wave-number blocks l = 1 .. n. Their squared frequencies and cross coupling
are one tau-sum in both phases, ``lattice.tilde_frequencies``, taken over
a batch of nu_t by ``build_spectra``. In the flat configuration the cross
coupling vanishes and the axial and transverse branches decouple. In the
buckled configuration the two directions mix within each block:
``build_spectra`` gives every block's normal frequencies and mixing weights
in closed form, ``build_spectrum`` is its batch of one, and
``symplectic_diagonalize`` brings one block to normal form with
``np.linalg.eigh`` as the independent oracle for them.

The buckled labels carry the half-zone shift of the transverse transform
(see ``tilde_frequencies``): the transverse branch of the flat ring maps
onto them as l -> l + n/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ImaginaryFrequency, NumericalFailure
from .lattice import (
    Configuration,
    LatticeParams,
    Variant,
    solve_equilibrium,
    tilde_frequencies,
    _frequency_stack,
)

#: Squared frequencies more negative than this raise; values in [-tol, 0) clamp to 0.
RADICAND_TOL = 1e-12

#: Couplings below this, in squared library frequency units, leave a block of
#: ``build_spectrum`` unmixed.
COUPLING_TOL = 1e-14


def symplectic_form(k: int) -> np.ndarray:
    """Symplectic form of k modes with interleaved quadratures (q1, p1, q2, p2, ...)."""
    omega = np.zeros((2 * k, 2 * k))
    i = np.arange(k)
    omega[2 * i, 2 * i + 1] = 1.0
    omega[2 * i + 1, 2 * i] = -1.0
    return omega


def _sqrt_radicand(w2, branch: str):
    """Square root with the clamp window; raises on a radicand below it and
    on a non-finite one (an overflow). An array is indexed by l = 1 .. n
    (along its last axis), and the error lists the offending wave numbers;
    a scalar (one block of the oracle) has none to give."""
    w2 = np.asarray(w2, dtype=float)

    def at(mask) -> tuple:
        if w2.ndim == 0:
            return "", None
        # a (P, n) stack names the wave numbers of its first failing row
        row = mask if mask.ndim == 1 else mask[mask.any(axis=1).argmax()]
        ls = (np.flatnonzero(row) + 1).tolist()
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


def coupling_matrix(
    params: LatticeParams, config: Configuration, nu_t: float, l: int
) -> np.ndarray:
    """4x4 quadratic-form block for wave number ``l``, ordered (X, Px, Y, Py).

    The library's mass is 2 (see :mod:`ionlattice.lattice`), so the
    position entries are the squared frequencies themselves and the
    momentum entries 1/(2m) = 1/4."""
    if not 1 <= l <= params.n:
        raise ConfigError(f"l must be in 1..{params.n}, got {l}")
    wx2, wy2, wxy = tilde_frequencies(params, config, nu_t)
    i = l - 1
    return np.array(
        [
            [wx2[i], 0.0, wxy[i], 0.0],
            [0.0, 0.25, 0.0, 0.0],
            [wxy[i], 0.0, wy2[i], 0.0],
            [0.0, 0.0, 0.0, 0.25],
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
    if block.shape != (4, 4) or not np.allclose(block, block.T, rtol=0, atol=1e-12):
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
    axial and branch 1 the transverse dispersion, the square roots of
    ``tilde_frequencies``' ``wx2`` and ``wy2``, unmixed (weights exactly
    1, 0, 0) and indexed without the half-zone shift. ``coupling`` is the
    ring's coupling row ``(dx, dy)`` over tau = 1 .. tau_max at ``config``,
    those of ``taylor_coefficients`` bit for bit.
    """

    params: LatticeParams
    nu_t: float
    config: Configuration
    omega: np.ndarray
    c2: np.ndarray
    s2: np.ndarray
    cs: np.ndarray
    coupling: tuple

    @property
    def variant(self) -> Variant:
        return self.config.variant


def build_spectrum(
    params: LatticeParams, nu_t: float, config: Configuration | None = None
) -> ModeSpectrum:
    """Assemble the full mode spectrum at ``nu_t``, solving the equilibrium
    unless ``config`` (the one at this ``nu_t``) is given: the batch of one
    of ``build_spectra``."""
    return build_spectra(params, (nu_t,), None if config is None else (config,))[0]


def build_spectra(params: LatticeParams, nu_ts, configs=None) -> list:
    """The mode spectra of ``params`` at each of ``nu_ts``, in one phase,
    solving each equilibrium unless ``configs`` (those at ``nu_ts``) are
    given.

    The batch shares one tau-sum over its (P, n) stack and one evaluation
    of the closed form; a flat batch takes its axial branch from the one
    axial row of that sum, which all its points share. Each spectrum
    carries its row of the coupling stack that sum was taken from. Each
    spectrum equals the ``build_spectrum`` of its point bit for bit. A
    batch that fails raises the error of one of its points; built one by
    one, each point raises its own.

    Raises
    ------
    ConfigError
        If the points are not all in one phase, or ``configs`` does not
        hold one configuration per point.
    """
    nu_ts = tuple(nu_ts)
    if configs is None:
        configs = [solve_equilibrium(params, nu_t) for nu_t in nu_ts]
    configs = tuple(configs)
    if len(configs) != len(nu_ts):
        raise ConfigError(
            f"expected one configuration per nu_t, got {len(configs)} for {len(nu_ts)}"
        )
    if not nu_ts:
        return []
    if len({config.variant for config in configs}) > 1:
        raise ConfigError("a batch takes configurations of one phase")
    (wx2, wy2, wxy), (dx, dy) = _frequency_stack(params, configs, nu_ts)
    omega = np.empty((len(nu_ts), 2, params.n))
    if configs[0].variant is Variant.LINEAR:
        omega[:, 0] = _sqrt_radicand(wx2, "axial")
        omega[:, 1] = _sqrt_radicand(wy2, "transverse")
        c2, zeros = np.ones(wy2.shape), np.zeros(wy2.shape)
        weights = zip(c2, zeros, zeros)
        # the flat stack's one coupling row, which all its points share
        couplings = [(dx[0], dy[0])] * len(nu_ts)
    else:
        delta = wx2 - wy2
        big_r = np.hypot(delta, 2.0 * wxy)
        omega[:, 0] = _sqrt_radicand(0.5 * (wx2 + wy2 + big_r), "upper normal")
        omega[:, 1] = _sqrt_radicand(0.5 * (wx2 + wy2 - big_r), "lower normal")

        tiny = np.abs(wxy) < COUPLING_TOL
        safe_r = np.where(big_r > 0.0, big_r, 1.0)
        c2 = np.where(tiny, np.where(delta >= 0.0, 1.0, 0.0), (big_r + delta) / (2 * safe_r))
        s2 = np.where(tiny, np.where(delta >= 0.0, 0.0, 1.0), (big_r - delta) / (2 * safe_r))
        cs = np.where(tiny, 0.0, wxy / safe_r)
        weights = zip(c2, s2, cs)
        couplings = zip(dx, dy)
    return [
        ModeSpectrum(params, nu_t, config, modes, *w, coupling)
        for nu_t, config, modes, w, coupling in zip(nu_ts, configs, omega, weights, couplings)
    ]

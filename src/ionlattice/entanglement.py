"""Entanglement measures for pairs and blocks of sites.

Pair entanglement is decided by two sum-difference separability criteria,

    S1 = 4 <(q_j + q_k)^2/2> <(p_j - p_k)^2/2> - 1,
    S2 = 4 <(q_j - q_k)^2/2> <(p_j + p_k)^2/2> - 1,

either one negative certifies an entangled pair, and the logarithmic
negativity follows as E = max(0, -ln(1 + S1)/2) + max(0, -ln(1 + S2)/2).
Block entropies come from the symplectic spectrum of the reduced
covariance matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceMatrix, PairMoments, block_covariance
from .errors import ConfigError, Divergent, DomainError, NumericalFailure
from .lattice import LatticeParams
from .spectrum import symplectic_form


def separability_criteria(moments: PairMoments) -> tuple[float, float]:
    """(S1, S2) of a site pair from its same-direction moments."""
    s1 = 4.0 * moments.q_plus * moments.p_minus - 1.0
    s2 = 4.0 * moments.q_minus * moments.p_plus - 1.0
    return s1, s2


def negativity(s1: float, s2: float) -> float:
    """Logarithmic negativity from the two criteria values.

    Values at or below -1 would make a reduced variance product negative,
    which no physical state produces; a NaN decides nothing. Both raise
    ``DomainError``. An infinite value (a divergent criterion) adds 0.
    """
    total = 0.0
    for s in (s1, s2):
        if s <= -1.0:
            raise DomainError(f"criterion value {s} at or below -1 is unphysical")
        if math.isnan(s):
            raise DomainError("criterion value is nan")
        if math.isinf(s):
            continue
        total += max(0.0, -0.5 * math.log1p(s))
    return total


def symplectic_spectra(sigmas) -> list:
    """Symplectic spectra of a stack of covariance matrices, shape (m, 2k, 2k).

    One ``np.linalg.eigvals`` call serves the finite matrices of the stack,
    and none is made when there is none; it gives each matrix what a call
    on that matrix alone gives, bit for bit. Item i of the result is one of:

    - the spectrum of matrix i, as :func:`symplectic_spectrum` returns it;
    - :class:`Divergent` if the matrix has a non-finite entry (such a
      matrix never reaches the eigensolver);
    - the exception :func:`symplectic_spectrum` raises for it:
      :class:`NumericalFailure` if its eigenvalues do not pair up, else
      :class:`DomainError` if one falls below the physical floor.

    A failed check fails its own matrix only.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 3 or sigmas.shape[1] != sigmas.shape[2] or sigmas.shape[1] % 2:
        raise ConfigError("covariance matrices must be square with even dimension")
    finite = np.isfinite(sigmas).all(axis=(1, 2))
    out = [Divergent("covariance matrix has a non-finite entry")] * len(sigmas)
    live = np.flatnonzero(finite)
    if not len(live):
        return out
    form = symplectic_form(sigmas.shape[1] // 2)
    ev = np.abs(np.linalg.eigvals(1j * form @ sigmas[live]))
    ev = 2.0 * np.sort(ev, axis=-1)
    pairs, partners = ev[:, ::2], ev[:, 1::2]
    scale = np.maximum(np.abs(pairs), 1.0)
    unpaired = (np.abs(pairs - partners) > 1e-8 * scale).any(axis=1)
    below = (pairs < 1.0 - 1e-10).any(axis=1)
    spectra = np.where(pairs < 1.0, 1.0, pairs)
    checks = zip(live.tolist(), unpaired.tolist(), below.tolist(), pairs, spectra)
    for i, bad_pair, bad_floor, ev_row, spectrum in checks:
        if bad_pair:
            out[i] = NumericalFailure("symplectic eigenvalues failed to pair up")
        elif bad_floor:
            out[i] = DomainError(f"symplectic eigenvalue {ev_row.min()} below 1 beyond tolerance")
        else:
            out[i] = spectrum
    return out


def symplectic_spectrum(cov: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, one per mode pair.

    Normalized so a pure vacuum mode gives exactly 1. Raises
    :class:`NumericalFailure` if the eigenvalues do not pair up, and
    :class:`DomainError` if one falls below the physical floor or the
    matrix has a non-finite entry. This is :func:`symplectic_spectra` for
    a stack of one.
    """
    sigma = cov.matrix if isinstance(cov, CovarianceMatrix) else np.asarray(cov, float)
    spectrum = symplectic_spectra(sigma[None])[0]
    if isinstance(spectrum, Divergent):
        raise DomainError(f"{spectrum.reason}: its symplectic spectrum diverges")
    if isinstance(spectrum, Exception):
        raise spectrum
    return spectrum


def spectrum_entropy(spectrum) -> float:
    """Von Neumann entropy of a state with the symplectic ``spectrum``: the
    sum of g(r) = up ln(up) - dn ln(dn), up = (r + 1)/2 and dn = (r - 1)/2,
    over its eigenvalues, 0 at r <= 1 and inf for a :class:`Divergent`
    item. An eigenvalue below 1 - 1e-10 raises :class:`DomainError`."""
    if isinstance(spectrum, np.ndarray):
        # Python floats take the same IEEE steps as NumPy scalars, faster
        spectrum = spectrum.tolist()
    log, terms = math.log, []
    add = terms.append
    for r in spectrum:
        if r.__class__ is Divergent:
            add(math.inf)
        elif r < 1.0 - 1e-10:
            raise DomainError(f"symplectic eigenvalue {r} below 1")
        elif r <= 1.0:
            add(0.0)
        else:
            up, dn = (r + 1.0) / 2.0, (r - 1.0) / 2.0
            add(up * log(up) - dn * log(dn))
    # sum() rather than a running +=: Python 3.12 and later sum floats with
    # compensation, and the entropy is what sum() of the terms gives
    return float(sum(terms))


@dataclass(frozen=True)
class BlockEntropyReport:
    """Entropy of a reduced block with its symplectic spectrum."""

    entropy: float
    spectrum: tuple
    dropped_soft_modes: int = 0


def block_entropy(cov: CovarianceMatrix | np.ndarray) -> BlockEntropyReport:
    """Von Neumann entropy of the state with covariance ``cov``."""
    spectrum = symplectic_spectrum(cov)
    dropped = cov.dropped_soft_modes if isinstance(cov, CovarianceMatrix) else 0
    return BlockEntropyReport(
        entropy=spectrum_entropy(spectrum),
        spectrum=tuple(float(r) for r in spectrum),
        dropped_soft_modes=dropped,
    )


def block_entropy_profile(
    params: LatticeParams,
    nu_t: float,
    temperature: float,
    n_sites: int,
    direction: str,
    drop_soft_modes: bool = False,
) -> BlockEntropyReport:
    """Entropy of a block of adjacent sites along one direction."""
    if not 1 <= n_sites <= params.n // 2:
        raise ConfigError(f"block size must be in 1..{params.n // 2}, got {n_sites}")
    cov = block_covariance(
        params,
        nu_t,
        temperature,
        sites=range(1, n_sites + 1),
        directions=(direction,),
        drop_soft_modes=drop_soft_modes,
    )
    return block_entropy(cov)


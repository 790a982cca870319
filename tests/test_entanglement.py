"""Separability criteria, negativity, and block entropies."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ionlattice.covariance import block_covariance, pair_moments
from ionlattice.entanglement import (
    block_entropy_profile,
    negativity,
    separability_criteria,
    spectrum_entropy,
    symplectic_spectra,
    symplectic_spectrum,
)
from ionlattice.errors import ConfigError, Divergent, DomainError, NumericalFailure
from ionlattice.spectrum import symplectic_form


def test_entropy_closed_forms():
    assert spectrum_entropy((1.0,)) == 0.0
    # r = 3: (2 ln 2 - 1 ln 1) = 2 ln 2
    assert_allclose(spectrum_entropy((3.0,)), 2.0 * math.log(2.0), atol=1e-14)


def test_entropy_tolerates_clamped_eigenvalue():
    assert spectrum_entropy((1.0 - 1e-12,)) == 0.0


def test_entropy_rejects_unphysical_eigenvalue():
    with pytest.raises(DomainError):
        spectrum_entropy((0.9,))


def test_entropy_of_divergent_eigenvalue_is_infinite():
    assert spectrum_entropy((Divergent("soft zone edge"),)) == math.inf


def _reference_entropy(r) -> float:
    """The per-eigenvalue entropy before the one-loop spectrum entropy,
    kept verbatim."""
    if isinstance(r, Divergent):
        return math.inf
    if r < 1.0 - 1e-10:
        raise DomainError(f"symplectic eigenvalue {r} below 1")
    if r <= 1.0:
        return 0.0
    up, dn = (r + 1.0) / 2.0, (r - 1.0) / 2.0
    return up * math.log(up) - dn * math.log(dn)


def _random_spectra(seed, count=400):
    """Spectra of 1-4 eigenvalues: exactly 1, just below 1 within the
    floor, just above 1, large, huge, and ordinary values."""
    rng = np.random.default_rng(seed)
    draws = [
        lambda: 1.0,
        lambda: 1.0 - 1e-10 * float(rng.uniform(0.0, 1.0)),
        lambda: 1.0 + 1e-15,
        lambda: 1e6,
        lambda: 1e300,
        lambda: float(1.0 + rng.exponential(2.0)),
        lambda: float(np.exp(rng.uniform(0.0, 30.0))),
    ]
    return [
        [draws[int(rng.integers(len(draws)))]() for _ in range(int(rng.integers(1, 5)))]
        for _ in range(count)
    ]


def test_spectrum_entropy_equals_the_per_eigenvalue_sum_bit_for_bit():
    for spectrum in _random_spectra(11):
        want = float(sum(_reference_entropy(r) for r in spectrum)).hex()
        assert spectrum_entropy(spectrum).hex() == want, spectrum
        assert spectrum_entropy(np.array(spectrum)).hex() == want, spectrum
        assert spectrum_entropy(tuple(spectrum)).hex() == want, spectrum
    for r in (1.0, 1.0 - 5e-11, 1.0 + 1e-15, 3.0, 1e6, 1e300):
        assert spectrum_entropy((r,)).hex() == _reference_entropy(r).hex()


def test_spectrum_entropy_keeps_divergent_and_floor_rules():
    marker = Divergent("covariance matrix has a non-finite entry")
    for spectrum in _random_spectra(12, count=50):
        with_marker = [*spectrum[:1], marker, *spectrum[1:]]
        assert spectrum_entropy(with_marker) == math.inf
        below = [*spectrum, 0.9, marker]
        with pytest.raises(DomainError) as got:
            spectrum_entropy(below)
        with pytest.raises(DomainError) as want:
            sum(_reference_entropy(r) for r in below)
        assert str(got.value) == str(want.value)
        with pytest.raises(DomainError, match="below 1"):
            spectrum_entropy(np.array(below[:-1]))


def test_negativity_single_violation_anchor():
    s1 = 16.0 / (3.0 * math.pi**2) - 1.0
    expect = 0.3077416690635716
    assert_allclose(negativity(s1, 2.3), expect, atol=1e-12)
    # an infinite partner criterion contributes nothing
    assert_allclose(negativity(s1, math.inf), expect, atol=1e-12)


@pytest.mark.parametrize(
    "s1, s2, message",
    [
        (-1.2, 0.0, "criterion value -1.2 at or below -1 is unphysical"),
        # max(0, nan) is 0: a NaN read as "not entangled"
        (math.nan, 0.5, "criterion value is nan"),
        (-0.3, math.nan, "criterion value is nan"),
    ],
    ids=["below-minus-one", "nan-s1", "nan-s2"],
)
def test_negativity_rejects_unphysical_criterion(s1, s2, message):
    with pytest.raises(DomainError) as err:
        negativity(s1, s2)
    assert str(err.value) == message


def test_vacuum_spectrum_is_all_ones(nn_ring):
    # the whole ring in its ground state, under traps that dwarf the coupling
    params = nn_ring(n=6, nu=1e4)
    cov = block_covariance(params, 1e4, 0.0, range(1, 7))
    assert_allclose(symplectic_spectrum(cov), np.ones(12), atol=1e-12)


def test_stacked_spectra_fail_only_their_own_matrix(nn_ring):
    params = nn_ring(n=8)
    good = block_covariance(params, 0.8, 0.3, (1, 2), ("y",)).matrix
    infinite = good.copy()
    infinite[0, 0] = np.inf
    # a non-symmetric matrix whose eigenvalues do not pair up
    unpaired = np.array([[1.0, 0.0, 0.0, 0.0], [3.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.5]])
    below = 0.25 * np.eye(4)  # r = 0.5, under the uncertainty floor
    spectra = symplectic_spectra(np.stack([good, infinite, unpaired, below, good]))
    assert np.array_equal(spectra[0], symplectic_spectrum(good))
    assert np.array_equal(spectra[4], spectra[0])
    assert isinstance(spectra[1], Divergent)
    assert isinstance(spectra[2], NumericalFailure)
    assert isinstance(spectra[3], DomainError) and "below 1 beyond tolerance" in str(spectra[3])
    # the one-matrix form raises what the stacked form reports
    for sigma, error in ((infinite, DomainError), (unpaired, NumericalFailure),
                         (below, DomainError)):
        with pytest.raises(error):
            symplectic_spectrum(sigma)


def test_a_whole_stack_takes_one_eigensolver_call_and_keeps_every_spectrum(monkeypatch):
    # random physical states (Gram matrices plus half the identity), with
    # two non-finite matrices among them
    rng = np.random.default_rng(5)
    root = rng.standard_normal((131, 6, 6))
    sigmas = root @ root.transpose(0, 2, 1) + 0.5 * np.eye(6)
    sigmas[63, 2, 3] = sigmas[65, 0, 0] = np.inf
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    spectra = symplectic_spectra(sigmas)
    assert calls == [129]
    # a stack without a finite matrix makes no call
    assert all(isinstance(s, Divergent) for s in symplectic_spectra(sigmas[[63, 65]]))
    assert calls == [129]
    for sigma, spectrum in zip(sigmas, spectra):
        alone = symplectic_spectra(sigma[None])[0]
        if isinstance(alone, Divergent):
            assert isinstance(spectrum, Divergent)
        else:
            assert np.array_equal(spectrum, alone)


@pytest.mark.parametrize("shape", [(3, 3), (4, 5)])
def test_spectrum_shape_validation(shape):
    with pytest.raises(ConfigError):
        symplectic_spectrum(np.eye(*shape) * 0.5)


@pytest.mark.parametrize("nu_t,violated", [(0.76, "S1"), (0.735, None), (0.70, "S2")])
def test_violation_switches_across_the_buckled_phase(nn_ring, nu_t, violated):
    s1, s2 = separability_criteria(pair_moments(nn_ring(), nu_t, 0.0, 1, "y"))
    assert (s1 < 0.0, s2 < 0.0) == (violated == "S1", violated == "S2")
    assert (negativity(s1, s2) > 0.0) == (violated is not None)


@pytest.mark.parametrize("fac", [1.02, 1.3, 2.0])
def test_partial_transpose_route_agrees(nn_ring, fac):
    # the partial transpose flips the second site's momentum; minus-log of
    # its sub-unit symplectic eigenvalues is the negativity of a symmetric pair
    params = nn_ring()
    en_criteria = negativity(*separability_criteria(pair_moments(params, fac, 0.0, 1, "y")))
    sigma = block_covariance(params, fac, 0.0, sites=(1, 2), directions=("y",)).matrix
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    ev = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(2) @ flip @ sigma @ flip)))
    en_pt = sum(max(0.0, -math.log(r)) for r in 2.0 * ev[::2])
    assert_allclose(en_criteria, en_pt, atol=1e-9)


def test_block_entropy_at_criticality(nn_ring):
    report = block_entropy_profile(nn_ring(), 1.0, 0.0, 2, "y", drop_soft_modes=True)
    assert report.dropped_soft_modes == 1
    assert_allclose(report.entropy, 0.24471287141974596, atol=1e-9)
    assert len(report.spectrum) == 2


def test_block_entropy_grows_with_temperature(nn_ring):
    params = nn_ring()
    cold = block_entropy_profile(params, 1.4, 0.0, 2, "y").entropy
    warm = block_entropy_profile(params, 1.4, 0.5, 2, "y").entropy
    assert 0.0 <= cold < warm


def test_block_size_validation(nn_ring):
    with pytest.raises(ConfigError):
        block_entropy_profile(nn_ring(n=8), 1.3, 0.0, 5, "y")
    with pytest.raises(ConfigError):
        block_entropy_profile(nn_ring(n=8), 1.3, 0.0, 0, "y")


def test_pure_state_entropy_vanishes(nn_ring):
    # full ring at zero temperature is pure: every eigenvalue is 1
    params = nn_ring(n=6)
    cov = block_covariance(params, 1.3, 0.0, range(1, 7))
    spectrum = symplectic_spectrum(cov)
    assert_allclose(spectrum, np.ones(12), atol=1e-8)
    assert spectrum_entropy(spectrum) < 1e-12


def test_reduced_block_is_mixed_when_entangled(nn_ring):
    report = block_entropy_profile(nn_ring(), 1.02, 0.0, 3, "y")
    assert report.entropy > 0.01
    assert all(r >= 1.0 for r in report.spectrum)

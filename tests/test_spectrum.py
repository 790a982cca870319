"""Dispersion branches and the 4x4 symplectic normal form.

Oracle for the normal form, independent of the closed-form construction:
the Williamson frequencies of a quadratic Hamiltonian u^T M u are the
absolute eigenvalues of i Omega (2M). Every frozen frequency below was
computed from that eigenvalue problem first.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ionlattice import spectrum
from ionlattice.covariance import block_covariance
from ionlattice.errors import ConfigError, DomainError, ImaginaryFrequency, NumericalFailure
from ionlattice.lattice import (
    Configuration,
    LatticeParams,
    Variant,
    critical_potential,
    solve_equilibrium,
    tilde_frequencies,
)
from ionlattice.spectrum import (
    build_spectra,
    build_spectrum,
    coupling_matrix,
    symplectic_diagonalize,
    symplectic_form,
)

#: symplectic form of one 4x4 block, ordered (X, Px, Y, Py)
OMEGA4 = symplectic_form(2)


def williamson_oracle(block):
    """Normal-mode frequencies |eig(i Omega 2M)|, descending, one per pair."""
    freqs = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA4 @ (2.0 * block))))
    assert_allclose(freqs[::2], freqs[1::2], rtol=1e-12)
    return freqs[3], freqs[1]


def flat_branches(params, nu_t):
    """Axial and transverse frequencies of the flat ring over l = 1 .. n."""
    spec = build_spectrum(params, nu_t)
    assert spec.variant is Variant.LINEAR
    return spec.omega


def textbook_dispersion(params, nu_t):
    """Squared axial and transverse frequencies of the flat ring, written
    from the pair sum: nu^2 + C S_l and nu_t^2 - C S_l / 2 with
    S_l = sum_tau sin^2(pi l tau / n) / tau^3 and C = 4 Q^2 / (m a^3), which
    is 2 in library units."""
    ls = np.arange(1, params.n + 1)[:, None]
    taus = np.arange(1, params.tau_max + 1)
    s = (np.sin(np.pi * ls * taus / params.n) ** 2 / taus**3).sum(axis=1)
    c = 2.0
    return params.nu**2 + c * s, nu_t**2 - 0.5 * c * s


def _block(wx2, wy2, wxy, mass):
    m = mass
    return np.array(
        [
            [0.5 * m * wx2, 0.0, 0.5 * m * wxy, 0.0],
            [0.0, 0.5 / m, 0.0, 0.0],
            [0.5 * m * wxy, 0.0, 0.5 * m * wy2, 0.0],
            [0.0, 0.0, 0.0, 0.5 / m],
        ]
    )


def test_symmetric_block_frozen():
    # equal diagonal frequencies 1 with coupling 1/2: the oracle gives
    # sqrt(3/2) and sqrt(1/2)
    block = _block(1.0, 1.0, 0.5, mass=1.0)
    hi, lo = williamson_oracle(block)
    assert_allclose(hi, 1.224744871391589, rtol=1e-12)
    assert_allclose(lo, 0.7071067811865476, rtol=1e-12)
    wv, ww, _ = symplectic_diagonalize(block)
    assert_allclose([wv, ww], [hi, lo], rtol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_normal_form_invariants(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        wx2, wy2 = rng.uniform(0.5, 3.0, size=2)
        # keep the lower branch stable: wxy^2 < wx2 * wy2
        wxy = 0.9 * math.sqrt(wx2 * wy2) * rng.uniform(0.0, 1.0)
        mass = rng.uniform(0.5, 4.0)
        block = _block(wx2, wy2, wxy, mass)
        wv, ww, smat = symplectic_diagonalize(block)
        assert_allclose([wv, ww], williamson_oracle(block), rtol=1e-10)
        assert wv >= ww > 0
        target = np.diag([wv / 2, wv / 2, ww / 2, ww / 2])
        assert_allclose(smat @ block @ smat.T, target, atol=1e-10)
        assert_allclose(smat @ OMEGA4 @ smat.T, OMEGA4, atol=1e-10)


def test_decoupled_block_keeps_branch_identity():
    block = _block(4.0, 1.0, 0.0, mass=2.0)
    wv, ww, smat = symplectic_diagonalize(block)
    assert_allclose([wv, ww], [2.0, 1.0], rtol=1e-12)
    assert_allclose(smat @ OMEGA4 @ smat.T, OMEGA4, atol=1e-12)


def test_an_asymmetric_block_is_a_config_error():
    # 1e-6 is 2e-6 relative, inside NumPy's default rtol of 1e-5
    for skew in (1e-3, 1e-6):
        block = _block(4.0, 1.0, 0.5, mass=2.0)
        block[0, 2] += skew
        with pytest.raises(ConfigError, match="expected a symmetric 4x4 block"):
            symplectic_diagonalize(block)


@pytest.mark.parametrize("wx2, wy2, wxy", [(4.0, 0.0, 0.0), (4.0, 1.0, 2.0)],
                         ids=["decoupled", "coupled"])
def test_zero_frequency_mode_is_a_domain_error(wx2, wy2, wxy):
    # wx2 wy2 = wxy^2: the lower normal frequency is exactly zero, and a
    # zero mode has no normal-form scaling
    with pytest.raises(DomainError, match="zero-frequency mode") as err:
        symplectic_diagonalize(_block(wx2, wy2, wxy, mass=2.0))
    assert type(err.value) is DomainError


def test_an_unstable_block_names_its_branch_and_no_wave_number():
    """The oracle sees one block, so it has no wave number to give; the
    spectrum over all blocks names the unstable ones."""
    params = LatticeParams(n=64, nu=1.0, tau_max=4)
    nu_t = 0.2 * critical_potential(params, td_limit=True)
    with pytest.raises(ImaginaryFrequency) as whole:
        build_spectrum(params, nu_t)
    unstable = [*range(9, 27), *range(38, 56)]
    assert whole.value.modes == unstable
    assert f"lower normal branch unstable: squared frequency negative at l={unstable}" in str(
        whole.value
    )
    config = solve_equilibrium(params, nu_t)
    with pytest.raises(ImaginaryFrequency) as one:
        symplectic_diagonalize(coupling_matrix(params, config, nu_t, l=9))
    assert str(one.value) == "lower normal branch unstable: squared frequency negative"
    assert one.value.modes == []


def test_coupling_matrix_layout(nn_ring):
    params = nn_ring(n=8)
    nu_t = 0.8 * critical_potential(params)
    config = solve_equilibrium(params, nu_t)
    wx2, wy2, wxy = tilde_frequencies(params, config, nu_t)
    l = 3
    block = coupling_matrix(params, config, nu_t, l)
    m = 2.0  # the library's mass
    assert_allclose(block[0, 0], 0.5 * m * wx2[l - 1], rtol=1e-12)
    assert_allclose(block[2, 2], 0.5 * m * wy2[l - 1], rtol=1e-12)
    assert_allclose(block[0, 2], 0.5 * m * wxy[l - 1], rtol=1e-12)
    assert block[1, 1] == block[3, 3] == 0.5 / m
    assert_allclose(block, block.T, atol=0)


def test_linear_dispersion_frozen_quarter_ring(nn_ring):
    # N = 4, l = 1: axial 1 + 2 sin^2(pi/4) = 2; transverse 1.5^2 - sin^2(pi/4)
    params = nn_ring(n=4)
    wx, wy = flat_branches(params, 1.5)
    assert_allclose(wx[0], math.sqrt(2.0), rtol=1e-12)
    assert_allclose(wy[0], math.sqrt(1.75), rtol=1e-12)


def test_zone_centre_recovers_trap_frequencies(nn_ring):
    params = nn_ring(n=10)
    wx, wy = flat_branches(params, 1.7)
    assert_allclose(wx[-1], params.nu, rtol=1e-12)
    assert_allclose(wy[-1], 1.7, rtol=1e-12)


def test_reflection_symmetry(lr_ring):
    params = lr_ring(n=12)
    wx, wy = flat_branches(params, 1.4)
    for l in range(1, 12):
        assert_allclose(wx[l - 1], wx[12 - l - 1], rtol=1e-12)
        assert_allclose(wy[l - 1], wy[12 - l - 1], rtol=1e-12)


def test_axial_branch_ignores_transverse_trap(nn_ring):
    params = nn_ring(n=8)
    wx1, _ = flat_branches(params, 1.2)
    wx2, _ = flat_branches(params, 3.7)
    assert_allclose(wx1, wx2, rtol=0, atol=0)


def test_the_flat_spectra_of_a_ring_share_one_axial_branch(nn_ring, lr_ring):
    """Every flat nu_t of a ring copies one cached axial branch, equal bit
    for bit to the square root of its own wx2; the spectrum's copy stays
    writable."""
    for params in (nn_ring(n=8), lr_ring(n=12)):
        spectrum._axial_branch.cache_clear()
        for mult in (1.2, 2.0, 3.7):
            nu_t = mult * critical_potential(params)
            spec = build_spectrum(params, nu_t)
            wx2, _, _ = tilde_frequencies(params, spec.config, nu_t)
            assert spec.omega[0].tobytes() == np.sqrt(wx2).tobytes()
            assert spec.omega.flags.writeable
        info = spectrum._axial_branch.cache_info()
        assert (info.misses, info.hits) == (1, 2)


def test_zone_edge_softens_at_critical_point(nn_ring):
    params = nn_ring(n=16)
    crit = critical_potential(params)
    _, wy = flat_branches(params, crit)
    assert abs(wy[8 - 1]) < 1e-7


def test_zigzag_branches_continuous_at_onset(nn_ring):
    """As b -> 0 the coupled branches converge to the flat ones with the
    transverse index shifted by half the zone."""
    params = nn_ring(n=8)
    nu_t = 1.05  # flat side, but evaluate the coupled transform at tiny b
    config = Configuration(variant=Variant.ZIGZAG, b=1e-7)
    wx, wy = flat_branches(params, nu_t)
    for l in range(1, 9):
        block = coupling_matrix(params, config, nu_t, l)
        wv, ww, _ = symplectic_diagonalize(block)
        shifted = (l + 4 - 1) % 8 + 1
        expect = sorted([wx[l - 1], wy[shifted - 1]])
        assert_allclose(sorted([ww, wv]), expect, atol=1e-6)


def test_build_spectrum_flat_matches_dispersion(nn_ring, lr_ring):
    """The flat branches are the square roots of the tau-sum, bit for bit."""
    for params, nu_t in ((nn_ring(n=12), 1.3), (lr_ring(n=10), 1.6), (lr_ring(n=1000), 1.2)):
        spec = build_spectrum(params, nu_t)
        assert spec.variant is Variant.LINEAR
        wx2, wy2, _ = tilde_frequencies(params, spec.config, nu_t)
        assert spec.omega[0].tobytes() == np.sqrt(wx2).tobytes()
        assert spec.omega[1].tobytes() == np.sqrt(wy2).tobytes()


def test_an_infinite_squared_frequency_is_a_numerical_failure():
    # an infinite transverse trap gives infinite squared frequencies, which
    # are refused rather than reported as inf modes
    params = LatticeParams(n=8, nu=1.0)
    with pytest.raises(NumericalFailure, match="transverse branch: squared frequency not finite"):
        build_spectrum(params, math.inf)


@pytest.mark.parametrize("ring", ["nn", "lr"])
def test_flat_frame_frequencies_are_the_dispersion_at_the_same_label(nn_ring, lr_ring, ring):
    """In the flat configuration the buckled-frame blocks carry no cross
    coupling and the squared dispersion at the same l, not at l + n/2."""
    params = nn_ring(n=8) if ring == "nn" else lr_ring(n=10)
    nu_t = 1.6
    config = solve_equilibrium(params, nu_t)
    assert config.variant is Variant.LINEAR
    wx2, wy2, wxy = tilde_frequencies(params, config, nu_t)
    want_x2, want_y2 = textbook_dispersion(params, nu_t)
    assert np.array_equal(wxy, np.zeros(params.n))
    assert_allclose(wx2, want_x2, rtol=0, atol=1e-14)
    assert_allclose(wy2, want_y2, rtol=0, atol=1e-14)
    # the shifted label is far off: the transverse branch is not flat
    assert np.abs(wy2 - np.roll(want_y2, -(params.n // 2))).max() > 0.5


def test_build_spectrum_zigzag_matches_blockwise(nn_ring):
    params = nn_ring(n=8)
    nu_t = 0.8 * critical_potential(params)
    spec = build_spectrum(params, nu_t)
    assert spec.variant is Variant.ZIGZAG
    config = solve_equilibrium(params, nu_t)
    for l in (1, 2, 4, 8):
        block = coupling_matrix(params, config, nu_t, l)
        wv, ww, _ = symplectic_diagonalize(block)
        assert_allclose(spec.omega[0, l - 1], wv, rtol=1e-10)
        assert_allclose(spec.omega[1, l - 1], ww, rtol=1e-10)


def test_flat_phase_is_unmixed_with_exact_zero_cross_moments(lr_ring):
    params = lr_ring(n=10)
    spec = build_spectrum(params, 2.0)
    assert spec.variant is Variant.LINEAR
    assert spec.omega.shape == (2, 10)
    assert np.array_equal(spec.c2, np.ones(10))
    assert np.array_equal(spec.s2, np.zeros(10)) and np.array_equal(spec.cs, np.zeros(10))
    # x-y entries are printed by the covariance command: they must be +0, never -0
    cov = block_covariance(params, 2.0, 0.3, sites=(1, 2, 3)).matrix
    for i in range(3):
        for j in range(3):
            for a, b in ((2 * i, 2 * j + 1), (2 * j + 1, 2 * i)):
                for row, col in ((2 * a, 2 * b), (2 * a + 1, 2 * b + 1)):
                    assert cov[row, col] == 0.0 and not np.signbit(cov[row, col])


def test_unstable_configuration_raises_with_modes(lr_ring):
    params = lr_ring(n=64)
    crit = critical_potential(params, td_limit=True)
    with pytest.raises(ImaginaryFrequency) as err:
        build_spectrum(params, 0.2 * crit)
    assert err.value.modes  # offending mode labels are carried along


def test_out_of_range_mode_index(nn_ring):
    params = nn_ring(n=8)
    nu_t = 0.8 * critical_potential(params)
    with pytest.raises(ConfigError):
        coupling_matrix(params, solve_equilibrium(params, nu_t), nu_t, 9)


@pytest.mark.parametrize("nu_t", [0.5, 1.5], ids=["buckled", "flat"])
def test_an_integer_built_ring_equals_the_float_built_ring(nu_t):
    # integer fields made the buckled phase's accumulators integer arrays
    ints = build_spectrum(LatticeParams(n=8, nu=1), nu_t)
    floats = build_spectrum(LatticeParams(n=8, nu=1.0), nu_t)
    assert ints.config == floats.config
    for name in ("omega", "c2", "s2", "cs"):
        assert getattr(ints, name).tobytes() == getattr(floats, name).tobytes(), name


#: rings of the batch tests: NN and the longest range each size admits
#: (tau_max < n/2, so 3 at n = 8)
BATCH_RINGS = [(8, 1), (8, 3), (20, 1), (20, 4), (1000, 1), (1000, 4)]

#: multiples of the bulk critical trap: buckled points (by Brent's method
#: where tau_max > 1), the exactly critical flat point, flat points
BATCH_MULTIPLES = (0.35, 0.5, 0.8, 0.95, 0.999, 1.0, 1.05, 1.5, 3.0)


@pytest.mark.parametrize("n, tau_max", BATCH_RINGS)
def test_a_batch_of_spectra_equals_its_points_bit_for_bit(n, tau_max):
    """Each phase's points built as one batch, with and without their
    configurations, equal their one-point builds in every byte."""
    params = LatticeParams(n=n, nu=1.0, tau_max=tau_max)
    crit = critical_potential(params, td_limit=True)
    alone = [build_spectrum(params, m * crit) for m in BATCH_MULTIPLES]
    assert [s.variant for s in alone] == [Variant.ZIGZAG] * 5 + [Variant.LINEAR] * 4
    for phase in Variant:
        points = [s for s in alone if s.variant is phase]
        nu_ts = [s.nu_t for s in points]
        for batch in (build_spectra(params, nu_ts),
                      build_spectra(params, nu_ts, [s.config for s in points])):
            for got, want in zip(batch, points, strict=True):
                assert (got.params, got.nu_t, got.config) == (want.params, want.nu_t, want.config)
                for name in ("omega", "c2", "s2", "cs"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_a_failed_batch_raises_the_error_of_its_failing_point():
    params = LatticeParams(n=64, nu=1.0, tau_max=4)
    crit = critical_potential(params, td_limit=True)
    with pytest.raises(ImaginaryFrequency) as alone:
        build_spectrum(params, 0.2 * crit)
    with pytest.raises(ImaginaryFrequency) as batch:
        build_spectra(params, [0.8 * crit, 0.2 * crit, 0.5 * crit])
    assert str(batch.value) == str(alone.value)
    assert batch.value.modes == alone.value.modes


def test_a_batch_takes_one_phase_and_one_configuration_per_point(nn_ring):
    params = nn_ring(n=8)
    assert build_spectra(params, []) == []
    with pytest.raises(ConfigError, match="one phase"):
        build_spectra(params, [0.8, 1.5])
    with pytest.raises(ConfigError, match="one configuration per nu_t"):
        build_spectra(params, [1.5, 2.0], [solve_equilibrium(params, 1.5)])

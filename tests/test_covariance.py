"""Site-basis second moments: mode-sum path against the dense oracle.

The dense oracle assembles the full quadratic form site by site and
diagonalizes it numerically, sharing nothing with the per-wave-number mode
sums under test, so agreement pins both the dispersion bookkeeping and the
staggered sign conventions of the buckled chain.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ionlattice import covariance
from ionlattice.covariance import (
    DIRECTIONS,
    _cos_weights,
    _dispersion_sum,
    _sin_weights,
    block_covariance,
    block_covariance_at,
    direct_covariance_oracle,
    moment_table,
    pair_moments,
    pair_moments_at,
    td_pair_criteria,
    td_single_site_eigenvalue,
    working_point,
)
from ionlattice.errors import ConfigError, QuadratureFailure, SizeLimitExceeded
from ionlattice.lattice import Variant, critical_potential


def _factor(params, crit_mult):
    return crit_mult * critical_potential(params)


@pytest.mark.parametrize("temperature", [0.0, 0.35])
@pytest.mark.parametrize("crit_mult", [1.5, 0.8])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_mode_sums_match_dense_oracle_nn(nn_ring, n, crit_mult, temperature):
    params = nn_ring(n=n)
    nu_t = _factor(params, crit_mult)
    four = block_covariance(params, nu_t, temperature, range(1, n + 1))
    dense = direct_covariance_oracle(params, nu_t, temperature)
    assert four.modes == dense.modes
    assert np.abs(four.matrix - dense.matrix).max() < 1e-9


@pytest.mark.parametrize("crit_mult", [1.4, 0.85])
def test_mode_sums_match_dense_oracle_lr(lr_ring, crit_mult):
    params = lr_ring(n=12)
    nu_t = _factor(params, crit_mult)
    four = block_covariance(params, nu_t, 0.2, range(1, 13))
    dense = direct_covariance_oracle(params, nu_t, 0.2)
    assert np.abs(four.matrix - dense.matrix).max() < 1e-9


def test_masked_agreement_at_critical_point(nn_ring):
    """Exactly at the transition the zone-edge mode is a free particle:
    position entries diverge identically on both paths and every finite
    entry still agrees (the momentum side takes its equipartition limit)."""
    params = nn_ring(n=20)
    four = block_covariance(params, 1.0, 0.35, range(1, 21)).matrix
    dense = direct_covariance_oracle(params, 1.0, 0.35).matrix
    finite = np.isfinite(four)
    assert (finite == np.isfinite(dense)).all()
    assert (~finite).any()
    assert (np.sign(four[~finite]) == np.sign(dense[~finite])).all()
    assert np.abs(four[finite] - dense[finite]).max() < 1e-9


def test_translation_invariance(nn_ring):
    params = nn_ring(n=12)
    nu_t = 0.8  # buckled; shift by a full unit cell to respect sublattices
    a = block_covariance(params, nu_t, 0.1, (1, 2)).matrix
    b = block_covariance(params, nu_t, 0.1, (5, 6)).matrix
    assert np.abs(a - b).max() < 1e-12


def test_uncharged_ring_is_a_vacuum_product(nn_ring):
    params = nn_ring(n=8, charge=0.0)
    cov = block_covariance(params, 1.3, 0.0, range(1, 9))
    assert_allclose(cov.matrix, 0.5 * np.eye(32), atol=1e-14)


def test_uncharged_pair_sits_on_the_boundary(nn_ring):
    params = nn_ring(n=8, charge=0.0)
    mom = pair_moments(params, 1.3, 0.0, 1, "y")
    assert_allclose(mom.q_plus * mom.p_minus, 0.25, atol=1e-13)
    assert_allclose(mom.q_minus * mom.p_plus, 0.25, atol=1e-13)


def test_quadrature_cross_sector_vanishes(nn_ring):
    params = nn_ring(n=8)
    for nu_t in (1.3, 0.8):
        cov = block_covariance(params, nu_t, 0.2, (1, 4)).matrix
        # q-p rows never mix regardless of configuration
        assert np.abs(cov[0::2, 1::2]).max() == 0.0


def test_same_site_directions_decouple(nn_ring):
    params = nn_ring(n=8)
    for nu_t in (1.3, 0.8):
        cov = block_covariance(params, nu_t, 0.2, (3,))
        i = cov.modes.index((3, "x"))
        j = cov.modes.index((3, "y"))
        assert abs(cov.matrix[2 * i, 2 * j]) < 1e-14


def test_flat_configuration_directions_decouple_everywhere(nn_ring):
    params = nn_ring(n=8)
    cov = block_covariance(params, 1.3, 0.2, range(1, 9))
    for i, (s1, d1) in enumerate(cov.modes):
        for j, (s2, d2) in enumerate(cov.modes):
            if d1 != d2:
                assert cov.matrix[2 * i, 2 * j] == 0.0


def test_temperature_raises_position_spread(nn_ring):
    params = nn_ring(n=10)
    spreads = [pair_moments(params, 1.4, t, 1, "y").var_q for t in (0.0, 0.3, 1.0)]
    assert spreads[0] < spreads[1] < spreads[2]


def test_critical_moments_and_soft_mode_drop(nn_ring):
    params = nn_ring(n=20)
    mom = pair_moments(params, 1.0, 0.0, 1, "y")
    assert math.isinf(mom.var_q)
    assert math.isfinite(mom.q_plus)
    cov = block_covariance(params, 1.0, 0.0, (1, 2))
    assert not np.isfinite(cov.matrix).all()
    assert cov.dropped_soft_modes == 0
    reg = block_covariance(params, 1.0, 0.0, (1, 2), drop_soft_modes=True)
    assert np.isfinite(reg.matrix).all()
    assert reg.dropped_soft_modes == 1


def test_large_ring_tracks_bulk_criterion(nn_ring):
    params = nn_ring(n=4096)
    mom = pair_moments(params, 1.0, 0.0, 1, "y")
    s1 = 4.0 * mom.q_plus * mom.p_minus - 1.0
    assert abs(s1 - (16.0 / (3.0 * math.pi**2) - 1.0)) < 1e-2


def test_dense_oracle_size_limit(nn_ring):
    with pytest.raises(SizeLimitExceeded):
        direct_covariance_oracle(nn_ring(n=66), 1.5, 0.0)


def test_mode_ordering_and_shape(nn_ring):
    params = nn_ring(n=8)
    cov = block_covariance(params, 1.3, 0.0, (3, 5), directions=("y",))
    assert cov.modes == ((3, "y"), (5, "y"))
    assert cov.matrix.shape == (4, 4)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sites": ()},
        {"sites": (1, 1)},
        {"sites": (0,)},
        {"sites": (9,)},
        {"sites": (1,), "directions": ("z",)},
        {"sites": (1,), "directions": ()},
        {"sites": (1,), "temperature": -0.1},
    ],
)
def test_block_covariance_validation(nn_ring, kwargs):
    params = nn_ring(n=8)
    temperature = kwargs.pop("temperature", 0.0)
    sites = kwargs.pop("sites")
    with pytest.raises(ConfigError):
        block_covariance(params, 1.3, temperature, sites, **kwargs)


@pytest.mark.parametrize("tau", [0, 5])
def test_pair_moments_tau_range(nn_ring, tau):
    with pytest.raises(ConfigError):
        pair_moments(nn_ring(n=8), 1.3, 0.0, tau, "y")


def _dispersion_reference(tau_max, a):
    taus = np.arange(1, tau_max + 1, dtype=float)
    return float(np.sum(np.sin(a * taus) ** 2 / taus**3))


@pytest.mark.parametrize("tau_max", [1, 4, 8, 12])
def test_cached_dispersion_sum_is_bit_identical(tau_max):
    """The cached sum is the inline NumPy expression it replaced, to the
    last bit: the quadrature's adaptive path depends on every value."""
    rng = np.random.default_rng(tau_max)
    nodes = [*rng.uniform(0.0, math.pi / 2, 2000),
             *(math.acos(u) for u in rng.uniform(0.0, 1.0, 2000)),
             0.0, math.pi / 2]
    _dispersion_sum.cache_clear()
    for a in nodes:
        assert _dispersion_sum(tau_max, a) == _dispersion_reference(tau_max, a)
    if tau_max >= 8:
        # NumPy sums 8 or more terms pairwise, so a left-to-right scalar
        # sum differs at some of these nodes: the comparison above has teeth
        scalar = [sum(math.sin(a * t) ** 2 / t**3 for t in range(1, tau_max + 1))
                  for a in nodes]
        assert any(s != _dispersion_reference(tau_max, a) for s, a in zip(scalar, nodes))


def _clear_caches():
    for obj in vars(covariance).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def test_bulk_results_do_not_depend_on_cache_order(nn_ring, lr_ring):
    """Interleaving rings that share quadrature nodes but differ in range
    and charge gives each ring the outcome it gets alone. A quadrature
    failure is an outcome too: the same nodes must take the same path."""
    rings = [nn_ring(), nn_ring(charge=0.8), lr_ring(), lr_ring(spacing=1.2)]
    nu_t = 1.3

    def outcome(fn, *args):
        try:
            return fn(*args)
        except QuadratureFailure as exc:
            return str(exc)

    def values(params, direction):
        return (
            outcome(td_pair_criteria, params, nu_t, 1, direction),
            outcome(td_pair_criteria, params, nu_t, 2, direction),
            outcome(td_single_site_eigenvalue, params, nu_t, direction),
        )

    alone = {}
    for i, params in enumerate(rings):
        for direction in DIRECTIONS:
            _clear_caches()
            alone[i, direction] = values(params, direction)
    assert sum(not isinstance(v, str) for vs in alone.values() for v in vs) >= 12
    _clear_caches()
    for direction in DIRECTIONS:
        for i, params in enumerate(rings):
            assert values(params, direction) == alone[i, direction]
    assert _dispersion_sum.cache_info().hits > 0


@pytest.mark.parametrize("weights", [_cos_weights, _sin_weights])
@pytest.mark.parametrize("delta", [0, 3])
def test_shared_phase_weights_are_read_only(weights, delta):
    w = weights(8, delta)
    with pytest.raises(ValueError):
        w[0] = 1.0
    with pytest.raises(ValueError):
        w += 1.0
    assert weights(8, delta) is w


@pytest.mark.parametrize("ring", ["nn", "lr"])
def test_buckled_moments_equal_with_cold_and_warm_phase_cache(nn_ring, lr_ring, ring):
    """Pair moments and a block with x-y cross entries come out the same
    whether the phase weights are computed afresh or taken from the cache."""
    params = nn_ring(n=8) if ring == "nn" else lr_ring(n=12)
    point = working_point(params, _factor(params, 0.8))

    def evaluate():
        table = moment_table(point, 0.2)
        moments = [pair_moments_at(table, tau, d) for tau in (1, 2, 3) for d in DIRECTIONS]
        block = block_covariance_at(table, (1, 2, 4)).matrix
        return moments, block

    def hits():
        return _cos_weights.cache_info().hits + _sin_weights.cache_info().hits

    _clear_caches()
    cold_moments, cold_block = evaluate()
    cold_hits = hits()
    warm_moments, warm_block = evaluate()
    assert hits() > cold_hits
    assert warm_moments == cold_moments
    assert np.array_equal(warm_block, cold_block)
    # <x_i y_j> entries: q rows of the x modes against q columns of the y modes
    assert (cold_block[0::2, 0::2][np.ix_([0, 2, 4], [1, 3, 5])] != 0.0).any()


# ------------------------------------------------- entry-by-entry reference
# The moment table computes each distinct mode sum once; these are the
# factor functions and the per-entry loops it replaced, kept verbatim as
# the reference its outputs must equal bit for bit.


def _reference_position_factor(omega, temperature, mass):
    omega = np.asarray(omega, dtype=float)
    sig = covariance._thermal_sigma(omega, temperature)
    return np.where(omega > 0.0, sig / (mass * np.where(omega > 0.0, omega, 1.0)), np.inf)


def _reference_momentum_factor(omega, temperature, mass):
    omega = np.asarray(omega, dtype=float)
    sig = covariance._thermal_sigma(omega, temperature)
    safe = mass * omega * np.where(np.isinf(sig), 0.0, sig)
    return np.where(omega > 0.0, safe, mass * temperature)


def _reference_factors(point, temperature):
    omega, mass = point.spectrum.omega, point.params.mass
    return (
        _reference_position_factor(omega, temperature, mass),
        _reference_momentum_factor(omega, temperature, mass),
    )


def _reference_pair_entry(point, kerns, facs, s1, d1, s2, d2):
    n = point.params.n
    zigzag = point.config.variant is Variant.ZIGZAG
    delta = s2 - s1
    if d1 == d2:
        kern = kerns.x if d1 == "x" else kerns.y
        val = covariance._weighted_mode_sum(kern, facs, _cos_weights(n, delta), n)
        if d1 == "y" and zigzag:
            val *= (-1.0) ** (s1 + s2)
        return val
    if not zigzag:
        return 0.0
    sin_sum = covariance._weighted_mode_sum(kerns.cross, facs, _sin_weights(n, delta), n)
    if d1 == "x":
        return ((-1.0) ** s2) * sin_sum
    return -((-1.0) ** s1) * sin_sum


def _reference_block(point, temperature, sites, directions, drop_soft_modes):
    params = point.params
    kerns = (
        covariance._direction_kernels(point.spectrum, True) if drop_soft_modes else point.kernels
    )
    modes = tuple((s, d) for s in sites for d in directions)
    k = len(modes)
    cov = np.zeros((2 * k, 2 * k))
    qf, pf = _reference_factors(point, temperature)
    scale = {d: params.mass * (params.nu if d == "x" else point.nu_t) for d in DIRECTIONS}
    for i, (s1, d1) in enumerate(modes):
        for j, (s2, d2) in enumerate(modes[i:], start=i):
            g = math.sqrt(scale[d1] * scale[d2])
            qq = g * _reference_pair_entry(point, kerns, qf, s1, d1, s2, d2)
            pp = _reference_pair_entry(point, kerns, pf, s1, d1, s2, d2) / g
            cov[2 * i, 2 * j] = cov[2 * j, 2 * i] = qq
            cov[2 * i + 1, 2 * j + 1] = cov[2 * j + 1, 2 * i + 1] = pp
    return cov


def _reference_pair(point, temperature, tau, direction):
    params = point.params
    kern = point.kernels.x if direction == "x" else point.kernels.y
    parity = -1.0 if (
        point.config.variant is Variant.ZIGZAG and direction == "y" and tau % 2 == 1
    ) else 1.0
    nu_ref = params.nu if direction == "x" else point.nu_t
    q_scale = params.mass * nu_ref
    n = params.n
    qf, pf = _reference_factors(point, temperature)
    mode_sum = covariance._weighted_mode_sum
    ones = np.ones(n)
    cosd = _cos_weights(n, tau)
    return (
        q_scale * mode_sum(kern, qf, ones, n),
        mode_sum(kern, pf, ones, n) / q_scale,
        q_scale * parity * mode_sum(kern, qf, cosd, n),
        parity * mode_sum(kern, pf, cosd, n) / q_scale,
        q_scale * mode_sum(kern, qf, 1.0 + parity * cosd, n),
        q_scale * mode_sum(kern, qf, 1.0 - parity * cosd, n),
        mode_sum(kern, pf, 1.0 + parity * cosd, n) / q_scale,
        mode_sum(kern, pf, 1.0 - parity * cosd, n) / q_scale,
    )


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("temperature", [0.0, 0.3])
@pytest.mark.parametrize("ring", ["nn-buckled", "nn-flat", "nn-critical", "lr-buckled"])
def test_moment_table_equals_the_entry_by_entry_loop(nn_ring, lr_ring, ring, temperature):
    """Blocks and pair moments read from one shared table are the values the
    per-entry mode sums give, bit for bit: mixed x,y blocks (with the flat
    phase's +0.0 cross entries), out-of-order sites, dropped soft modes, and
    the exactly critical ring with its infinite entries."""
    params = lr_ring(n=12) if ring.startswith("lr") else nn_ring(n=8)
    mult = {"buckled": 0.8, "flat": 1.5, "critical": 1.0}[ring.split("-")[1]]
    point = working_point(params, _factor(params, mult))
    table = moment_table(point, temperature)
    for tau in (1, 2, 3):
        for d in DIRECTIONS:
            pm = pair_moments_at(table, tau, d)
            got = (pm.var_q, pm.var_p, pm.cov_q, pm.cov_p,
                   pm.q_plus, pm.q_minus, pm.p_plus, pm.p_minus)
            assert _same_bits(got, _reference_pair(point, temperature, tau, d)), (tau, d)
    cases = [((1, 2, 3), ("x", "y")), ((3, 1, 2), ("y", "x")), ((1, 2, 4), ("y",))]
    for sites, directions in cases:
        got = block_covariance_at(table, sites, directions).matrix
        want = _reference_block(point, temperature, sites, directions, False)
        assert _same_bits(got, want), (sites, directions)
        dropped = block_covariance(
            params, point.nu_t, temperature, sites, directions, drop_soft_modes=True
        )
        want = _reference_block(point, temperature, sites, directions, True)
        assert _same_bits(dropped.matrix, want), (sites, directions, "dropped")
    if ring == "nn-flat":
        # the flat phase's x-y entries are +0.0, not -0.0
        cross = block_covariance_at(table, (1, 2), ("x", "y")).matrix[0::2, 0::2][0, 1::2]
        assert (cross == 0.0).all() and not np.signbit(cross).any()
    if ring == "nn-critical":
        assert np.isinf(block_covariance_at(table, (1, 2), ("y",)).matrix).any()
        assert dropped.dropped_soft_modes == 1

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

from ionlattice import _solvers, covariance
from ionlattice.covariance import (
    DIRECTIONS,
    _block_layout,
    _dispersion_sum,
    _rule_node_data,
    block_covariance,
    block_covariance_at,
    direct_covariance_oracle,
    moment_table,
    pair_moments,
    pair_moments_at,
    td_pair_criteria,
    td_single_site_eigenvalue,
)
from ionlattice import cli
from ionlattice.cli import COLUMNS, NU_T_UNIT, TEMPERATURE_UNIT, SweepSpec, _blank_row, run_sweep
from ionlattice.entanglement import negativity, spectrum_entropy
from ionlattice.errors import (
    ConfigError,
    DomainError,
    ImaginaryFrequency,
    NumericalFailure,
    QuadratureFailure,
)
from ionlattice.lattice import (
    LatticeParams,
    Variant,
    _cos_double_table,
    _sin_double_table,
    critical_potential,
)
from ionlattice.spectrum import build_spectrum, symplectic_form


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


#: the nearly uncharged ring: a charge Q -> 0 at fixed raw traps is, in
#: library units, traps far above the couplings (of order 1), which then
#: move every normalized moment by about 1e-8
STRONG_TRAP = 1e4


def test_uncharged_ring_is_a_vacuum_product(nn_ring):
    params = nn_ring(n=8, nu=STRONG_TRAP)
    cov = block_covariance(params, STRONG_TRAP, 0.0, range(1, 9))
    assert_allclose(cov.matrix, 0.5 * np.eye(32), atol=1e-7)


def test_uncharged_pair_sits_on_the_boundary(nn_ring):
    params = nn_ring(n=8, nu=STRONG_TRAP)
    mom = pair_moments(params, STRONG_TRAP, 0.0, 1, "y")
    assert_allclose(mom.q_plus * mom.p_minus, 0.25, atol=1e-7)
    assert_allclose(mom.q_minus * mom.p_plus, 0.25, atol=1e-7)


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
    spreads = [
        block_covariance(params, 1.4, t, (1,), ("y",)).matrix[0, 0] for t in (0.0, 0.3, 1.0)
    ]
    assert spreads[0] < spreads[1] < spreads[2]


def test_critical_moments_and_soft_mode_drop(nn_ring):
    params = nn_ring(n=20)
    mom = pair_moments(params, 1.0, 0.0, 1, "y")
    assert math.isfinite(mom.q_plus)
    cov = block_covariance(params, 1.0, 0.0, (1, 2))
    assert math.isinf(cov.matrix[2, 2])  # var q of site 1 along y
    assert cov.dropped_soft_modes == 0
    reg = block_covariance(params, 1.0, 0.0, (1, 2), drop_soft_modes=True)
    assert np.isfinite(reg.matrix).all()
    assert reg.dropped_soft_modes == 1


@pytest.mark.parametrize("tau_max", [1, 3])
@pytest.mark.parametrize("n", [8, 20, 512])
def test_soft_modes_are_dropped_only_within_1e_13_of_the_transition(n, tau_max):
    """At nu_t = nu_c (1 + eps) the soft mode's frequency is of order
    nu_c sqrt(|eps|): the floor 1e-6 max(nu, nu_t) keeps it at |eps| = 1e-12
    and drops it at 1e-13, on either side of the transition."""
    params = LatticeParams(n=n, nu=1.0, tau_max=tau_max)
    crit = critical_potential(params)
    for eps, dropped in ((1e-12, (0,)), (1e-13, (1,))):
        for sign in (1.0, -1.0):
            spec = build_spectrum(params, crit * (1.0 + sign * eps))
            assert moment_table([spec], (0.0,), drop_soft_modes=True).dropped == dropped, (
                sign * eps)


def test_large_ring_tracks_bulk_criterion(nn_ring):
    params = nn_ring(n=4096)
    mom = pair_moments(params, 1.0, 0.0, 1, "y")
    s1 = 4.0 * mom.q_plus * mom.p_minus - 1.0
    assert abs(s1 - (16.0 / (3.0 * math.pi**2) - 1.0)) < 1e-2


def test_dense_oracle_size_limit(nn_ring):
    with pytest.raises(ConfigError, match="dense oracle supports n <= 64"):
        direct_covariance_oracle(nn_ring(n=66), 1.5, 0.0)


def test_dense_oracle_refuses_a_negative_temperature(nn_ring):
    with pytest.raises(ConfigError, match="temperature must be non-negative"):
        direct_covariance_oracle(nn_ring(n=8), 1.5, -0.1)


def test_dense_oracle_refuses_an_unstable_flat_ring():
    """Far below the transition the flat ring is no minimum: the dense
    form names its negative eigenmodes (by index, ascending), as the
    spectrum names its unstable wave numbers."""
    params = LatticeParams(n=8, nu=1.0, tau_max=3)
    nu_t = 0.2 * critical_potential(params, td_limit=True)
    with pytest.raises(ImaginaryFrequency, match="not positive semidefinite") as dense:
        direct_covariance_oracle(params, nu_t, 0.0)
    assert dense.value.modes == [0, 1, 2, 3]
    with pytest.raises(ImaginaryFrequency) as spectral:
        build_spectrum(params, nu_t)
    assert spectral.value.modes == [2, 3, 5, 6]


@pytest.mark.parametrize("temperature", [math.nan, math.inf])
def test_a_non_finite_temperature_is_a_config_error(nn_ring, temperature):
    # a NaN would pass a t < 0 test, and T = inf would give p_plus 0.0
    params = nn_ring(n=8)
    with pytest.raises(ConfigError, match="temperature must be non-negative and finite"):
        moment_table([build_spectrum(params, 1.5)], (0.0, temperature))
    with pytest.raises(ConfigError, match="temperature must be non-negative and finite"):
        pair_moments(params, 1.5, temperature, 1, "y")
    with pytest.raises(ConfigError, match="temperature must be non-negative and finite"):
        direct_covariance_oracle(params, 1.5, temperature)


@pytest.mark.parametrize("drop", [False, True], ids=["all-modes", "drop-soft"])
@pytest.mark.parametrize(
    "ring, mults",
    [
        ("nn", (0.5, 0.8, 0.95, 0.999)),
        ("nn", (1.0, 1.2, 1.5, 3.0)),
        ("lr", (0.6, 0.9, 0.99)),
        ("lr", (1.01, 1.5, 2.5)),
    ],
    ids=["nn-buckled", "nn-critical-and-flat", "lr-buckled", "lr-flat"],
)
def test_a_batch_table_gives_each_spectrum_its_own_result(nn_ring, lr_ring, ring, mults, drop):
    """Pair moments and blocks (x, y, mixed, out of order) read from one
    table over a batch of spectra equal those of each spectrum's own table
    bit for bit, sign of zero and inf included."""
    params = nn_ring(n=8) if ring == "nn" else lr_ring(n=12)
    specs = [build_spectrum(params, _factor(params, m)) for m in mults]
    temperatures = (0.0, 0.3, 2.0)
    batch = moment_table(specs, temperatures, drop)
    singles = [moment_table([spec], temperatures, drop) for spec in specs]
    assert batch.dropped == tuple(t.dropped[0] for t in singles)
    for tau in (1, 2, 3):
        for d in DIRECTIONS:
            got = pair_moments_at(batch, tau, d)
            assert len(got) == len(specs)
            for moments, single in zip(got, singles):
                (want,) = pair_moments_at(single, tau, d)
                assert _same_bits([_pair_fields(pm) for pm in moments],
                                  [_pair_fields(pm) for pm in want]), (tau, d)
    for sites, directions in [((1, 2, 3), ("x",)), ((1, 2, 3), ("y",)),
                              ((1, 2, 4), ("x", "y")), ((3, 1, 2), ("y", "x"))]:
        stacks = block_covariance_at(batch, sites, directions)
        assert stacks.shape[:2] == (len(specs), len(temperatures))
        for stack, single in zip(stacks, singles):
            (want,) = block_covariance_at(single, sites, directions)
            assert _same_bits(stack, want), sites


def test_a_batch_table_refuses_spectra_of_two_phases_or_rings(nn_ring):
    params = nn_ring(n=8)
    buckled, flat = (build_spectrum(params, _factor(params, m)) for m in (0.8, 1.5))
    other = build_spectrum(nn_ring(n=10), _factor(nn_ring(n=10), 0.8))
    for specs in ([buckled, flat], [buckled, other], []):
        with pytest.raises(ConfigError, match="one ring in one phase"):
            moment_table(specs, (0.0,))


def test_moment_table_takes_temperatures_from_a_generator(nn_ring):
    spec = build_spectrum(nn_ring(n=8), 0.8)
    temps = [0.0, 0.3, 2.0]
    want = moment_table([spec], temps)
    got = moment_table([spec], (t for t in temps))
    assert got.temperatures == want.temperatures == tuple(temps)
    assert got.factors.tobytes() == want.factors.tobytes()


@pytest.mark.parametrize("temperature", [0.0, 0.3])
@pytest.mark.parametrize("phase", ["flat", "buckled"])
@pytest.mark.parametrize("ring", ["nn", "lr"])
def test_sites_out_of_order_swap_the_block_bit_for_bit(nn_ring, lr_ring, ring, phase,
                                                       temperature):
    """A block at sites (b, a) reads the phase tables at the negative site
    distance a - b; it is the (a, b) block with the two sites' rows and
    columns swapped, bit for bit, x-y cross entries included."""
    params = nn_ring(n=8) if ring == "nn" else lr_ring(n=12)
    nu_t = _factor(params, {"flat": 1.5, "buckled": 0.8}[phase])
    swap = [4, 5, 6, 7, 0, 1, 2, 3]
    for a, b in ((1, 2), (1, 3), (2, 5), (3, 7), (1, 5), (4, 8)):
        ordered = block_covariance(params, nu_t, temperature, (a, b)).matrix
        reversed_ = block_covariance(params, nu_t, temperature, (b, a)).matrix
        assert _same_bits(reversed_, ordered[np.ix_(swap, swap)]), (a, b)


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
        {"sites": (1, 2), "directions": ("y", "y")},
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
    and axial trap gives each ring the outcome it gets alone. A quadrature
    failure is an outcome too: the same nodes must take the same path."""
    rings = [nn_ring(), nn_ring(nu=0.8), lr_ring(), lr_ring(nu=1.2)]
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
            assert _rule_node_data.cache_info().currsize == 0
            alone[i, direction] = values(params, direction)
    assert sum(not isinstance(v, str) for vs in alone.values() for v in vs) >= 12
    _clear_caches()
    for direction in DIRECTIONS:
        for i, params in enumerate(rings):
            assert values(params, direction) == alone[i, direction]
    assert _dispersion_sum.cache_info().hits > 0
    assert _rule_node_data.cache_info().hits > 0


def test_bulk_sweep_takes_each_acos_once_per_node(tmp_path, monkeypatch):
    """A bulk sweep evaluates math.acos at most once per node of each
    distinct rule interval of an inverse average (per range, weight and
    interval): the node data of an interval are cached across nuT rows and
    directions. Before the cache, every rule evaluation paid 21 acos."""
    _clear_caches()
    weights, intervals, acos_args = {}, set(), []
    integrands, qk21, acos = covariance._bulk_integrands, _solvers._qk21, math.acos

    def tagged(base, k, tau_max, tau=0, sign=0.0):
        f, (g, *edge) = integrands(base, k, tau_max, tau, sign)
        weights[g] = (tau_max, tau, sign)
        return f, (g, *edge)

    def recorded_qk21(f, a, b):
        if f in weights:
            intervals.add((weights[f], a, b))
        return qk21(f, a, b)

    def counted_acos(u):
        acos_args.append(u)
        return acos(u)

    monkeypatch.setattr(covariance, "_bulk_integrands", tagged)
    monkeypatch.setattr(_solvers, "_qk21", recorded_qk21)
    monkeypatch.setattr(math, "acos", counted_acos)
    out = tmp_path / "bulk.csv"
    argv = ["sweep", "--mass", "2", "--charge", "1", "--spacing", "1",
            "--nu", "1.4142135623730951", "--n", "20", "--td-limit",
            "--nu-t", "1.4142135623730951:2.1:41", "--measures", "negativity,entropy",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(out.read_text().splitlines()) == 42
    assert {w[1:] for w, _, _ in intervals} == {(0, 0.0), (1, 1.0), (1, -1.0)}
    assert 0 < len(acos_args) <= 21 * len(intervals)
    info = _rule_node_data.cache_info()
    assert info.hits > 10 * info.misses


def test_rule_node_data_is_read_only():
    """Every integrand of a sweep shares the cached node data of an
    interval, so no caller can change an entry."""
    for variable, width in (("alpha", 2), ("u", 3)):
        data = _rule_node_data(variable, 4, 1, -1.0, 0.5, 0.25)
        assert type(data) is tuple and len(data) == 21
        for node in data:
            assert type(node) is tuple and len(node) == width
        with pytest.raises(TypeError):
            data[0] = data[1]
        with pytest.raises(TypeError):
            data[0][0] = 0.0
        assert _rule_node_data(variable, 4, 1, -1.0, 0.5, 0.25) is data


@pytest.mark.parametrize("tau_max", [1, 4, 8, 12])
def test_rule_node_sums_equal_the_dispersion_sum_bit_for_bit(tau_max, monkeypatch):
    """The node data take each interval's 21 dispersion sums in one array
    expression, and each equals ``_dispersion_sum`` at its node to the last
    bit, over alpha and over u = cos alpha, on random intervals."""
    calls = []
    monkeypatch.setattr(covariance, "_dispersion_sum", lambda *args: calls.append(args))
    rng = np.random.default_rng(100 + tau_max)
    _rule_node_data.cache_clear()
    for variable, top in (("alpha", math.pi / 2), ("u", 1.0)):
        for _ in range(200):
            lo, hi = sorted(rng.uniform(0.0, top, 2))
            centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
            nodes = _solvers.rule_nodes(centr, hlgth)
            alphas = nodes if variable == "alpha" else [math.acos(u) for u in nodes]
            data = _rule_node_data(variable, tau_max, 1, 1.0, centr, hlgth)
            got = [node[0].hex() for node in data]
            assert got == [_dispersion_sum(tau_max, a).hex() for a in alphas]
    assert calls == []


def test_a_table_evaluates_a_branch_when_a_kernel_that_weights_it_first_reads(
    nn_ring, monkeypatch
):
    """A flat table read along y evaluates the transverse factors only, the
    axial ones when an x sum first reads it, and no factor for the cross
    entries, which vanish; a buckled table evaluates both branches at its
    first read, in one call. The factors equal one evaluation of all
    branches bit for bit."""
    calls, original = [], covariance._mode_factors

    def recorded(omega, temperatures):
        calls.append(np.array(omega))
        return original(omega, temperatures)

    monkeypatch.setattr(covariance, "_mode_factors", recorded)
    params, temperatures = nn_ring(n=8), (0.0, 0.3)
    flat = moment_table([build_spectrum(params, _factor(params, m)) for m in (1.2, 1.5, 3.0)],
                        temperatures)
    assert calls == []
    pair_moments_at(flat, 1, "y")
    block_covariance_at(flat, (1, 2, 3), ("y",))
    assert [c.tobytes() for c in calls] == [flat.omega[:, 1:].tobytes()]
    block_covariance_at(flat, (1, 2), ("x", "y"))
    assert [c.tobytes() for c in calls[1:]] == [flat.omega[:, :1].tobytes()]
    whole = np.stack(original(flat.omega, temperatures), axis=2)
    assert flat.factors.tobytes() == whole.tobytes()
    assert len(calls) == 2
    calls.clear()
    buckled = moment_table([build_spectrum(params, _factor(params, m)) for m in (0.5, 0.8)],
                           temperatures)
    for d in DIRECTIONS:
        pair_moments_at(buckled, 1, d)
    block_covariance_at(buckled, (1, 2), DIRECTIONS)
    assert [c.tobytes() for c in calls] == [buckled.omega.tobytes()]


def test_axial_bulk_averages_are_computed_once_per_ring(nn_ring, lr_ring):
    """The x dispersion nu^2 + C S does not involve nu_t: a sweep over nu_t
    integrates the x averages once and reuses them, bit for bit; the y
    averages change with nu_t and are integrated at every point."""
    for params in (nn_ring(), lr_ring()):
        _clear_caches()
        nu_ts = (1.5, 1.7, 1.9)
        pairs = [td_pair_criteria(params, nt, 1, "x") for nt in nu_ts]
        sites = [td_single_site_eigenvalue(params, nt, "x") for nt in nu_ts]
        assert pairs[0] == pairs[1] == pairs[2] and sites[0] == sites[1] == sites[2]
        for cached in (covariance._pair_averages, covariance._site_averages):
            assert (cached.cache_info().misses, cached.cache_info().hits) == (1, 2)
        _clear_caches()
        assert td_pair_criteria(params, 1.9, 1, "x") == pairs[0]
        ys = [td_pair_criteria(params, nt, 1, "y") for nt in nu_ts]
        assert covariance._pair_averages.cache_info().misses == 4
        assert ys[0] != ys[1] != ys[2]


@pytest.mark.parametrize("weights", [_cos_double_table, _sin_double_table])
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
    spec = build_spectrum(params, _factor(params, 0.8))

    def evaluate():
        table = moment_table([spec], (0.2,))
        moments = [pair_moments_at(table, tau, d)[0] for tau in (1, 2, 3) for d in DIRECTIONS]
        block = block_covariance_at(table, (1, 2, 4))[0][0]
        return moments, block

    def hits():
        return _cos_double_table.cache_info().hits + _sin_double_table.cache_info().hits

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
# The moment table computes each distinct mode sum once, for all its
# temperatures at once; these are the one-temperature thermal factors, the
# scalar mode sum and the per-entry loops it replaced, kept verbatim as the
# reference its outputs must equal bit for bit. The per-direction kernels
# and the stacked sum of one spectrum are kept here as well: the library
# now evaluates a batch of spectra in one pass.


def _reference_kernels(spec, drop_soft_modes=False):
    """Per direction ("x", "y", "cross"): the (branch, mixing weights) of
    the branches with a nonzero weight (every branch for "cross")."""
    weights = [(spec.c2, spec.s2, spec.cs), (spec.s2, spec.c2, -spec.cs)]
    if drop_soft_modes:
        keep = spec.omega > covariance.SOFT_FREQ_FACTOR * max(spec.params.nu, spec.nu_t)
        weights = [[np.where(k, w, 0.0) for w in ws] for k, ws in zip(keep, weights)]
    (x0, y0, c0), (x1, y1, c1) = weights
    return {
        "x": [(b, wt) for b, wt in ((0, x0), (1, x1)) if np.count_nonzero(wt)],
        "y": [(b, wt) for b, wt in ((0, y0), (1, y1)) if np.count_nonzero(wt)],
        "cross": [(0, c0), (1, c1)],
    }


def _reference_stacked_sums(kern, factors, phase_weights, n):
    """(1/n) sum_l w_l fac_l of both factors of one spectrum at every
    temperature of ``factors`` (shape (2, 2, n_T, n)), shape (2, n_T)."""
    total = np.zeros(factors.shape[1:3])
    for branch, wt in kern:
        w = wt * phase_weights
        nz = w != 0.0
        if nz.all():
            terms = factors[branch] * w
        elif nz.any():
            terms = np.compress(nz, factors[branch], axis=2) * w[nz]
        else:
            continue
        total = total + terms.sum(axis=2) / n
    return total


def _reference_thermal_sigma(omega, temperature):
    omega = np.asarray(omega, dtype=float)
    if temperature <= 0.0:
        return np.where(omega > 0.0, 0.5, np.inf)
    out = np.full_like(omega, np.inf)
    pos = omega > 0.0
    out[pos] = 0.5 / np.tanh(omega[pos] / (2.0 * temperature))
    return out


def _weighted_mode_sum(kern, facs, phase_weights, n):
    """(1/n) sum_l w_l fac_l, with exact-zero weights killing the term."""
    total = 0.0
    for branch, wt in kern:
        w = wt * phase_weights
        nz = w != 0.0
        if nz.any():
            total += float((w[nz] * facs[branch][nz]).sum()) / n
    return total


def _reference_position_factor(omega, temperature):
    omega = np.asarray(omega, dtype=float)
    sig = _reference_thermal_sigma(omega, temperature)
    return np.where(omega > 0.0, sig / np.where(omega > 0.0, omega, 1.0), np.inf)


def _reference_momentum_factor(omega, temperature):
    omega = np.asarray(omega, dtype=float)
    sig = _reference_thermal_sigma(omega, temperature)
    safe = omega * np.where(np.isinf(sig), 0.0, sig)
    return np.where(omega > 0.0, safe, temperature)


def _reference_factors(spec, temperature):
    return (
        _reference_position_factor(spec.omega, temperature),
        _reference_momentum_factor(spec.omega, temperature),
    )


def _reference_pair_entry(spec, kerns, facs, s1, d1, s2, d2):
    n = spec.params.n
    zigzag = spec.config.variant is Variant.ZIGZAG
    delta = s2 - s1
    if d1 == d2:
        kern = kerns[d1]
        val = _weighted_mode_sum(kern, facs, _cos_double_table(n, delta), n)
        if d1 == "y" and zigzag:
            val *= (-1.0) ** (s1 + s2)
        return val
    if not zigzag:
        return 0.0
    sin_sum = _weighted_mode_sum(kerns["cross"], facs, _sin_double_table(n, delta), n)
    if d1 == "x":
        return ((-1.0) ** s2) * sin_sum
    return -((-1.0) ** s1) * sin_sum


def _reference_block(spec, temperature, sites, directions, drop_soft_modes):
    params = spec.params
    kerns = _reference_kernels(spec, drop_soft_modes)
    modes = tuple((s, d) for s in sites for d in directions)
    k = len(modes)
    cov = np.zeros((2 * k, 2 * k))
    qf, pf = _reference_factors(spec, temperature)
    scale = {"x": params.nu, "y": spec.nu_t}
    for i, (s1, d1) in enumerate(modes):
        for j, (s2, d2) in enumerate(modes[i:], start=i):
            g = math.sqrt(scale[d1] * scale[d2])
            qq = g * _reference_pair_entry(spec, kerns, qf, s1, d1, s2, d2)
            pp = _reference_pair_entry(spec, kerns, pf, s1, d1, s2, d2) / g
            cov[2 * i, 2 * j] = cov[2 * j, 2 * i] = qq
            cov[2 * i + 1, 2 * j + 1] = cov[2 * j + 1, 2 * i + 1] = pp
    return cov


def _reference_pair(spec, temperature, tau, direction):
    params = spec.params
    kern = _reference_kernels(spec)[direction]
    parity = -1.0 if (
        spec.config.variant is Variant.ZIGZAG and direction == "y" and tau % 2 == 1
    ) else 1.0
    q_scale = params.nu if direction == "x" else spec.nu_t
    n = params.n
    qf, pf = _reference_factors(spec, temperature)
    mode_sum = _weighted_mode_sum
    ones = np.ones(n)
    cosd = _cos_double_table(n, tau)
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


def _pair_fields(pm):
    return (pm.q_plus, pm.q_minus, pm.p_plus, pm.p_minus)


def _raw_pair_entries(block):
    """(var q, var p, cov q, cov p) of the one-direction block of sites
    (1, 1 + tau): the raw moments the pair reference computes first."""
    return (block[0, 0], block[1, 1], block[0, 2], block[1, 3])


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
    spec = build_spectrum(params, _factor(params, mult))
    table = moment_table([spec], (temperature,))
    for tau in (1, 2, 3):
        for d in DIRECTIONS:
            ((pm,),) = pair_moments_at(table, tau, d)
            want = _reference_pair(spec, temperature, tau, d)
            assert _same_bits(_pair_fields(pm), want[4:]), (tau, d)
            ((block,),) = block_covariance_at(table, (1, 1 + tau), (d,))
            assert _same_bits(_raw_pair_entries(block), want[:4]), (tau, d)
    cases = [((1, 2, 3), ("x", "y")), ((3, 1, 2), ("y", "x")), ((1, 2, 4), ("y",))]
    for sites, directions in cases:
        ((got,),) = block_covariance_at(table, sites, directions)
        want = _reference_block(spec, temperature, sites, directions, False)
        assert _same_bits(got, want), (sites, directions)
        dropped = block_covariance(
            params, spec.nu_t, temperature, sites, directions, drop_soft_modes=True
        )
        want = _reference_block(spec, temperature, sites, directions, True)
        assert _same_bits(dropped.matrix, want), (sites, directions, "dropped")
    if ring == "nn-flat":
        # the flat phase's x-y entries are +0.0, not -0.0
        cross = block_covariance_at(table, (1, 2), ("x", "y"))[0, 0, 0::2, 0::2][0, 1::2]
        assert (cross == 0.0).all() and not np.signbit(cross).any()
    if ring == "nn-critical":
        assert np.isinf(block_covariance_at(table, (1, 2), ("y",))).any()
        assert dropped.dropped_soft_modes == 1


@pytest.mark.parametrize("ring", ["nn-buckled", "nn-flat", "nn-critical", "lr-buckled", "lr-flat"])
def test_stacked_table_equals_the_per_temperature_reference(nn_ring, lr_ring, ring):
    """One table over several temperatures gives at each temperature the
    values of the one-temperature reference, bit for bit, sign of zero
    included."""
    params = lr_ring(n=12) if ring.startswith("lr") else nn_ring(n=8)
    mult = {"buckled": 0.8, "flat": 1.5, "critical": 1.0}[ring.split("-")[1]]
    spec = build_spectrum(params, _factor(params, mult))
    temperatures = (0.0, 0.1, 0.3, 1.6)
    table = moment_table([spec], temperatures)
    for tau in (1, 2, 3):
        for d in DIRECTIONS:
            (moments,) = pair_moments_at(table, tau, d)
            (blocks,) = block_covariance_at(table, (1, 1 + tau), (d,))
            assert len(moments) == len(blocks) == len(temperatures)
            for pm, block, t in zip(moments, blocks, temperatures):
                want = _reference_pair(spec, t, tau, d)
                assert _same_bits(_pair_fields(pm), want[4:]), (tau, d, t)
                assert _same_bits(_raw_pair_entries(block), want[:4]), (tau, d, t)
    cases = [((1, 2, 3), ("x", "y")), ((3, 1, 2), ("y", "x")), ((1, 2, 4), ("y",))]
    for sites, directions in cases:
        (stack,) = block_covariance_at(table, sites, directions)
        assert stack.shape[0] == len(temperatures)
        for got, t in zip(stack, temperatures):
            want = _reference_block(spec, t, sites, directions, False)
            assert _same_bits(got, want), (sites, directions, t)


# ---------------------------------------------- per-upper-entry stacked loop
# The block gather reads each distinct mode sum of a block once, from a
# cached layout of signs and sums; these are the per-entry loop over the
# upper entries and the pair moments with freshly built weights that it
# replaced, kept verbatim as the reference its stacks must equal bit for bit.


def _stacked_mode_sum(table, kernel, delta):
    """The table's raw mode sums over ``kernel`` at site distance ``delta``,
    shape (2, n_T): cos(2 phase) weights for a direction, sin for "cross"."""
    n = table.spectra[0].params.n
    phase = (_sin_double_table if kernel == "cross" else _cos_double_table)(n, delta)
    return covariance._mode_sums(table, kernel, phase)[0]


def _reference_stacked_entry(table, s1, d1, s2, d2):
    zigzag = table.spectra[0].config.variant is Variant.ZIGZAG
    delta = s2 - s1
    if d1 == d2:
        sign = (-1.0) ** (s1 + s2) if d1 == "y" and zigzag else 1.0
        return _stacked_mode_sum(table, d1, delta), sign
    if not zigzag:
        return np.zeros((2, len(table.temperatures))), 1.0
    sin_sum = _stacked_mode_sum(table, "cross", delta)
    if d1 == "x":  # <x_{s1} y_{s2}>
        return sin_sum, (-1.0) ** s2
    return sin_sum, -((-1.0) ** s1)  # <y_{s1} x_{s2}>


def _reference_stacked_block(table, sites, directions):
    spec = table.spectra[0]
    params = spec.params
    modes = tuple((s, d) for s in sites for d in directions)
    scale = {"x": params.nu, "y": spec.nu_t}
    upper = [(i, j) for i in range(len(modes)) for j in range(i, len(modes))]
    raw, signs, g = [], [], []
    for i, j in upper:
        (s1, d1), (s2, d2) = modes[i], modes[j]
        sums, sign = _reference_stacked_entry(table, s1, d1, s2, d2)
        raw.append(sums)
        signs.append(sign)
        g.append(math.sqrt(scale[d1] * scale[d2]))
    entries = np.stack(raw) * np.array(signs)[:, None, None]
    g = np.array(g)[:, None]
    qq, pp = (g * entries[:, 0]).T, (entries[:, 1] / g).T
    i, j = (2 * np.array(ix) for ix in zip(*upper))
    k = len(modes)
    cov = np.zeros((len(table.temperatures), 2 * k, 2 * k))
    cov[:, i, j] = cov[:, j, i] = qq
    cov[:, i + 1, j + 1] = cov[:, j + 1, i + 1] = pp
    return cov


def _reference_stacked_pairs(table, tau, direction, drop_soft_modes):
    spec = table.spectra[0]
    params = spec.params
    kern = _reference_kernels(spec, drop_soft_modes)[direction]
    (cov_q, cov_p), parity = _reference_stacked_entry(table, 1, direction, 1 + tau, direction)
    q_scale = params.nu if direction == "x" else spec.nu_t
    n = params.n
    cosd = _cos_double_table(n, tau)
    var_q, var_p = _stacked_mode_sum(table, direction, 0)
    mode_sums = _reference_stacked_sums
    q_plus, p_plus = mode_sums(kern, table.factors[0], 1.0 + parity * cosd, n)
    q_minus, p_minus = mode_sums(kern, table.factors[0], 1.0 - parity * cosd, n)
    columns = (
        q_scale * var_q,
        var_p / q_scale,
        q_scale * parity * cov_q,
        parity * cov_p / q_scale,
        q_scale * q_plus,
        q_scale * q_minus,
        p_plus / q_scale,
        p_minus / q_scale,
    )
    return list(zip(*(c.tolist() for c in columns)))


@pytest.mark.parametrize("drop", [False, True], ids=["all-modes", "drop-soft"])
@pytest.mark.parametrize(
    "ring", ["nn-flat", "nn-buckled", "nn-critical", "lr-flat", "lr-buckled", "lr-critical"]
)
def test_block_gather_equals_the_per_entry_loop(nn_ring, lr_ring, ring, drop):
    """x, y and two-direction blocks of 1-4 leading sites and of the
    non-leading sites (1, 2, 4), and the pair moments at tau 1-3, over one
    table at T = 0, 0.3 and 2, equal the per-entry loop bit for bit, sign
    of zero and inf included. The NN critical ring is exactly critical (a
    zero mode); the LR one is at its computed critical point."""
    params = lr_ring(n=12) if ring.startswith("lr") else nn_ring(n=8)
    phase = ring.split("-")[1]
    if phase == "critical" and ring.startswith("nn"):
        nu_t = NU_T_CRITICAL_NN8 * NU_T_UNIT
    else:
        nu_t = _factor(params, {"buckled": 0.8, "flat": 1.5, "critical": 1.0}[phase])
    spec = build_spectrum(params, nu_t)
    temperatures = (0.0, 0.3, 2.0)
    table = moment_table([spec], temperatures, drop)
    reference = moment_table([spec], temperatures, drop)
    for tau in (1, 2, 3):
        for d in DIRECTIONS:
            want = _reference_stacked_pairs(reference, tau, d, drop)
            got = [_pair_fields(pm) for pm in pair_moments_at(table, tau, d)[0]]
            assert _same_bits(got, [w[4:] for w in want]), (tau, d)
            raw = [_raw_pair_entries(b) for b in block_covariance_at(table, (1, 1 + tau), (d,))[0]]
            assert _same_bits(raw, [w[:4] for w in want]), (tau, d)
    site_sets = [tuple(range(1, k + 1)) for k in (1, 2, 3, 4)] + [(1, 2, 4)]
    for sites in site_sets:
        for directions in (("x",), ("y",), ("x", "y"), ("y", "x")):
            (got,) = block_covariance_at(table, sites, directions)
            want = _reference_stacked_block(reference, sites, directions)
            assert got.shape == want.shape
            assert _same_bits(got, want), (sites, directions)
    if ring == "nn-critical" and not drop:
        assert np.isinf(block_covariance_at(table, (1, 2), ("y",))).any()
    if phase == "flat":
        # the flat phase's x-y entries are +0.0
        cross = block_covariance_at(table, (1, 2), ("x", "y"))[0][:, 0::2, 0::2][:, 0, 1::2]
        assert (cross == 0.0).all() and not np.signbit(cross).any()


def test_block_layout_is_shared_read_only():
    modes = ((1, "x"), (1, "y"), (2, "x"), (2, "y"))
    layout = _block_layout(modes, True)
    assert _block_layout(modes, True) is layout
    for values in (a for a in layout if isinstance(a, np.ndarray)):
        with pytest.raises(ValueError):
            values[0] = 1.0
        with pytest.raises(ValueError):
            values += 1.0
    # the flat ring has no cross sums: its cross entries read the zero sums
    assert None in _block_layout(modes, False)[0] and None not in layout[0]


# ------------------------------------------------ per-temperature sweep rows
# The sweep evaluates the rows of one nuT in one stacked pass; this is the
# loop it replaced, one temperature at a time, with one eigenvalue call per
# block, kept as the reference its rows must equal bit for bit.


def _reference_spectrum(sigma):
    ev = np.abs(np.linalg.eigvals(1j * symplectic_form(sigma.shape[0] // 2) @ sigma))
    ev = 2.0 * np.sort(ev)
    pairs, partners = ev[::2], ev[1::2]
    scale = np.maximum(np.abs(pairs), 1.0)
    if np.any(np.abs(pairs - partners) > 1e-8 * scale):
        raise NumericalFailure("symplectic eigenvalues failed to pair up")
    out = pairs.copy()
    low = out < 1.0
    if np.any(out[low] < 1.0 - 1e-10):
        raise DomainError(f"symplectic eigenvalue {out.min()} below 1 beyond tolerance")
    out[low] = 1.0
    return out


def _reference_rows(params, nu_t_paper, temperatures, negativity):
    spec = build_spectrum(params, nu_t_paper * NU_T_UNIT)
    rows = []
    for t_paper in temperatures:
        temperature = t_paper * TEMPERATURE_UNIT
        row = _blank_row(nu_t_paper, t_paper)
        row["configVariant"] = spec.config.variant.value
        row["b"] = spec.config.b
        try:
            for d in DIRECTIONS:
                _, _, _, _, q_plus, q_minus, p_plus, p_minus = _reference_pair(
                    spec, temperature, 1, d
                )
                s1, s2 = 4.0 * q_plus * p_minus - 1.0, 4.0 * q_minus * p_plus - 1.0
                row[f"S1{d}"], row[f"S2{d}"] = s1, s2
                row[f"EN{d}"] = negativity(s1, s2)
            blocks = {
                d: _reference_block(spec, temperature, (1, 2, 3), (d,), False)
                for d in DIRECTIONS
            }
            for size in (1, 2, 3):
                for d in DIRECTIONS:
                    sub = blocks[d][: 2 * size, : 2 * size]
                    entropy = math.inf
                    if np.isfinite(sub).all():
                        spectrum = _reference_spectrum(sub)
                        entropy = float(sum(spectrum_entropy((r,)) for r in spectrum))
                    row[f"SV{size}{d}"] = None if math.isinf(entropy) else entropy
                    row[f"SV{size}{d}Divergent"] = math.isinf(entropy)
        except (DomainError, NumericalFailure) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _same_cells(got, want):
    for c in COLUMNS:
        if isinstance(want[c], float):
            assert isinstance(got[c], float) and _same_bits(got[c], want[c]), c
        else:
            assert got[c] == want[c], c


#: reduced nuT whose library-unit value is exactly the critical point of the
#: n = 8 NN ring (its zone-edge y mode is 0.0)
NU_T_CRITICAL_NN8 = 1.414213562373095


@pytest.mark.parametrize("ring", ["nn", "lr"])
def test_stacked_sweep_rows_equal_the_per_temperature_reference(
    nn_ring, lr_ring, ring, monkeypatch
):
    """Every cell of the stacked sweep equals the per-temperature loop, bit
    for bit: both phases, the exactly critical NN ring with its infinite
    entries and Divergent y blocks at every temperature, and a row whose
    negativity fails while the other temperatures of its nuT compute."""
    params = nn_ring(n=8) if ring == "nn" else lr_ring(n=12)
    grid = (1.0, NU_T_CRITICAL_NN8, 2.0) if ring == "nn" else (1.0, 1.3, 2.0)
    temperatures = (0.0, 0.2, 0.5, 1.6)
    # the y criteria of the buckled point's second temperature
    buckled = build_spectrum(params, grid[0] * NU_T_UNIT)
    pair = _reference_pair(buckled, temperatures[1] * TEMPERATURE_UNIT, 1, "y")
    target = (4.0 * pair[4] * pair[7] - 1.0, 4.0 * pair[5] * pair[6] - 1.0)

    def failing_negativity(s1, s2):
        if (s1, s2) == target:
            raise DomainError("injected")
        return negativity(s1, s2)

    monkeypatch.setattr(cli, "negativity", failing_negativity)
    spec = SweepSpec(params=params, nu_t_grid=grid, temperatures=temperatures,
                     measures=("negativity", "entropy", "blockEntropy2", "blockEntropy3"))
    rows = run_sweep(spec)
    want = [row for nt in grid for row in _reference_rows(params, nt, temperatures,
                                                          failing_negativity)]
    assert len(rows) == len(want) == len(grid) * len(temperatures)
    for got, ref in zip(rows, want):
        _same_cells(got, ref)
    assert [row["error"] for row in rows[:4]] == ["", "DomainError: injected", "", ""]
    assert rows[1]["S1y"] is not None and rows[1]["ENy"] is None and rows[1]["SV1x"] is None
    assert {row["configVariant"] for row in rows} == {"zigzag", "linear"}
    if ring == "nn":
        critical = rows[4:8]
        assert all(row["SV1yDivergent"] and row["SV1y"] is None for row in critical)
        assert all(not row["SV1xDivergent"] and row["error"] == "" for row in critical)

"""Pair couplings, equilibrium configuration and the critical trap value.

The quadratic couplings are validated against an independent oracle: half
the 2D Hessian of the pair potential 1/r, evaluated at the equilibrium
separation by central finite differences. Frozen numbers below were
computed from that oracle (or from the closed forms named in each test).
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ionlattice import cli, lattice
from ionlattice.errors import ConfigError, NoConvergence
from ionlattice.lattice import (
    Configuration,
    LatticeParams,
    Variant,
    critical_potential,
    equilibrium_residual,
    solve_equilibrium,
    taylor_coefficients,
    tilde_frequencies,
)


def half_hessian(sep_x, sep_y, h=1e-4):
    """(1/2) Hessian of 1/r at separation (sep_x, sep_y), finite differences."""

    def f(u, v):
        return 1.0 / math.hypot(sep_x + u, sep_y + v)

    fxx = (f(h, 0) - 2 * f(0, 0) + f(-h, 0)) / h**2
    fyy = (f(0, h) - 2 * f(0, 0) + f(0, -h)) / h**2
    fxy = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h**2)
    return 0.5 * fxx, 0.5 * fyy, 0.5 * fxy


def test_linear_couplings_match_hessian_oracle(lr_ring):
    params = lr_ring()
    coeff = taylor_coefficients(params, Configuration(variant=Variant.LINEAR, b=0.0))
    for i, tau in enumerate(coeff.tau):
        dx, dy, dxy = half_hessian(tau, 0.0)
        assert_allclose(coeff.dx[i], dx, rtol=1e-5)
        assert_allclose(coeff.dy[i], dy, rtol=1e-5)
        assert abs(dxy) < 1e-8
        assert coeff.dxy[i] == 0.0


def test_linear_couplings_closed_form(lr_ring):
    coeff = taylor_coefficients(lr_ring(), Configuration(variant=Variant.LINEAR, b=0.0))
    assert_allclose(coeff.dx, [1.0, 1 / 8, 1 / 27, 1 / 64], rtol=1e-14)
    assert_allclose(coeff.dy, [-0.5, -1 / 16, -1 / 54, -1 / 128], rtol=1e-14)


def test_zigzag_couplings_match_hessian_oracle(lr_ring):
    params = lr_ring()
    nu_t = 0.8 * critical_potential(params)
    config = solve_equilibrium(params, nu_t)
    assert config.variant is Variant.ZIGZAG
    coeff = taylor_coefficients(params, config)
    for i, tau in enumerate(coeff.tau):
        # odd neighbours sit on opposite legs, transverse offset b
        offset = config.b if tau % 2 else 0.0
        dx, dy, dxy = half_hessian(tau, offset)
        assert_allclose(coeff.dx[i], dx, rtol=1e-5)
        assert_allclose(coeff.dy[i], dy, rtol=1e-5)
        assert_allclose(coeff.dxy[i], abs(dxy), rtol=1e-5, atol=1e-10)


def test_zigzag_unit_separation_frozen(nn_ring):
    # a = b = tau = 1: rho^2 = 2, couplings 2^(-7/2), 2^(-7/2), 3 * 2^(-7/2)
    coeff = taylor_coefficients(nn_ring(), Configuration(variant=Variant.ZIGZAG, b=1.0))
    assert_allclose(coeff.dx[0], 0.08838834764831843, rtol=1e-14)
    assert_allclose(coeff.dy[0], 0.08838834764831843, rtol=1e-14)
    assert_allclose(coeff.dxy[0], 0.26516504294495533, rtol=1e-14)


def test_coulomb_constant(nn_ring, lr_ring):
    # C = 4 Q^2 / (m a^3) is 2 in library units: at the zone edge l = n/2,
    # where sin^2(pi l tau / n) is 1 for odd tau and 0 for even, the flat
    # ring's squared axial frequency is nu^2 + C sum_{tau odd} 1/tau^3
    flat = Configuration(variant=Variant.LINEAR, b=0.0)
    for params, odd_sum in ((nn_ring(), 1.0), (lr_ring(), 1.0 + 1.0 / 27.0)):
        wx2, _, _ = tilde_frequencies(params, flat, 1.0)
        assert_allclose(wx2[params.n // 2 - 1], params.nu**2 + 2.0 * odd_sum, rtol=1e-15)


def uncached_tilde_frequencies(params, config, nu_t):
    """tilde_frequencies with every trig table computed afresh."""
    coeff = taylor_coefficients(params, config)
    ls = np.arange(1, params.n + 1, dtype=float)
    wx2 = np.full(params.n, params.nu**2)
    wy2 = np.full(params.n, nu_t**2)
    wxy = np.zeros(params.n)
    for i, tau in enumerate(coeff.tau):
        phase = np.pi * ls * tau / params.n
        sin2 = np.sin(phase) ** 2
        wx2 += 2.0 * coeff.dx[i] * sin2
        if config.variant is Variant.ZIGZAG and tau % 2 == 1:
            wy2 += 2.0 * coeff.dy[i] * np.cos(phase) ** 2
            wxy += 0.5 * coeff.dxy[i] * np.sin(2.0 * phase)
        else:
            wy2 += 2.0 * coeff.dy[i] * sin2
    return wx2, wy2, wxy


@pytest.mark.parametrize("n,tau_max,crit_mult", [
    (20, 1, 0.8), (20, 1, 1.5), (21, 1, 1.5), (1000, 4, 0.8), (1000, 4, 1.5),
    (33, 4, 1.5), (4096, 1, 1.2), (4096, 4, 0.9),
])
def test_tilde_frequencies_equal_the_uncached_expression_bit_for_bit(n, tau_max, crit_mult):
    params = LatticeParams(n=n, nu=1.2, tau_max=tau_max)
    nu_t = crit_mult * critical_potential(params, td_limit=True)
    config = solve_equilibrium(params, nu_t)
    assert config.variant is (Variant.ZIGZAG if crit_mult < 1 else Variant.LINEAR)
    for table in (lattice._sin2_table, lattice._cos2_table, lattice._sin_double_table):
        table.cache_clear()
    want = [w.tobytes() for w in uncached_tilde_frequencies(params, config, nu_t)]
    # a fresh table, then the cached one; a caller's in-place update of the
    # returned arrays leaves the cache as it was
    for _ in range(2):
        got = tilde_frequencies(params, config, nu_t)
        assert [g.tobytes() for g in got] == want
        for g in got:
            g += 1.0
    # the force balance of the root-find reads its odd squares from a cache
    taus = np.arange(1, tau_max + 1, 2, dtype=float)
    for b in (0.0, config.b, 3.7):
        pull = float(np.sum((taus**2 + b**2) ** -1.5))
        assert lattice._force_balance(params, nu_t, b).hex() == (nu_t**2 - pull).hex()


def test_cached_trig_tables_are_read_only():
    params = LatticeParams(n=12, nu=1.0, tau_max=4)
    nu_t = 0.5 * critical_potential(params, td_limit=True)
    tilde_frequencies(params, solve_equilibrium(params, nu_t), nu_t)
    tables = [lattice._sin2_table(12, tau) for tau in range(1, 5)]
    tables += [lattice._cos_double_table(12, tau) for tau in (-3, 0, 3)]
    tables += [table(12, tau) for tau in (1, 3)
               for table in (lattice._cos2_table, lattice._sin_double_table)]
    tables.append(lattice._odd_squares(4))
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table += 1.0


def test_nn_critical_point_exact(nn_ring):
    # single odd neighbour: nu_crit = 1 in library units
    assert_allclose(critical_potential(nn_ring(), td_limit=True), 1.0, atol=1e-12)
    assert_allclose(critical_potential(nn_ring(n=20)), 1.0, atol=1e-12)


def test_finite_even_ring_matches_bulk_critical_point(lr_ring):
    params = lr_ring(n=20)
    assert_allclose(
        critical_potential(params),
        critical_potential(params, td_limit=True),
        rtol=1e-14,
    )


def test_nn_equilibrium_closed_form_frozen(nn_ring):
    """b(nu_t = 0.8) in library units; the frozen value is the closed form
    sqrt(nu_t^(-4/3) - 1) and carries residual zero."""
    params = nn_ring()
    config = solve_equilibrium(params, 0.8)
    assert config.variant is Variant.ZIGZAG
    assert_allclose(config.b, 0.5886609221529209, atol=1e-12)
    assert abs(equilibrium_residual(params, 0.8, config.b)) < 1e-12


def test_a_range_one_ring_takes_the_closed_form(monkeypatch):
    # the range alone picks the route: no root-find, and b is the closed form
    # bit for bit at every buckled nu_t
    monkeypatch.setattr(lattice, "brentq", None)
    params = LatticeParams(n=20, nu=1.0, tau_max=1)
    for nu_t in np.linspace(0.05, 0.999, 50):
        closed = math.sqrt((1.0 / nu_t**2) ** (2.0 / 3.0) - 1.0)
        assert solve_equilibrium(params, nu_t).b == closed


@pytest.mark.parametrize("fraction", [0.3, 0.5, 0.7, 0.9, 0.99])
def test_lr_equilibrium_residual(lr_ring, fraction):
    params = lr_ring()
    nu_t = fraction * critical_potential(params, td_limit=True)
    config = solve_equilibrium(params, nu_t)
    assert abs(equilibrium_residual(params, nu_t, config.b)) < 1e-12


def test_lr_equilibrium_far_below_crit_widens_the_bracket(lr_ring):
    # at nu_t 0.01 the root lies beyond the starting bracket of 10 lattice
    # constants, so the bracket has to double before brentq runs
    params = lr_ring()
    config = solve_equilibrium(params, 0.01)
    assert config.variant is Variant.ZIGZAG
    assert config.b > 10.0
    assert_allclose(config.b, 27.0, rtol=0.01)
    assert equilibrium_residual(params, 0.01, config.b) < 1e-12


def test_buckling_grows_monotonically_below_crit(lr_ring):
    params = lr_ring()
    crit = critical_potential(params, td_limit=True)
    values = [solve_equilibrium(params, f * crit).b for f in np.linspace(0.3, 0.999, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.05  # continuous onset


def test_flat_at_and_above_crit(nn_ring):
    params = nn_ring()
    for nu_t in (1.0, 1.2, 5.0):
        config = solve_equilibrium(params, nu_t)
        assert config.variant is Variant.LINEAR
        assert config.b == 0.0


def test_uncharged_ring_is_flat(nn_ring):
    # the nearly uncharged ring: a charge Q -> 0 at fixed raw traps is, in
    # library units, traps far above the coupling, so even a trap 0.3 of
    # the axial one stays far above the transition at 1
    params = nn_ring(n=8, nu=1e4)
    assert solve_equilibrium(params, 0.3e4).variant is Variant.LINEAR


def test_odd_ring_rejects_buckling(nn_ring):
    params = nn_ring(n=7)
    with pytest.raises(ConfigError, match="even"):
        solve_equilibrium(params, 0.5)


def test_nonpositive_trap_rejected(nn_ring):
    with pytest.raises(ConfigError):
        solve_equilibrium(nn_ring(), 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=2),
        dict(n=20.0),  # a float is not a ring size
        dict(nu=-1.0),
        dict(nu=0.0),
        dict(nu=-math.inf),
        dict(tau_max=0),
        dict(tau_max=12),  # wrap-around on n = 20
        dict(tau_max=4.0),
        dict(n=math.nan),
        dict(tau_max=math.nan),
        dict(nu=math.inf),
        dict(tau_max=True),  # a bool is an int
    ],
)
def test_parameter_validation(kwargs):
    base = dict(n=20, nu=1.0)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        LatticeParams(**base)


def test_a_ring_too_large_for_a_numpy_array_is_a_config_error():
    # the bound fails before any array is made, so nothing is allocated
    LatticeParams(n=lattice._N_MAX, nu=1.0)
    for n in (lattice._N_MAX + 1, 3_000_000_000_000_000_000, 10**300):
        with pytest.raises(ConfigError, match="n must be at most"):
            LatticeParams(n=n, nu=1.0)


@pytest.mark.parametrize("n", [3, 8, 12, 1000, 4096])
def test_double_phase_tables_equal_the_direct_expression_bit_for_bit(n):
    # doubling is exact, so cos and sin of 2 phase are those of 2 pi l tau / n
    ls = np.arange(1, n + 1, dtype=float)
    for tau in sorted({-n, -n // 2, -3, -1, 0, 1, 3, n // 2, n}):
        angle = 2.0 * np.pi * ls * tau / n
        assert lattice._cos_double_table(n, tau).tobytes() == np.cos(angle).tobytes()
        assert lattice._sin_double_table(n, tau).tobytes() == np.sin(angle).tobytes()


def test_checked_temperatures_reads_any_iterable_once():
    temps = (0.0, 0.3, 2.0)
    assert lattice._checked_temperatures(t for t in temps) == temps
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="temperature must be non-negative and finite"):
            lattice._checked_temperatures(iter((0.0, bad)))


def test_configuration_validation():
    with pytest.raises(ConfigError):
        Configuration(variant=Variant.LINEAR, b=0.1)
    with pytest.raises(ConfigError):
        Configuration(variant=Variant.ZIGZAG, b=0.0)


@pytest.mark.parametrize("field", ["mass", "charge", "spacing", "nu"])
def test_a_nan_parameter_is_a_config_error(field):
    # a ring holds nu only; the raw units are checked by the loader that
    # reads them and builds the ring
    with pytest.raises(ConfigError, match="must be finite"):
        cli._params_from_mapping({"n": 8, field: math.nan})
    if field == "nu":
        with pytest.raises(ConfigError, match="nu must be positive"):
            LatticeParams(n=8, nu=math.nan)


def test_a_nan_transverse_trap_is_a_config_error(nn_ring):
    # NaN compares false both ways: nu_t <= 0 let it through to a NaN b
    with pytest.raises(ConfigError, match="nu_t must be positive"):
        solve_equilibrium(nn_ring(n=8), math.nan)


def test_a_nan_buckling_displacement_is_refused():
    with pytest.raises(ConfigError, match="b > 0"):
        Configuration(variant=Variant.ZIGZAG, b=math.nan)


def test_a_nan_root_fails_the_residual_gate(lr_ring, monkeypatch):
    params = lr_ring()
    nu_t = 0.5 * critical_potential(params, td_limit=True)
    monkeypatch.setattr(lattice, "brentq", lambda *args, **kwargs: math.nan)
    with pytest.raises(NoConvergence, match="force balance residual nan"):
        solve_equilibrium(params, nu_t)


def test_default_neighbour_range():
    # the nearest-neighbour ring; the CLI's --model LR presets tau_max 4
    nn = LatticeParams(n=8, nu=1.0)
    assert nn.tau_max == 1

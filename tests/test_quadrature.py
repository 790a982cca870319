"""Half-zone dispersion averages: closed-form oracles and divergence flags.

The NN transverse branch at its critical trap strength is omega(alpha) =
sqrt(C/2) |cos alpha| for C = 4 Q^2/(m a^3); with C = 2 that is exactly
cos(alpha) on [0, pi/2], where every average below has an elementary
antiderivative. Those closed forms are the oracles here.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ionlattice import covariance
from ionlattice._solvers import rule_nodes
from ionlattice.covariance import (
    _bulk_dispersion,
    _bulk_integrands,
    _dispersion_sum,
    pair_moments,
    td_pair_criteria,
    td_single_site_eigenvalue,
)
from ionlattice.errors import ConfigError, QuadratureFailure
from ionlattice.lattice import critical_potential
from ionlattice.quadrature import (
    HALF_PI,
    Divergent,
    integrate_weighted_frequency,
    integrate_weighted_inverse,
)

COS2 = lambda a: math.cos(a) ** 2  # omega^2 for the critical NN branch, C = 2


def lift(f):
    """The rule integrand of a scalar function: its 21 values on an interval."""
    return lambda centr, hlgth: [f(x) for x in rule_nodes(centr, hlgth)]


def frequency_integrand(weight, omega2):
    """weight * omega, with a negative omega^2 read as 0."""

    def f(a):
        w2 = omega2(a)
        return weight(a) * math.sqrt(w2 if w2 > 0.0 else 0.0)

    return f


def inverse_arguments(weight, omega2):
    """The arguments of integrate_weighted_inverse for weight / omega."""

    def g(u):
        a = math.acos(u)
        w2 = omega2(a)
        if w2 <= 0.0:
            return 0.0
        return weight(a) / math.sqrt(w2 * (1.0 - u * u))

    return g, omega2(HALF_PI), weight(HALF_PI), abs(omega2(0.0))


def integrate_frequency(weight, omega2):
    return integrate_weighted_frequency(lift(frequency_integrand(weight, omega2)))


def integrate_inverse(weight, omega2):
    g, *edge = inverse_arguments(weight, omega2)
    return integrate_weighted_inverse(lift(g), *edge)


def test_weighted_frequency_closed_forms():
    # int (1 - cos 2a) cos a da = 2/3 on [0, pi/2]
    got = integrate_frequency(lambda a: 1.0 - math.cos(2 * a), COS2)
    assert_allclose(got, 2.0 / 3.0, atol=1e-9)
    # int (1 + cos 2a) cos a da = 4/3
    got = integrate_frequency(lambda a: 1.0 + math.cos(2 * a), COS2)
    assert_allclose(got, 4.0 / 3.0, atol=1e-9)


def test_weighted_inverse_closed_form():
    # int (1 + cos 2a) / cos a da = int 2 cos a da = 2; the weight's
    # second-order zero at the edge tames the soft mode
    got = integrate_inverse(lambda a: 1.0 + math.cos(2 * a), COS2)
    assert isinstance(got, float)
    assert_allclose(got, 2.0, atol=1e-8)


def test_weighted_inverse_flags_edge_divergence():
    # (1 - cos 2a) / cos a has a simple pole at the zone edge
    got = integrate_inverse(lambda a: 1.0 - math.cos(2 * a), COS2)
    assert isinstance(got, Divergent)
    assert "zone-edge" in got.reason


def test_weighted_inverse_growth_detector():
    # omega^2 = cos^8(a) vanishes at the edge too fast for the analytic
    # precheck window, but a constant-plus-cos weight stays finite there;
    # only the refinement watch can catch this one
    got = integrate_inverse(
        lambda a: 1.0 + math.cos(2 * a), lambda a: math.cos(a) ** 8
    )
    assert isinstance(got, Divergent)
    assert "refinement" in got.reason


@pytest.mark.parametrize("nu", [0.7, 1.0, 2.5])
def test_flat_dispersion_recovers_vacuum(nu):
    w2 = lambda a: nu * nu
    one = lambda a: 1.0
    assert_allclose(integrate_inverse(one, w2), math.pi / (2 * nu), atol=1e-9)
    assert_allclose(integrate_frequency(one, w2), nu * math.pi / 2, atol=1e-9)


def test_td_single_site_vacuum(nn_ring):
    # traps that dwarf the coupling: every site is in its ground state, up to
    # terms of order (coupling / trap^2)^2 = 1e-4 (the value is 1 + 1.6e-6)
    params = nn_ring(nu=10.0)
    r = td_single_site_eigenvalue(params, 10.0, "y")
    assert_allclose(r, 1.0, atol=1e-5)


def test_td_single_site_diverges_at_critical_point(nn_ring):
    params = nn_ring()
    crit = critical_potential(params, td_limit=True)
    out = td_single_site_eigenvalue(params, crit, "y")
    assert isinstance(out, Divergent)


def test_td_criteria_critical_anchor(nn_ring):
    # S1 = 16/(3 pi^2) - 1 exactly at the critical point (C = 2, tau = 1);
    # the conjugate combination diverges
    params = nn_ring()
    crit = critical_potential(params, td_limit=True)
    s1, s2 = td_pair_criteria(params, crit, 1, "y")
    assert_allclose(s1, 16.0 / (3.0 * math.pi**2) - 1.0, atol=1e-10)
    assert s2 == math.inf


def test_td_criteria_match_large_ring(nn_ring):
    # off-critical bulk averages agree with a long finite ring
    nu_t = 1.25
    td_params = nn_ring()
    s1, s2 = td_pair_criteria(td_params, nu_t, 1, "y")
    big = nn_ring(n=8192)
    mom = pair_moments(big, nu_t, 0.0, 1, "y")
    s1_ring = 4.0 * mom.q_plus * mom.p_minus - 1.0
    s2_ring = 4.0 * mom.q_minus * mom.p_plus - 1.0
    assert_allclose(s1, s1_ring, atol=1e-3)
    assert_allclose(s2, s2_ring, atol=1e-3)


def test_td_criteria_reject_buckled_regime(nn_ring):
    params = nn_ring()
    crit = critical_potential(params, td_limit=True)
    with pytest.raises(ConfigError):
        td_pair_criteria(params, 0.9 * crit, 1, "y")
    with pytest.raises(ConfigError):
        td_single_site_eigenvalue(params, 0.9 * crit, "y")


def test_td_criteria_validation(nn_ring):
    params = nn_ring()
    with pytest.raises(ConfigError):
        td_pair_criteria(params, 1.5, 0, "y")
    with pytest.raises(ConfigError):
        td_pair_criteria(params, 1.5, 1, "z")


def same_bits(got, expect):
    """Equal values, and equal signs of zero."""
    return len(got) == len(expect) and all(
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b) for a, b in zip(got, expect)
    )


def visited_intervals(integrate, f, *args):
    """The (centre, half-length) of every rule a quadrature of f evaluates."""
    seen = []

    def recorded(centr, hlgth):
        seen.append((centr, hlgth))
        return f(centr, hlgth)

    try:
        integrate(recorded, *args)
    except QuadratureFailure:
        pass
    return seen


WEIGHTS = [(0, 0.0), (1, 1.0), (1, -1.0), (3, 1.0), (3, -1.0)]


def textbook_weight(tau, sign):
    if sign == 0.0:
        return lambda a: 1.0
    if sign > 0.0:
        return lambda a: 1.0 + math.cos(2.0 * a * tau)
    return lambda a: 1.0 - math.cos(2.0 * a * tau)


@pytest.mark.parametrize("ring", ["nn", "lr"])
@pytest.mark.parametrize("direction", ["x", "y"])
@pytest.mark.parametrize("tau, sign", WEIGHTS)
def test_bulk_integrands_equal_the_composed_ones(nn_ring, lr_ring, ring, direction, tau, sign):
    """The rule integrands give every rule value, bit for bit, of the weight
    and dispersion evaluated per node as separate functions in their
    textbook form (1 - cos, base - C/2 S): on seeded random intervals of
    both variables and on every interval that QAGS visits, away from the
    soft edge, next to it, and past it, where omega^2 <= 0 near the edge
    gives zeros. The other weights fill the node cache on the same
    intervals first, so no cached entry of theirs can stand in."""
    params = nn_ring() if ring == "nn" else lr_ring()
    c, tau_max = 2.0, params.tau_max  # C = 4 Q^2 / (m a^3) in library units
    crit = critical_potential(params, td_limit=True)
    weight = textbook_weight(tau, sign)
    rng = np.random.default_rng(tau)
    checked = 0
    for nu_t in (crit * (1.0 - 1e-3), crit * (1.0 + 1e-6), 1.3):
        if direction == "x":
            omega2 = lambda a: params.nu**2 + c * _dispersion_sum(tau_max, a)
        else:
            omega2 = lambda a: nu_t**2 - 0.5 * c * _dispersion_sum(tau_max, a)
        base_k = _bulk_dispersion(params, nu_t, direction)
        f, (g, *edge) = _bulk_integrands(*base_k, tau_max, tau, sign)
        f_ref = frequency_integrand(weight, omega2)
        g_ref, *edge_ref = inverse_arguments(weight, omega2)
        assert edge == edge_ref
        others = [_bulk_integrands(*base_k, tau_max, *w) for w in WEIGHTS if w != (tau, sign)]
        for rule, ref, end, integrate, args, other_rules in (
            (f, f_ref, HALF_PI, integrate_weighted_frequency, (), [o[0] for o in others]),
            (g, g_ref, 1.0, integrate_weighted_inverse, edge, [o[1][0] for o in others]),
        ):
            ends = np.sort(rng.uniform(0.0, end, (40, 2)))
            intervals = [(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in ends]
            intervals += visited_intervals(integrate, lift(ref), *args)
            covariance._rule_node_data.cache_clear()
            for other in other_rules:
                for centr, hlgth in intervals:
                    other(centr, hlgth)
            for centr, hlgth in intervals:
                expect = [ref(x) for x in rule_nodes(centr, hlgth)]
                assert same_bits(rule(centr, hlgth), expect), (nu_t, centr, hlgth)
                checked += 1
    assert checked > 240  # 240 random intervals, the rest visited by QAGS

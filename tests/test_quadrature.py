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

from ionlattice.covariance import (
    _bulk_dispersion,
    _bulk_integrands,
    _dispersion_sum,
    pair_moments,
    td_pair_criteria,
    td_single_site_eigenvalue,
)
from ionlattice.errors import ConfigError
from ionlattice.lattice import critical_potential
from ionlattice.quadrature import (
    HALF_PI,
    Divergent,
    integrate_weighted_frequency,
    integrate_weighted_inverse,
)

COS2 = lambda a: math.cos(a) ** 2  # omega^2 for the critical NN branch, C = 2


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
    return integrate_weighted_frequency(frequency_integrand(weight, omega2))


def integrate_inverse(weight, omega2):
    return integrate_weighted_inverse(*inverse_arguments(weight, omega2))


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
    # uncharged ring: every site is in its ground state, eigenvalue 1
    params = nn_ring(charge=0.0, nu=1.0)
    r = td_single_site_eigenvalue(params, 1.3, "y")
    assert_allclose(r, 1.0, atol=1e-9)


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


@pytest.mark.parametrize("ring", ["nn", "lr"])
@pytest.mark.parametrize("direction", ["x", "y"])
@pytest.mark.parametrize("tau, sign", [(0, 0.0), (1, 1.0), (1, -1.0), (3, 1.0), (3, -1.0)])
def test_bulk_integrands_equal_the_composed_ones(nn_ring, lr_ring, ring, direction, tau, sign):
    """The single-closure integrands give the value, bit for bit, of the
    weight and dispersion evaluated as separate functions in their
    textbook form (1 - cos, base - C/2 S), over both variables' ranges."""
    params = nn_ring() if ring == "nn" else lr_ring()
    nu_t = 1.3
    c, tau_max = params.coulomb_constant, params.tau_max
    if direction == "x":
        omega2 = lambda a: params.nu**2 + c * _dispersion_sum(tau_max, a)
    else:
        omega2 = lambda a: nu_t**2 - 0.5 * c * _dispersion_sum(tau_max, a)
    if sign == 0.0:
        weight = lambda a: 1.0
    elif sign > 0.0:
        weight = lambda a: 1.0 + math.cos(2.0 * a * tau)
    else:
        weight = lambda a: 1.0 - math.cos(2.0 * a * tau)
    f, inverse = _bulk_integrands(*_bulk_dispersion(params, nu_t, direction), tau_max, tau, sign)
    f_ref = frequency_integrand(weight, omega2)
    g_ref, *edge_ref = inverse_arguments(weight, omega2)
    g, *edge = inverse
    assert edge == edge_ref
    rng = np.random.default_rng(tau)
    nodes = [0.0, *rng.uniform(0.0, 1.0, 300)]
    for x in nodes:
        assert f(x * HALF_PI) == f_ref(x * HALF_PI)
        assert g(x) == g_ref(x)  # g is singular at u = 1, which QAGS never samples
    assert f(HALF_PI) == f_ref(HALF_PI)

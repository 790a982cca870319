"""Energy-based entanglement witness: dressed frequencies, bound, crossing.

For the NN flat chain the dressed frequencies close in elementary form:
Omega_x^2 = nu^2 + 2 Q^2/(m) * 2/a^3 = nu^2 + C and Omega_y^2 = nu_t^2 - C/4,
giving sqrt(3) and sqrt(1.25) at C = 2 (library units), nu = 1, nu_t = 1.5.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, Verbosity, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ionlattice import witness
from ionlattice._solvers import brentq
from ionlattice.cli import (
    NU_T_UNIT,
    TEMPERATURE_UNIT,
    SweepSpec,
    _params_from_mapping,
    run_sweep,
)
from ionlattice.errors import ConfigError, DomainError
from ionlattice.lattice import (
    LatticeParams,
    critical_potential,
    solve_equilibrium,
    taylor_coefficients,
)
from ionlattice.spectrum import build_spectrum
from ionlattice.witness import (
    critical_temperature,
    effective_frequencies,
    internal_energy,
    separability_bound,
    witness_report,
    witness_reports,
)


def test_flat_dressed_frequencies_closed_form(nn_ring):
    wx, wy = effective_frequencies(nn_ring(), 1.5)
    assert_allclose(wx, math.sqrt(3.0), atol=1e-12)
    assert_allclose(wy, math.sqrt(1.25), atol=1e-12)


def test_strong_traps_undress_the_bound(nn_ring):
    # the decoupled limit: traps that dwarf the coupling leave the dressed
    # frequencies at the bare traps and U(0) at the bound, to about 1e-8
    nu, nu_t = 1e4, 1.3e4
    params = nn_ring(n=8, nu=nu)
    assert_allclose(effective_frequencies(params, nu_t), (nu, nu_t), rtol=2e-8)
    bound = separability_bound(params, nu_t)
    assert_allclose(internal_energy(params, nu_t, 0.0), bound, rtol=1e-8)


def test_internal_energy_increases_with_temperature(nn_ring):
    params = nn_ring()
    us = [internal_energy(params, 1.4, t) for t in (0.0, 0.3, 0.8, 2.0)]
    assert all(a < b for a, b in zip(us, us[1:]))


def test_internal_energy_equipartition_limit(nn_ring):
    # two quadratic directions per site: U -> 2 N T at high temperature
    params = nn_ring(n=10)
    t = 500.0
    assert_allclose(internal_energy(params, 1.4, t) / (2 * 10 * t), 1.0, rtol=1e-2)


def test_bound_is_half_ring_times_frequency_sum(nn_ring):
    params = nn_ring(n=8)
    nu_t = 0.8
    wx, wy = effective_frequencies(params, nu_t)
    expect = 0.5 * 8 * (wx + wy)
    assert_allclose(separability_bound(params, nu_t), expect, rtol=1e-14)


@st.composite
def small_even_rings(draw):
    """(params, nu_t): an even ring of range 1 or 4 and at most 16 sites in
    library units, with nu_t between half and twice its critical value."""
    tau_max = draw(st.sampled_from((1, 4)))
    sizes = (4, 6, 8, 10, 12) if tau_max == 1 else (10, 12, 14, 16)
    params = LatticeParams(n=draw(st.sampled_from(sizes)), nu=draw(st.floats(0.5, 2.0)),
                           tau_max=tau_max)
    return params, draw(st.floats(0.5, 2.0)) * critical_potential(params)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5a: the bound dresses the traps "
                   "with 4 Q^2 / m, the site diagonal with 2 Q^2 / m")
# quiet: a reported falsifying example makes the pytest plugin import libcst
# and write an @example patch under .hypothesis/patches; no explain phase,
# which replays the failure under a line tracer for a report nobody reads
@settings(max_examples=30, deadline=None, database=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink),
          verbosity=Verbosity.quiet)
@given(small_even_rings())
def test_no_product_state_falls_below_the_bound(case):
    # The least energy of a product Gaussian state puts every site in the ground
    # state of its own diagonal Omega~^2 = nu_u^2 + sum d_tau of the dense
    # oracle's quadratic form ((2 Q^2 / m) sum d_tau in raw units); the x-y and
    # inter-site terms average to zero. A separability bound may not exceed that
    # energy (n / 2)(Omega~x + Omega~y).
    params, nu_t = case
    coeff = taylor_coefficients(params, solve_equilibrium(params, nu_t))
    site_x = math.sqrt(params.nu**2 + float(np.sum(coeff.dx)))
    site_y = math.sqrt(nu_t**2 + float(np.sum(coeff.dy)))
    assert separability_bound(params, nu_t) <= 0.5 * params.n * (site_x + site_y)


def test_buckled_crossing_frozen_values(nn_ring):
    params = nn_ring(n=8)
    assert_allclose(critical_temperature(params, 0.8), 0.25980041956201994, rtol=1e-8)


def test_crossing_temperature_sits_on_the_bound(nn_ring):
    params = nn_ring(n=8)
    tc = critical_temperature(params, 0.8)
    u = internal_energy(params, 0.8, tc)
    bound = separability_bound(params, 0.8)
    assert abs(u - bound) < 1e-8 * bound


def test_witness_report_consistency(nn_ring):
    params = nn_ring(n=8)
    report = witness_report(params, 0.8, 0.1)
    assert report.internal_energy < report.bound  # T = 0.1 is below the crossing
    hot = witness_report(params, 0.8, 1.0)
    assert hot.internal_energy >= hot.bound
    assert_allclose(
        hot.critical_temperature, report.critical_temperature, rtol=1e-12
    )


def test_negative_temperature_is_a_config_error(nn_ring):
    with pytest.raises(ConfigError):
        internal_energy(nn_ring(), 1.5, -0.5)
    with pytest.raises(ConfigError, match="temperature must be non-negative"):
        witness_reports(build_spectrum(nn_ring(), 1.5), (0.0, -0.5))


def test_witness_reports_take_temperatures_from_a_generator(nn_ring):
    # the temperature check must leave a generator for the reports
    spec = build_spectrum(nn_ring(n=8), 0.8)
    temps = [0.0, 0.1, 1.0]
    want = witness_reports(spec, temps)
    assert len(want) == 3
    assert witness_reports(spec, (t for t in temps)) == want


@pytest.mark.parametrize("temperature", [math.nan, math.inf])
def test_a_non_finite_temperature_is_a_config_error(nn_ring, temperature):
    # a NaN would pass a t < 0 test and read as T = 0
    with pytest.raises(ConfigError, match="temperature must be non-negative and finite"):
        internal_energy(nn_ring(), 1.5, temperature)
    with pytest.raises(ConfigError, match="temperature must be non-negative and finite"):
        witness_reports(build_spectrum(nn_ring(), 1.5), (0.0, temperature))


def test_critical_point_zero_mode_gets_kinetic_share(nn_ring):
    params = nn_ring(n=20)
    crit = critical_potential(params)
    u_cold = internal_energy(params, crit, 0.0)
    u_warm = internal_energy(params, crit, 0.05)
    assert math.isfinite(u_cold) and math.isfinite(u_warm)
    assert u_warm > u_cold


@pytest.mark.parametrize("nu_t_reduced", [1.31, 1.72])
def test_crossing_search_survives_cold_modes_on_a_large_ring(lr_ring, nu_t_reduced):
    # brentq probes temperatures where omega / T exceeds the range of expm1
    # (about 709.8); such modes must count as omega / 2 instead of overflowing.
    # Readings at this ring: 0.2805 and 0.3692 T units.
    params = lr_ring(n=1000)
    nu_t = nu_t_reduced * NU_T_UNIT
    tc = critical_temperature(params, nu_t)
    assert tc is not None and math.isfinite(tc) and tc > 0.0
    bound = separability_bound(params, nu_t)
    assert abs(internal_energy(params, nu_t, tc) - bound) < 1e-8 * bound
    # far below every mode frequency the energy is the zero-point energy exactly
    assert internal_energy(params, nu_t, 1e-6) == internal_energy(params, nu_t, 0.0)


def scalar_energy(omega, temperature, expm1=np.expm1):
    """U(T) as a scalar loop over the modes, summed left to right, with each
    Bose term from ``expm1`` of its single value; an overflow of w / T or of
    ``expm1`` is the cold limit inf, any other floating-point fault is not."""
    total = 0.0
    for w in omega.ravel():
        if w <= 0.0:
            total += temperature
            continue
        if temperature == 0.0:
            total += 0.5 * w
        else:
            with np.errstate(over="ignore"):
                bose = expm1(w / temperature)
            total += w * (1.0 / bose + 0.5)
    return float(total)


def libm_expm1(x):
    """math.expm1, inf past its range as np.expm1 gives."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("nu_t_reduced", [1.31, 1.72])
def test_energy_equals_scalar_loop_bit_for_bit(lr_ring, nu_t_reduced):
    params = lr_ring(n=1000)
    nu_t = nu_t_reduced * NU_T_UNIT
    omega = build_spectrum(params, nu_t).omega
    for t in (0.0, 1e-6, 0.2, 5.0):
        assert internal_energy(params, nu_t, t) == scalar_energy(omega, t), t
        assert witness_report(params, nu_t, t).internal_energy == scalar_energy(omega, t), t


def test_energy_with_a_zero_mode_equals_scalar_loop_bit_for_bit(nn_ring):
    params = nn_ring(n=20)
    crit = critical_potential(params)
    omega = build_spectrum(params, crit).omega
    assert (omega == 0.0).any()
    for t in (0.0, 0.05, 0.7):
        assert internal_energy(params, crit, t) == scalar_energy(omega, t), t


def test_energy_of_a_small_ring_equals_scalar_loop_bit_for_bit(nn_ring):
    # U is small here, so a one-ulp change of a single Bose term (np.expm1
    # and math.expm1 differ in the last bit for some arguments) shows in the sum:
    # the vector kernel must equal np.expm1 of each value alone
    params = nn_ring(n=4)
    omega = build_spectrum(params, 1.5).omega
    for t in np.geomspace(0.05, 20.0, 60):
        assert internal_energy(params, 1.5, t) == scalar_energy(omega, t), t


def bits(value):
    """The exact bits of a float, so that -0.0 and 0.0 differ."""
    return float(value).hex()


@st.composite
def modes_and_temperature(draw):
    """(omega, T): distinct frequencies each repeated 1-4 times, some exact
    zeros, all in shuffled order. Besides a wide range, omega / T is drawn
    near 37, past which the Bose term is below half an ulp of 1/2, near
    709.78, past which expm1 overflows, and at subnormal values, where
    1 / expm1(omega / T) overflows."""
    t = draw(st.sampled_from((0.0, 1e-300, 0.37, 1e300)))
    scale = t if t > 0.0 else 1.0
    ratio = st.one_of(
        st.floats(1e-3, 2e3),
        st.floats(36.0, 38.0),
        st.floats(709.7, 709.9),
        st.floats(5e-324, 2.2250738585072014e-308),
    )
    ratios = draw(st.lists(ratio, min_size=1, max_size=30))
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(ratios), max_size=len(ratios)))
    values = [r * scale for r, k in zip(ratios, repeats) for _ in range(k)]
    values += [0.0] * draw(st.integers(0, 3))
    return np.array(draw(st.permutations(values))), t


def outcome(evaluate):
    """The bits of ``evaluate()``, or the name of the floating-point fault it
    raised."""
    try:
        return bits(evaluate())
    except FloatingPointError:
        return "FloatingPointError"


@settings(max_examples=300, deadline=None, database=None)
@given(modes_and_temperature())
def test_energy_of_drawn_modes_equals_scalar_loop_bit_for_bit(case):
    omega, t = case
    energy = witness._Energy(omega)
    # T, then T = 0, then T again (from the memo unless T raised): each equals
    # its own scalar loop, and raises exactly where that loop raises
    with np.errstate(all="raise"):
        for temperature in (t, 0.0, t):
            want = outcome(lambda: scalar_energy(omega, temperature))
            assert outcome(lambda: energy(temperature)) == want


@pytest.mark.parametrize("ratio,raises", [(37.5, False), (709.79, False), (1e-310, True)])
def test_energy_raises_exactly_where_the_scalar_loop_raises(ratio, raises):
    # past 37 and past the range of expm1 a mode carries omega / 2 with no
    # fault; at a subnormal omega / T, 1 / expm1 overflows in both
    omega = np.array([1.0, ratio * 0.37, 0.0])
    with np.errstate(all="raise"):
        want = outcome(lambda: scalar_energy(omega, 0.37))
        got = outcome(lambda: witness._Energy(omega)(0.37))
    assert got == want
    assert (got == "FloatingPointError") is raises


def test_energy_keeps_the_sign_of_a_negative_zero_temperature():
    # zero modes only: U is the sum of the temperature's own zeros
    energy = witness._Energy(np.zeros(3))
    assert bits(energy(0.0)) == bits(0.0)
    assert bits(energy(-0.0)) == bits(-0.0)


def scalar_crossing(params, nu_t):
    """Tc by the crossing search of the witness, with U from the scalar loop."""
    omega = build_spectrum(params, nu_t).omega
    bound = separability_bound(params, nu_t)
    assert scalar_energy(omega, 0.0) < bound

    def gap(t):
        return scalar_energy(omega, t) - bound

    hi = max(params.nu, nu_t)
    while gap(hi) <= 0.0:
        hi *= 2.0
    return brentq(gap, 0.0, hi, rtol=1e-10)


def test_the_crossing_search_doubles_its_bracket_until_the_gap_opens(nn_ring):
    """U(T) = T stays below a bound of 1000 up to T = 1000, so the upper end
    of the bracket doubles from max(nu, nu_t) = 1.5 ten times, to 1536, and
    Brent's method runs on [0, 1536]."""
    seen = []

    def energy(t):
        seen.append(t)
        return t

    tc = witness._crossing(nn_ring(n=8), 1.5, energy, 1000.0)
    assert seen[:12] == [0.0] + [1.5 * 2.0**k for k in range(11)]
    want = brentq(lambda t: t - 1000.0, 0.0, 1536.0, xtol=witness.TC_XTOL, rtol=1e-10)
    assert bits(tc) == bits(want)


def test_a_bound_no_temperature_reaches_is_a_domain_error(nn_ring):
    seen = []

    def energy(t):
        seen.append(t)
        return 0.0

    with pytest.raises(DomainError, match="no bound crossing"):
        witness._crossing(nn_ring(n=8), 1.5, energy, 1.0)
    # U(0) and the 200 doublings of the upper end
    assert len(seen) == 201 and seen[-1] == 1.5 * 2.0**199


@pytest.mark.parametrize("ring,nu_t_reduced", [("LR", 1.31), ("LR", 1.72), ("NN", 0.8)])
def test_crossing_equals_brentq_on_the_scalar_loop_bit_for_bit(lr_ring, nn_ring, ring,
                                                                nu_t_reduced):
    if ring == "LR":
        params = lr_ring(n=1000)
        nu_t = nu_t_reduced * NU_T_UNIT
    else:
        # the NN ring of nn_ring buckles below nu_t = 1
        params = nn_ring(n=20)
        nu_t = nu_t_reduced
        assert build_spectrum(params, nu_t).variant.value == "zigzag"
    assert bits(critical_temperature(params, nu_t)) == bits(scalar_crossing(params, nu_t))


def test_energy_agrees_with_a_math_expm1_loop(lr_ring, nn_ring):
    # np.expm1 and libm's math.expm1 may differ in the last bit of a Bose
    # term, which moves U by far less than 1e-15 relative
    small = nn_ring(n=4)
    omega = build_spectrum(small, 1.5).omega
    for t in np.geomspace(0.05, 20.0, 60):
        want = scalar_energy(omega, t, libm_expm1)
        assert_allclose(internal_energy(small, 1.5, t), want, rtol=1e-15, atol=0)
    params = lr_ring(n=1000)
    for nu_t in (1.31 * NU_T_UNIT, 1.72 * NU_T_UNIT):
        omega = build_spectrum(params, nu_t).omega
        for t in (1e-6, 0.2, 5.0):
            want = scalar_energy(omega, t, libm_expm1)
            assert_allclose(internal_energy(params, nu_t, t), want, rtol=1e-15, atol=0)


def test_witness_makes_one_expm1_call_per_temperature(lr_ring, monkeypatch):
    params = lr_ring(n=1000)
    spec = build_spectrum(params, 1.31 * NU_T_UNIT)
    expm1_calls = []
    expm1 = np.expm1

    def counted(x):
        expm1_calls.append(x)
        return expm1(x)

    evaluated = []
    evaluate = witness._Energy._evaluate

    def recorded(self, temperature):
        evaluated.append(temperature)
        return evaluate(self, temperature)

    monkeypatch.setattr(np, "expm1", counted)
    monkeypatch.setattr(witness._Energy, "_evaluate", recorded)
    warm = 0.2 * TEMPERATURE_UNIT
    reports = witness_reports(spec, (0.0, warm, 0.0, warm))
    assert reports[0] == reports[2] and reports[1] == reports[3]
    # T = 0 and the crossing search's temperatures are each evaluated once
    assert len({bits(t) for t in evaluated}) == len(evaluated)
    positive = [t for t in evaluated if t > 0.0]
    assert len(positive) > 10
    assert len(expm1_calls) == len(positive)


def witness_cells(model, n, mass, charge, spacing):
    """(variant, U, bound, Tc) of each row of ``sweep --measures witness``
    on both sides of the transition at two temperatures, in reduced units."""
    params = _params_from_mapping({
        "n": n, "model": model, "mass": mass, "charge": charge, "spacing": spacing,
        "nu": 1.4142135623730951,
    })
    spec = SweepSpec(params=params, nu_t_grid=(1.0, 2.0), temperatures=(0.0, 0.3),
                     measures=("witness",))
    rows = run_sweep(spec)
    assert all(row["error"] == "" for row in rows)
    return [(row["configVariant"], row["U"], row["bound"], row["Tc"]) for row in rows]


#: a raw mass, charge or spacing between 1e-3 and 1e3
RAW_SCALE = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=20, deadline=None, database=None)
@given(mass=RAW_SCALE, charge=RAW_SCALE, spacing=RAW_SCALE)
def test_reduced_witness_does_not_depend_on_the_raw_scale(mass, charge, spacing):
    # the library works in the units of (m, Q, a) = (2, 1, 1), so every
    # reduced witness cell is the same number at any raw scale
    for model, n in (("NN", 8), ("LR", 12)):
        want = witness_cells(model, n, 2.0, 1.0, 1.0)
        got = witness_cells(model, n, mass, charge, spacing)
        assert [c[0] for c in got] == ["zigzag"] * 2 + ["linear"] * 2
        assert got == want

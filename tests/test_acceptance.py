"""End-to-end acceptance battery.

One test per shipping criterion; each prints a single "criterion NN:
PASS/FAIL (detail)" line, echoed again in the terminal summary. Tolerances
are stated inline. Criteria that the implementation genuinely cannot meet
fail here honestly rather than being weakened; the detail string carries
the measured numbers.

Criterion 06 checks the x-y decoupling that the buckled Hamiltonian's
symmetries force (reflection and glide), not a blanket decoupling: the
zigzag's odd-tau cross coupling makes distinct-site moments nonzero. Only
criterion 09 stays red. The witness has one bound, so the criterion has
one reading; an earlier "absolute" cross-term reading, which depended on
the raw units, could pass it by a change of units alone. The reading
(0.7339) misses the 0.12 anchor for two reasons: the witness dresses the
traps with the zone-edge coupling sum (4 Q^2 / m) sum d_tau where the site
diagonal is (2 Q^2 / m) sum d_tau (corrected, the reading is 0.4163), and
nothing in the repository derives the 0.12 anchor or its temperature unit.

Beside criterion 01, three plain tests check how the bulk values approach
the transition from the flat side: the derivative of the neighbour negativity
diverges as a ln(eps) and the squared single-site symplectic eigenvalue grows
as b ln(1/eps), with a and b fixed by band averages at the critical trap, and
the largest squared symplectic eigenvalue of a 2- or 3-site block as
b_L ln(1/eps), with b_L fixed by the block's momentum part. A fourth checks
the thermal law: at T > 0 the entropy of a y block grows as ln(1/eps) / 4,
and a fifth the amplitude of its largest squared symplectic eigenvalue.

Beside criterion 03, three plain tests check the block entropy at and near
the transition, at zero and finite temperature, against the c = 1 laws
that conformal field theory fixes, which the code does not itself encode.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from ionlattice.cli import TEMPERATURE_UNIT, main
from ionlattice.covariance import (
    block_covariance,
    direct_covariance_oracle,
    pair_moments,
    td_single_site_eigenvalue,
)
from ionlattice.entanglement import (
    block_entropy,
    block_entropy_profile,
    negativity,
    separability_criteria,
    symplectic_spectrum,
)
from ionlattice.errors import Divergent, DomainError
from ionlattice.lattice import (
    LatticeParams,
    critical_potential,
    solve_equilibrium,
)
from ionlattice.witness import critical_temperature

ROOT_HALF = math.sqrt(0.5)


def _eny(params, nu_t, t_raw):
    s1, s2 = separability_criteria(pair_moments(params, nu_t, t_raw, 1, "y"))
    return negativity(s1, s2)


def test_criterion_01_bulk_critical_negativity(record_criterion, capsys):
    started = time.perf_counter()
    rc = main([
        "sweep", "--n", "20", "--mass", "2", "--charge", "1", "--spacing", "1",
        "--nu", repr(math.sqrt(2.0)), "--nu-t", repr(math.sqrt(2.0)),
        "--td-limit", "--measures", "negativity",
    ])
    elapsed = time.perf_counter() - started
    lines = capsys.readouterr().out.strip().split("\n")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    s1 = float(row["S1y"])
    en = float(row["ENy"])
    s1_expect = 16.0 / (3.0 * math.pi**2) - 1.0
    en_expect = 0.3077416690635716
    ok = (
        rc == 0
        and abs(s1 - s1_expect) < 1e-3
        and abs(en - en_expect) < 1e-3
        and elapsed < 1.0
    )
    record_criterion(
        1, ok, f"S1={s1:.9f} (expect {s1_expect:.9f}), "
        f"EN={en:.9f} (expect {en_expect:.9f}), {elapsed:.2f}s",
    )


def _band_slopes(tau_max, points=2**18):
    """(a, b) of the bulk transition from band averages at the critical trap,
    by a midpoint rule on the flat transverse branch
    omega^2 = nu_c^2 - 1/2 sum_tau (1 - cos k tau) / tau^3, which is written
    here independently of the library's spectrum. Near the zone edge
    k = pi + q it reads g^2 + c q^2 with g^2 = nu_t^2 - nu_c^2; the g^2 ln g
    terms of A = <(1 + cos k) / omega> and B = <(1 - cos k) omega> give the
    negativity slope a, and <omega> the site-variance slope b."""
    k = (np.arange(points) + 0.5) * (2.0 * math.pi / points)
    taus = range(1, tau_max + 1)
    nu_c2 = sum(1.0 / tau**3 for tau in taus if tau % 2)
    omega = np.sqrt(nu_c2 - 0.5 * sum((1.0 - np.cos(tau * k)) / tau**3 for tau in taus))
    c = 0.25 * sum((-1.0) ** (tau + 1) / tau for tau in taus)
    a_c = np.mean((1.0 + np.cos(k)) / omega)
    b_c = np.mean((1.0 - np.cos(k)) * omega)
    a = -0.5 * math.sqrt(nu_c2) * (
        1.0 / (4.0 * math.pi * c**1.5 * a_c) - 1.0 / (math.pi * math.sqrt(c) * b_c))
    b = np.mean(omega) / (2.0 * math.pi * math.sqrt(c))
    return float(a), float(b)


#: the NN slopes in closed form: A_c = 4/pi, B_c = 4/(3 pi), <omega>_c = 2/pi
NN_SLOPES = (0.5, 2.0 / math.pi**2)


def test_the_band_averages_give_the_nn_slopes_in_closed_form():
    assert _band_slopes(1) == pytest.approx(NN_SLOPES, rel=1e-9)


@pytest.mark.parametrize("tau_max", [1, 4])
def test_the_bulk_negativity_slope_and_site_variance_grow_as_log_eps(tau_max):
    """On a 2^16-site ring at T = 0 and nu_t = crit (1 + eps),
    dENy/dnu_t = a ln(eps) + O(1) and r1y^2 = b ln(1/eps) + O(1): per decade
    of eps the central-difference slope changes by a ln 10 and r1y^2 by
    b ln 10. At eps >= 1e-8 the correlation length (about 3,500 sites at
    1e-8) is far below the ring; at 1e-5 the O(eps) terms still show."""
    params = LatticeParams(n=2**16, nu=1.0, tau_max=tau_max)
    crit = critical_potential(params)
    want = NN_SLOPES if tau_max == 1 else _band_slopes(tau_max)
    slope, variance = {}, {}
    for eps in (1e-6, 1e-7, 1e-8):
        nu_t, h = crit * (1.0 + eps), 1e-2 * crit * eps
        slope[eps] = (_eny(params, nu_t + h, 0.0) - _eny(params, nu_t - h, 0.0)) / (2.0 * h)
        cov = block_covariance(params, nu_t, 0.0, sites=(1,), directions=("y",))
        variance[eps] = float(symplectic_spectrum(cov)[0]) ** 2
    for hi, lo in ((1e-6, 1e-7), (1e-7, 1e-8)):
        a = (slope[hi] - slope[lo]) / math.log(hi / lo)
        b = (variance[lo] - variance[hi]) / math.log(hi / lo)
        assert abs(a - want[0]) < 1e-3, (hi, lo, a, want[0])
        assert abs(b - want[1]) < 1e-3, (hi, lo, b, want[1])


@pytest.mark.parametrize("tau_max", [1, 4])
def test_the_largest_block_variance_grows_as_log_eps(tau_max):
    """On a 2^16-site ring at T = 0 and nu_t = crit (1 + eps), the largest
    symplectic eigenvalue of a y block of L sites grows as
    r_max^2 = b_L ln(1/eps) + O(1), with b_L = nu_c v^T P v / (pi sqrt(c)):
    v = (1, -1, 1, ...) is the staggered vector of the soft mode, P the
    block's momentum part (finite at the transition) and c the zone-edge
    curvature. At L = 1 this is the site law above (b = 2/pi^2 for NN)."""
    params = LatticeParams(n=2**16, nu=1.0, tau_max=tau_max)
    crit = critical_potential(params)
    c = 0.25 * sum((-1.0) ** (tau + 1) / tau for tau in range(1, tau_max + 1))
    blocks = {
        eps: block_covariance(params, crit * (1.0 + eps), 0.0, (1, 2, 3), ("y",)).matrix
        for eps in (1e-7, 1e-8)
    }
    for size in (2, 3):
        r2 = {eps: float(max(symplectic_spectrum(sigma[: 2 * size, : 2 * size]))) ** 2
              for eps, sigma in blocks.items()}
        slope = (r2[1e-8] - r2[1e-7]) / math.log(10.0)
        v = (-1.0) ** np.arange(size)
        p = blocks[1e-8][1 : 2 * size : 2, 1 : 2 * size : 2]
        want = crit * (v @ p @ v) / (math.pi * math.sqrt(c))
        assert abs(slope - want) < 1e-3, (size, slope, want)


@pytest.mark.parametrize("temperature", [0.05, 0.2])
@pytest.mark.parametrize("tau_max", [1, 4])
def test_the_thermal_block_entropy_grows_as_a_quarter_log_eps(tau_max, temperature):
    """On a 2^16-site ring at T > 0 and nu_t = crit (1 + eps), the soft
    mode's position variance is thermal, T / omega^2, and integrates near
    the zone edge to ~ T / (g sqrt(c)) with g^2 = nu_t^2 - nu_c^2 ~ eps. So
    the largest symplectic eigenvalue of a y block grows as eps^(-1/4), and
    its entropy by ln(1/eps) / 4, where at T = 0 it grows as
    ln ln(1/eps) / 2 (the tests above). Checked for blocks of 1 and 3 sites
    over the decade 1e-6 -> 1e-7."""
    params = LatticeParams(n=2**16, nu=1.0, tau_max=tau_max)
    crit = critical_potential(params)
    blocks = {
        eps: block_covariance(params, crit * (1.0 + eps), temperature, (1, 2, 3), ("y",)).matrix
        for eps in (1e-6, 1e-7)
    }
    for size in (1, 3):
        entropy = {eps: block_entropy(sigma[: 2 * size, : 2 * size]).entropy
                   for eps, sigma in blocks.items()}
        slope = (entropy[1e-7] - entropy[1e-6]) / math.log(10.0)
        assert abs(slope - 0.25) < 3e-3, (size, slope)


def test_the_thermal_block_variance_tends_to_its_amplitude():
    """On a 2^16-site ring at T > 0 and nu_t = crit (1 + eps), the largest
    symplectic eigenvalue of a y block of L sites obeys
    r_max^2 eps^(1/2) -> A_L = sqrt(2) T v^T P v / sqrt(c), with v, P and c
    as in the T = 0 law above (P taken at the same eps). The soft mode adds
    K v v^T to the block's position part, K = nu_t T / (2 g sqrt(c)), so
    r_max^2 ~ 4 K v^T P v, and g^2 ~ 2 nu_c^2 eps cancels nu_c. The
    deviation is O(eps^(1/2)): it falls by about sqrt(10) per decade."""
    deviation = {}
    for tau_max in (1, 4):
        params = LatticeParams(n=2**16, nu=1.0, tau_max=tau_max)
        crit = critical_potential(params)
        c = 0.25 * sum((-1.0) ** (tau + 1) / tau for tau in range(1, tau_max + 1))
        for temperature in (0.05, 0.2):
            for eps in (1e-7, 1e-8):
                sigma = block_covariance(
                    params, crit * (1.0 + eps), temperature, (1, 2, 3), ("y",)).matrix
                for size in (1, 2, 3):
                    r2 = float(max(symplectic_spectrum(sigma[: 2 * size, : 2 * size]))) ** 2
                    v = (-1.0) ** np.arange(size)
                    p = sigma[1 : 2 * size : 2, 1 : 2 * size : 2]
                    amplitude = math.sqrt(2.0) * temperature * (v @ p @ v) / math.sqrt(c)
                    case = (tau_max, temperature, size)
                    deviation[case, eps] = r2 * math.sqrt(eps) / amplitude - 1.0
    cases = {case for case, _ in deviation}
    assert len(cases) == 12
    for case in cases:
        lo, hi = deviation[case, 1e-8], deviation[case, 1e-7]
        assert abs(lo) <= 3e-3, (case, lo)
        assert 2.9 <= hi / lo <= 3.4, (case, hi, lo)


def test_criterion_02_critical_potentials(record_criterion, nn_ring, lr_ring):
    coupling = 2.0  # C = 4 Q^2 / (m a^3) in library units
    params = nn_ring()
    target = math.sqrt(coupling / 2.0)
    nn_dev = abs(critical_potential(params) - target)
    crit_lr = critical_potential(lr_ring(), td_limit=True)
    heuristic = math.sqrt(0.6 * coupling)
    lr_dev = abs(crit_lr - heuristic) / heuristic
    ok = nn_dev < 1e-9 and lr_dev < 0.10
    record_criterion(
        2, ok, f"NN |crit - sqrt(C/2)| = {nn_dev:.2e}; LR crit {crit_lr:.6f} vs "
        f"sqrt(0.6C) {heuristic:.6f}, deviation {lr_dev:.2%} (documented)",
    )


def test_criterion_03_entropy_divergence(record_criterion, nn_ring):
    started = time.perf_counter()
    entropies = [
        block_entropy_profile(nn_ring(n=n), 1.0, 0.0, 1, "y", drop_soft_modes=True).entropy
        for n in (256, 1024, 4096)
    ]
    flag = td_single_site_eigenvalue(nn_ring(), 1.0, "y")
    elapsed = time.perf_counter() - started
    growing = entropies[0] < entropies[1] < entropies[2]
    ok = growing and isinstance(flag, Divergent) and elapsed < 30.0
    record_criterion(
        3, ok, "SV1y(crit) = " + " < ".join(f"{s:.6f}" for s in entropies)
        + f"; bulk limit flagged {flag!r}; {elapsed:.1f}s",
    )


def _law_ring(n, tau_max=1):
    """The ring of the c = 1 laws: nu = sqrt(2) in library units."""
    return LatticeParams(n=n, nu=math.sqrt(2.0), tau_max=tau_max)


@pytest.mark.parametrize("tau_max", [1, 4])
def test_the_critical_block_entropy_grows_as_a_third_of_the_log_chord(tau_max):
    """At the transition the soft transverse branch is a free massless
    boson (c = 1, after y_j -> (-1)^j y_j), so a y block of L sites on a
    ring of n has S_L = (1/3) ln[(n/pi) sin(pi L/n)] + const (Calabrese &
    Cardy 2004). Fitted over L = 8..64 at n = 128, 1e-12 above the
    finite ring's critical trap, at T = 0."""
    n = 128
    params = _law_ring(n, tau_max)
    nu_t = critical_potential(params) * (1.0 + 1e-12)
    sigma = block_covariance(params, nu_t, 0.0, range(1, n // 2 + 1), ("y",)).matrix
    sizes = np.arange(8, n // 2 + 1)
    entropies = [block_entropy(sigma[: 2 * L, : 2 * L]).entropy for L in sizes]
    chord = np.log(n / math.pi * np.sin(math.pi * sizes / n))
    slope = np.polyfit(chord, entropies, 1)[0]
    assert abs(slope - 1.0 / 3.0) < 0.002, slope


def test_the_off_critical_block_entropy_saturates_at_a_sixth_of_the_log_gap():
    """Off the transition a block much longer than the correlation length
    xi ~ eps^(-1/2) saturates at (1/3) ln xi, so dS_L / d ln eps = -1/6,
    eps = nu_t / nu_c - 1. Read at n = 4096 and L = 256 on the flat side,
    between eps = 1e-3 and 1e-4."""
    params = _law_ring(4096)
    crit = critical_potential(params)
    s_3, s_4 = (
        block_entropy_profile(params, crit * (1.0 + eps), 0.0, 256, "y").entropy
        for eps in (1e-3, 1e-4)
    )
    slope = (s_3 - s_4) / math.log(10.0)
    assert abs(slope + 1.0 / 6.0) < 0.005, slope


def test_the_thermal_block_entropy_grows_as_the_thermal_entropy_density():
    """At temperature T the critical c = 1 boson has
    S_L = (1/3) ln[(v/(pi T)) sinh(pi T L / v)] + const, so a block much
    longer than v/T grows at the thermal entropy density dS_L/dL = pi T/(3v).
    On the NN ring the soft branch is omega = |cos(k/2)| at the transition,
    so v = 1/2 exactly in library units. Read between L = 32 and 48 at
    n = 1024, 1e-6 above the finite ring's critical trap, at T = 0.05; the
    lattice corrections leave it about 1% low. (The LR ring reads 3-4% low
    against its own velocity, so it is not checked.)"""
    params = _law_ring(1024)
    nu_t = critical_potential(params) * (1.0 + 1e-6)
    temperature, velocity = 0.05, 0.5
    s_32, s_48 = (
        block_entropy_profile(params, nu_t, temperature, size, "y").entropy
        for size in (32, 48)
    )
    slope = (s_48 - s_32) / 16.0
    density = math.pi * temperature / (3.0 * velocity)
    assert abs(slope / density - 1.0) < 0.03, (slope, density)


def test_criterion_04_oracle_equivalence(record_criterion, nn_ring):
    worst = 0.0
    for n in (4, 6, 8, 12, 16):
        params = nn_ring(n=n)
        crit = critical_potential(params)
        for fac in (1.5, 0.8):
            for t_paper in (0.0, 0.5, 2.0):
                t = t_paper * TEMPERATURE_UNIT
                four = block_covariance(params, fac * crit, t, range(1, n + 1))
                dense = direct_covariance_oracle(params, fac * crit, t)
                worst = max(worst, float(np.abs(four.matrix - dense.matrix).max()))
    ok = worst < 1e-9
    record_criterion(4, ok, f"max |fourier - dense| = {worst:.3e} over 30 cases")


def test_criterion_05_purity_and_uncertainty(record_criterion, nn_ring):
    params = nn_ring(n=8)
    worst_purity = 0.0
    min_reduced = math.inf
    failure = ""
    for nu_t in (1.5, 0.8):
        full = symplectic_spectrum(block_covariance(params, nu_t, 0.0, range(1, 9)))
        worst_purity = max(worst_purity, float(np.abs(full - 1.0).max()))
        for sites in ((1,), (1, 2), (1, 2, 3), (2, 5)):
            try:
                spec = symplectic_spectrum(
                    block_covariance(params, nu_t, 0.4, sites)
                )
            except DomainError as exc:
                failure = str(exc)
                continue
            min_reduced = min(min_reduced, float(spec.min()))
    ok = worst_purity < 1e-8 and min_reduced >= 1.0 - 1e-10 and not failure
    record_criterion(
        5, ok, f"full-state max |r - 1| = {worst_purity:.2e}; "
        f"reduced min r = {min_reduced:.12f}{'; ' + failure if failure else ''}",
    )


def _xy_position_moments(params, nu_t):
    """<x_i y_k> over the whole ring at T = 0, rows i and columns k 0-based.

    The covariance interleaves (q, p) over the modes (1, x), (1, y), (2, x), ...
    """
    cov = block_covariance(params, nu_t, 0.0, range(1, params.n + 1))
    return cov.matrix[0::4, 2::4]


def test_criterion_06_cross_moment_decoupling(record_criterion, nn_ring):
    # Flat ring: x and y decouple exactly, so every <x_i y_k> vanishes. Zigzag:
    # the odd-tau pairs carry the cross term dxy = 3 tau a b / (2 rho^5), so only
    # what its symmetries force vanishes. Reflection x -> -x about site j gives
    # <x_j y_j> = 0 and <x_j y_{j+r}> = -<x_j y_{j-r}>; the glide (shift by one
    # site with y -> -y) gives <x_i y_k> = -<x_{i+1} y_{k+1}>. The coupling
    # itself must show: some distinct-site moment exceeds 1e-3.
    ok = True
    parts = []
    for n in (8, 20):
        params = nn_ring(n=n)
        flat_max = float(np.abs(_xy_position_moments(params, 1.5)).max())
        xy = _xy_position_moments(params, 0.8)
        j, r = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        same = float(np.abs(np.diag(xy)).max())
        reflection = float(np.abs(xy[j, (j + r) % n] + xy[j, (j - r) % n]).max())
        glide = float(np.abs(xy + np.roll(xy, -1, axis=(0, 1))).max())
        distinct = float(np.abs(xy[~np.eye(n, dtype=bool)]).max())
        ok &= max(flat_max, same, reflection, glide) < 1e-10 and distinct > 1e-3
        parts.append(
            f"N={n}: flat max |<x y>| = {flat_max:.2e}; buckled same-site "
            f"{same:.2e}, reflection {reflection:.2e}, glide {glide:.2e}, "
            f"distinct-site max {distinct:.2e}"
        )
    record_criterion(6, ok, "; ".join(parts))


def test_criterion_07_buckling_negativity_suite(record_criterion, nn_ring, lr_ring):
    parts = []

    # (a) axial-direction measures do not move with the transverse trap
    lr = lr_ring(n=4096)
    crit = critical_potential(lr, td_limit=True)
    en_x, sv_x = [], []
    for fac in (1.2, 1.8, 3.0):
        s1, s2 = separability_criteria(pair_moments(lr, fac * crit, 0.0, 1, "x"))
        en_x.append(negativity(s1, s2))
        sv_x.append(block_entropy_profile(lr, fac * crit, 0.0, 1, "x").entropy)
    var_en = (max(en_x) - min(en_x)) / max(max(map(abs, en_x)), 1e-300)
    var_sv = (max(sv_x) - min(sv_x)) / max(max(map(abs, sv_x)), 1e-300)
    ok_a = var_en < 1e-8 and var_sv < 1e-8
    parts.append(f"(a) x variation EN {var_en:.1e}, SV {var_sv:.1e}")

    # (b) transverse negativity peaks at the transition
    en_peak = {fac: _eny(lr, fac * crit, 0.0) for fac in (0.9, 1.0, 1.1)}
    ok_b = en_peak[1.0] > en_peak[0.9] and en_peak[1.0] > en_peak[1.1]
    parts.append(
        f"(b) ENy {en_peak[0.9]:.4f} @0.9c, {en_peak[1.0]:.4f} @c, "
        f"{en_peak[1.1]:.4f} @1.1c"
    )

    # (c) a zero c_y below the transition with an S1 -> S2 switch across it
    params = nn_ring()
    crit_nn = critical_potential(params)

    def s1y(nu_t):
        return separability_criteria(pair_moments(params, nu_t, 0.0, 1, "y"))[0]

    c_y = brentq(s1y, 0.70, 0.78, xtol=1e-12)
    hi = separability_criteria(pair_moments(params, 0.78, 0.0, 1, "y"))
    lo = separability_criteria(pair_moments(params, 0.70, 0.0, 1, "y"))
    ok_c = (
        0.0 < c_y < crit_nn
        and _eny(params, c_y - 0.005, 0.0) == 0.0
        and hi[0] < 0.0 < hi[1]
        and lo[1] < 0.0 < lo[0]
    )
    parts.append(f"(c) c_y = {c_y:.6f} < crit, S1-violation above, S2 below")

    # (d) axial pair negativity dies in a window while the site stays mixed
    probes = {}
    for fac in (0.50, 0.45, 0.40):
        s1, s2 = separability_criteria(pair_moments(lr, fac * crit, 0.0, 1, "x"))
        sv = block_entropy_profile(lr, fac * crit, 0.0, 1, "x").entropy
        probes[fac] = (s1, s2, negativity(s1, s2), sv)
    ok_d = (
        probes[0.50][1] < 0.0 < probes[0.50][2]
        and probes[0.45][2] == 0.0
        and probes[0.45][3] > 0.005
        and probes[0.40][0] < 0.0 < probes[0.40][2]
    )
    parts.append(
        f"(d) ENx {probes[0.50][2]:.4f} @0.50c, {probes[0.45][2]:.4f} @0.45c "
        f"(SV1x {probes[0.45][3]:.4f}), {probes[0.40][2]:.4f} @0.40c"
    )

    record_criterion(7, ok_a and ok_b and ok_c and ok_d, "; ".join(parts))


def test_criterion_08_block_entropy_ordering(record_criterion, lr_ring):
    lr = lr_ring(n=4096)
    crit = critical_potential(lr, td_limit=True)
    ratios = []
    ordered = True
    for fac in (1.5, 2.0, 3.0):
        nu_t = fac * crit
        sx = [
            block_entropy_profile(lr, nu_t, 0.0, k, "x").entropy for k in (1, 2, 3)
        ]
        sy = [
            block_entropy_profile(lr, nu_t, 0.0, k, "y").entropy for k in (1, 3)
        ]
        ordered &= sx[2] > sx[1] > sx[0]
        ratios.append(abs(sy[0] - sy[1]) / sy[1])
    ok = ordered and all(r < 0.10 for r in ratios)
    record_criterion(
        8, ok, "x ordering SV3 > SV2 > SV1 at 1.5/2/3 crit; y |SV1-SV3|/SV3 = "
        + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_09_witness_anchor(record_criterion):
    started = time.perf_counter()
    params = LatticeParams(n=20, nu=1.0 * ROOT_HALF)
    t_unit = TEMPERATURE_UNIT

    def s1y(nu_t):
        return separability_criteria(pair_moments(params, nu_t, 0.0, 1, "y"))[0]

    c_y = brentq(s1y, 0.73, 0.76, xtol=1e-12)
    tc = critical_temperature(params, c_y) / t_unit
    elapsed = time.perf_counter() - started
    target, tol = 0.12, 0.15
    ok = elapsed < 10.0 and abs(tc - target) <= tol * target
    record_criterion(
        9, ok, f"Tc(c_y={c_y / ROOT_HALF:.4f}) = {tc:.4f}"
        f" in T units vs target {target} +- {tol:.0%}; {elapsed:.1f}s",
    )


def test_criterion_10_thermal_smoothing(record_criterion, nn_ring):
    params = nn_ring()
    crit = critical_potential(params)
    t_unit = TEMPERATURE_UNIT

    vals = [_eny(params, crit, tp * t_unit) for tp in np.linspace(0.0, 0.65, 10)]
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))

    h = 0.0025 * crit
    grid = crit + h * np.arange(-48, 49)
    cusps = []
    for t_raw in (0.0, 0.05, 0.10, 0.15, 0.20):
        curve = [_eny(params, x, t_raw) for x in grid]
        i = int(np.argmax(curve))
        right = (curve[i + 1] - curve[i]) / h
        left = (curve[i] - curve[i - 1]) / h
        cusps.append(abs(right - left))
    shrinking = all(a > b for a, b in zip(cusps, cusps[1:]))
    ok = decreasing and shrinking
    record_criterion(
        10, ok, f"ENy(crit) {vals[0]:.4f} -> {vals[-1]:.4f} over 10 T points "
        "(strictly decreasing); peak cusp "
        + " > ".join(f"{c:.4f}" for c in cusps),
    )


def test_criterion_11_equilibrium_closed_form(record_criterion, nn_ring):
    params = nn_ring()
    worst = 0.0
    for fac in np.linspace(0.10, 0.99, 20):
        nu_t = fac * 1.0
        b = solve_equilibrium(params, nu_t).b
        closed = math.sqrt(nu_t ** (-4.0 / 3.0) - 1.0)
        worst = max(worst, abs(b - closed))
    ok = worst < 1e-10
    record_criterion(11, ok, f"max |b - closed form| = {worst:.3e} over 20 points")


def test_criterion_12_check_suite(record_criterion, capsys):
    started = time.perf_counter()
    rc = main(["check"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    ok = rc == 0 and "6/6 checks passed" in out and elapsed < 60.0
    record_criterion(12, ok, f"exit {rc}, 6/6 checks, {elapsed:.1f}s")

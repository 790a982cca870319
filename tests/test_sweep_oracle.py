"""Every printed sweep cell against the dense site-basis oracle.

``direct_covariance_oracle`` diagonalizes the full quadratic form site by
site and shares nothing with the mode sums, the block gather, the chunked
eigensolver stacks or the pool of ``run_sweep``. From it this test rebuilds
each cell a sweep row prints: S1/S2 from the two-site block, EN by partial
transpose, SV1-3 from the symplectic spectra of the leading blocks, and U
from the eigenvalues of a dense form assembled pair by pair. The bound and
Tc are not checked here: the witness bound dresses each trap with the full
coupling row, not the site diagonal the oracle would use.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ionlattice.cli import NU_T_UNIT, TEMPERATURE_UNIT, SweepSpec, run_sweep
from ionlattice.covariance import direct_covariance_oracle
from ionlattice.lattice import (
    LatticeParams,
    Variant,
    critical_potential,
    solve_equilibrium,
    taylor_coefficients,
)
from ionlattice.spectrum import symplectic_form

MEASURES = ("negativity", "entropy", "blockEntropy2", "blockEntropy3", "witness")

RTOL, ATOL = 1e-10, 1e-12


@st.composite
def sweeps(draw):
    """A ring, one nuT on either side of the transition (never at it) and
    one temperature, in reduced units."""
    n = draw(st.sampled_from([8, 10, 12, 14, 16]))
    tau_max = draw(st.integers(1, 3))
    params = LatticeParams(n=n, nu=1.0, tau_max=tau_max)
    crit = critical_potential(params, td_limit=True) / NU_T_UNIT
    buckled = draw(st.booleans())
    fraction = draw(st.floats(0.75, 0.97) if buckled else st.floats(1.03, 2.0))
    temperature = draw(st.sampled_from([0.0]) | st.floats(0.01, 1.0))
    return params, crit * fraction, temperature


def _close(got, want):
    assert got is not None
    assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), (got, want)


def _indices(sites, direction):
    """Rows of the oracle's matrix for ``sites`` along ``direction``: the
    q and p of each mode, in the oracle's (site outer, x then y) order."""
    offset = 0 if direction == "x" else 1
    return [2 * (2 * (s - 1) + offset) + k for s in sites for k in (0, 1)]


def _symplectic_eigenvalues(sigma):
    ev = np.abs(np.linalg.eigvals(1j * symplectic_form(len(sigma) // 2) @ sigma))
    return 2.0 * np.sort(ev)[::2]


def _entropy(sigma):
    total = 0.0
    for r in _symplectic_eigenvalues(sigma):
        if r > 1.0:
            up, dn = (r + 1.0) / 2.0, (r - 1.0) / 2.0
            total += up * math.log(up) - dn * math.log(dn)
    return total


def _dense_energy(params, nu_t, temperature):
    """U = sum over normal modes of (omega / 2) coth(omega / 2T), with the
    frequencies from ``eigvalsh`` of the site-basis Hessian over
    u = (x_1..x_n, y_1..y_n), summed pair by pair from the pair energy
    (1/2) [dx dX^2 + dy dY^2 + s dxy dX dY], dX = x_j - x_k, with the
    cross sign s alternating with the first site of the pair; the mass is
    the library's, 2."""
    n, m = params.n, 2.0
    config = solve_equilibrium(params, nu_t)
    coeff = taylor_coefficients(params, config)
    hess = np.diag(np.r_[np.full(n, m * params.nu**2), np.full(n, m * nu_t**2)])
    for dx, dy, dxy, tau in zip(coeff.dx, coeff.dy, coeff.dxy, coeff.tau):
        for j in range(n):
            k = (j + tau) % n
            d_x, d_y = np.zeros(2 * n), np.zeros(2 * n)
            d_x[j], d_x[k], d_y[n + j], d_y[n + k] = 1.0, -1.0, 1.0, -1.0
            hess += dx * np.outer(d_x, d_x) + dy * np.outer(d_y, d_y)
            if config.variant is Variant.ZIGZAG and tau % 2:
                cross = 0.5 * dxy * (-1.0) ** (j + 1) * np.outer(d_x, d_y)
                hess += cross + cross.T
    omega = np.sqrt(np.linalg.eigvalsh(hess / m))
    if temperature == 0.0:
        return float(np.sum(0.5 * omega))
    return float(np.sum(0.5 * omega / np.tanh(omega / (2.0 * temperature))))


def _check_row(params, row):
    nu_t = row["nuT"] * NU_T_UNIT
    temperature = row["T"] * TEMPERATURE_UNIT
    dense = direct_covariance_oracle(params, nu_t, temperature).matrix
    for d in ("x", "y"):
        pair = dense[np.ix_(_indices((1, 2), d), _indices((1, 2), d))]
        var_q, var_p, cov_q, cov_p = pair[0, 0], pair[1, 1], pair[0, 2], pair[1, 3]
        s1 = 4.0 * (var_q + cov_q) * (var_p - cov_p) - 1.0
        s2 = 4.0 * (var_q - cov_q) * (var_p + cov_p) - 1.0
        _close(row[f"S1{d}"], s1)
        _close(row[f"S2{d}"], s2)
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        nu_pt = _symplectic_eigenvalues(flip @ pair @ flip)
        _close(row[f"EN{d}"], float(sum(max(0.0, -math.log(r)) for r in nu_pt)))
        for k in (1, 2, 3):
            idx = _indices(range(1, k + 1), d)
            assert row[f"SV{k}{d}Divergent"] is False
            _close(row[f"SV{k}{d}"], _entropy(dense[np.ix_(idx, idx)]))
    if row["error"]:
        # the witness bound's dressing can go imaginary on a buckled LR ring;
        # the row keeps the cells before it
        assert row["error"].startswith("DomainError: effective"), row["error"]
        assert row["U"] is None
    else:
        _close(row["U"], _dense_energy(params, nu_t, temperature) / NU_T_UNIT)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(sweeps())
def test_every_printed_cell_matches_the_dense_oracle(case):
    params, nu_t_paper, t_paper = case
    spec = SweepSpec(params=params, nu_t_grid=(nu_t_paper,), temperatures=(t_paper,),
                     measures=MEASURES)
    [row] = run_sweep(spec)
    _check_row(params, row)


def test_pooled_cells_match_the_dense_oracle():
    """Both phases of an LR ring at two temperatures through two workers."""
    params = LatticeParams(n=12, nu=1.0, tau_max=3)
    crit = critical_potential(params, td_limit=True) / NU_T_UNIT
    spec = SweepSpec(params=params, nu_t_grid=(0.85 * crit, 1.3 * crit),
                     temperatures=(0.0, 0.4), measures=MEASURES)
    rows = run_sweep(spec, jobs=2)
    assert [row["configVariant"] for row in rows] == ["zigzag"] * 2 + ["linear"] * 2
    for row in rows:
        _check_row(params, row)

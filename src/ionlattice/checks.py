"""The internal consistency suite of ``ionlattice check``.

Each check builds a small ring from scratch and either compares two
independent routes to the same quantity or tests a property the model
must have: a pure ground state, the uncertainty floor, the refusal of a
buckled odd ring. Every value is in library units (see
:mod:`ionlattice.lattice`). Only the ``check`` command imports this
module, so no other command compiles it.
"""

from __future__ import annotations

import math

import numpy as np

from .covariance import block_covariance, direct_covariance_oracle
from .entanglement import symplectic_spectrum
from .errors import ConfigError, DomainError
from .lattice import LatticeParams, critical_potential, solve_equilibrium, tilde_frequencies
from .spectrum import (
    build_spectrum,
    coupling_matrix,
    symplectic_diagonalize,
    symplectic_form,
)


def _check_oracle_equivalence():
    worst = 0.0
    for n in (4, 6, 8):
        params = LatticeParams(n=n, nu=1.0)
        crit = critical_potential(params)
        for fac in (1.5, 0.8):
            for t in (0.0, 0.2):
                a = block_covariance(params, fac * crit, t, sites=range(1, n + 1))
                b = direct_covariance_oracle(params, fac * crit, t)
                worst = max(worst, float(np.max(np.abs(a.matrix - b.matrix))))
    return worst < 1e-9, f"max deviation {worst:.3e}"


def _check_symplectic():
    """``build_spectrum`` on a zigzag ring against the ``eigh`` normal form
    of every wave-number block: the frequencies, the normal form and its
    symplecticity, and the mixing weights, which must rebuild the block's
    squared frequencies and coupling from the two branches."""
    params = LatticeParams(n=8, nu=1.0)
    nu_t = 0.8 * critical_potential(params)
    config = solve_equilibrium(params, nu_t)
    spec = build_spectrum(params, nu_t, config)
    form = symplectic_form(2)
    worst = 0.0
    for l in range(1, params.n + 1):
        block = coupling_matrix(params, config, nu_t, l)
        wv, ww, smat = symplectic_diagonalize(block)
        target = np.diag([wv / 2, wv / 2, ww / 2, ww / 2])
        worst = max(
            worst,
            float(np.max(np.abs(spec.omega[:, l - 1] - (wv, ww)))),
            float(np.max(np.abs(smat @ block @ smat.T - target))),
            float(np.max(np.abs(smat @ form @ smat.T - form))),
        )
    v2, w2 = spec.omega**2
    rebuilt = (
        spec.c2 * v2 + spec.s2 * w2,
        spec.s2 * v2 + spec.c2 * w2,
        spec.cs * (v2 - w2),
    )
    for got, want in zip(rebuilt, tilde_frequencies(params, config, nu_t)):
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst < 1e-10, f"max residual {worst:.3e}"


def _check_purity():
    worst = 0.0
    for fac in (1.4, 0.8):
        params = LatticeParams(n=6, nu=1.0)
        nu_t = fac * critical_potential(params)
        cov = block_covariance(params, nu_t, 0.0, sites=range(1, 7))
        spec = symplectic_spectrum(cov)
        worst = max(worst, float(np.max(np.abs(spec - 1.0))))
    return worst < 1e-8, f"max |r - 1| = {worst:.3e}"


def _check_decoupling():
    params = LatticeParams(n=8, nu=1.0)
    crit = critical_potential(params)
    details = []
    ok = True
    cov = block_covariance(params, 1.5 * crit, 0.0, sites=range(1, 9)).matrix
    n = 8
    cross = max(
        abs(cov[2 * (2 * (s1 - 1)), 2 * (2 * (s2 - 1) + 1)])
        for s1 in range(1, n + 1)
        for s2 in range(1, n + 1)
    )
    ok &= cross < 1e-10
    details.append(f"flat x-y max {cross:.2e}")
    covz = block_covariance(params, 0.8 * crit, 0.0, sites=range(1, 9)).matrix
    diag_cross = max(
        abs(covz[2 * (2 * (s - 1)), 2 * (2 * (s - 1) + 1)]) for s in range(1, n + 1)
    )
    ok &= diag_cross < 1e-12
    details.append(f"buckled same-site x-y max {diag_cross:.2e}")
    k = covz.shape[0] // 2
    qp = max(abs(covz[2 * i, 2 * j + 1]) for i in range(k) for j in range(k))
    ok &= qp == 0.0
    details.append(f"q-p max {qp:.2e}")
    return bool(ok), "; ".join(details)


def _check_uncertainty():
    params = LatticeParams(n=8, nu=1.0)
    crit = critical_potential(params)
    worst = math.inf
    try:
        for fac in (1.5, 0.8):
            for t in (0.0, 0.15):
                for sites in ((1,), (1, 2), (1, 3, 5)):
                    cov = block_covariance(params, fac * crit, t, sites=sites)
                    spec = symplectic_spectrum(cov)
                    worst = min(worst, float(spec.min()))
    except DomainError as exc:
        return False, str(exc)
    return True, f"min eigenvalue {worst:.12f}"


def _check_odd_ring_rejection():
    params = LatticeParams(n=7, nu=1.0)
    crit = critical_potential(params, td_limit=True)
    try:
        solve_equilibrium(params, 0.8 * crit)
    except ConfigError as exc:
        msg = str(exc)
        return "even" in msg, f"rejected with: {msg}"
    return False, "odd ring accepted a buckled configuration"


def run_check_suite() -> list:
    """(name, passed, detail) for every internal consistency check."""
    return [
        ("oracle-equivalence", *_check_oracle_equivalence()),
        ("symplectic-normal-form", *_check_symplectic()),
        ("ground-state-purity", *_check_purity()),
        ("direction-decoupling", *_check_decoupling()),
        ("uncertainty-floor", *_check_uncertainty()),
        ("odd-ring-rejection", *_check_odd_ring_rejection()),
    ]

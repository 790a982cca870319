"""Thermal covariance of the ring, finite and bulk limit.

All second moments come from the normal-mode decomposition: each mode of
frequency omega contributes sigma(omega) = (1/2) coth(omega / 2T) to its own
quadrature pair, and site moments are mode averages with the appropriate
phase weights. Quadratures are reported normalized, q -> q sqrt(m nu_ref)
and p -> p / sqrt(m nu_ref) with nu_ref the trap frequency of the direction,
so an uncoupled oscillator's vacuum has var q = var p = 1/2; equivalently
the reduced single-mode symplectic eigenvalue is r = 2 sqrt(<q^2><p^2>) in
raw units.

Two rules keep criticality finite where it should be. A mode summed with an
exactly zero phase weight contributes nothing even if its own variance
diverges (zero-weight rule), and the momentum factor of a zero mode takes
its analytic limit m T. Raw variances that genuinely diverge are reported
as inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ImaginaryFrequency, SizeLimitExceeded
from .lattice import (
    Configuration,
    LatticeParams,
    Variant,
    critical_potential,
    solve_equilibrium,
    taylor_coefficients,
)
from .quadrature import (
    Divergent,
    integrate_weighted_frequency,
    integrate_weighted_inverse,
)
from .spectrum import RADICAND_TOL, ModeSpectrum, build_spectrum

#: Largest ring accepted by the dense site-basis oracle.
DENSE_SITE_LIMIT = 64

#: Modes below this fraction of the trap scale count as soft when dropping.
SOFT_FREQ_FACTOR = 1e-6

DIRECTIONS = ("x", "y")


def _thermal_sigma(omega: np.ndarray, temperature: float) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    if temperature <= 0.0:
        return np.where(omega > 0.0, 0.5, np.inf)
    out = np.full_like(omega, np.inf)
    pos = omega > 0.0
    out[pos] = 0.5 / np.tanh(omega[pos] / (2.0 * temperature))
    return out


def _mode_factors(omega, temperature, mass):
    """Per-mode <q^2> factor sigma/(m omega), inf for a zero mode, and <p^2>
    factor m omega sigma, which tends to m T for a zero mode; one
    evaluation of sigma serves both."""
    omega = np.asarray(omega, dtype=float)
    sig = _thermal_sigma(omega, temperature)
    live = omega > 0.0
    position = np.where(live, sig / (mass * np.where(live, omega, 1.0)), np.inf)
    # omega * sigma -> T as omega -> 0 (equipartition); avoid 0 * inf.
    momentum = np.where(live, mass * omega * np.where(np.isinf(sig), 0.0, sig), mass * temperature)
    return position, momentum


@dataclass(frozen=True)
class _Kernels:
    """Per-direction mode kernels: lists of (branch index, mixing weights)."""

    x: list
    y: list
    cross: list
    dropped: int


def _direction_kernels(spec: ModeSpectrum, drop_soft_modes: bool = False) -> _Kernels:
    # per branch: the weights of the x, y and cross mode sums
    weights = [(spec.c2, spec.s2, spec.cs), (spec.s2, spec.c2, -spec.cs)]
    dropped = 0
    if drop_soft_modes:
        keep = spec.omega > SOFT_FREQ_FACTOR * max(spec.params.nu, spec.nu_t)
        dropped = int((~keep).sum())
        weights = [[np.where(k, w, 0.0) for w in ws] for k, ws in zip(keep, weights)]
    (x0, y0, c0), (x1, y1, c1) = weights
    # a branch without weight (the flat phase has one per direction) adds
    # nothing to a mode sum; leaving it out saves the work
    return _Kernels(
        x=[(b, wt) for b, wt in ((0, x0), (1, x1)) if np.count_nonzero(wt)],
        y=[(b, wt) for b, wt in ((0, y0), (1, y1)) if np.count_nonzero(wt)],
        cross=[(0, c0), (1, c1)],
        dropped=dropped,
    )


@dataclass(frozen=True)
class WorkingPoint:
    """Everything about one transverse trap frequency that does not depend
    on temperature: the equilibrium (``spectrum.config``), the mode spectrum
    and its mode kernels. Build it once with :func:`working_point` and
    evaluate any number of temperatures and measures from it."""

    spectrum: ModeSpectrum
    kernels: _Kernels

    @property
    def params(self) -> LatticeParams:
        return self.spectrum.params

    @property
    def nu_t(self) -> float:
        return self.spectrum.nu_t

    @property
    def config(self) -> Configuration:
        return self.spectrum.config


def working_point(
    params: LatticeParams, nu_t: float, config: Configuration | None = None
) -> WorkingPoint:
    """The working point at ``nu_t``; ``config`` skips a second equilibrium
    solve when the caller already holds it."""
    spec = build_spectrum(params, nu_t, config)
    return WorkingPoint(spec, _direction_kernels(spec))


def _weighted_mode_sum(kern, facs, phase_weights, n):
    """(1/n) sum_l w_l fac_l, with exact-zero weights killing the term."""
    total = 0.0
    for branch, wt in kern:
        w = wt * phase_weights
        nz = w != 0.0
        if nz.any():
            total += float((w[nz] * facs[branch][nz]).sum()) / n
    return total


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


# The phase weights depend on the ring size and the site distance only, so
# every working point and temperature shares them; the cached arrays are
# read-only because every caller gets the same one. A sweep uses a handful
# of (n, delta) pairs.
@functools.lru_cache(maxsize=128)
def _cos_weights(n, delta):
    ls = np.arange(1, n + 1, dtype=float)
    return _read_only(np.cos(2.0 * np.pi * ls * delta / n))


@functools.lru_cache(maxsize=128)
def _sin_weights(n, delta):
    if delta == 0:
        return _read_only(np.zeros(n))
    ls = np.arange(1, n + 1, dtype=float)
    return _read_only(np.sin(2.0 * np.pi * ls * delta / n))


@dataclass(frozen=True)
class MomentTable:
    """The mode sums of one working point at one temperature.

    The thermal factors are evaluated once, when the table is built, and
    each distinct mode sum once, when it is first read: a raw entry of one
    kernel depends on the site distance only, so the pair moments and the
    blocks of a sweep row share a few sums. ``factors`` holds the per-mode
    position and momentum factors, each of shape (2, n); ``sums`` maps
    (factor index, kernel name, site distance) to a raw mode sum. Build it
    with :func:`moment_table` and keep it for as long as its (nu_t, T).
    """

    point: WorkingPoint
    temperature: float
    kernels: _Kernels
    factors: tuple
    sums: dict = field(default_factory=dict, repr=False, compare=False)


def moment_table(
    point: WorkingPoint, temperature: float, drop_soft_modes: bool = False
) -> MomentTable:
    """The moment table of ``point`` at ``temperature``.

    ``drop_soft_modes`` excludes modes below ``SOFT_FREQ_FACTOR *
    max(nu, nu_t)`` from every mode sum of the table (see
    :func:`block_covariance`).
    """
    if temperature < 0:
        raise ConfigError("temperature must be non-negative")
    kernels = _direction_kernels(point.spectrum, True) if drop_soft_modes else point.kernels
    factors = _mode_factors(point.spectrum.omega, temperature, point.params.mass)
    return MomentTable(point, temperature, kernels, factors)


def _mode_sum(table: MomentTable, f: int, kernel: str, delta: int) -> float:
    """Raw mode sum of the position (f = 0) or momentum (f = 1) factors over
    ``kernel`` ("x", "y" or "cross") with the phase weights of site distance
    ``delta`` (cos for a direction, sin for the cross kernel), computed once
    per table."""
    key = (f, kernel, delta)
    total = table.sums.get(key)
    if total is None:
        n = table.point.params.n
        phase = _sin_weights(n, delta) if kernel == "cross" else _cos_weights(n, delta)
        total = _weighted_mode_sum(getattr(table.kernels, kernel), table.factors[f], phase, n)
        table.sums[key] = total
    return total


@dataclass(frozen=True)
class PairMoments:
    """Same-direction second moments of two sites at separation tau.

    ``var_*``/``cov_*`` are the plain moments; ``q_plus = var_q + cov_q`` and
    friends are evaluated as single mode sums so that criticality's zero mode
    drops out exactly where its phase weight vanishes. The raw fields can be
    inf (or indeterminate) exactly at a critical point; the combination
    fields stay finite whenever the combination is finite.
    """

    direction: str
    tau: int
    temperature: float
    var_q: float
    var_p: float
    cov_q: float
    cov_p: float
    q_plus: float
    q_minus: float
    p_plus: float
    p_minus: float


def _check_direction(direction: str):
    if direction not in DIRECTIONS:
        raise ConfigError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def pair_moments(
    params: LatticeParams, nu_t: float, temperature: float, tau: int, direction: str
) -> PairMoments:
    """Normalized second moments of two sites at neighbour distance tau."""
    table = moment_table(working_point(params, nu_t), temperature)
    return pair_moments_at(table, tau, direction)


def pair_moments_at(table: MomentTable, tau: int, direction: str) -> PairMoments:
    """:func:`pair_moments` from a moment table."""
    point = table.point
    params = point.params
    _check_direction(direction)
    if not 1 <= tau <= params.n // 2:
        raise ConfigError(f"tau must be in 1..{params.n // 2}, got {tau}")
    kern = getattr(table.kernels, direction)
    parity = -1.0 if (
        point.config.variant is Variant.ZIGZAG and direction == "y" and tau % 2 == 1
    ) else 1.0
    nu_ref = params.nu if direction == "x" else point.nu_t
    q_scale = params.mass * nu_ref
    n = params.n
    qf, pf = table.factors

    cosd = _cos_weights(n, tau)
    var_q = q_scale * _mode_sum(table, 0, direction, 0)
    cov_q = q_scale * parity * _mode_sum(table, 0, direction, tau)
    var_p = _mode_sum(table, 1, direction, 0) / q_scale
    cov_p = parity * _mode_sum(table, 1, direction, tau) / q_scale
    q_plus = q_scale * _weighted_mode_sum(kern, qf, 1.0 + parity * cosd, n)
    q_minus = q_scale * _weighted_mode_sum(kern, qf, 1.0 - parity * cosd, n)
    p_plus = _weighted_mode_sum(kern, pf, 1.0 + parity * cosd, n) / q_scale
    p_minus = _weighted_mode_sum(kern, pf, 1.0 - parity * cosd, n) / q_scale
    return PairMoments(
        direction=direction,
        tau=tau,
        temperature=table.temperature,
        var_q=var_q,
        var_p=var_p,
        cov_q=cov_q,
        cov_p=cov_p,
        q_plus=q_plus,
        q_minus=q_minus,
        p_plus=p_plus,
        p_minus=p_minus,
    )


@dataclass(frozen=True)
class CovarianceMatrix:
    """Covariance over an ordered set of (site, direction) modes.

    ``matrix`` is 2k x 2k with quadratures interleaved (q1, p1, q2, p2, ...)
    following ``modes``. Entries are in normalized units.
    """

    matrix: np.ndarray
    modes: tuple
    temperature: float
    dropped_soft_modes: int = 0


def _pair_entry(table, f, s1, d1, s2, d2):
    """Raw moment <a_{s1,d1} a_{s2,d2}> of the position (f = 0) or
    momentum (f = 1) quadratures."""
    zigzag = table.point.config.variant is Variant.ZIGZAG
    delta = s2 - s1
    if d1 == d2:
        val = _mode_sum(table, f, d1, delta)
        if d1 == "y" and zigzag:
            val *= (-1.0) ** (s1 + s2)
        return val
    if not zigzag:
        return 0.0
    # cross-entry signs fixed by the (-1)^j staggering of the first site in
    # each coupled pair; validated against the dense oracle
    sin_sum = _mode_sum(table, f, "cross", delta)
    if d1 == "x":  # <x_{s1} y_{s2}>
        return ((-1.0) ** s2) * sin_sum
    return -((-1.0) ** s1) * sin_sum  # <y_{s1} x_{s2}>


def block_covariance(
    params: LatticeParams,
    nu_t: float,
    temperature: float,
    sites,
    directions=DIRECTIONS,
    drop_soft_modes: bool = False,
) -> CovarianceMatrix:
    """Covariance matrix of selected sites and directions.

    Parameters
    ----------
    sites : iterable of int
        1-based site indices, distinct.
    directions : sequence
        Subset of ("x", "y") defining the per-site mode order.
    drop_soft_modes : bool
        Exclude modes below ``SOFT_FREQ_FACTOR * max(nu, nu_t)`` from every
        mode sum; the number of excluded modes is reported on the result.
        This does not regularize the exactly critical point: the soft mode
        there is transverse, so x blocks come out unchanged, and a y block
        without it is not a physical state (its symplectic spectrum falls
        below 1).
    """
    table = moment_table(working_point(params, nu_t), temperature, drop_soft_modes)
    return block_covariance_at(table, sites, directions)


def block_covariance_at(table: MomentTable, sites, directions=DIRECTIONS) -> CovarianceMatrix:
    """:func:`block_covariance` from a moment table. The covariance of the
    first k modes is the leading 2k x 2k submatrix, entry for entry."""
    point = table.point
    params = point.params
    sites = tuple(int(s) for s in sites)
    if len(sites) == 0 or len(set(sites)) != len(sites):
        raise ConfigError("sites must be a non-empty collection of distinct indices")
    for s in sites:
        if not 1 <= s <= params.n:
            raise ConfigError(f"site index {s} outside 1..{params.n}")
    directions = tuple(directions)
    if not directions or any(d not in DIRECTIONS for d in directions):
        raise ConfigError(f"directions must be a non-empty subset of {DIRECTIONS}")

    modes = tuple((s, d) for s in sites for d in directions)
    k = len(modes)
    cov = np.zeros((2 * k, 2 * k))

    scale = {d: params.mass * (params.nu if d == "x" else point.nu_t) for d in DIRECTIONS}
    for i, (s1, d1) in enumerate(modes):
        for j, (s2, d2) in enumerate(modes[i:], start=i):
            g = math.sqrt(scale[d1] * scale[d2])
            qq = g * _pair_entry(table, 0, s1, d1, s2, d2)
            pp = _pair_entry(table, 1, s1, d1, s2, d2) / g
            cov[2 * i, 2 * j] = cov[2 * j, 2 * i] = qq
            cov[2 * i + 1, 2 * j + 1] = cov[2 * j + 1, 2 * i + 1] = pp
    return CovarianceMatrix(
        matrix=cov,
        modes=modes,
        temperature=table.temperature,
        dropped_soft_modes=table.kernels.dropped,
    )


def direct_covariance_oracle(
    params: LatticeParams, nu_t: float, temperature: float
) -> CovarianceMatrix:
    """Full covariance by dense diagonalization in the site basis.

    Independent of the mode-sum path: the quadratic form is assembled site
    by site from the pair couplings and diagonalized numerically. Serves as
    the reference for equivalence checks; refuses rings larger than
    ``DENSE_SITE_LIMIT``.
    """
    n = params.n
    if n > DENSE_SITE_LIMIT:
        raise SizeLimitExceeded(
            f"dense oracle supports n <= {DENSE_SITE_LIMIT}, got {n}"
        )
    if temperature < 0:
        raise ConfigError("temperature must be non-negative")
    config = solve_equilibrium(params, nu_t)
    coeff = taylor_coefficients(params, config)
    m, q2 = params.mass, params.charge**2

    # potential quadratic form V over u = (x_1..x_n, y_1..y_n), H = p^2/2m + u^T V u;
    # a pair term c (u_j - u_{j+tau})^2 summed over j is the form d^T c d
    # with row j of d equal to e_j - e_{j+tau}
    V = np.zeros((2 * n, 2 * n))
    np.fill_diagonal(V[:n, :n], 0.5 * m * params.nu**2)
    np.fill_diagonal(V[n:, n:], 0.5 * m * nu_t**2)
    sites = np.arange(n)
    for idx, tau in enumerate(coeff.tau):
        d = np.eye(n) - np.eye(n)[(sites + tau) % n]
        lap = d.T @ d
        V[:n, :n] += 0.5 * q2 * coeff.dx[idx] * lap
        V[n:, n:] += 0.5 * q2 * coeff.dy[idx] * lap
        if config.variant is Variant.ZIGZAG and tau % 2 == 1:
            # cross coupling alternates with the parity of the first site
            cd = 0.25 * q2 * coeff.dxy[idx] * (-1.0) ** (sites + 1)
            cross = d.T @ (cd[:, None] * d)
            V[:n, n:] += cross
            V[n:, :n] += cross

    w2, basis = np.linalg.eigh(2.0 * V / m)
    if (w2 < -RADICAND_TOL).any():
        bad = np.nonzero(w2 < -RADICAND_TOL)[0].tolist()
        raise ImaginaryFrequency(
            f"dense quadratic form not positive semidefinite at modes {bad}", modes=bad
        )
    omega = np.sqrt(np.where(w2 < 0.0, 0.0, w2))
    # split off (numerically) zero modes so their divergent position factor
    # never enters a matmul; their momentum factor is the equipartition limit
    zero = omega <= SOFT_FREQ_FACTOR * max(params.nu, nu_t)
    pos = ~zero
    position, momentum = _mode_factors(omega[pos], temperature, m)
    qmat = basis[:, pos] @ np.diag(position) @ basis[:, pos].T
    pmat = basis[:, pos] @ np.diag(momentum) @ basis[:, pos].T
    if zero.any():
        proj = basis[:, zero] @ basis[:, zero].T
        pmat = pmat + m * temperature * proj
        diverges = np.abs(proj) > 1e-10 * np.abs(proj).max()
        qmat[diverges] = np.sign(proj[diverges]) * np.inf

    modes = tuple((s, d) for s in range(1, n + 1) for d in DIRECTIONS)
    # u index of each mode (1x, 1y, 2x, ...): 0, n, 1, n + 1, ...
    u = np.arange(2 * n).reshape(2, n).T.ravel()
    scale = np.tile([m * params.nu, m * nu_t], n)
    g = np.sqrt(np.outer(scale, scale))
    cov = np.zeros((4 * n, 4 * n))
    cov[0::2, 0::2] = g * qmat[np.ix_(u, u)]
    cov[1::2, 1::2] = pmat[np.ix_(u, u)] / g
    return CovarianceMatrix(matrix=cov, modes=modes, temperature=temperature)


# QUADPACK evaluates the same Gauss-Kronrod nodes for every nuT, direction
# and weight, so a bulk sweep needs about a thousand distinct sums.
@functools.lru_cache(maxsize=4096)
def _dispersion_sum(tau_max: int, a: float) -> float:
    """sum_{tau=1}^{tau_max} sin^2(a tau) / tau^3, the nuT-independent part
    of the bulk dispersion. NumPy's pairwise sum and its ``x**2`` are kept
    as they are: a scalar rewrite differs in the last bit at some nodes."""
    taus = np.arange(1, tau_max + 1, dtype=float)
    return float(np.sum(np.sin(a * taus) ** 2 / taus**3))


def _bulk_omega2(params: LatticeParams, nu_t: float, direction: str):
    c = params.coulomb_constant
    tau_max = params.tau_max
    if direction == "x":
        base = params.nu**2

        def w2(a):
            return base + c * _dispersion_sum(tau_max, a)

    else:
        base = nu_t**2

        def w2(a):
            return base - 0.5 * c * _dispersion_sum(tau_max, a)

    return w2


def _require_flat_bulk(params: LatticeParams, nu_t: float):
    crit = critical_potential(params, td_limit=True)
    if nu_t < crit * (1.0 - 1e-12):
        raise ConfigError(
            "bulk-limit expressions hold in the flat configuration only "
            f"(nu_t={nu_t:.6g} below critical {crit:.6g})"
        )


def td_pair_criteria(
    params: LatticeParams, nu_t: float, tau: int, direction: str, atol: float = 1e-10
) -> tuple[float, float]:
    """Bulk-limit separability criteria pair (S1, S2) for neighbours at tau.

    Evaluated from dispersion averages over the half zone. A divergent
    inverse average (soft zone edge under a nonvanishing weight) makes the
    corresponding criterion +inf, which can never signal entanglement.
    """
    _check_direction(direction)
    if tau < 1:
        raise ConfigError(f"tau must be positive, got {tau}")
    _require_flat_bulk(params, nu_t)
    w2 = _bulk_omega2(params, nu_t, direction)

    def w_plus(a):
        return 1.0 + math.cos(2.0 * a * tau)

    def w_minus(a):
        return 1.0 - math.cos(2.0 * a * tau)

    ip_plus = integrate_weighted_frequency(w_plus, w2, atol)
    ip_minus = integrate_weighted_frequency(w_minus, w2, atol)
    iq_plus = integrate_weighted_inverse(w_plus, w2, atol)
    iq_minus = integrate_weighted_inverse(w_minus, w2, atol)
    pref = 4.0 / math.pi**2

    def combine(iq, ip):
        if isinstance(iq, Divergent):
            return math.inf
        return pref * iq * ip - 1.0

    return combine(iq_plus, ip_minus), combine(iq_minus, ip_plus)


def td_single_site_eigenvalue(
    params: LatticeParams, nu_t: float, direction: str, atol: float = 1e-10
):
    """Bulk-limit symplectic eigenvalue of one site's reduced state.

    Returns a float, or :class:`Divergent` when the underlying inverse
    dispersion average diverges (or the value exceeds 1e6).
    """
    _check_direction(direction)
    _require_flat_bulk(params, nu_t)
    w2 = _bulk_omega2(params, nu_t, direction)
    one = lambda a: 1.0
    iq = integrate_weighted_inverse(one, w2, atol)
    if isinstance(iq, Divergent):
        return iq
    ip = integrate_weighted_frequency(one, w2, atol)
    r = (2.0 / math.pi) * math.sqrt(iq * ip)
    if r > 1e6:
        return Divergent("single-site eigenvalue exceeded 1e6")
    return r

"""Thermal covariance of the ring, finite and bulk limit.

All second moments come from the normal-mode decomposition: each mode of
frequency omega contributes sigma(omega) = (1/2) coth(omega / 2T) to its own
quadrature pair, and site moments are mode averages with the appropriate
phase weights. Quadratures are reported normalized, q -> q sqrt(m nu_ref)
and p -> p / sqrt(m nu_ref) with nu_ref the trap frequency of the direction,
so an uncoupled oscillator's vacuum has var q = var p = 1/2; equivalently
the reduced single-mode symplectic eigenvalue is r = 2 sqrt(<q^2><p^2>).
The mass cancels from these moments, so the mode factors below are those
of unit mass: sigma / omega and omega sigma.

Two rules keep criticality finite where it should be. A mode summed with an
exactly zero phase weight contributes nothing even if its own variance
diverges (zero-weight rule), and the momentum factor of a zero mode takes
its analytic limit T. Variances that genuinely diverge are reported as
inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._solvers import rule_nodes
from .errors import ConfigError, Divergent, ImaginaryFrequency
from .lattice import (
    LatticeParams,
    Variant,
    critical_potential,
    solve_equilibrium,
    taylor_coefficients,
)
from .quadrature import (
    HALF_PI,
    integrate_weighted_frequency,
    integrate_weighted_inverse,
)
from .spectrum import RADICAND_TOL, ModeSpectrum, build_spectrum

#: Largest ring accepted by the dense site-basis oracle.
DENSE_SITE_LIMIT = 64

#: Modes below this fraction of the trap scale count as soft when dropping.
SOFT_FREQ_FACTOR = 1e-6

DIRECTIONS = ("x", "y")


def _mode_factors(omega, temperatures):
    """Per-mode <q^2> factor sigma/omega and <p^2> factor omega sigma at
    each of ``temperatures``, with sigma = (1/2) coth(omega / 2T), 1/2 at
    T = 0; one evaluation of sigma serves both. A zero mode has the
    position factor inf and the momentum factor T, the limit of omega sigma
    (equipartition). The temperature axis goes in before the
    mode axis, so omega of shape (2, n) gives factors of shape (2, n_T, n);
    each value equals the evaluation at its temperature alone bit for bit.
    """
    omega = np.asarray(omega, dtype=float)[..., None, :]
    temps = np.asarray(temperatures, dtype=float)[:, None]
    warm = temps[:, 0] > 0.0
    sig = np.full(np.broadcast_shapes(omega.shape, temps.shape), 0.5)
    if warm.any():
        # zero modes divide by zero (replaced below); omega / 2T overflows to
        # inf at a subnormal T, the cold limit
        with np.errstate(divide="ignore", over="ignore"):
            sig[..., warm, :] = 0.5 / np.tanh(omega / (2.0 * temps[warm]))
    live = omega > 0.0
    position = np.where(live, sig / np.where(live, omega, 1.0), np.inf)
    # sigma is inf where omega / 2T is 0 (a zero mode, or an underflow): avoid 0 * inf
    momentum = np.where(live, omega * np.where(np.isinf(sig), 0.0, sig), temps)
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


def _weighted_mode_sums(kern, factors, phase_weights, n):
    """(1/n) sum_l w_l fac_l of both factors at every temperature of
    ``factors`` (shape (2, 2, n_T, n), see :class:`MomentTable`), as an
    array of shape (2, n_T); an exact-zero weight kills its term.

    The nonzero weights of a branch are compacted once for all rows. Each
    row of the product is C-contiguous, so NumPy reduces it with the same
    pairwise sum it takes over the one-dimensional product of one factor at
    one temperature, and each value equals that sum bit for bit. The
    accumulation 0.0 + s_0/n + s_1/n keeps the sign of zero of that loop.
    """
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
    ls = np.arange(1, n + 1, dtype=float)
    return _read_only(np.sin(2.0 * np.pi * ls * delta / n))


@functools.lru_cache(maxsize=128)
def _pair_weights(n, tau, parity):
    """The weights 1 + parity cos and 1 - parity cos of the pair sums at
    site distance ``tau`` (``parity`` exactly +-1.0)."""
    cosd = _cos_weights(n, tau)
    return _read_only(1.0 + parity * cosd), _read_only(1.0 - parity * cosd)


@dataclass(frozen=True)
class MomentTable:
    """The thermal factors of one mode spectrum at a stack of temperatures.

    The factors of every temperature are evaluated once, when the table is
    built; each mode sum over them serves all temperatures and both
    quadratures at once. ``factors`` has shape (2, 2, n_T, n): branch,
    position or momentum factor, temperature, mode; each branch's block is
    contiguous. Build it with :func:`moment_table`.
    """

    spectrum: ModeSpectrum
    temperatures: tuple
    kernels: _Kernels
    factors: np.ndarray


def moment_table(
    spec: ModeSpectrum, temperatures, drop_soft_modes: bool = False
) -> MomentTable:
    """The moment table of ``spec`` at each of ``temperatures`` (a
    sequence; one temperature is a sequence of one).

    ``drop_soft_modes`` excludes modes below ``SOFT_FREQ_FACTOR *
    max(nu, nu_t)`` from every mode sum of the table (see
    :func:`block_covariance`).
    """
    temperatures = tuple(temperatures)
    if any(t < 0 for t in temperatures):
        raise ConfigError("temperatures must be non-negative")
    factors = _mode_factors(spec.omega, temperatures)
    return MomentTable(
        spec, temperatures, _direction_kernels(spec, drop_soft_modes), np.stack(factors, axis=1)
    )


def _mode_sum(table: MomentTable, kernel: str, delta: int) -> np.ndarray:
    """Raw mode sums, shape (2, n_T), of the position and momentum factors
    over ``kernel`` ("x", "y" or "cross") with the phase weights of site
    distance ``delta`` (cos for a direction, sin for the cross kernel)."""
    n = table.spectrum.params.n
    phase = _sin_weights(n, delta) if kernel == "cross" else _cos_weights(n, delta)
    return _weighted_mode_sums(getattr(table.kernels, kernel), table.factors, phase, n)


@dataclass(frozen=True)
class PairMoments:
    """Sum and difference moments of two same-direction sites at separation tau.

    ``q_plus = var_q + cov_q``, ``p_minus = var_p - cov_p`` and friends are
    each evaluated as a single mode sum, so that criticality's zero mode
    drops out exactly where its phase weight vanishes: they stay finite
    whenever the combination is finite. The raw variances and covariances,
    which can be inf at a critical point, are the entries of
    :func:`block_covariance` of sites (1, 1 + tau).
    """

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
    """Normalized sum and difference moments of two sites at neighbour
    distance tau."""
    table = moment_table(build_spectrum(params, nu_t), (temperature,))
    return pair_moments_at(table, tau, direction)[0]


def pair_moments_at(table: MomentTable, tau: int, direction: str) -> tuple:
    """:func:`pair_moments` at every temperature of a moment table: one
    :class:`PairMoments` per temperature, in the table's order."""
    spec = table.spectrum
    params = spec.params
    _check_direction(direction)
    if not 1 <= tau <= params.n // 2:
        raise ConfigError(f"tau must be in 1..{params.n // 2}, got {tau}")
    kern = getattr(table.kernels, direction)
    # the pair's parity is the sign of its covariance entry: (-1)^(2 + tau),
    # exactly +-1.0, for y on the zigzag, 1.0 otherwise
    zigzag = spec.config.variant is Variant.ZIGZAG
    parity = (-1.0) ** (2 + tau) if direction == "y" and zigzag else 1.0
    nu_ref = params.nu if direction == "x" else spec.nu_t
    n = params.n

    plus, minus = _pair_weights(n, tau, parity)
    q_plus, p_plus = _weighted_mode_sums(kern, table.factors, plus, n)
    q_minus, p_minus = _weighted_mode_sums(kern, table.factors, minus, n)
    columns = (nu_ref * q_plus, nu_ref * q_minus, p_plus / nu_ref, p_minus / nu_ref)
    return tuple(PairMoments(*v) for v in zip(*(c.tolist() for c in columns)))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Covariance over an ordered set of (site, direction) modes.

    ``matrix`` is 2k x 2k with quadratures interleaved (q1, p1, q2, p2, ...)
    following ``modes``. Entries are in normalized units.
    """

    matrix: np.ndarray
    modes: tuple
    dropped_soft_modes: int = 0


def _block_modes(params: LatticeParams, sites, directions) -> tuple:
    """The checked (site, direction) modes of a block, sites outer."""
    sites = tuple(int(s) for s in sites)
    if len(sites) == 0 or len(set(sites)) != len(sites):
        raise ConfigError("sites must be a non-empty collection of distinct indices")
    for s in sites:
        if not 1 <= s <= params.n:
            raise ConfigError(f"site index {s} outside 1..{params.n}")
    directions = tuple(directions)
    if not directions or any(d not in DIRECTIONS for d in directions):
        raise ConfigError(f"directions must be a non-empty subset of {DIRECTIONS}")
    return tuple((s, d) for s in sites for d in directions)


# A block's entries depend on its modes and on whether the ring is buckled
# only; a sweep asks for a few block shapes at every working point.
@functools.lru_cache(maxsize=128)
def _block_layout(modes: tuple, zigzag: bool) -> tuple:
    """How the upper entries (i <= j, row-major) of a block over ``modes``
    come from a table's raw mode sums.

    Returns ``(keys, entry_key, signs, pairs, entry_pair, rows, cols)``:
    the distinct (kernel, site distance) sums, None for the zero sums of a
    cross entry of the flat ring; per upper entry the position of its sum
    in ``keys`` and its sign, exactly +-1.0, of shape (m, 1, 1); the
    distinct direction pairs and per entry the position of its pair; and
    the q row and column 2i, 2j of each entry. Cross-entry signs are fixed
    by the (-1)^j staggering of the first site in each coupled pair;
    validated against the dense oracle.
    """
    keys, pairs, entry_key, signs, entry_pair, upper = {}, {}, [], [], [], []
    for i, (s1, d1) in enumerate(modes):
        for j in range(i, len(modes)):
            s2, d2 = modes[j]
            delta = s2 - s1
            if d1 == d2:
                key = (d1, delta)
                sign = (-1.0) ** (s1 + s2) if d1 == "y" and zigzag else 1.0
            elif not zigzag:
                key, sign = None, 1.0
            else:
                key = ("cross", delta)
                # <x_{s1} y_{s2}>, else <y_{s1} x_{s2}>
                sign = (-1.0) ** s2 if d1 == "x" else -((-1.0) ** s1)
            entry_key.append(keys.setdefault(key, len(keys)))
            entry_pair.append(pairs.setdefault((d1, d2), len(pairs)))
            signs.append(sign)
            upper.append((2 * i, 2 * j))
    rows, cols = np.array(upper).T
    return (
        tuple(keys),
        _read_only(np.array(entry_key)),
        _read_only(np.array(signs)[:, None, None]),
        tuple(pairs),
        _read_only(np.array(entry_pair)),
        _read_only(rows),
        _read_only(cols),
    )


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
    sites, directions = tuple(sites), tuple(directions)
    table = moment_table(build_spectrum(params, nu_t), (temperature,), drop_soft_modes)
    return CovarianceMatrix(
        matrix=block_covariance_at(table, sites, directions)[0],
        modes=_block_modes(params, sites, directions),
        dropped_soft_modes=table.kernels.dropped,
    )


def block_covariance_at(table: MomentTable, sites, directions=DIRECTIONS) -> np.ndarray:
    """:func:`block_covariance` at every temperature of a moment table, as
    one array of shape (n_T, 2k, 2k); the modes are ``sites`` outer and
    ``directions`` inner. The covariance of the first k modes is the
    leading 2k x 2k submatrix, entry for entry."""
    spec = table.spectrum
    params = spec.params
    modes = _block_modes(params, sites, directions)
    keys, entry_key, signs, pairs, entry_pair, i, j = _block_layout(
        modes, spec.config.variant is Variant.ZIGZAG
    )
    n_t = len(table.temperatures)
    zero = np.zeros((2, n_t))
    # per upper entry: position and momentum moment at every temperature
    sums = np.stack([zero if key is None else _mode_sum(table, *key) for key in keys])
    entries = sums[entry_key] * signs
    scale = {"x": params.nu, "y": spec.nu_t}
    g = np.array([math.sqrt(scale[d1] * scale[d2]) for d1, d2 in pairs])[entry_pair, None]
    qq, pp = (g * entries[:, 0]).T, (entries[:, 1] / g).T
    k = len(modes)
    cov = np.zeros((n_t, 2 * k, 2 * k))
    cov[:, i, j] = cov[:, j, i] = qq
    cov[:, i + 1, j + 1] = cov[:, j + 1, i + 1] = pp
    return cov


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
        raise ConfigError(f"dense oracle supports n <= {DENSE_SITE_LIMIT}, got {n}")
    if temperature < 0:
        raise ConfigError("temperature must be non-negative")
    config = solve_equilibrium(params, nu_t)
    coeff = taylor_coefficients(params, config)

    # potential quadratic form V over u = (x_1..x_n, y_1..y_n), H = p^2/4 + u^T V u
    # at the library's mass 2, so that the squared normal frequencies are the
    # eigenvalues of V; a pair term c (u_j - u_{j+tau})^2 summed over j is the
    # form d^T c d with row j of d equal to e_j - e_{j+tau}
    V = np.zeros((2 * n, 2 * n))
    np.fill_diagonal(V[:n, :n], params.nu**2)
    np.fill_diagonal(V[n:, n:], nu_t**2)
    sites = np.arange(n)
    for idx, tau in enumerate(coeff.tau):
        d = np.eye(n) - np.eye(n)[(sites + tau) % n]
        lap = d.T @ d
        V[:n, :n] += 0.5 * coeff.dx[idx] * lap
        V[n:, n:] += 0.5 * coeff.dy[idx] * lap
        if config.variant is Variant.ZIGZAG and tau % 2 == 1:
            # cross coupling alternates with the parity of the first site
            cd = 0.25 * coeff.dxy[idx] * (-1.0) ** (sites + 1)
            cross = d.T @ (cd[:, None] * d)
            V[:n, n:] += cross
            V[n:, :n] += cross

    w2, basis = np.linalg.eigh(V)
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
    position, momentum = (f[0] for f in _mode_factors(omega[pos], (temperature,)))
    qmat = basis[:, pos] @ np.diag(position) @ basis[:, pos].T
    pmat = basis[:, pos] @ np.diag(momentum) @ basis[:, pos].T
    if zero.any():
        proj = basis[:, zero] @ basis[:, zero].T
        pmat = pmat + temperature * proj
        diverges = np.abs(proj) > 1e-10 * np.abs(proj).max()
        qmat[diverges] = np.sign(proj[diverges]) * np.inf

    modes = tuple((s, d) for s in range(1, n + 1) for d in DIRECTIONS)
    # u index of each mode (1x, 1y, 2x, ...): 0, n, 1, n + 1, ...
    u = np.arange(2 * n).reshape(2, n).T.ravel()
    scale = np.tile([params.nu, nu_t], n)
    g = np.sqrt(np.outer(scale, scale))
    cov = np.zeros((4 * n, 4 * n))
    cov[0::2, 0::2] = g * qmat[np.ix_(u, u)]
    cov[1::2, 1::2] = pmat[np.ix_(u, u)] / g
    return CovarianceMatrix(matrix=cov, modes=modes)


# One sum serves the node data of every weight on the same interval (see
# _rule_node_data) and the zone-edge and zone-centre values of every row.
@functools.lru_cache(maxsize=4096)
def _dispersion_sum(tau_max: int, a: float) -> float:
    """sum_{tau=1}^{tau_max} sin^2(a tau) / tau^3, the nuT-independent part
    of the bulk dispersion. NumPy's pairwise sum (``np.add.reduce``, the
    reduction ``np.sum`` calls) and its ``x**2`` are kept as they are: a
    scalar rewrite differs in the last bit at some nodes."""
    taus, cubes = _dispersion_taus(tau_max)
    return float(np.add.reduce(np.sin(a * taus) ** 2 / cubes))


@functools.lru_cache(maxsize=16)
def _dispersion_taus(tau_max: int):
    """tau = 1 .. tau_max as floats and their cubes, shared read-only."""
    taus = np.arange(1, tau_max + 1, dtype=float)
    return _read_only(taus), _read_only(taus**3)


def _bulk_dispersion(params: LatticeParams, nu_t: float, direction: str) -> tuple:
    """(base, k) of the bulk dispersion omega^2 = base + k S(alpha) with
    S = ``_dispersion_sum``: base = nu^2 and k = 2 along x, base = nu_t^2
    and k = -1 along y."""
    if direction == "x":
        return params.nu**2, 2.0
    return nu_t**2, -1.0


# QAGS bisects the same few dozen intervals for every nuT and direction: the
# seed-0 bulk workload of perfbench evaluates 1,813 rules on 49 distinct
# intervals, 81 with their weights. What a node's value takes besides the
# dispersion's base and prefactor is computed once per interval and weight;
# the entries are tuples, read-only.
@functools.lru_cache(maxsize=1024)
def _rule_node_data(
    variable: str, tau_max: int, tau: int, sign: float, centr: float, hlgth: float
) -> tuple:
    """Per node of ``rule_nodes(centr, hlgth)``, for ``variable`` "alpha"
    the pair (S(alpha), w) and for "u" the triple (S(alpha), w, 1 - u^2)
    at alpha = acos(u): S = ``_dispersion_sum(tau_max, .)`` and the weight
    w = 1 + sign cos(2 alpha tau). Each is the scalar expression the
    integrand would evaluate at the node, so its bits are kept."""
    acos, cos, dsum = math.acos, math.cos, _dispersion_sum
    if variable == "alpha":
        return tuple(
            (dsum(tau_max, a), 1.0 + sign * cos(2.0 * a * tau)) for a in rule_nodes(centr, hlgth)
        )
    data = []
    for u in rule_nodes(centr, hlgth):
        a = acos(u)
        data.append((dsum(tau_max, a), 1.0 + sign * cos(2.0 * a * tau), 1.0 - u * u))
    return tuple(data)


def _bulk_integrands(base: float, k: float, tau_max: int, tau: int = 0, sign: float = 0.0):
    """The rule integrands (see ``_solvers.quad``) of quadrature's two
    half-zone averages for the weight w = 1 + sign cos(2 alpha tau) (sign 0
    gives w = 1) on the dispersion omega^2 = base + k S(alpha) of
    ``_bulk_dispersion``.

    Returns ``(f, (g, gap2, w_end, scale2))``: f(alpha) = w omega for
    ``integrate_weighted_frequency`` and the arguments of
    ``integrate_weighted_inverse``, where g(u) = w / sqrt(omega^2 (1 - u^2))
    at alpha = acos(u), and 0 where omega^2 <= 0. Each rule integrand
    takes S, w and 1 - u^2 from ``_rule_node_data``, so an interval costs
    its 21 nodes one square root and one product or quotient each.
    ``1.0 + sign * cos`` equals ``1.0 - cos`` bit for bit, since negation
    and scaling by 1 are exact.
    """
    sqrt, data = math.sqrt, _rule_node_data

    def f(centr, hlgth):
        return [
            w * sqrt(w2 if (w2 := base + k * s) > 0.0 else 0.0)
            for s, w in data("alpha", tau_max, tau, sign, centr, hlgth)
        ]

    def g(centr, hlgth):
        return [
            0.0 if (w2 := base + k * s) <= 0.0 else w / sqrt(w2 * c)
            for s, w, c in data("u", tau_max, tau, sign, centr, hlgth)
        ]

    gap2 = base + k * _dispersion_sum(tau_max, HALF_PI)
    w_end = 1.0 + sign * math.cos(2.0 * HALF_PI * tau)
    scale2 = abs(base + k * _dispersion_sum(tau_max, 0.0))
    return f, (g, gap2, w_end, scale2)


# The axial dispersion nu^2 + C S does not involve nu_t, so a bulk sweep
# asks for the same x averages at every row; the caches below compute them
# once per ring. A transverse entry is not asked for twice in a sweep.
@functools.lru_cache(maxsize=256)
def _pair_averages(base: float, k: float, tau_max: int, tau: int) -> tuple:
    """(ip_plus, ip_minus, iq_plus, iq_minus): the frequency and inverse
    averages under the weights 1 +- cos(2 alpha tau)."""
    f_plus, inverse_plus = _bulk_integrands(base, k, tau_max, tau, 1.0)
    f_minus, inverse_minus = _bulk_integrands(base, k, tau_max, tau, -1.0)
    ip_plus = integrate_weighted_frequency(f_plus)
    ip_minus = integrate_weighted_frequency(f_minus)
    iq_plus = integrate_weighted_inverse(*inverse_plus)
    iq_minus = integrate_weighted_inverse(*inverse_minus)
    return ip_plus, ip_minus, iq_plus, iq_minus


@functools.lru_cache(maxsize=256)
def _site_averages(base: float, k: float, tau_max: int) -> tuple:
    """(iq, ip): the inverse and frequency averages under the weight 1; ip
    is None when iq is Divergent."""
    f, inverse = _bulk_integrands(base, k, tau_max)
    iq = integrate_weighted_inverse(*inverse)
    if isinstance(iq, Divergent):
        return iq, None
    return iq, integrate_weighted_frequency(f)


def _require_flat_bulk(params: LatticeParams, nu_t: float):
    """Refuse a ``nu_t`` where ``solve_equilibrium`` buckles the ring: below
    the bulk critical point (or NaN)."""
    crit = critical_potential(params, td_limit=True)
    if not nu_t >= crit:
        raise ConfigError(
            "bulk-limit expressions hold in the flat configuration only "
            f"(nu_t={nu_t:.6g} below critical {crit:.6g})"
        )


def td_pair_criteria(
    params: LatticeParams, nu_t: float, tau: int, direction: str
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
    base, k = _bulk_dispersion(params, nu_t, direction)
    ip_plus, ip_minus, iq_plus, iq_minus = _pair_averages(base, k, params.tau_max, tau)
    pref = 4.0 / math.pi**2

    def combine(iq, ip):
        if isinstance(iq, Divergent):
            return math.inf
        return pref * iq * ip - 1.0

    return combine(iq_plus, ip_minus), combine(iq_minus, ip_plus)


def td_single_site_eigenvalue(params: LatticeParams, nu_t: float, direction: str):
    """Bulk-limit symplectic eigenvalue of one site's reduced state.

    Returns a float, or :class:`Divergent` when the underlying inverse
    dispersion average diverges (or the value exceeds 1e6).
    """
    _check_direction(direction)
    _require_flat_bulk(params, nu_t)
    base, k = _bulk_dispersion(params, nu_t, direction)
    iq, ip = _site_averages(base, k, params.tau_max)
    if isinstance(iq, Divergent):
        return iq
    r = (2.0 / math.pi) * math.sqrt(iq * ip)
    if r > 1e6:
        return Divergent("single-site eigenvalue exceeded 1e6")
    return r

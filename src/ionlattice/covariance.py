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
from dataclasses import dataclass, field

import numpy as np

from ._solvers import rule_nodes
from .errors import ConfigError, Divergent, ImaginaryFrequency
from .lattice import (
    LatticeParams,
    Variant,
    checked_temperatures,
    critical_potential,
    solve_equilibrium,
    taylor_coefficients,
    _cos_double_table,
    _read_only,
    _sin_double_table,
)
from .quadrature import (
    HALF_PI,
    integrate_weighted_frequency,
    integrate_weighted_inverse,
)
from .spectrum import RADICAND_TOL, build_spectrum

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
    (equipartition). The temperature axis goes in before the mode axis, so
    omega of shape (P, 2, n) gives factors of shape (P, 2, n_T, n); each
    value equals the evaluation at its spectrum and temperature alone bit
    for bit.
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
class MomentTable:
    """The thermal factors of P mode spectra of one ring in one phase at a
    stack of temperatures. ``omega`` stacks their frequencies, shape
    (P, 2, n): spectrum, branch, mode. ``weights[kernel]`` holds the mixing
    weights of branch 0 and 1 in the "x", "y" or "cross" sums, each (P, n)
    with 0 at a soft mode left out, or None where all vanish; ``dropped``
    counts the modes left out per spectrum. A branch's factors are
    evaluated when a kernel that weights it first reads the table (see
    :meth:`_kernel_factors`), so a flat table read along y evaluates no axial
    factor; ``factors`` holds every branch, shape (P, 2, 2, n_T, n):
    spectrum, branch, position or momentum factor, temperature, mode. Its
    readers give one result per spectrum."""

    spectra: tuple
    temperatures: tuple
    weights: dict
    omega: np.ndarray
    dropped: tuple
    _branches: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _kernel_factors(self, kernel: str) -> dict:
        """The (P, 2, n_T, n) factors of the table's spectra by branch, each
        branch ``kernel`` weights among them. The weighted branches that no
        earlier read evaluated take one :func:`_mode_factors` call, both
        branches of a buckled table together."""
        self._evaluate([b for b, w in enumerate(self.weights[kernel]) if w is not None])
        return self._branches

    @property
    def factors(self) -> np.ndarray:
        self._evaluate((0, 1))
        return np.stack((self._branches[0], self._branches[1]), axis=1)

    def _evaluate(self, branches):
        missing = [b for b in branches if b not in self._branches]
        if missing:
            omega = self.omega if len(missing) == 2 else self.omega[:, missing]
            factors = np.stack(_mode_factors(omega, self.temperatures), axis=2)
            for i, b in enumerate(missing):
                self._branches[b] = factors[:, i]


def moment_table(spectra, temperatures, drop_soft_modes: bool = False) -> MomentTable:
    """The moment table of ``spectra``, a sequence of mode spectra of one
    ring in one phase (one spectrum is a sequence of one), at each of
    ``temperatures`` (likewise a sequence); its factors are evaluated as
    its readers ask for them. ``drop_soft_modes`` excludes modes below
    ``SOFT_FREQ_FACTOR * max(nu, nu_t)`` from every mode sum of the table
    (see :func:`block_covariance`)."""
    temperatures = checked_temperatures(temperatures)
    spectra = tuple(spectra)
    if not spectra or len({(s.params, s.variant) for s in spectra}) > 1:
        raise ConfigError("a moment table takes spectra of one ring in one phase")
    omega, c2, s2, cs = (
        arrays[0][None] if len(spectra) == 1 else np.stack(arrays)
        for arrays in zip(*((s.omega, s.c2, s.s2, s.cs) for s in spectra))
    )
    c2, s2, cs = (w if w.any() else None for w in (c2, s2, cs))
    weights = {"x": (c2, s2), "y": (s2, c2), "cross": (cs, None if cs is None else -cs)}
    dropped = (0,) * len(spectra)
    if drop_soft_modes:
        floor = np.array([SOFT_FREQ_FACTOR * max(s.params.nu, s.nu_t) for s in spectra])
        keep = omega > floor[:, None, None]
        dropped = tuple((~keep).sum(axis=(1, 2)).tolist())
        for key, pair in weights.items():
            masked = zip(keep.transpose(1, 0, 2), pair)
            weights[key] = tuple(w if w is None else np.where(k, w, 0.0) for k, w in masked)
    return MomentTable(spectra, temperatures, weights, omega, dropped)


def _mode_sums(table: MomentTable, kernel: str, phase) -> np.ndarray:
    """(1/n) sum_l w_l fac_l of both factors of each of the table's P
    spectra at every temperature, shape (P, 2, n_T), over ``kernel``: w_l is
    a branch's mixing weight times the phase weight ``phase``, and an
    exact-zero w_l kills its term. Per branch, the spectra whose w vanish at
    the same modes share one product and one row-wise reduction. Each value
    is the one-dimensional sum of its spectrum, factor and temperature bit
    for bit: (1) ``compress`` keeps the mode axis C-contiguous, so NumPy
    reduces each row pairwise as it does a 1-d array (``a[..., mask]`` does
    not, and moves sums by 1 ulp); (2) spectra whose patterns differ go into
    separate groups; (3) each accumulates 0.0 + s_0/n + s_1/n in branch
    order, skipping a branch whose w all vanish, which keeps the sign of 0.
    """
    n = table.omega.shape[-1]
    total = np.zeros((len(table.spectra), 2, len(table.temperatures)))
    factors = table._kernel_factors(kernel)
    for branch, weights in enumerate(table.weights[kernel]):
        if weights is None:
            continue
        w = weights * phase
        nz = w != 0.0
        # one group of all spectra, unless their zero patterns differ
        groups = {}
        for i, row in enumerate(nz if len(nz) > 1 and (nz != nz[0]).any() else ()):
            groups.setdefault(row.tobytes(), []).append(i)
        for part in groups.values() or [slice(None)]:
            facs, mask, wt = factors[branch][part], nz[part][0], w[part]
            count = np.count_nonzero(mask)
            if count == n:
                terms = facs * wt[:, None, None]
            elif count:
                terms = facs.compress(mask, axis=-1) * wt.compress(mask, axis=-1)[:, None, None]
            else:
                continue
            total[part] += terms.sum(axis=-1) / n
    return total


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
    table = moment_table([build_spectrum(params, nu_t)], (temperature,))
    return pair_moments_at(table, tau, direction)[0][0]


def pair_moments_at(table: MomentTable, tau: int, direction: str) -> list:
    """:func:`pair_moments` at every temperature of a moment table: per
    spectrum a tuple of one :class:`PairMoments` per temperature, in order."""
    params = table.spectra[0].params
    _check_direction(direction)
    if not 1 <= tau <= params.n // 2:
        raise ConfigError(f"tau must be in 1..{params.n // 2}, got {tau}")
    # the pair's parity is the sign of its covariance entry: (-1)^(2 + tau),
    # exactly +-1.0, for y on the zigzag, 1.0 otherwise
    zigzag = table.spectra[0].variant is Variant.ZIGZAG
    parity = (-1.0) ** (2 + tau) if direction == "y" and zigzag else 1.0
    nu_ref = np.array([[params.nu if direction == "x" else s.nu_t] for s in table.spectra])
    cosd = _cos_double_table(params.n, tau)
    q_plus, p_plus = _mode_sums(table, direction, 1.0 + parity * cosd).transpose(1, 0, 2)
    q_minus, p_minus = _mode_sums(table, direction, 1.0 - parity * cosd).transpose(1, 0, 2)
    columns = (nu_ref * q_plus, nu_ref * q_minus, p_plus / nu_ref, p_minus / nu_ref)
    columns = zip(*(c.tolist() for c in columns))
    return [tuple(PairMoments(*v) for v in zip(*c)) for c in columns]


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
    if (
        not directions
        or len(set(directions)) != len(directions)
        or any(d not in DIRECTIONS for d in directions)
    ):
        raise ConfigError(f"directions must be a non-empty subset of {DIRECTIONS}, each once")
    return tuple((s, d) for s in sites for d in directions)


# A block's entries depend on its modes and on whether the ring is buckled
# only; a sweep asks for a few block shapes at every working point. The
# seed-0 perfbench sweeps hit it 1 (finite-small), 29 (finite-large) and 39
# (bulk) times; a miss costs 12-18 us.
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
    table = moment_table([build_spectrum(params, nu_t)], (temperature,), drop_soft_modes)
    return CovarianceMatrix(
        matrix=block_covariance_at(table, sites, directions)[0][0],
        modes=_block_modes(params, sites, directions),
        dropped_soft_modes=table.dropped[0],
    )


def block_covariance_at(table: MomentTable, sites, directions=DIRECTIONS) -> np.ndarray:
    """:func:`block_covariance` at every temperature of a moment table of P
    spectra, shape (P, n_T, 2k, 2k), by one scatter; the modes are
    ``sites`` outer and ``directions`` inner, and the first k modes'
    covariance is the leading 2k x 2k part."""
    spectra = table.spectra
    params = spectra[0].params
    modes = _block_modes(params, sites, directions)
    zigzag = spectra[0].variant is Variant.ZIGZAG
    keys, entry_key, signs, pairs, entry_pair, i, j = _block_layout(modes, zigzag)
    n_t, k = len(table.temperatures), len(modes)
    # a direction's sums take the lattice's cos(2 phase) table at the key's
    # site distance, the cross sums its sin(2 phase) table
    tables = {"x": _cos_double_table, "y": _cos_double_table, "cross": _sin_double_table}
    zero = np.zeros((len(spectra), 2, n_t))
    sums = [zero if key is None else _mode_sums(table, key[0], tables[key[0]](params.n, key[1]))
            for key in keys]
    # per spectrum and upper entry: position and momentum moment at every temperature
    entries = np.stack(sums, axis=1)[:, entry_key] * signs
    scales = [{"x": params.nu, "y": s.nu_t} for s in spectra]
    g = np.array([[math.sqrt(c[d1] * c[d2]) for d1, d2 in pairs] for c in scales])[:, entry_pair]
    qq = (g[..., None] * entries[:, :, 0]).transpose(0, 2, 1)
    pp = (entries[:, :, 1] / g[..., None]).transpose(0, 2, 1)
    cov = np.zeros((len(spectra), n_t, 2 * k, 2 * k))
    cov[:, :, i, j] = cov[:, :, j, i] = qq
    cov[:, :, i + 1, j + 1] = cov[:, :, j + 1, i + 1] = pp
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
    checked_temperatures((temperature,))
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


# The zone-edge and zone-centre values of every row; the rule nodes take
# the same sum a row of nodes at a time (see _rule_node_data). The seed-0
# bulk sweep of perfbench hits it 248 times; a miss costs about 5 us.
@functools.lru_cache(maxsize=64)
def _dispersion_sum(tau_max: int, a: float) -> float:
    """sum_{tau=1}^{tau_max} sin^2(a tau) / tau^3, the nuT-independent part
    of the bulk dispersion. NumPy's pairwise sum (``np.add.reduce``, the
    reduction ``np.sum`` calls) and its ``x**2`` are kept as they are: a
    scalar rewrite differs in the last bit at some nodes. The same
    expression over a (nodes, tau_max) array, reduced along its rows, gives
    each node this value bit for bit."""
    taus = np.arange(1, tau_max + 1, dtype=float)
    return float(np.add.reduce(np.sin(a * taus) ** 2 / taus**3))


def _bulk_dispersion(params: LatticeParams, nu_t: float, direction: str) -> tuple:
    """(base, k) of the bulk dispersion omega^2 = base + k S(alpha) with
    S = ``_dispersion_sum``: base = nu^2 and k = 2 along x, base = nu_t^2
    and k = -1 along y."""
    if direction == "x":
        return params.nu**2, 2.0
    return nu_t**2, -1.0


# QAGS bisects the same few dozen intervals for every nuT and direction: the
# seed-0 bulk workload of perfbench evaluates 1,813 rules on 49 distinct
# intervals, 81 with their weights, so 1,732 of its calls here hit, each
# saving about 18 us. What a node's value takes besides the dispersion's
# base and prefactor is computed once per interval and weight, the 21
# dispersion sums in one array expression; the entries are tuples,
# read-only.
@functools.lru_cache(maxsize=1024)
def _rule_node_data(
    variable: str, tau_max: int, tau: int, sign: float, centr: float, hlgth: float
) -> tuple:
    """Per node of ``rule_nodes(centr, hlgth)``, for ``variable`` "alpha"
    the pair (S(alpha), w) and for "u" the triple (S(alpha), w, 1 - u^2)
    at alpha = acos(u): S(alpha) equals ``_dispersion_sum(tau_max, alpha)``
    bit for bit, and the weight w = 1 + sign cos(2 alpha tau) and 1 - u^2
    are the scalar expressions the integrand would evaluate at the node."""
    cos, nodes = math.cos, rule_nodes(centr, hlgth)
    alphas = nodes if variable == "alpha" else [math.acos(u) for u in nodes]
    taus = np.arange(1, tau_max + 1, dtype=float)
    sums = np.add.reduce(np.sin(np.array(alphas)[:, None] * taus) ** 2 / taus**3, axis=1)
    weights = [1.0 + sign * cos(2.0 * a * tau) for a in alphas]
    if variable == "alpha":
        return tuple(zip(sums.tolist(), weights))
    return tuple(zip(sums.tolist(), weights, [1.0 - u * u for u in nodes]))


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
# once per ring. A transverse entry is not asked for twice in a sweep. The
# seed-0 bulk sweep of perfbench hits each about 40 times, each hit saving
# QAGS runs of 0.15-0.3 ms.
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
    dispersion average diverges.
    """
    _check_direction(direction)
    _require_flat_bulk(params, nu_t)
    base, k = _bulk_dispersion(params, nu_t, direction)
    iq, ip = _site_averages(base, k, params.tau_max)
    if isinstance(iq, Divergent):
        return iq
    return (2.0 / math.pi) * math.sqrt(iq * ip)

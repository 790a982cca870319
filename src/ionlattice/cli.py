"""Command line interface.

All frequencies and temperatures cross this boundary in reduced units:
trap frequencies (including the axial ``nu``) in units of
sqrt(Q^2 / (m a^3)) and temperatures in units of half that. They are
converted to library units (see :mod:`ionlattice.lattice`) exactly once, by
``NU_T_UNIT`` and ``TEMPERATURE_UNIT``, when a command's inputs are
resolved, and back at emission. Lengths are reported in units of the
lattice spacing, witness energies in the frequency unit (hbar = 1).
``--mass``, ``--charge`` and ``--spacing`` are checked and change no output.

Exit codes: 0 success, 1 check-suite failure, 2 configuration error,
3 numerical failure, or a run out of memory or short of a worker process.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace

import numpy as np

from .covariance import (
    DIRECTIONS,
    block_covariance,
    block_covariance_at,
    moment_table,
    pair_moments_at,
    td_pair_criteria,
    td_single_site_eigenvalue,
)
from .entanglement import (
    block_entropy_profile,
    negativity,
    separability_criteria,
    spectrum_entropies,
    symplectic_spectra,
)
from .errors import (
    ConfigError,
    DomainError,
    NoConvergence,
    NumericalFailure,
    QuadratureFailure,
)
from .lattice import LatticeParams, Variant, checked_temperatures, solve_equilibrium
from .spectrum import build_spectra, build_spectrum
from .witness import witness_report, witness_reports

#: Ring size standing in for the bulk limit where no closed form exists.
TD_PROXY_N = 4096

#: the reduced frequency unit sqrt(Q^2 / (m a^3)) in library units, and the
#: reduced temperature unit, half of it
NU_T_UNIT = math.sqrt(0.5)
TEMPERATURE_UNIT = 0.5 * NU_T_UNIT

#: the sweep's measures in the order a row's cells are filled: per name,
#: the input it reads and the columns it writes. An input holds per row the
#: values of those columns, x before y, any of which may be an error that
#: ends the row: "pairs" (tau = 1 criteria and negativity), a block size k
#: (entropy and divergent flag) or "reports" (see _reduced_witness).
MEASURES = {
    "negativity": ("pairs", ("S1x", "S2x", "ENx", "S1y", "S2y", "ENy")),
    "entropy": (1, ("SV1x", "SV1xDivergent", "SV1y", "SV1yDivergent")),
    "blockEntropy2": (2, ("SV2x", "SV2xDivergent", "SV2y", "SV2yDivergent")),
    "blockEntropy3": (3, ("SV3x", "SV3xDivergent", "SV3y", "SV3yDivergent")),
    "witness": ("reports", ("U", "bound", "Tc", "witnessTriggered")),
}
DEFAULT_MEASURES = ("negativity", "entropy")

#: top-level keys of a config file, each with the JSON type it must hold
#: (a string where a list belongs would be read character by character)
CONFIG_KEYS = {
    "params": (dict, "hold a JSON object"),
    "nuTGrid": (list, "hold a JSON list"),
    "temperatures": (list, "hold a JSON list"),
    "measures": (list, "hold a JSON list"),
    "tdLimit": (bool, "be true or false"),
}

#: keys of the config's ``params``, each the destination of its flag too,
#: with their defaults; an unset tauMax takes the preset of the model
PARAMS = {"n": 20, "mass": 1.0, "charge": 1.0, "spacing": 1.0, "nu": 1.0, "model": "NN",
          "tauMax": None}

#: the tauMax preset of each model, in any letter case; NN admits no other
MODEL_TAU_MAX = {"NN": 1, "LR": 4}

#: most points of a start:stop:count grid; a larger count is refused before
#: the grid is built
GRID_COUNT_MAX = 10**6

#: grid name -> (flag, its destination, config key, default)
GRIDS = {
    "nuT": ("--nu-t", "nu_t", "nuTGrid", None),
    "temperature": ("--temp", "temp", "temperatures", (0.0,)),
}

COLUMNS = (
    "nuT",
    "T",
    "configVariant",
    "b",
    "S1x",
    "S2x",
    "S1y",
    "S2y",
    "ENx",
    "ENy",
    "SV1x",
    "SV1y",
    "SV2x",
    "SV2y",
    "SV3x",
    "SV3y",
    "U",
    "bound",
    "Tc",
    "witnessTriggered",
    "SV1xDivergent",
    "SV1yDivergent",
    "SV2xDivergent",
    "SV2yDivergent",
    "SV3xDivergent",
    "SV3yDivergent",
    "error",
)

#: errors that end a sweep row (exit 3 in a one-point command);
#: ArithmeticError covers a float overflow or a division by zero at an
#: extreme finite nuT. A MemoryError or a broken pool ends the run instead.
_ROW_ERRORS = (
    DomainError,
    NoConvergence,
    QuadratureFailure,
    NumericalFailure,
    ArithmeticError,
)

#: a NumPy overflow, division by zero or invalid operation on the row path
#: raises FloatingPointError, an ArithmeticError, instead of leaving an inf
#: or nan cell; the library's local ``np.errstate`` blocks still apply
_FP_FAULTS = {"over": "raise", "divide": "raise", "invalid": "raise"}


@dataclass(frozen=True)
class SweepSpec:
    """A resolved sweep: library-unit parameters plus reduced-unit grids."""

    params: LatticeParams
    nu_t_grid: tuple
    temperatures: tuple
    measures: tuple = DEFAULT_MEASURES
    td_limit: bool = False

    def __post_init__(self):
        _check_grid("nuT", self.nu_t_grid)
        _check_grid("temperature", self.temperatures)
        # a config entry may be a JSON list or object, which cannot be looked up
        bad = [m for m in self.measures if not isinstance(m, str) or m not in MEASURES]
        if bad:
            raise ConfigError(f"unknown measures {bad}; choose from {tuple(MEASURES)}")
        if not self.measures:
            raise ConfigError("at least one measure is required")
        if self.td_limit and tuple(self.temperatures) != (0.0,):
            raise ConfigError("the bulk limit is implemented for temperature 0 only")


def _check_grid(name: str, grid):
    """Refuse a nuT or temperature grid that no row can be made of."""
    if not grid:
        raise ConfigError(f"{name} grid must not be empty")
    if not all(math.isfinite(v) for v in grid):
        raise ConfigError(f"{name} grid must hold finite values")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{name} grid must be strictly increasing")
    if name == "temperature":
        checked_temperatures(grid)


def _entropy_values(spectra) -> list:
    """The values of one block cell per item of :func:`symplectic_spectra`:
    (entropy, False); (None, True) for an infinite entropy, which only a
    ``Divergent`` item or eigenvalue has; or (error,) for a failed item,
    stored and never raised."""
    return [
        (entropy,) if isinstance(entropy, Exception)
        else (None, True) if entropy == math.inf else (entropy, False)
        for entropy in spectrum_entropies(spectra)
    ]


def _pair_values(s1: float, s2: float) -> tuple:
    """(S1, S2, EN) of one direction; EN is the error of a criterion the
    negativity refuses, stored and never raised."""
    try:
        return s1, s2, negativity(s1, s2)
    except _ROW_ERRORS as exc:
        return s1, s2, exc.with_traceback(None)


#: a row before any cell is filled: no values, no divergent flags, no error
_ROW_TEMPLATE = {c: False if c.endswith("Divergent") else None for c in COLUMNS}
_ROW_TEMPLATE["error"] = ""


def _blank_row(nu_t_paper: float, t_paper: float) -> dict:
    return {**_ROW_TEMPLATE, "nuT": nu_t_paper, "T": t_paper}


def _error_text(exc) -> str:
    """``exc`` as a row's error cell and an exit-3 message name it."""
    return f"{type(exc).__name__}: {exc}"


#: most elements of a batch's moment table, shape (P, 2, 2, n_T, n), P >= 1:
#: 128 KiB, the allocator's mmap threshold; two n = 4096 points were slower
_BATCH_ELEMENTS = 2**14


def _chunk_rows(spec: SweepSpec, nu_t_papers) -> list:
    """The rows of a chunk of nuT points: one list per point, in the order
    of ``nu_t_papers``, with one row per temperature.

    Each input of a requested measure is computed once per point: each
    point of a batch stops at its equilibrium, a flat bulk point at its
    closed forms; the points of one phase share one ``build_spectra`` call
    and one moment table; the block entropies follow at the end of the
    chunk, and then ``_fill_cells`` writes every row."""
    ring = dataclasses.replace(spec.params, n=TD_PROXY_N) if spec.td_limit else spec.params
    temperatures = tuple(t * TEMPERATURE_UNIT for t in spec.temperatures)
    size = max(1, _BATCH_ELEMENTS // (4 * len(temperatures) * ring.n))
    measures = [entry for name, entry in MEASURES.items() if name in spec.measures]
    reads = tuple(source for source, _ in measures)
    # a bulk row's U and bound are per site of the stand-in ring
    sites = TD_PROXY_N if spec.td_limit else 1
    # the flat-phase x half of the chunk: its one-spectrum table, pair
    # moments, block stack
    points, axial = [], {}
    with np.errstate(**_FP_FAULTS):
        for start in range(0, len(nu_t_papers), size):
            batch = [_point(spec, ring, v, reads) for v in nu_t_papers[start : start + size]]
            for phase in Variant:
                live = [point for point in batch
                        if point.reads and point.config.variant is phase]
                if live:
                    _table_inputs(live, ring, temperatures, axial, sites)
            points += batch
        _block_inputs(points)
        for point in points:
            _fill_cells(point, measures)
    return [point.rows for point in points]


def _point(spec: SweepSpec, ring, nu_t_paper: float, reads: tuple) -> SimpleNamespace:
    """One nuT point, evaluated up to its equilibrium. A bulk-limit point
    is the point of the stand-in ring (n = TD_PROXY_N), whose equilibrium
    decides the phase; where that ring is flat, the pair criteria and the
    single-site entropy take their closed forms instead. The point holds
    its rows; its library nuT and configuration; the inputs of ``reads``
    left to its ring; the inputs it has, by name; the (n_T, 2K, 2K) stacks
    of its largest block, x and y; the error that stopped it, or None."""
    rows = [_blank_row(nu_t_paper, t) for t in spec.temperatures]
    nu_t = nu_t_paper * NU_T_UNIT
    point = SimpleNamespace(rows=rows, nu_t=nu_t, config=None, reads=(), inputs={}, blocks=(),
                            error=None)
    try:
        config = solve_equilibrium(ring, nu_t)
        for row in point.rows:
            row["configVariant"] = config.variant.value
            row["b"] = config.b
        if spec.td_limit and config.variant is Variant.LINEAR:
            reads = _closed_form_inputs(spec.params, nu_t, reads, point.inputs)
        point.config, point.reads = config, reads
    except _ROW_ERRORS as exc:
        point.error = exc.with_traceback(None)
    return point


def _closed_form_inputs(params, nu_t: float, reads: tuple, inputs: dict) -> tuple:
    """The inputs of a flat bulk row that have closed forms, the pair
    criteria and the single-site entropy, from their dispersion averages,
    into ``inputs``, direction by direction (a raised error keeps the
    values before it); return the inputs of ``reads`` left to the ring."""
    forms = {
        "pairs": lambda d: _pair_values(*td_pair_criteria(params, nu_t, 1, d)),
        1: lambda d: _entropy_values([(td_single_site_eigenvalue(params, nu_t, d),)])[0],
    }
    for source in reads:
        if source in forms:
            values = inputs[source] = [()]
            for d in DIRECTIONS:
                values[0] += forms[source](d)
    return tuple(source for source in reads if source not in forms)


def _table_inputs(points, ring, temperatures, axial: dict, sites: int):
    """The ring's inputs of ``points``, in one phase with the same
    ``reads``, from one ``build_spectra`` call and one moment table of its
    spectra: the pair criteria, the stacks of the largest block (whose
    leading 2k x 2k part is the block of k sites) and the witness reports,
    U and bound per ``sites`` sites. A failed batched step is taken again
    point by point, so an error stops its own point, with the text it has
    there alone."""
    reads = points[0].reads
    sizes = [source for source in reads if isinstance(source, int)]
    try:
        spectra = build_spectra(ring, [point.nu_t for point in points],
                                [point.config for point in points])
        table = moment_table(spectra, temperatures)
        if "pairs" in reads:
            xs, ys = _halves(table, axial, "pairs", lambda t, d: pair_moments_at(t, 1, d))
            for point, x, y in zip(points, xs, ys):
                point.inputs["pairs"] = [
                    _pair_values(*separability_criteria(mx))
                    + _pair_values(*separability_criteria(my))
                    for mx, my in zip(x, y)
                ]
        if sizes:
            block = range(1, max(sizes) + 1)
            xs, ys = _halves(table, axial, "blocks",
                             lambda t, d: block_covariance_at(t, block, (d,)))
            for point, x, y in zip(points, xs, ys):
                point.blocks = (x, y)
    except _ROW_ERRORS as exc:
        if len(points) == 1:
            points[0].error = exc.with_traceback(None)
            return
        for point in points:
            _table_inputs([point], ring, temperatures, axial, sites)
        return
    for point, modes in zip(points, spectra) if "reports" in reads else ():
        try:
            reports = witness_reports(modes, temperatures)
            point.inputs["reports"] = [_reduced_witness(rep, sites) for rep in reports]
        except _ROW_ERRORS as exc:
            # the error ends the point's rows; its traceback would keep the
            # point's spectrum alive
            point.inputs["reports"] = [(exc.with_traceback(None),)] * len(point.rows)


def _halves(table, axial: dict, key: str, evaluate) -> tuple:
    """The x and y values of ``evaluate(table, direction)``, one per spectrum.
    A flat point's x half does not involve nuT (axial branch, weights 1, 0,
    0): it is evaluated into ``axial[key]`` on ``axial["table"]``, the
    one-spectrum table of the chunk's first flat point, which evaluates the
    axial factors once for both keys, and every flat point shares that one
    value; the batch table, read along y only, evaluates no axial factor."""
    if table.spectra[0].variant is Variant.ZIGZAG:
        return tuple(evaluate(table, d) for d in DIRECTIONS)
    if key not in axial:
        if "table" not in axial:
            axial["table"] = moment_table(table.spectra[:1], table.temperatures)
        axial[key] = evaluate(axial["table"], "x")[0]
    return [axial[key]] * len(table.spectra), evaluate(table, "y")


def _block_inputs(points):
    """The block entropy inputs of a chunk's points, size by size: one
    :func:`symplectic_spectra` call and one :func:`spectrum_entropies` call
    serve every block of a size, and a stack several points share enters
    them once. A failed block is the error of every row that reads it: its
    own row, or on the shared flat x stack, that temperature's row of every
    flat point."""
    points = [point for point in points if point.blocks]
    for size in sorted({k for point in points for k in point.reads if isinstance(k, int)}):
        chosen = [point for point in points if size in point.reads]
        # each distinct stack, first seen first; the points keep them alive
        stacks = {id(stack): stack for point in chosen for stack in point.blocks}
        starts = {key: i * len(stack) for i, (key, stack) in enumerate(stacks.items())}
        cells = _entropy_values(symplectic_spectra(
            np.concatenate([stack[:, : 2 * size, : 2 * size] for stack in stacks.values()])
        ))
        for point in chosen:
            x, y = (starts[id(stack)] for stack in point.blocks)
            point.inputs[size] = [cells[x + t] + cells[y + t] for t in range(len(point.rows))]


def _fill_cells(point, measures):
    """Write the measure cells of a point's rows, the one place that does:
    per row, the values of each input of ``measures`` (the requested
    entries of ``MEASURES``, in table order) that the point has, then the
    error that stopped the point; the first error ends the row, in its
    ``error`` cell."""
    filled = [(columns, point.inputs[source]) for source, columns in measures
              if source in point.inputs]
    stop = [("error", point.error)] if point.error else []
    for t, row in enumerate(point.rows):
        for column, value in chain(*(zip(c, v[t]) for c, v in filled), stop):
            if isinstance(value, Exception):
                row["error"] = _error_text(value)
                break
            row[column] = value


def _reduced_witness(rep, sites: int = 1) -> tuple:
    """(U, bound, Tc, U < bound) of a witness report in reduced units, U and
    bound per ``sites`` sites (totals at 1); the comparison takes the
    library-unit totals, which the divisions could tie."""
    tc = rep.critical_temperature
    return (
        rep.internal_energy / NU_T_UNIT / sites,
        rep.bound / NU_T_UNIT / sites,
        None if tc is None else tc / TEMPERATURE_UNIT,
        rep.internal_energy < rep.bound,
    )


def _row_worker(task):
    """One pool task: the rows of a chunk of nuT points, one list per point."""
    spec, nu_t_papers = task
    return _chunk_rows(spec, nu_t_papers)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list:
    """All sweep rows in grid order (outer nuT, inner temperature).

    Each nuT is evaluated once for all its temperatures. A serial sweep is
    one chunk of the whole grid; ``jobs`` chunks, but no more than there
    are nuT points, are interleaved (``grid[i::jobs]``), so a pool task
    carries many points. The pool starts no more worker processes than
    there are CPUs, whatever ``jobs`` asks.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    grid = spec.nu_t_grid
    chunks = min(jobs, len(grid))
    if chunks == 1:
        groups = _chunk_rows(spec, grid)
    else:
        tasks = [(spec, grid[i::chunks]) for i in range(chunks)]
        with ProcessPoolExecutor(max_workers=min(chunks, os.cpu_count() or 1)) as pool:
            done = list(pool.map(_row_worker, tasks))
        # point j is item j // chunks of chunk j % chunks
        groups = [done[j % chunks][j // chunks] for j in range(len(grid))]
    return [row for group in groups for row in group]


# ---------------------------------------------------------------- formatting


def _format_cell(value) -> str:
    """The CSV text of a cell: a float to 12 significant digits (inf, -inf
    and nan as such), None as an empty cell, a flag as true or false, a
    tuple as the texts of its items joined by spaces."""
    kind = value.__class__
    # the exact types of nearly every cell first; the general rules below
    # give each of them the same text
    if kind is float:
        return f"{value:.12g}"
    if value is None:
        return ""
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    if kind is tuple:
        return " ".join([_format_cell(v) for v in value])
    return str(value)


def rows_to_csv(rows, columns=COLUMNS) -> str:
    cell = _format_cell
    lines = [",".join(columns)]
    lines += [",".join([cell(row[c]) for c in columns]) for row in rows]
    return "\n".join(lines) + "\n"


def _write(path: str, text: str, what: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {what}: {exc}") from None


def _check_writable(path: str, what: str):
    """Fail on a destination that cannot be written before any work is
    done. The probe opens for appending, so an existing file keeps its
    content, and a file it had to create is removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write {what}: {exc}") from None
    if not existed:
        os.remove(path)


def _emit(text: str, out: str | None):
    """Write ``text`` to the file ``out``, else to stdout and flush it, so
    that a failed write ends in a configuration error here and not at exit."""
    if out:
        _write(out, text, "output")
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


# ------------------------------------------------------------------- parsing


def _parse_grid(text: str) -> tuple:
    """Comma list ("0.9,1.0") or linspace ("0.5:2.0:16")."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ConfigError(f"grid range must be start:stop:count, got {text!r}")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ConfigError("grid count must be positive")
            if count > GRID_COUNT_MAX:
                raise ConfigError(f"grid count {count} is too large (at most {GRID_COUNT_MAX})")
            if count == 1:
                return (start,)
            return tuple(np.linspace(start, stop, count).tolist())
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}: {exc}") from None


def _real(key: str, value, kind: str = "a number") -> float:
    """A config number as a float: a JSON int or float, neither a bool,
    which float() would read as 0 or 1, nor a string, which it would parse
    (" 1_4.5 " as 14.5), and within a float's range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        digits = len(str(abs(value)))
        raise ConfigError(f"{key} is too large for a float: {digits} digits") from None


def _integer(key: str, value) -> int:
    """A config number as an int, refusing one with a fraction, which int()
    would truncate (20.7 to 20)."""
    if not _real(key, value, "an integer").is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _params_from_mapping(raw: dict) -> LatticeParams:
    extra = set(raw) - PARAMS.keys()
    if extra:
        raise ConfigError(f"unknown parameter keys {sorted(extra)}")
    raw = {**PARAMS, **raw}
    model = str(raw["model"]).upper()
    if model not in MODEL_TAU_MAX:
        raise ConfigError(f"model must be NN or LR, got {raw['model']!r}")
    mass, charge, spacing, nu_paper = (
        _real(key, raw[key]) for key in ("mass", "charge", "spacing", "nu")
    )
    n = _integer("n", raw["n"])
    tau_max = (MODEL_TAU_MAX[model] if raw["tauMax"] is None
               else _integer("tauMax", raw["tauMax"]))
    if not all(math.isfinite(v) for v in (mass, charge, spacing, nu_paper)):
        raise ConfigError("mass, charge, spacing and nu must be finite")
    # every output is in reduced units, so the raw units are checked and
    # then left unused
    if charge <= 0 or mass <= 0 or spacing <= 0:
        raise ConfigError("mass, charge and spacing must be positive")
    params = LatticeParams(n=n, nu=nu_paper * NU_T_UNIT, tau_max=tau_max)
    if model == "NN" and tau_max != 1:
        raise ConfigError("nearest-neighbour model requires tau_max == 1")
    return params


def _load(args):
    """(config mapping, library-unit parameters) of any subcommand: the
    config file, then the parameter flags that are set."""
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        except (OSError, ValueError) as exc:  # or not text, or an integer too long for int()
            raise ConfigError(f"cannot read config file: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        extra = set(cfg) - CONFIG_KEYS.keys()
        if extra:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        for key, value in cfg.items():
            kind, rule = CONFIG_KEYS[key]
            if not isinstance(value, kind):
                raise ConfigError(f"config key {key} must {rule}")
    flags = {key: getattr(args, key) for key in PARAMS if getattr(args, key) is not None}
    return cfg, _params_from_mapping({**cfg.get("params", {}), **flags})


def _grid(args, cfg: dict, name: str) -> tuple:
    """The checked ``name`` grid of a command, in reduced units: its flag,
    else its config key, else its default."""
    _, dest, key, default = GRIDS[name]
    text = getattr(args, dest)
    grid = cfg.get(key, default) if text is None else _parse_grid(text)
    if grid is None:
        raise ConfigError("a nuT grid is required (--nu-t or config nuTGrid)")
    grid = tuple(_real(f"{name} grid entry", v) for v in grid)
    _check_grid(name, grid)
    return grid


def _spec_from_args(args) -> SweepSpec:
    """Resolve a sweep: config file, then flags."""
    cfg, params = _load(args)
    measures = cfg.get("measures", DEFAULT_MEASURES)
    if args.measures is not None:
        measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    return SweepSpec(
        params=params,
        nu_t_grid=_grid(args, cfg, "nuT"),
        temperatures=_grid(args, cfg, "temperature"),
        measures=tuple(measures),
        td_limit=cfg.get("tdLimit", False) or args.td_limit,
    )


def _single(args, cfg: dict, name: str) -> float:
    """The one value of a one-point command's ``name`` grid."""
    grid = _grid(args, cfg, name)
    if len(grid) != 1:
        raise ConfigError(f"{args.command} takes one {name} value, got {len(grid)}")
    return grid[0]


def _point_from_args(args):
    """(params, nu_t, temperature) of a one-point command with ``--temp``,
    in library units."""
    cfg, params = _load(args)
    nu_t, temperature = (_single(args, cfg, name) for name in GRIDS)
    return params, nu_t * NU_T_UNIT, temperature * TEMPERATURE_UNIT


def _add_param_flags(sub, grids=tuple(GRIDS)):
    sub.add_argument("--config", help="JSON file with params and grids")
    sub.add_argument("--n", type=int, help="number of sites")
    for raw in ("--mass", "--charge", "--spacing"):
        sub.add_argument(raw, type=float, help="raw unit: checked, changes no output")
    sub.add_argument("--nu", type=float, help="axial trap frequency, reduced units")
    sub.add_argument("--model", help="NN or LR, any case: tauMax preset 1 or 4")
    sub.add_argument("--tau-max", dest="tauMax", type=int)
    for name in grids:
        flag, dest = GRIDS[name][:2]
        sub.add_argument(flag, dest=dest,
                         help=f"{name} grid, reduced units: comma list or start:stop:count")
    sub.add_argument("--out", help="output path (default stdout)")


# --------------------------------------------------------------- subcommands
# Each CSV subcommand returns its (rows, columns); ``main`` prints them.


def _sweep_rows(args) -> tuple:
    return run_sweep(_spec_from_args(args), jobs=args.jobs), COLUMNS


def _spectrum_rows(args) -> tuple:
    cfg, params = _load(args)
    spec = build_spectrum(params, _single(args, cfg, "nuT") * NU_T_UNIT)
    cols = ("l", "variant", "omegaX", "omegaY", "omegaV", "omegaW")
    names = cols[2:4] if spec.variant is Variant.LINEAR else cols[4:6]
    rows = []
    for l, freqs in enumerate(spec.omega.T / NU_T_UNIT, start=1):
        row = dict.fromkeys(cols)
        row.update({"l": l, "variant": spec.variant.value, **dict(zip(names, freqs))})
        rows.append(row)
    return rows, cols


def _block_entropy_rows(args) -> tuple:
    params, nu_t, temperature = _point_from_args(args)
    rep = block_entropy_profile(
        params, nu_t, temperature, args.sites, args.direction, args.drop_soft_modes
    )
    row = {
        "nSites": args.sites,
        "direction": args.direction,
        "entropy": rep.entropy,
        "spectrum": rep.spectrum,
        "droppedSoftModes": rep.dropped_soft_modes,
    }
    return [row], tuple(row)


def _witness_rows(args) -> tuple:
    params, nu_t, temperature = _point_from_args(args)
    rep = witness_report(params, nu_t, temperature)
    u, bound, tc, below = _reduced_witness(rep)
    row = {
        "omegaX": rep.omega_x / NU_T_UNIT,
        "omegaY": rep.omega_y / NU_T_UNIT,
        "bound": bound,
        "U": u,
        "Tc": tc,
        "triggered": below,
    }
    return [row], tuple(row)


def _covariance_rows(args) -> tuple:
    params, nu_t, temperature = _point_from_args(args)
    try:
        sites = tuple(int(s) for s in args.sites.split(","))
    except ValueError:
        raise ConfigError(f"sites must be a comma list of integers, got {args.sites!r}") from None
    directions = tuple(d.strip() for d in args.directions.split(",") if d.strip())
    cov = block_covariance(params, nu_t, temperature, sites=sites, directions=directions)
    if args.dump:
        text = "".join(",".join(f"{v:.17g}" for v in r) + "\n" for r in cov.matrix)
        _write(args.dump, text, "dump file")
    # one column per quadrature, interleaved as in the matrix
    cols = tuple(f"{q}{s}{d}" for s, d in cov.modes for q in "qp")
    return [dict(zip(cols, r)) for r in cov.matrix.tolist()], cols


def _run_checks() -> tuple:
    """(report text, exit code) of the check suite."""
    from .checks import run_check_suite

    results = run_check_suite()
    lines = [f"{'pass' if ok else 'FAIL'}  {name}: {detail}\n" for name, ok, detail in results]
    passed = sum(1 for _, ok, _ in results if ok)
    lines.append(f"{passed}/{len(results)} checks passed\n")
    return "".join(lines), 0 if passed == len(results) else 1


# --------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionlattice",
        description="Ring-trap oscillator chain: spectra, covariance, entanglement.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="tabulate measures over a nuT/T grid")
    _add_param_flags(sweep)
    sweep.add_argument("--measures", help=f"comma list from {','.join(MEASURES)}")
    sweep.add_argument("--td-limit", action="store_true", dest="td_limit",
                       help="bulk-limit evaluation (temperature grid must be [0])")
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.set_defaults(rows=_sweep_rows)

    spectrum = subs.add_parser("spectrum", help="normal-mode frequencies at one point")
    _add_param_flags(spectrum, grids=("nuT",))
    spectrum.set_defaults(rows=_spectrum_rows)

    blocke = subs.add_parser("block-entropy", help="entropy of a block of sites")
    _add_param_flags(blocke)
    blocke.add_argument("--sites", type=int, default=1, help="block size")
    blocke.add_argument("--direction", choices=["x", "y"], default="y")
    blocke.add_argument("--drop-soft-modes", action="store_true")
    blocke.set_defaults(rows=_block_entropy_rows)

    witness = subs.add_parser("witness", help="energy witness at one point")
    _add_param_flags(witness)
    witness.set_defaults(rows=_witness_rows)

    covariance = subs.add_parser("covariance", help="covariance matrix of chosen sites")
    _add_param_flags(covariance)
    covariance.add_argument("--sites", default="1,2", help="comma list of site indices")
    covariance.add_argument("--directions", default="x,y")
    covariance.add_argument("--dump", help="write full-precision matrix to this path")
    covariance.set_defaults(rows=_covariance_rows)

    subs.add_parser("check", help="run the internal consistency suite")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out, dump = getattr(args, "out", None), getattr(args, "dump", None)
        if out and dump and os.path.realpath(out) == os.path.realpath(dump):
            raise ConfigError("--out and --dump must name different files")
        for what, path in (("output", out), ("dump file", dump)):
            if path:
                _check_writable(path, what)
        with np.errstate(**_FP_FAULTS):
            if args.command == "check":
                text, code = _run_checks()
            else:
                rows, columns = args.rows(args)
                text, code = rows_to_csv(rows, columns), 0
        _emit(text, out)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _ROW_ERRORS as exc:
        print(f"numerical failure: {_error_text(exc)}", file=sys.stderr)
        return 3
    except (MemoryError, BrokenExecutor) as exc:
        print(f"resource failure: {_error_text(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

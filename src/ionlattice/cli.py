"""Command line interface.

All frequencies and temperatures cross this boundary in reduced units:
trap frequencies (including the axial ``nu``) in units of
sqrt(Q^2 / (m a^3)) and temperatures in units of half that. Conversion to
the raw internal units happens exactly once, when a command's inputs are
resolved; outputs are converted back at emission. Lengths are reported in
units of the lattice spacing. Witness energies are reported in the
frequency unit (hbar = 1).

Exit codes: 0 success, 1 check-suite failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
    spectrum_entropy,
    symplectic_spectra,
)
from .errors import (
    ConfigError,
    Divergent,
    DomainError,
    NoConvergence,
    NumericalFailure,
    QuadratureFailure,
)
from .lattice import (
    LatticeParams,
    Variant,
    check_finite,
    solve_equilibrium,
)
from .spectrum import build_spectrum
from .witness import witness_report, witness_reports

#: Ring size standing in for the bulk limit where no closed form exists.
TD_PROXY_N = 4096

MEASURES = (
    "negativity",
    "entropy",
    "blockEntropy2",
    "blockEntropy3",
    "witness",
)
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
#: extreme finite nuT
_ROW_ERRORS = (
    DomainError,
    NoConvergence,
    QuadratureFailure,
    NumericalFailure,
    ArithmeticError,
)


@dataclass(frozen=True)
class SweepSpec:
    """A resolved sweep: raw-unit parameters plus reduced-unit grids."""

    params: LatticeParams
    nu_t_grid: tuple
    temperatures: tuple
    measures: tuple = DEFAULT_MEASURES
    td_limit: bool = False

    def __post_init__(self):
        _check_grid("nuT", self.nu_t_grid)
        _check_grid("temperature", self.temperatures)
        bad = [m for m in self.measures if m not in MEASURES]
        if bad:
            raise ConfigError(f"unknown measures {bad}; choose from {MEASURES}")
        if not self.measures:
            raise ConfigError("at least one measure is required")
        if self.td_limit and tuple(self.temperatures) != (0.0,):
            raise ConfigError("the bulk limit is implemented for temperature 0 only")
        if self.params.charge <= 0:
            raise ConfigError("reduced units require a positive charge")


def _check_grid(name: str, grid):
    """Refuse a nuT or temperature grid that no row can be made of."""
    if not grid:
        raise ConfigError(f"{name} grid must not be empty")
    if not all(math.isfinite(v) for v in grid):
        raise ConfigError(f"{name} grid must hold finite values")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{name} grid must be strictly increasing")
    if name == "temperature" and any(t < 0 for t in grid):
        raise ConfigError("temperatures must be non-negative")


def _block_sizes(measures) -> tuple:
    """Block sizes of the requested entropy columns: 1 for ``entropy``."""
    names = {1: "entropy", 2: "blockEntropy2", 3: "blockEntropy3"}
    return tuple(k for k, name in names.items() if name in measures)


def _entropy_cell(spectrum):
    """(entropy or None, divergent flag) of one block column from its item
    of :func:`symplectic_spectra`; a failed check raises its error."""
    if isinstance(spectrum, Exception):
        raise spectrum
    if isinstance(spectrum, Divergent):
        return None, True
    return spectrum_entropy(spectrum), False


#: a row before any cell is filled: no values, no divergent flags, no error
_ROW_TEMPLATE = {c: False if c.endswith("Divergent") else None for c in COLUMNS}
_ROW_TEMPLATE["error"] = ""


def _blank_row(nu_t_paper: float, t_paper: float) -> dict:
    return {**_ROW_TEMPLATE, "nuT": nu_t_paper, "T": t_paper}


def _error_text(exc) -> str:
    """``exc`` as a row's error cell and an exit-3 message name it."""
    return f"{type(exc).__name__}: {exc}"


def _fail(rows, exc):
    """Record ``exc`` on every row that has not failed yet."""
    for row in rows:
        if not row["error"]:
            row["error"] = _error_text(exc)


class _Point:
    """One nuT point of a chunk while it waits for the chunk's block
    spectra: its rows, one per temperature, filled up to the block cells;
    the block sizes it asks for with the covariance stack of the largest
    block in each direction, shape (n_T, 2K, 2K), x first; and its witness
    reports, or the error that ends its rows once their block cells are
    in. Its spectrum and moment table are not kept. (A plain class: a
    dataclass costs every command about half a millisecond to create.)"""

    __slots__ = ("rows", "sizes", "blocks", "witness")

    def __init__(self, rows: list):
        self.rows, self.sizes, self.blocks, self.witness = rows, (), (), None


def _chunk_rows(spec: SweepSpec, nu_t_papers) -> list:
    """The rows of a chunk of nuT points: one list per point, in the order
    of ``nu_t_papers``, with one row per temperature.

    A row's cells are filled measure by measure until the first error,
    which goes into its ``error`` cell; an error of a step shared by all
    temperatures of a point (equilibrium, spectrum, witness bound and
    crossing) ends every row of the point that has not failed yet. Each
    point is evaluated up to its block stack and witness; then one
    :func:`symplectic_spectra` call per block size serves every block of
    the chunk, and the block and witness cells follow, in that order.
    """
    axial = {}
    points = [_point(spec, nu_t_paper, axial) for nu_t_paper in nu_t_papers]
    _block_cells(points)
    for point in points:
        _witness_cells(spec.params, point)
    return [point.rows for point in points]


def _point(spec: SweepSpec, nu_t_paper: float, axial: dict) -> _Point:
    """One nuT point, evaluated up to its block stacks and witness. A
    bulk-limit point is the point of the stand-in ring (n = TD_PROXY_N),
    whose equilibrium decides the phase; where that ring is flat, the pair
    criteria and the single-site entropy take their closed forms instead."""
    point = _Point([_blank_row(nu_t_paper, t) for t in spec.temperatures])
    params, measures = spec.params, spec.measures
    ring = dataclasses.replace(params, n=TD_PROXY_N) if spec.td_limit else params
    nu_t = nu_t_paper * params.nu_t_unit
    try:
        config = solve_equilibrium(ring, nu_t)
        for row in point.rows:
            row["configVariant"] = config.variant.value
            row["b"] = config.b / params.spacing
        if spec.td_limit and config.variant is Variant.LINEAR:
            measures = _closed_form_cells(params, nu_t, measures, point.rows[0])
        if measures:
            temperatures = tuple(t * params.temperature_unit for t in spec.temperatures)
            _finite_point(ring, measures, nu_t, config, temperatures, point, axial)
    except _ROW_ERRORS as exc:
        _fail(point.rows, exc)
    return point


def _closed_form_cells(params, nu_t: float, measures, row) -> tuple:
    """Fill the pair and single-site cells of a flat bulk row from their
    dispersion averages; return the measures left to the stand-in ring."""
    if "negativity" in measures:
        for d in DIRECTIONS:
            _pair_cells(row, d, *td_pair_criteria(params, nu_t, 1, d))
    if "entropy" in measures:
        for d in DIRECTIONS:
            r = td_single_site_eigenvalue(params, nu_t, d)
            cell = _entropy_cell(r if isinstance(r, Divergent) else (r,))
            row[f"SV1{d}"], row[f"SV1{d}Divergent"] = cell
    return tuple(m for m in measures if m not in ("negativity", "entropy"))


def _pair_cells(row, direction, s1, s2):
    row[f"S1{direction}"] = s1
    row[f"S2{direction}"] = s2
    row[f"EN{direction}"] = negativity(s1, s2)


def _moments(table, direction: str, size, axial: dict):
    """The pair moments at tau = 1 (``size`` None) or the covariance of
    sites 1..size, of one direction at every temperature of ``table``.

    The x half of a flat point does not involve nuT (the axial branch,
    weights 1, 0, 0), so ``axial`` keeps it for every later flat point of
    the chunk with the same ring and temperatures."""
    modes = table.spectrum
    key = (modes.params, table.temperatures, size)
    shared = direction == "x" and modes.variant is Variant.LINEAR
    if shared and key in axial:
        return axial[key]
    if size is None:
        value = pair_moments_at(table, 1, direction)
    else:
        value = block_covariance_at(table, range(1, size + 1), (direction,))
    if shared:
        axial[key] = value
    return value


def _block_cells(points):
    """Block entropy cells of a chunk's rows, size by size. A row that has
    failed gets no cells, and a failed block ends its own row only, so
    filling size by size fills each row as filling it alone would."""
    for size in sorted({size for point in points for size in point.sizes}):
        _size_cells([point for point in points if size in point.sizes], size)


def _size_cells(points, size: int):
    """The block entropy cells of one size. One :func:`symplectic_spectra`
    call serves every temperature, direction and point of the chunk; a
    stack that several points share (the flat-phase x half, see
    :func:`_moments`) enters it once."""
    offsets, parts, starts, end = {}, [], [], 0
    for point in points:
        for stack in point.blocks:
            if id(stack) not in offsets:
                offsets[id(stack)] = end
                parts.append(stack[:, : 2 * size, : 2 * size])
                end += len(stack)
        starts.append([offsets[id(stack)] for stack in point.blocks])
    stack = np.concatenate(parts)
    spectra = symplectic_spectra(stack)
    for point, point_starts in zip(points, starts):
        for t, row in enumerate(point.rows):
            if row["error"]:
                continue
            try:
                for d, start in zip(DIRECTIONS, point_starts):
                    cell = _entropy_cell(spectra[start + t])
                    row[f"SV{size}{d}"], row[f"SV{size}{d}Divergent"] = cell
            except _ROW_ERRORS as exc:
                _fail([row], exc)


def _reduced_witness(params, rep) -> tuple:
    """(U, bound, Tc, U < bound) of a witness report in reduced units; the
    comparison takes the raw U and bound, which the division could tie."""
    tc = rep.critical_temperature
    return (
        rep.internal_energy / params.nu_t_unit,
        rep.bound / params.nu_t_unit,
        None if tc is None else tc / params.temperature_unit,
        rep.internal_energy < rep.bound,
    )


def _witness_cells(params, point: _Point):
    if isinstance(point.witness, Exception):
        _fail(point.rows, point.witness)
        return
    for rep, row in zip(point.witness or (), point.rows):
        if not row["error"]:
            row["U"], row["bound"], row["Tc"], row["witnessTriggered"] = _reduced_witness(
                params, rep
            )


def _finite_point(params, measures, nu_t: float, config, temperatures, point: _Point,
                  axial: dict):
    modes = build_spectrum(params, nu_t, config)
    table = moment_table(modes, temperatures)
    if "negativity" in measures:
        pairs = [_moments(table, d, None, axial) for d in DIRECTIONS]
        for row, moments in zip(point.rows, zip(*pairs)):
            try:
                for d, pm in zip(DIRECTIONS, moments):
                    _pair_cells(row, d, *separability_criteria(pm))
            except _ROW_ERRORS as exc:
                _fail([row], exc)
    sizes = _block_sizes(measures)
    if sizes:
        # the stacks of the largest block: a block of k sites is its
        # leading 2k x 2k part
        point.blocks = tuple(_moments(table, d, max(sizes), axial) for d in DIRECTIONS)
        point.sizes = sizes
    if "witness" in measures:
        try:
            point.witness = witness_reports(modes, temperatures)
        except _ROW_ERRORS as exc:
            # the error ends the point's rows; its traceback would keep the
            # point's spectrum alive
            point.witness = exc.with_traceback(None)


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
    and nan as such), None as an empty cell, a flag as true or false."""
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
    return str(value)


def _json_cell(value):
    """The JSON value of a cell: a float as the number its CSV text reads,
    or that text for an infinity or NaN."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        text = _format_cell(value)
        return float(text) if math.isfinite(value) else text
    return value


def rows_to_csv(rows, columns=COLUMNS) -> str:
    cell = _format_cell
    lines = [",".join(columns)]
    lines += [",".join([cell(row[c]) for c in columns]) for row in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows, columns=COLUMNS) -> str:
    payload = [{c: _json_cell(row[c]) for c in columns} for row in rows]
    return json.dumps({"rows": payload}, indent=2) + "\n"


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
    if out:
        _write(out, text, "output")
    else:
        sys.stdout.write(text)


def _emit_rows(args, rows, columns=COLUMNS):
    """Emit ``rows`` in the ``--format`` of ``args`` to its ``--out``."""
    text = rows_to_csv(rows, columns) if args.format == "csv" else rows_to_json(rows, columns)
    _emit(text, args.out)


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


def _integer(key: str, value) -> int:
    """``value`` as an int, refusing a bool or a float with a fraction,
    which int() would truncate (20.7 to 20, true to 1)."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(key: str, value) -> float:
    """``value`` as a float, refusing a bool, which float() would read as
    0 or 1."""
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _params_from_mapping(raw: dict) -> LatticeParams:
    extra = set(raw) - PARAMS.keys()
    if extra:
        raise ConfigError(f"unknown parameter keys {sorted(extra)}")
    raw = {**PARAMS, **raw}
    model = str(raw["model"]).upper()
    if model not in MODEL_TAU_MAX:
        raise ConfigError(f"model must be NN or LR, got {raw['model']!r}")
    try:
        mass, charge, spacing, nu_paper = (
            _real(key, raw[key]) for key in ("mass", "charge", "spacing", "nu")
        )
        n = _integer("n", raw["n"])
        tau_max = (MODEL_TAU_MAX[model] if raw["tauMax"] is None
                   else _integer("tauMax", raw["tauMax"]))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameter value: {exc}") from None
    check_finite(mass, charge, spacing, nu_paper)
    if charge <= 0 or mass <= 0 or spacing <= 0:
        raise ConfigError("mass, charge and spacing must be positive")
    nu = nu_paper * math.sqrt(charge**2 / (mass * spacing**3))
    if not math.isfinite(nu):
        raise NumericalFailure("axial trap frequency not finite in the raw units (overflow)")
    params = LatticeParams(
        n=n,
        mass=mass,
        charge=charge,
        spacing=spacing,
        nu=nu,
        tau_max=tau_max,
    )
    if model == "NN" and tau_max != 1:
        raise ConfigError("nearest-neighbour model requires tau_max == 1")
    return params


def _load(args):
    """(config mapping, raw-unit parameters) of any subcommand: the config
    file, then the parameter flags that are set."""
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
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
    try:
        grid = tuple(_real(f"{name} grid entry", v) for v in grid)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grids must be lists of numbers: {exc}") from None
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
    """(params, raw nu_t, raw temperature) of a one-point command with ``--temp``."""
    cfg, params = _load(args)
    nu_t, temperature = (_single(args, cfg, name) for name in GRIDS)
    return params, nu_t * params.nu_t_unit, temperature * params.temperature_unit


def _add_param_flags(sub, grids=tuple(GRIDS)):
    sub.add_argument("--config", help="JSON file with params and grids")
    sub.add_argument("--n", type=int, help="number of sites")
    sub.add_argument("--mass", type=float)
    sub.add_argument("--charge", type=float)
    sub.add_argument("--spacing", type=float)
    sub.add_argument("--nu", type=float, help="axial trap frequency, reduced units")
    sub.add_argument("--model", help="NN or LR, any case: tauMax preset 1 or 4")
    sub.add_argument("--tau-max", dest="tauMax", type=int)
    for name in grids:
        flag, dest = GRIDS[name][:2]
        sub.add_argument(flag, dest=dest,
                         help=f"{name} grid, reduced units: comma list or start:stop:count")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default="csv")


# --------------------------------------------------------------- subcommands


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    _emit_rows(args, run_sweep(spec, jobs=args.jobs))
    return 0


def _cmd_spectrum(args) -> int:
    cfg, params = _load(args)
    spec = build_spectrum(params, _single(args, cfg, "nuT") * params.nu_t_unit)
    cols = ("l", "variant", "omegaX", "omegaY", "omegaV", "omegaW")
    names = cols[2:4] if spec.variant is Variant.LINEAR else cols[4:6]
    rows = []
    for l, freqs in enumerate(spec.omega.T / params.nu_t_unit, start=1):
        row = dict.fromkeys(cols)
        row.update({"l": l, "variant": spec.variant.value, **dict(zip(names, freqs))})
        rows.append(row)
    _emit_rows(args, rows, cols)
    return 0


def _cmd_block_entropy(args) -> int:
    params, nu_t, temperature = _point_from_args(args)
    rep = block_entropy_profile(
        params, nu_t, temperature, args.sites, args.direction, args.drop_soft_modes
    )
    cols = ("nSites", "direction", "entropy", "spectrum", "droppedSoftModes")
    row = {
        "nSites": args.sites,
        "direction": args.direction,
        "entropy": rep.entropy,
        "spectrum": " ".join(_format_cell(r) for r in rep.spectrum),
        "droppedSoftModes": rep.dropped_soft_modes,
    }
    if args.format == "json":
        payload = dict(row)
        payload["spectrum"] = [_json_cell(float(r)) for r in rep.spectrum]
        payload["entropy"] = _json_cell(rep.entropy)
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(rows_to_csv([row], cols), args.out)
    return 0


def _cmd_witness(args) -> int:
    params, nu_t, temperature = _point_from_args(args)
    unit = params.nu_t_unit
    rep = witness_report(params, nu_t, temperature)
    u, bound, tc, below = _reduced_witness(params, rep)
    row = {
        "omegaX": rep.omega_x / unit,
        "omegaY": rep.omega_y / unit,
        "bound": bound,
        "U": u,
        "Tc": tc,
        "triggered": below,
    }
    _emit_rows(args, [row], tuple(row))
    return 0


def _cmd_covariance(args) -> int:
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
    if args.format == "json":
        payload = {
            "modes": [[s, d] for s, d in cov.modes],
            "matrix": [[_json_cell(v) for v in r] for r in cov.matrix.tolist()],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        # one column per quadrature, interleaved as in the matrix
        cols = tuple(f"{q}{s}{d}" for s, d in cov.modes for q in "qp")
        _emit(rows_to_csv([dict(zip(cols, r)) for r in cov.matrix.tolist()], cols), args.out)
    return 0


def _cmd_check(args) -> int:
    from .checks import run_check_suite

    results = run_check_suite()
    failed = 0
    for name, ok, detail in results:
        status = "pass" if ok else "FAIL"
        print(f"{status}  {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


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
    sweep.set_defaults(func=_cmd_sweep)

    spectrum = subs.add_parser("spectrum", help="normal-mode frequencies at one point")
    _add_param_flags(spectrum, grids=("nuT",))
    spectrum.set_defaults(func=_cmd_spectrum)

    blocke = subs.add_parser("block-entropy", help="entropy of a block of sites")
    _add_param_flags(blocke)
    blocke.add_argument("--sites", type=int, default=1, help="block size")
    blocke.add_argument("--direction", choices=["x", "y"], default="y")
    blocke.add_argument("--drop-soft-modes", action="store_true")
    blocke.set_defaults(func=_cmd_block_entropy)

    witness = subs.add_parser("witness", help="energy witness at one point")
    _add_param_flags(witness)
    witness.set_defaults(func=_cmd_witness)

    covariance = subs.add_parser("covariance", help="covariance matrix of chosen sites")
    _add_param_flags(covariance)
    covariance.add_argument("--sites", default="1,2", help="comma list of site indices")
    covariance.add_argument("--directions", default="x,y")
    covariance.add_argument("--dump", help="write full-precision matrix to this path")
    covariance.set_defaults(func=_cmd_covariance)

    check = subs.add_parser("check", help="run the internal consistency suite")
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for what, path in (("output", getattr(args, "out", None)),
                           ("dump file", getattr(args, "dump", None))):
            if path:
                _check_writable(path, what)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _ROW_ERRORS as exc:
        print(f"numerical failure: {_error_text(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

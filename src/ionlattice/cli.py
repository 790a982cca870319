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
    bulk_closed_forms_hold,
    direct_covariance_oracle,
    moment_table,
    pair_moments_at,
    td_pair_criteria,
    td_single_site_eigenvalue,
)
from .entanglement import (
    block_entropy,
    negativity,
    separability_criteria,
    spectrum_entropy,
    symplectic_spectra,
    symplectic_spectrum,
)
from .errors import (
    ConfigError,
    DomainError,
    NoConvergence,
    NumericalFailure,
    QuadratureFailure,
)
from .lattice import (
    LatticeParams,
    Model,
    Variant,
    critical_potential,
    solve_equilibrium,
)
from .quadrature import Divergent
from .spectrum import OMEGA4, build_spectrum, coupling_matrix, symplectic_diagonalize
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

#: top-level keys of a config file
CONFIG_KEYS = {"params", "nuTGrid", "temperatures", "measures", "tdLimit"}

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
        for name, grid in (("nuT", self.nu_t_grid), ("temperature", self.temperatures)):
            if not grid:
                raise ConfigError(f"{name} grid must not be empty")
            if not all(math.isfinite(v) for v in grid):
                raise ConfigError(f"{name} grid must hold finite values")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} grid must be strictly increasing")
        bad = [m for m in self.measures if m not in MEASURES]
        if bad:
            raise ConfigError(f"unknown measures {bad}; choose from {MEASURES}")
        if not self.measures:
            raise ConfigError("at least one measure is required")
        if self.td_limit and tuple(self.temperatures) != (0.0,):
            raise ConfigError("the bulk limit is implemented for temperature 0 only")
        if any(t < 0 for t in self.temperatures):
            raise ConfigError("temperatures must be non-negative")
        if self.params.charge <= 0:
            raise ConfigError("reduced units require a positive charge")


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
    entropy = spectrum_entropy(spectrum)
    if math.isinf(entropy):
        return None, True
    return entropy, False


def _blank_row(nu_t_paper: float, t_paper: float) -> dict:
    row = {c: None for c in COLUMNS}
    row["nuT"] = nu_t_paper
    row["T"] = t_paper
    for c in COLUMNS:
        if c.endswith("Divergent"):
            row[c] = False
    row["error"] = ""
    return row


def _fail(rows, exc):
    """Record ``exc`` on every row that has not failed yet."""
    for row in rows:
        if not row["error"]:
            row["error"] = f"{type(exc).__name__}: {exc}"


def _compute_rows(spec: SweepSpec, nu_t_paper: float) -> list:
    """The rows of one nuT, one per temperature, from one working point.

    A row's cells are filled measure by measure until the first error,
    which goes into its ``error`` cell; an error of a step shared by all
    temperatures (equilibrium, spectrum, witness bound and crossing) ends
    every row that has not failed yet.
    """
    rows = [_blank_row(nu_t_paper, t) for t in spec.temperatures]
    params = spec.params
    nu_t = nu_t_paper * params.nu_t_unit
    try:
        if spec.td_limit:
            _td_row(spec, nu_t, rows[0])
        else:
            temperatures = [t * params.temperature_unit for t in spec.temperatures]
            _finite_rows(spec, nu_t, temperatures, rows)
    except _ROW_ERRORS as exc:
        _fail(rows, exc)
    return rows


def _pair_cells(row, direction, s1, s2):
    row[f"S1{direction}"] = s1
    row[f"S2{direction}"] = s2
    row[f"EN{direction}"] = negativity(s1, s2)


def _block_cells(table, sizes, rows):
    """Block entropy cells of the rows of a moment table, one row per
    temperature. Each direction's covariance is built once for the largest
    size at every temperature, and a block of k sites is its leading
    2k x 2k part; one :func:`symplectic_spectra` call per size serves every
    temperature and both directions. A row that has failed gets no cells,
    and a failed block ends its own row only."""
    if not sizes:
        return
    largest = range(1, max(sizes) + 1)
    # (n_T, direction, 2K, 2K)
    blocks = np.stack([block_covariance_at(table, largest, (d,)) for d in DIRECTIONS], axis=1)
    spectra = {}
    for size in sizes:
        sub = blocks[:, :, : 2 * size, : 2 * size].reshape(-1, 2 * size, 2 * size)
        spectra[size] = symplectic_spectra(sub)
    for t, row in enumerate(rows):
        if row["error"]:
            continue
        try:
            for size in sizes:
                for i, d in enumerate(DIRECTIONS):
                    cell = _entropy_cell(spectra[size][len(DIRECTIONS) * t + i])
                    row[f"SV{size}{d}"], row[f"SV{size}{d}Divergent"] = cell
        except _ROW_ERRORS as exc:
            _fail([row], exc)


def _witness_cells(modes, temperatures, rows):
    params = modes.params
    reports = witness_reports(modes, temperatures)
    for rep, row in zip(reports, rows):
        if row["error"]:
            continue
        tc = rep.critical_temperature
        row["U"] = rep.internal_energy / params.nu_t_unit
        row["bound"] = rep.bound / params.nu_t_unit
        row["Tc"] = None if tc is None else tc / params.temperature_unit
        row["witnessTriggered"] = rep.triggered


def _finite_rows(spec, nu_t, temperatures, rows):
    params = spec.params
    config = solve_equilibrium(params, nu_t)
    for row in rows:
        row["configVariant"] = config.variant.value
        row["b"] = config.b / params.spacing
    modes = build_spectrum(params, nu_t, config)
    table = moment_table(modes, temperatures)
    if "negativity" in spec.measures:
        pairs = [pair_moments_at(table, 1, d) for d in DIRECTIONS]
        for row, moments in zip(rows, zip(*pairs)):
            try:
                for d, pm in zip(DIRECTIONS, moments):
                    _pair_cells(row, d, *separability_criteria(pm))
            except _ROW_ERRORS as exc:
                _fail([row], exc)
    _block_cells(table, _block_sizes(spec.measures), rows)
    if "witness" in spec.measures:
        _witness_cells(modes, temperatures, rows)


def _td_row(spec: SweepSpec, nu_t: float, row: dict):
    """Bulk-limit row: dispersion averages where the flat closed forms hold,
    a large-ring stand-in (n = TD_PROXY_N) everywhere else."""
    params = spec.params
    proxy = dataclasses.replace(params, n=TD_PROXY_N)
    if not bulk_closed_forms_hold(params, nu_t):
        # below the buckling point only the large-ring stand-in is available
        _finite_rows(dataclasses.replace(spec, params=proxy, td_limit=False), nu_t, (0.0,), [row])
        return
    row["configVariant"] = Variant.LINEAR.value
    row["b"] = 0.0
    if "negativity" in spec.measures:
        for d in ("x", "y"):
            _pair_cells(row, d, *td_pair_criteria(params, nu_t, 1, d))
    sizes = _block_sizes(spec.measures)
    if 1 in sizes:
        for d in ("x", "y"):
            r = td_single_site_eigenvalue(params, nu_t, d)
            cell = _entropy_cell(r if isinstance(r, Divergent) else (r,))
            row[f"SV1{d}"], row[f"SV1{d}Divergent"] = cell
    sizes = [size for size in sizes if size > 1]
    if sizes or "witness" in spec.measures:
        modes = build_spectrum(proxy, nu_t)
        if sizes:
            _block_cells(moment_table(modes, (0.0,)), sizes, [row])
        if "witness" in spec.measures and not row["error"]:
            _witness_cells(modes, (0.0,), [row])


def _row_worker(task):
    """One pool task: every row of one nuT."""
    spec, nu_t_paper = task
    return _compute_rows(spec, nu_t_paper)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list:
    """All sweep rows in grid order (outer nuT, inner temperature).

    Each nuT is evaluated once for all its temperatures; ``jobs`` worker
    processes, but no more than there are nuT points, share them out.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    tasks = [(spec, nt) for nt in spec.nu_t_grid]
    workers = min(jobs, len(tasks))
    if workers == 1:
        groups = [_row_worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_row_worker, tasks))
    return [row for group in groups for row in group]


# ---------------------------------------------------------------- formatting


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
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
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
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
    known = {"n", "mass", "charge", "spacing", "nu", "model", "tauMax"}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown parameter keys {sorted(extra)}")
    try:
        model = Model[str(raw.get("model", "NN")).upper()]
    except KeyError:
        raise ConfigError(f"model must be NN or LR, got {raw.get('model')!r}") from None
    try:
        mass, charge, spacing, nu_paper = (
            _real(key, raw.get(key, 1.0)) for key in ("mass", "charge", "spacing", "nu")
        )
        n = _integer("n", raw.get("n", 20))
        tau_max = raw.get("tauMax")
        tau_max = None if tau_max is None else _integer("tauMax", tau_max)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameter value: {exc}") from None
    if not all(math.isfinite(v) for v in (mass, charge, spacing, nu_paper)):
        raise ConfigError("mass, charge, spacing and nu must be finite")
    if charge <= 0 or mass <= 0 or spacing <= 0:
        raise ConfigError("mass, charge and spacing must be positive")
    unit = math.sqrt(charge**2 / (mass * spacing**3))
    return LatticeParams(
        n=n,
        mass=mass,
        charge=charge,
        spacing=spacing,
        nu=nu_paper * unit,
        model=model,
        tau_max=tau_max,
    )


def _grid_flag(value, fallback):
    """A grid from its flag: a grid string (sweep), one number (one-point
    commands), or ``fallback`` when the flag is unset."""
    if value is None:
        return fallback
    return _parse_grid(value) if isinstance(value, str) else (value,)


def _spec_from_args(args) -> SweepSpec:
    """Resolve the parameters of any subcommand: config file, then flags."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        extra = set(cfg) - CONFIG_KEYS
        if extra:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        for key in ("nuTGrid", "temperatures", "measures"):
            # a string would be read character by character
            if key in cfg and not isinstance(cfg[key], list):
                raise ConfigError(f"config key {key} must hold a JSON list")
    raw_params = cfg.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("config key params must hold a JSON object")
    raw_params = dict(raw_params)
    for key, attr in (
        ("n", "n"),
        ("mass", "mass"),
        ("charge", "charge"),
        ("spacing", "spacing"),
        ("nu", "nu"),
        ("model", "model"),
        ("tauMax", "tau_max"),
    ):
        val = getattr(args, attr, None)
        if val is not None:
            raw_params[key] = val
    params = _params_from_mapping(raw_params)

    nu_t_grid = _grid_flag(getattr(args, "nu_t", None), cfg.get("nuTGrid"))
    if nu_t_grid is None:
        raise ConfigError("a nuT grid is required (--nu-t or config nuTGrid)")
    temperatures = _grid_flag(getattr(args, "temp", None), cfg.get("temperatures", [0.0]))
    measures = cfg.get("measures", list(DEFAULT_MEASURES))
    if getattr(args, "measures", None) is not None:
        measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    td_limit = cfg.get("tdLimit", False)
    if not isinstance(td_limit, bool):
        raise ConfigError("config key tdLimit must be true or false")
    if getattr(args, "td_limit", False):
        td_limit = True
    try:
        nu_t_grid = tuple(_real("nuT grid entry", v) for v in nu_t_grid)
        temperatures = tuple(_real("temperature grid entry", v) for v in temperatures)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grids must be lists of numbers: {exc}") from None
    return SweepSpec(
        params=params,
        nu_t_grid=nu_t_grid,
        temperatures=temperatures,
        measures=tuple(measures),
        td_limit=td_limit,
    )


def _point_from_args(args):
    """(params, raw nu_t, raw temperature) of a one-point command."""
    spec = _spec_from_args(args)
    params = spec.params
    nu_t = spec.nu_t_grid[0] * params.nu_t_unit
    return params, nu_t, spec.temperatures[0] * params.temperature_unit


def _add_param_flags(sub, with_nu_t_grid: bool):
    sub.add_argument("--config", help="JSON file with params and grids")
    sub.add_argument("--n", type=int, help="number of sites")
    sub.add_argument("--mass", type=float)
    sub.add_argument("--charge", type=float)
    sub.add_argument("--spacing", type=float)
    sub.add_argument("--nu", type=float, help="axial trap frequency, reduced units")
    sub.add_argument("--model", choices=["NN", "LR", "nn", "lr"])
    sub.add_argument("--tau-max", dest="tau_max", type=int)
    if with_nu_t_grid:
        sub.add_argument("--nu-t", dest="nu_t", help="grid: comma list or start:stop:count")
    else:
        sub.add_argument("--nu-t", dest="nu_t", type=float, required=True,
                         help="transverse trap frequency, reduced units")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default="csv")


# --------------------------------------------------------------- subcommands


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    _emit_rows(args, run_sweep(spec, jobs=args.jobs))
    return 0


def _cmd_spectrum(args) -> int:
    params, nu_t, _ = _point_from_args(args)
    spec = build_spectrum(params, nu_t)
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
    cov = block_covariance(
        params,
        nu_t,
        temperature,
        sites=range(1, args.sites + 1),
        directions=(args.direction,),
        drop_soft_modes=args.drop_soft_modes,
    )
    rep = block_entropy(cov, n_sites=args.sites, direction=args.direction)
    cols = ("nSites", "direction", "entropy", "spectrum", "droppedSoftModes")
    row = {
        "nSites": rep.n_sites,
        "direction": rep.direction,
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
    tc = rep.critical_temperature
    row = {
        "omegaX": rep.omega_x / unit,
        "omegaY": rep.omega_y / unit,
        "bound": rep.bound / unit,
        "U": rep.internal_energy / unit,
        "Tc": None if tc is None else tc / params.temperature_unit,
        "triggered": rep.triggered,
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
    payload = {
        "modes": [[s, d] for s, d in cov.modes],
        "matrix": [[_json_cell(float(v)) for v in r] for r in cov.matrix],
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [",".join(f"{s}{d}" for s, d in cov.modes)]
        for r in cov.matrix:
            lines.append(",".join(_format_cell(float(v)) for v in r))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -------------------------------------------------------------- check suite


def _check_oracle_equivalence():
    worst = 0.0
    for n in (4, 6, 8):
        params = LatticeParams(n=n, mass=2.0, charge=1.0, spacing=1.0, nu=1.0)
        crit = critical_potential(params)
        for fac in (1.5, 0.8):
            for t_paper in (0.0, 0.5):
                t = t_paper * params.temperature_unit
                a = block_covariance(params, fac * crit, t, sites=range(1, n + 1))
                b = direct_covariance_oracle(params, fac * crit, t)
                worst = max(worst, float(np.max(np.abs(a.matrix - b.matrix))))
    return worst < 1e-9, f"max deviation {worst:.3e}"


def _check_symplectic(corrupt: bool):
    params = LatticeParams(n=8, mass=2.0, charge=1.0, spacing=1.0, nu=1.0)
    crit = critical_potential(params)
    nu_t = 0.8 * crit
    config = solve_equilibrium(params, nu_t)
    worst = 0.0
    for l in (1, params.n // 2, params.n):
        block = coupling_matrix(params, config, nu_t, l)
        wv, ww, smat = symplectic_diagonalize(block)
        if corrupt:
            smat = smat.copy()
            smat[0, 0] *= 1.001
        target = np.diag([wv / 2, wv / 2, ww / 2, ww / 2])
        worst = max(worst, float(np.max(np.abs(smat @ block @ smat.T - target))))
        worst = max(worst, float(np.max(np.abs(smat @ OMEGA4 @ smat.T - OMEGA4))))
    return worst < 1e-10, f"max residual {worst:.3e}"


def _check_purity():
    worst = 0.0
    for fac in (1.4, 0.8):
        params = LatticeParams(n=6, mass=2.0, charge=1.0, spacing=1.0, nu=1.0)
        nu_t = fac * critical_potential(params)
        cov = block_covariance(params, nu_t, 0.0, sites=range(1, 7))
        spec = symplectic_spectrum(cov)
        worst = max(worst, float(np.max(np.abs(spec - 1.0))))
    return worst < 1e-8, f"max |r - 1| = {worst:.3e}"


def _check_decoupling():
    params = LatticeParams(n=8, mass=2.0, charge=1.0, spacing=1.0, nu=1.0)
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
    params = LatticeParams(n=8, mass=2.0, charge=1.0, spacing=1.0, nu=1.0)
    crit = critical_potential(params)
    worst = math.inf
    try:
        for fac in (1.5, 0.8):
            for t_paper in (0.0, 0.4):
                t = t_paper * params.temperature_unit
                for sites in ((1,), (1, 2), (1, 3, 5)):
                    cov = block_covariance(params, fac * crit, t, sites=sites)
                    spec = symplectic_spectrum(cov)
                    worst = min(worst, float(spec.min()))
    except DomainError as exc:
        return False, str(exc)
    return True, f"min eigenvalue {worst:.12f}"


def _check_odd_ring_rejection():
    params = LatticeParams(n=7, mass=2.0, charge=1.0, spacing=1.0, nu=1.0)
    crit = critical_potential(params, td_limit=True)
    try:
        solve_equilibrium(params, 0.8 * crit)
    except ConfigError as exc:
        msg = str(exc)
        return "even" in msg, f"rejected with: {msg}"
    return False, "odd ring accepted a buckled configuration"


def run_check_suite(corrupt_hook: bool = False) -> list:
    """(name, passed, detail) for every internal consistency check.

    ``corrupt_hook`` deliberately perturbs the normal-form matrix before the
    symplectic check so callers can confirm the suite has teeth.
    """
    return [
        ("oracle-equivalence", *_check_oracle_equivalence()),
        ("symplectic-normal-form", *_check_symplectic(corrupt_hook)),
        ("ground-state-purity", *_check_purity()),
        ("direction-decoupling", *_check_decoupling()),
        ("uncertainty-floor", *_check_uncertainty()),
        ("odd-ring-rejection", *_check_odd_ring_rejection()),
    ]


def _cmd_check(args) -> int:
    results = run_check_suite(corrupt_hook=args.corrupt_normal_form)
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
    _add_param_flags(sweep, with_nu_t_grid=True)
    sweep.add_argument("--temp", help="temperature grid, reduced units")
    sweep.add_argument("--measures", help=f"comma list from {','.join(MEASURES)}")
    sweep.add_argument("--td-limit", action="store_true", dest="td_limit",
                       help="bulk-limit evaluation (temperature grid must be [0])")
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.set_defaults(func=_cmd_sweep)

    spectrum = subs.add_parser("spectrum", help="normal-mode frequencies at one point")
    _add_param_flags(spectrum, with_nu_t_grid=False)
    spectrum.set_defaults(func=_cmd_spectrum)

    blocke = subs.add_parser("block-entropy", help="entropy of a block of sites")
    _add_param_flags(blocke, with_nu_t_grid=False)
    blocke.add_argument("--temp", type=float, default=0.0)
    blocke.add_argument("--sites", type=int, default=1, help="block size")
    blocke.add_argument("--direction", choices=["x", "y"], default="y")
    blocke.add_argument("--drop-soft-modes", action="store_true")
    blocke.set_defaults(func=_cmd_block_entropy)

    witness = subs.add_parser("witness", help="energy witness at one point")
    _add_param_flags(witness, with_nu_t_grid=False)
    witness.add_argument("--temp", type=float, default=0.0)
    witness.set_defaults(func=_cmd_witness)

    covariance = subs.add_parser("covariance", help="covariance matrix of chosen sites")
    _add_param_flags(covariance, with_nu_t_grid=False)
    covariance.add_argument("--temp", type=float, default=0.0)
    covariance.add_argument("--sites", default="1,2", help="comma list of site indices")
    covariance.add_argument("--directions", default="x,y")
    covariance.add_argument("--dump", help="write full-precision matrix to this path")
    covariance.set_defaults(func=_cmd_covariance)

    check = subs.add_parser("check", help="run the internal consistency suite")
    check.add_argument("--corrupt-normal-form", action="store_true",
                       help="negative control: break the normal form on purpose")
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
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command line layer: grids, units, the CSV cell rule, exit codes.

Everything crosses the CLI in reduced units (frequencies in sqrt(Q^2/m a^3),
temperatures in half that), so these tests pin the conversion happening
exactly once against API calls made directly in library units.
"""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import sys
import warnings
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ionlattice.cli import (
    COLUMNS,
    SweepSpec,
    _format_cell,
    _parse_grid,
    main,
    rows_to_csv,
    run_sweep,
)
from ionlattice import _solvers, checks, cli, covariance, entanglement, lattice, spectrum, witness
from ionlattice.covariance import block_covariance, pair_moments
from ionlattice.entanglement import (
    block_entropy,
    block_entropy_profile,
    negativity,
    separability_criteria,
)
from ionlattice.errors import ConfigError, DomainError, QuadratureFailure
from ionlattice.lattice import Configuration, LatticeParams, Variant, solve_equilibrium
from ionlattice.witness import witness_report

import record_values

#: reduced-unit value of the test ring's nu = 1 in library units
NU_PAPER = "1.4142135623730951"


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def small_spec(**over):
    params = LatticeParams(n=8, nu=1.0)
    kwargs = dict(
        params=params,
        nu_t_grid=(1.2, 2.2),
        temperatures=(0.0, 0.4),
        measures=("negativity", "entropy"),
    )
    kwargs.update(over)
    return SweepSpec(**kwargs)


# ---------------------------------------------------------------- validation


def test_spec_rejects_unsorted_grid():
    with pytest.raises(ConfigError, match="strictly increasing"):
        small_spec(nu_t_grid=(2.0, 1.0))


def test_spec_rejects_unknown_measure():
    with pytest.raises(ConfigError, match="unknown measures"):
        small_spec(measures=("negativity", "purity"))


def test_spec_rejects_empty_measures():
    with pytest.raises(ConfigError):
        small_spec(measures=())


def test_spec_rejects_bulk_limit_with_thermal_grid():
    with pytest.raises(ConfigError, match="temperature 0 only"):
        small_spec(td_limit=True, temperatures=(0.0, 0.5))


def test_spec_rejects_unchargeable_units():
    # reduced units need a positive charge; the loader refuses zero
    args = cli._build_parser().parse_args(["sweep", "--charge", "0", "--nu-t", "2.0"])
    with pytest.raises(ConfigError, match="mass, charge and spacing must be positive"):
        cli._spec_from_args(args)


def test_parse_grid_forms():
    assert _parse_grid("0.9,1.0") == (0.9, 1.0)
    assert _parse_grid("0.5:2.0:4") == (0.5, 1.0, 1.5, 2.0)
    assert _parse_grid("2.5:9:1") == (2.5,)
    for bad in ("bogus", "1:2", "1:2:0", "1:2:x"):
        with pytest.raises(ConfigError):
            _parse_grid(bad)


# ---------------------------------------------------------------- formatting


def test_format_cell():
    assert _format_cell(1.0 / 3.0) == "0.333333333333"
    assert _format_cell(math.inf) == "inf"
    assert _format_cell(-math.inf) == "-inf"
    assert _format_cell(math.nan) == "nan"
    assert _format_cell(None) == ""
    assert _format_cell(True) == "true"
    assert _format_cell(False) == "false"
    assert _format_cell(np.bool_(True)) == "true"
    assert _format_cell(np.float64(0.25)) == "0.25"
    assert _format_cell("zigzag") == "zigzag"
    assert _format_cell((1.0 / 3.0, np.float64(0.25), math.inf)) == "0.333333333333 0.25 inf"


def _reference_format_cell(value) -> str:
    """The cell rule before the exact-type fast path, kept verbatim."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def test_csv_equals_the_per_cell_rule_byte_for_byte():
    """Every cell type a row can hold: extreme and signed Python floats,
    NumPy scalars, flags, integers, text and absent values."""
    cells = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan,
             1.0 / 3.0, np.float64(-0.0), np.float64(2.5e-310), np.float64(math.inf),
             np.float64(math.nan), np.float32(0.1), np.bool_(True), np.bool_(False),
             True, False, 0, -7, 2**70, "zigzag", "", "DomainError: x, y", None]
    rng = np.random.default_rng(7)
    columns = tuple(f"c{i}" for i in range(9))
    rows = [{c: cells[int(rng.integers(len(cells)))] for c in columns} for _ in range(300)]
    rows.append(dict(zip(columns, cells)))
    rows.append(dict(zip(columns, cells[9:])))
    want = "\n".join(
        [",".join(columns)]
        + [",".join(_reference_format_cell(row[c]) for c in columns) for row in rows]
    ) + "\n"
    assert rows_to_csv(rows, columns) == want
    for value in cells:
        assert _format_cell(value) == _reference_format_cell(value), repr(value)


def test_csv_header_matches_schema():
    text = rows_to_csv([])
    assert text == ",".join(COLUMNS) + "\n"


#: one point of each subcommand that prints a table
TABLE_COMMANDS = {
    "sweep": ["sweep", "--nu-t", "2.0"],
    "spectrum": ["spectrum", "--nu-t", "2.0"],
    "block-entropy": ["block-entropy", "--nu-t", "2.0"],
    "witness": ["witness", "--nu-t", "2.0"],
    "covariance": ["covariance", "--nu-t", "2.0"],
}


@pytest.mark.parametrize("command", list(TABLE_COMMANDS))
def test_every_subcommand_prints_csv_and_takes_no_format_flag(command, capsys):
    argv = [*TABLE_COMMANDS[command], *base_args()]
    assert main(argv) == 0
    # a header, then rows with as many cells
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 1 and all(line.count(",") == lines[0].count(",") for line in lines)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_parallel_rows_identical_to_serial():
    spec = small_spec()
    serial = rows_to_csv(run_sweep(spec, jobs=1))
    parallel = rows_to_csv(run_sweep(spec, jobs=2))
    assert serial == parallel


@pytest.mark.parametrize(
    "over, errors",
    [
        # bulk limit: the buckled n = 4096 stand-in at 1.2, closed forms above
        (dict(nu_t_grid=(1.2, 1.6, 1.9), temperatures=(0.0,), td_limit=True,
              measures=("negativity", "entropy", "blockEntropy2", "witness")), 0),
        # LR: the witness fails in two rows, which must keep their places
        (dict(params=LatticeParams(n=12, nu=1.0, tau_max=4),
              nu_t_grid=_parse_grid("0.9:2.1:7"), temperatures=(0.0, 0.3),
              measures=("negativity", "blockEntropy3", "witness")), 2),
    ],
    ids=["td-limit", "lr"],
)
def test_pooled_rows_identical_to_serial_beyond_the_nn_finite_case(over, errors):
    spec = small_spec(**over)
    serial = run_sweep(spec, jobs=1)
    assert sum(row["error"].startswith("DomainError") for row in serial) == errors
    assert rows_to_csv(run_sweep(spec, jobs=2)) == rows_to_csv(serial)


ALL_MEASURES = (
    "negativity", "entropy", "blockEntropy2", "blockEntropy3", "witness",
)


def one_point_row(params, nu_t_paper, t_paper):
    """The cells of one sweep row from the public one-point calls."""
    nu_t = nu_t_paper * cli.NU_T_UNIT
    temperature = t_paper * cli.TEMPERATURE_UNIT
    config = solve_equilibrium(params, nu_t)
    row = {"configVariant": config.variant.value, "b": config.b}
    for d in ("x", "y"):
        s1, s2 = separability_criteria(pair_moments(params, nu_t, temperature, 1, d))
        row.update({f"S1{d}": s1, f"S2{d}": s2, f"EN{d}": negativity(s1, s2)})
        for k in (1, 2, 3):
            cov = block_covariance(params, nu_t, temperature, range(1, k + 1), (d,))
            # a block with an infinite entry (a zero mode under a nonvanishing
            # weight) is reported divergent, without an entropy
            entropy = math.inf
            if np.isfinite(cov.matrix).all():
                entropy = block_entropy(cov).entropy
            row[f"SV{k}{d}"] = None if math.isinf(entropy) else entropy
            row[f"SV{k}{d}Divergent"] = math.isinf(entropy)
    try:
        rep = witness_report(params, nu_t, temperature)
    except DomainError as exc:
        # the witness ends the row; the cells before it are kept
        row.update(U=None, bound=None, Tc=None, witnessTriggered=None)
        row["error"] = f"DomainError: {exc}"
        return row
    tc = rep.critical_temperature
    row["U"] = rep.internal_energy / cli.NU_T_UNIT
    row["bound"] = rep.bound / cli.NU_T_UNIT
    row["Tc"] = None if tc is None else tc / cli.TEMPERATURE_UNIT
    row["witnessTriggered"] = rep.internal_energy < rep.bound
    row["error"] = ""
    return row


#: reduced nuT whose raw value is exactly the critical point of the n = 8 NN
#: test ring (the float next below sqrt(2)); its zone-edge y mode is 0.0
NU_T_CRITICAL = 1.414213562373095
NU_T_CRITICAL_ARG = repr(NU_T_CRITICAL)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_sweep_cells_equal_the_one_point_calls(jobs):
    lr = LatticeParams(n=12, nu=1.0, tau_max=4)
    specs = [
        # NN: buckled at nuT 1.0, exactly critical, flat at 2.0 and 2.5
        small_spec(nu_t_grid=(1.0, NU_T_CRITICAL, 2.0, 2.5)),
        # LR, tau_max = 4: buckled at 1.0, 1.3 and 1.4, critical
        # near 1.44, flat at 1.5 and 2.0; the witness fails at 1.4 and 1.5
        small_spec(params=lr, nu_t_grid=(1.0, 1.3, 1.4, 1.5, 2.0)),
    ]
    for spec in specs:
        spec = dataclasses.replace(spec, temperatures=(0.0, 0.2, 0.5), measures=ALL_MEASURES)
        rows = run_sweep(spec, jobs=jobs)
        grid = [(nt, t) for nt in spec.nu_t_grid for t in spec.temperatures]
        assert [(row["nuT"], row["T"]) for row in rows] == grid
        assert {row["configVariant"] for row in rows} == {"zigzag", "linear"}
        for row, (nt, t) in zip(rows, grid):
            expect = one_point_row(spec.params, nt, t)
            assert {c: row[c] for c in expect} == expect, (spec.params.tau_max, nt, t)
        if spec.params.tau_max == 4:
            failed = [row["nuT"] for row in rows if row["error"]]
            assert failed == [1.4] * 3 + [1.5] * 3
        else:
            # the critical rows do carry infinite block entries
            critical = [row for row in rows if row["nuT"] == NU_T_CRITICAL]
            assert len(critical) == 3
            assert all(row["SV1yDivergent"] and row["SV1y"] is None for row in critical)


def count_calls(monkeypatch, targets):
    """Calls to each (module, function name) of ``targets``, seen in every
    ionlattice namespace that imported the function."""
    counts = Counter()
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, ns in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ionlattice" and getattr(ns, name, None) is original:
                monkeypatch.setattr(ns, name, counted)
    return counts


@pytest.fixture
def rebuilds(monkeypatch):
    """Counts of equilibrium solves, one-point spectrum builds, batched
    builds and the points those batches hold."""
    counts = count_calls(
        monkeypatch, ((lattice, "solve_equilibrium"), (spectrum, "build_spectrum"))
    )
    original = cli.build_spectra

    def build(params, nu_ts, configs=None):
        counts["build_spectra"] += 1
        counts["batched points"] += len(nu_ts)
        return original(params, nu_ts, configs)

    monkeypatch.setattr(cli, "build_spectra", build)
    return counts


def test_sweep_builds_each_working_point_once(rebuilds):
    """Each point is solved and built once: the points of a phase in one
    batched build, and no point by itself, as no batch fails."""
    spec = small_spec(
        nu_t_grid=(1.0, 2.0, 2.5), temperatures=(0.0, 0.1, 0.2, 0.5), measures=ALL_MEASURES
    )
    rows = run_sweep(spec)
    assert len(rows) == 12 and all(row["error"] == "" for row in rows)
    assert 0 < rebuilds["solve_equilibrium"] <= len(spec.nu_t_grid), rebuilds
    assert rebuilds["batched points"] == len(spec.nu_t_grid), rebuilds
    assert rebuilds["build_spectra"] == len({row["configVariant"] for row in rows}) == 2
    assert rebuilds["build_spectrum"] == 0, rebuilds


@pytest.fixture
def mode_sums(monkeypatch):
    """Counts of batched mode sums and thermal-factor evaluations."""
    return count_calls(
        monkeypatch, ((covariance, "_mode_sums"), (covariance, "_mode_factors"))
    )


def test_sweep_computes_each_mode_sum_once_per_working_point(mode_sums):
    # the pair at tau = 1 and blocks of 1-3 sites in both directions need
    # the raw entries of site distance 0, 1, 2 and the pair's two
    # combinations: 5 sums per direction. Each batched sum covers every
    # temperature, both quadratures and every working point of the batch,
    # here the whole two-point chunk, so 10 of them serve all its rows,
    # where one per point and entry took 10 per point
    params = LatticeParams(n=20, nu=1.0)
    spec = small_spec(
        params=params, nu_t_grid=(1.0, 1.2), temperatures=(0.0, 0.3, 0.6),
        measures=ALL_MEASURES[:-1],
    )
    rows = run_sweep(spec)
    assert len(rows) == 6
    assert all(row["error"] == "" and row["configVariant"] == "zigzag" for row in rows)
    assert mode_sums["_mode_sums"] == 10, mode_sums
    assert mode_sums["_mode_factors"] == 1, mode_sums


def test_a_failed_block_ends_only_its_own_row(monkeypatch):
    spec = small_spec(nu_t_grid=(1.2,), temperatures=(0.0, 0.2, 0.5), measures=ALL_MEASURES)
    clean = run_sweep(spec)
    original = cli.symplectic_spectra

    def failing(sigmas):
        # the 2-site y block of the second temperature; items run
        # (T0 x, T1 x, T2 x, T0 y, T1 y, T2 y)
        spectra = original(sigmas)
        if sigmas.shape[1] == 4:
            spectra[4] = DomainError("injected")
        return spectra

    monkeypatch.setattr(cli, "symplectic_spectra", failing)
    rows = run_sweep(spec)
    assert rows[0] == clean[0] and rows[2] == clean[2]
    failed = rows[1]
    assert failed["error"] == "DomainError: injected"
    # the cells before the failed block are kept, and none after it is set
    for c in ("ENx", "ENy", "SV1x", "SV1y", "SV2x"):
        assert failed[c] == clean[1][c] is not None, c
    for c in ("SV2y", "SV3x", "SV3y", "U", "bound", "Tc", "witnessTriggered"):
        assert failed[c] is None, c


#: the measure columns in the order a sweep row fills them: the pair
#: criteria and negativity (x, then y), block sizes ascending (x, then y),
#: then the witness
FILL_ORDER = (
    "S1x", "S2x", "ENx", "S1y", "S2y", "ENy",
    *(f"SV{k}{d}{flag}" for k in (1, 2, 3) for d in "xy" for flag in ("", "Divergent")),
    "U", "bound", "Tc", "witnessTriggered",
)


def blank(column):
    """A measure cell no value was written into: empty, or a false flag."""
    return False if column.endswith("Divergent") else None


def assert_ends_at(row, clean, column, error):
    """``row`` is ``clean`` up to ``column`` of FILL_ORDER, holds no measure
    cell from there on and reads ``error``."""
    assert row["error"] == error
    assert (row["configVariant"], row["b"]) == (clean["configVariant"], clean["b"])
    stop = FILL_ORDER.index(column)
    for c in FILL_ORDER[:stop]:
        assert row[c] == clean[c], c
    for c in FILL_ORDER[stop:]:
        assert row[c] is blank(c), c


@pytest.mark.parametrize(
    "stage, failed, column",
    [
        # the x negativity of the second temperature refuses its criteria
        ("pair", (1,), "ENx"),
        # the 2-site x block of the second temperature
        ("block", (1,), "SV2x"),
        # the witness of the point, shared by all its temperatures
        ("witness", (0, 1, 2), "U"),
    ],
    ids=["pair", "block", "witness"],
)
def test_a_row_keeps_every_cell_before_its_first_error(monkeypatch, stage, failed, column):
    """A row is filled in one order, pairs, blocks by size, witness, and its
    first error ends it: the cells before it are kept, none after it is
    set, and the other rows are untouched."""
    spec = small_spec(nu_t_grid=(1.2,), temperatures=(0.0, 0.2, 0.5), measures=ALL_MEASURES)
    clean = run_sweep(spec)
    assert all(row["error"] == "" and row["U"] is not None for row in clean)
    injected = DomainError("injected")
    if stage == "pair":
        original = cli.negativity

        def refusing(s1, s2):
            if (s1, s2) == (clean[1]["S1x"], clean[1]["S2x"]):
                raise injected
            return original(s1, s2)

        monkeypatch.setattr(cli, "negativity", refusing)
    elif stage == "block":
        spectra = cli.symplectic_spectra

        def failing(sigmas):
            # items run (T0 x, T1 x, T2 x, T0 y, T1 y, T2 y)
            items = spectra(sigmas)
            if sigmas.shape[1] == 4:
                items[1] = injected
            return items

        monkeypatch.setattr(cli, "symplectic_spectra", failing)
    else:

        def unstable(modes, temperatures):
            raise injected

        monkeypatch.setattr(cli, "witness_reports", unstable)
    rows = run_sweep(spec)
    for i, (row, want) in enumerate(zip(rows, clean)):
        if i in failed:
            assert_ends_at(row, want, column, "DomainError: injected")
        else:
            assert row == want, i


@pytest.mark.parametrize("direction, column", [("x", "S1x"), ("y", "S1y")])
def test_a_failed_bulk_closed_form_keeps_the_cells_before_it(monkeypatch, direction, column):
    """A QuadratureFailure of a flat bulk row's pair closed form ends that
    row and spares its buckled neighbour: in x it keeps only configVariant
    and b, in y the x pair cells too, as the seed-0 ``bulk`` workload prints
    its failing row."""
    spec = small_spec(nu_t_grid=(1.2, 1.6), temperatures=(0.0,), td_limit=True,
                      measures=("negativity", "entropy", "blockEntropy2", "witness"))
    clean = run_sweep(spec)
    assert [row["configVariant"] for row in clean] == ["zigzag", "linear"]
    original = cli.td_pair_criteria

    def failing(params, nu_t, tau, d):
        if d == direction:
            raise QuadratureFailure("injected")
        return original(params, nu_t, tau, d)

    monkeypatch.setattr(cli, "td_pair_criteria", failing)
    buckled, flat = run_sweep(spec)
    assert buckled == clean[0]
    assert_ends_at(flat, clean[1], column, "QuadratureFailure: injected")
    if direction == "y":
        [entry] = [e for e in record_values.load() if e["name"] == "workload-bulk"]
        recorded = [dict(zip(entry["columns"], row)) for row in entry["rows"]]
        [row] = [row for row in recorded if row["error"].startswith("QuadratureFailure")]
        assert row["configVariant"] == "linear"
        kept = FILL_ORDER[: FILL_ORDER.index(column)]
        assert all(type(row[c]) is float for c in kept)
        assert all(row[c] is blank(c) for c in FILL_ORDER if c not in kept)


def test_a_witness_error_keeps_the_pair_and_block_cells():
    """The seed-0 ``finite-large`` rows at nuT 1.41 and 1.44 end at the
    witness (ROADMAP item 5a's dressing defect): each keeps its pair and
    block cells, and a sweep of those two points alone prints the recorded
    rows cell for cell."""
    [entry] = [e for e in record_values.load() if e["name"] == "workload-finite-large"]
    columns = entry["columns"]
    recorded = [row for row in entry["rows"] if round(row[0], 6) in (1.41, 1.44)]
    assert len(recorded) == 4
    argv = entry["argv"][:]
    argv[argv.index("--nu-t") + 1] = ",".join(sorted({repr(row[0]) for row in recorded}))
    assert record_values.cells(argv) == (columns, recorded)
    for row in (dict(zip(columns, row)) for row in recorded):
        assert row["error"].startswith("DomainError: effective y frequency squared negative")
        for c in ("S1x", "S2x", "ENx", "S1y", "S2y", "ENy", "SV1x", "SV1y", "SV3x", "SV3y"):
            assert type(row[c]) is float, c
        assert [row[c] for c in ("U", "bound", "Tc", "witnessTriggered")] == [None] * 4


class InProcessPool:
    """Stands in for the process pool: runs its tasks in this process, so
    that calls made inside a task can be counted."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


BLOCK_MEASURES = ("negativity", "entropy", "blockEntropy2")


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize(
    "over, sizes",
    [
        # NN ring: buckled, exactly critical and flat points, sizes 1-3
        (dict(nu_t_grid=(1.0, 1.2, NU_T_CRITICAL, 2.0, 2.5, 3.0), measures=ALL_MEASURES), 3),
        # bulk limit: the buckled stand-in rows take sizes 1 and 2, the flat
        # rows size 2 only (size 1 has a closed form)
        (dict(nu_t_grid=(1.0, 1.2, 1.3, 2.0, 2.5, 3.0), temperatures=(0.0,),
              td_limit=True, measures=BLOCK_MEASURES), 2),
    ],
    ids=["finite", "td-limit"],
)
def test_a_chunk_makes_one_eigensolver_call_per_block_size(monkeypatch, jobs, over, sizes):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    counts = count_calls(monkeypatch, ((entanglement, "symplectic_spectra"),))
    spec = small_spec(**over)
    rows = run_sweep(spec, jobs=jobs)
    assert len(rows) == len(spec.nu_t_grid) * len(spec.temperatures)
    # a serial sweep is one chunk; jobs k sends k chunks, each with a
    # buckled and a flat point
    assert counts["symplectic_spectra"] == sizes * jobs


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_flat_axial_half_is_computed_once_per_chunk(monkeypatch, jobs):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    calls = Counter()
    for name in ("pair_moments_at", "block_covariance_at"):

        def recorded(table, arg, direction, _name=name, _original=getattr(cli, name)):
            # pair_moments_at(table, tau, direction) and
            # block_covariance_at(table, sites, directions), each over every
            # working point of a batch table
            for spectrum in table.spectra:
                calls[_name, spectrum.variant.value, "".join(direction)] += 1
            return _original(table, arg, direction)

        monkeypatch.setattr(cli, name, recorded)
    # chunks of jobs 2: (1.0, 2.0, 3.0) and (1.2, 2.5, 3.5)
    spec = small_spec(nu_t_grid=(1.0, 1.2, 2.0, 2.5, 3.0, 3.5), measures=BLOCK_MEASURES)
    rows = run_sweep(spec, jobs=jobs)
    assert all(row["error"] == "" for row in rows)
    for name in ("pair_moments_at", "block_covariance_at"):
        assert calls[name, "linear", "x"] == jobs, calls
        assert calls[name, "linear", "y"] == 4, calls
        assert calls[name, "zigzag", "x"] == calls[name, "zigzag", "y"] == 2, calls


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_bulk_sweep_evaluates_the_axial_branch_once_per_chunk(monkeypatch, jobs):
    """The stand-in points of a flat bulk sweep share the axial branch: the
    moment tables of their batches evaluate the transverse factors only,
    and each chunk the axial ones once, for its shared x half."""
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    branches = []
    original = covariance._mode_factors

    def recorded(omega, temperatures):
        branches.extend(row.tobytes() for point in np.asarray(omega) for row in point)
        return original(omega, temperatures)

    monkeypatch.setattr(covariance, "_mode_factors", recorded)
    spec = small_spec(nu_t_grid=(1.6, 1.8, 2.0, 2.2, 2.4), temperatures=(0.0,),
                      td_limit=True, measures=BLOCK_MEASURES)
    rows = run_sweep(spec, jobs=jobs)
    assert all(row["error"] == "" and row["configVariant"] == "linear" for row in rows)
    ring = dataclasses.replace(spec.params, n=cli.TD_PROXY_N)
    axial = spectrum.build_spectrum(ring, 1.6 * cli.NU_T_UNIT).omega[0].tobytes()
    assert branches.count(axial) == jobs
    assert len(branches) == len(spec.nu_t_grid) + jobs


def test_a_witness_sweep_reads_its_coupling_rows_from_the_batch(monkeypatch, capsys):
    """The witness dresses the traps with the coupling row its point's
    spectrum carries from the batch, so an LR witness sweep over both
    phases, with a dressing failure in each, never calls
    ``taylor_coefficients``."""
    calls = []
    original = lattice.taylor_coefficients

    def recorded(params, config):
        calls.append(config)
        return original(params, config)

    for module in (lattice, witness, covariance):
        monkeypatch.setattr(module, "taylor_coefficients", recorded)
    rc = main(["sweep", *base_args(20), "--model", "LR", "--temp", "0,0.2",
               "--measures", "witness", "--nu-t", "1.2,1.4,1.5,2.0"])
    rows = parse_csv(capsys.readouterr().out)
    assert rc == 0
    assert [row["configVariant"] for row in rows[::2]] == ["zigzag"] * 2 + ["linear"] * 2
    assert [row["bound"] != "" for row in rows[::2]] == [True, False, False, True]
    assert all(row["error"].startswith("DomainError: effective y frequency squared negative")
               for row in rows[2:6])
    assert calls == []


def test_the_pair_and_block_x_halves_share_one_axial_table(monkeypatch):
    """A chunk's flat x half takes its pair moments and its block stack from
    one table, so the axial factors are evaluated once: then the y factors
    of the flat batch, then both branches of the buckled point."""
    shapes = []
    original = covariance._mode_factors

    def recorded(omega, temperatures):
        shapes.append(np.shape(omega))
        return original(omega, temperatures)

    monkeypatch.setattr(covariance, "_mode_factors", recorded)
    spec = small_spec(params=LatticeParams(n=20, nu=1.0), nu_t_grid=(1.2, 1.5, 2.0, 2.5),
                      temperatures=(0.0, 0.2), measures=BLOCK_MEASURES)
    rows = run_sweep(spec)
    assert [row["configVariant"] for row in rows[::2]] == ["zigzag"] + ["linear"] * 3
    assert all(row["error"] == "" for row in rows)
    assert shapes == [(1, 1, 20), (3, 1, 20), (1, 2, 20)]


@pytest.mark.parametrize("jobs, batched", [(1, True), (1, False), (2, True)])
def test_a_stack_several_points_share_is_solved_once(monkeypatch, jobs, batched):
    """The eigensolver and the entropy rule take each distinct block stack
    of a chunk once: the flat points' shared x stack once, beside each
    point's own stacks. Per block size and temperature: the buckled point's
    x and y, each flat point's y, and the shared x, in one batch per point
    or all in one; 12 matrices per size where the rows hold 16 cells."""
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    shapes, lengths = [], []
    original, entropies = cli.symplectic_spectra, cli.spectrum_entropies

    def recorded(sigmas):
        shapes.append(sigmas.shape)
        return original(sigmas)

    def recorded_entropies(spectra):
        lengths.append(len(spectra))
        return entropies(spectra)

    monkeypatch.setattr(cli, "symplectic_spectra", recorded)
    monkeypatch.setattr(cli, "spectrum_entropies", recorded_entropies)
    spec = small_spec(params=LatticeParams(n=20, nu=1.0), nu_t_grid=(1.2, 1.5, 2.0, 2.5),
                      temperatures=(0.0, 0.2), measures=BLOCK_MEASURES)
    if not batched:
        monkeypatch.setattr(cli, "_BATCH_ELEMENTS", 4 * 2 * 20)
    rows = run_sweep(spec, jobs=jobs)
    assert [row["configVariant"] for row in rows[::2]] == ["zigzag"] + ["linear"] * 3
    assert all(row["error"] == "" for row in rows)
    if jobs == 1:
        assert shapes == [(12, 2, 2), (12, 4, 4)]
    else:
        # chunks (1.2, 2.0): buckled and flat; (1.5, 2.5): both flat
        assert shapes == [(8, 2, 2), (8, 4, 4), (6, 2, 2), (6, 4, 4)]
    assert lengths == [shape[0] for shape in shapes]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("direction", ["x", "y"])
def test_a_failed_block_matrix_ends_every_row_that_reads_it(monkeypatch, jobs, direction):
    """A block matrix below the uncertainty floor at the second temperature:
    in the flat points' shared x stack it ends that row of every flat point,
    in the y stack of the point at nuT 2.0 that point's row only. Each failed
    row reads the error of its one-point sweep, and the stored error is
    never raised, so it carries no traceback."""
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    spec = small_spec(params=LatticeParams(n=20, nu=1.0), nu_t_grid=(1.2, 1.5, 2.0, 2.5),
                      temperatures=(0.0, 0.2, 0.5), measures=BLOCK_MEASURES)
    clean = run_sweep(spec, jobs=jobs)
    original, spectra = cli.block_covariance_at, cli.symplectic_spectra

    def shrunk(table, sites, directions):
        stacks = original(table, sites, directions).copy()
        for stack, modes in zip(stacks, table.spectra):
            flat = modes.variant.value == "linear"
            if directions == (direction,) and flat and (
                direction == "x" or modes.nu_t == 2.0 * cli.NU_T_UNIT
            ):
                stack[1] *= 0.01
        return stacks

    stored = []

    def recorded(sigmas):
        items = spectra(sigmas)
        stored.extend(item for item in items if isinstance(item, Exception))
        return items

    monkeypatch.setattr(cli, "block_covariance_at", shrunk)
    monkeypatch.setattr(cli, "symplectic_spectra", recorded)
    rows = run_sweep(spec, jobs=jobs)
    failed = [nu_t for nu_t in spec.nu_t_grid[1:] if direction == "x" or nu_t == 2.0]
    for i, row in enumerate(rows):
        nu_t, t = spec.nu_t_grid[i // 3], i % 3
        if t != 1 or nu_t not in failed:
            assert row == clean[i], (nu_t, t)
            continue
        alone = run_sweep(dataclasses.replace(spec, nu_t_grid=(nu_t,)))
        assert row["error"].startswith("DomainError: symplectic eigenvalue"), row["error"]
        assert row == alone[1], nu_t
    assert stored and all(exc.__traceback__ is None for exc in stored)


def _cell_reprs(rows):
    return [{c: repr(v) for c, v in row.items()} for row in rows]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "over",
    [
        # NN n = 8 and 20: buckled, exactly critical and flat points
        dict(nu_t_grid=(1.0, 1.2, NU_T_CRITICAL, 2.0, 2.5, 3.0)),
        dict(params=LatticeParams(n=20, nu=1.0),
             nu_t_grid=(1.0, 1.2, 1.3, NU_T_CRITICAL, 1.6, 2.0, 2.5)),
        # tau_max 4 n = 12: the witness fails with a DomainError at 1.4 and 1.5
        dict(params=LatticeParams(n=12, nu=1.0, tau_max=4),
             nu_t_grid=(1.0, 1.3, 1.4, 1.5, 2.0, 2.5)),
    ],
    ids=["nn8", "nn20", "lr12"],
)
def test_batching_the_moment_tables_changes_no_bit(monkeypatch, jobs, over):
    """A sweep with one working point per moment table, with batches of
    three points (a chunk in several batches) and with the default budget
    (a chunk in one batch) gives the same cells, compared by repr."""
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    spec = small_spec(**over, temperatures=(0.0, 0.2, 0.5), measures=ALL_MEASURES)
    default = run_sweep(spec, jobs=jobs)
    per_point = 4 * len(spec.temperatures) * spec.params.n
    assert per_point * len(spec.nu_t_grid) <= cli._BATCH_ELEMENTS
    for points in (1, 3):
        monkeypatch.setattr(cli, "_BATCH_ELEMENTS", points * per_point)
        assert _cell_reprs(run_sweep(spec, jobs=jobs)) == _cell_reprs(default), points
    assert {row["configVariant"] for row in default} == {"zigzag", "linear"}
    if spec.params.tau_max == 4:
        assert {row["error"].split(":")[0] for row in default} == {"", "DomainError"}


@pytest.mark.parametrize("faulty", [1.2, 2.0], ids=["buckled", "flat"])
def test_a_fault_in_a_batch_ends_only_its_own_point(monkeypatch, faulty):
    """One spectrum with a subnormal frequency makes the batched thermal
    factors overflow. The batch is evaluated again point by point: that
    point's rows read the error it has when swept alone, and every other
    row equals its one-point sweep."""
    original = cli.build_spectra
    batches = []

    def build(params, nu_ts, configs=None):
        spectra = original(params, nu_ts, configs)
        batches.append(len(spectra))
        for i, spec in enumerate(spectra):
            if spec.nu_t == faulty * cli.NU_T_UNIT:
                omega = spec.omega.copy()
                omega[1, 2] = 1e-310
                spectra[i] = dataclasses.replace(spec, omega=omega)
        return spectra

    monkeypatch.setattr(cli, "build_spectra", build)
    spec = small_spec(nu_t_grid=(1.0, 1.2, 2.0, 2.5), temperatures=(0.0, 0.2, 0.5),
                      measures=ALL_MEASURES)
    rows = run_sweep(spec)
    # a buckled and a flat batch of two points each; the faulty batch's
    # points are built again one by one
    assert sorted(batches) == [1, 1, 2, 2]
    for i, nu_t in enumerate(spec.nu_t_grid):
        alone = run_sweep(dataclasses.replace(spec, nu_t_grid=(nu_t,)))
        assert rows_to_csv(rows[3 * i : 3 * i + 3]) == rows_to_csv(alone), nu_t
        fault = "FloatingPointError: overflow encountered in divide"
        assert {row["error"] for row in alone} == ({fault} if nu_t == faulty else {""})


def test_a_failed_spectrum_batch_ends_only_its_own_point():
    """A deeply buckled LR point is unstable, so the batched build of its
    phase fails. The batch is built again point by point: the unstable
    point's rows read the error it has when swept alone, and every other
    row equals its one-point sweep."""
    params = LatticeParams(n=8, nu=1.0, tau_max=3)
    crit = lattice.critical_potential(params, td_limit=True) / cli.NU_T_UNIT
    spec = small_spec(params=params, nu_t_grid=(0.2 * crit, 0.8 * crit, 0.9 * crit, 1.5 * crit),
                      temperatures=(0.0, 0.2), measures=ALL_MEASURES)
    rows = run_sweep(spec)
    for i, nu_t in enumerate(spec.nu_t_grid):
        alone = run_sweep(dataclasses.replace(spec, nu_t_grid=(nu_t,)))
        assert rows_to_csv(rows[2 * i : 2 * i + 2]) == rows_to_csv(alone), nu_t
    assert {row["configVariant"] for row in rows[:6]} == {"zigzag"}
    assert all(row["error"].startswith("ImaginaryFrequency: lower normal branch unstable")
               for row in rows[:2])
    assert not any(row["error"] for row in rows[2:])
    # the failed build ends the point after its equilibrium, before its
    # first measure cell
    for row in rows[:2]:
        assert row["b"] > 0.0
        assert all(row[c] is blank(c) for c in FILL_ORDER)


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "1000", "--model", "LR", "--temp", "0,0.2",
         "--measures", "negativity,entropy,blockEntropy3,witness", "--nu-t", "1.2,1.3,1.9,2.0"],
        ["--n", "20", "--td-limit", "--measures", "negativity,entropy,blockEntropy3",
         "--nu-t", "1.2,1.3,1.9,2.0"],
    ],
    ids=["finite-n1000-lr", "bulk-stand-in-n4096"],
)
def test_no_moment_table_holds_more_than_the_batch_budget(monkeypatch, argv):
    """Every factor stack a sweep builds, (P, 2, 2, n_T, n) elements, fits
    ``_BATCH_ELEMENTS``; the n = 1000 ring still takes more than one point
    per table."""
    shapes = []
    original = covariance._mode_factors

    def recorded(omega, temperatures):
        shapes.append((np.shape(omega), len(temperatures)))
        return original(omega, temperatures)

    monkeypatch.setattr(covariance, "_mode_factors", recorded)
    assert main(["sweep", "--nu", NU_PAPER, *argv, "--out", "/dev/null"]) == 0
    assert shapes
    for (points, branches, n), n_t in shapes:
        assert points * branches * 2 * n_t * n <= cli._BATCH_ELEMENTS, shapes
    assert max(points for (points, _, _), _ in shapes) == (2 if "1000" in argv else 1)


# ------------------------------------------------------------------ commands


def base_args(n=8):
    return [
        "--n", str(n), "--mass", "2", "--charge", "1", "--spacing", "1",
        "--nu", NU_PAPER,
    ]


def test_sweep_converts_units_exactly_once(tmp_path, capsys):
    # reduced 0.8 * sqrt(2) is raw nu_t = 0.8 for this ring
    nu_t_paper = 0.8 * math.sqrt(2.0)
    rc = main(["sweep", *base_args(), "--nu-t", repr(nu_t_paper)])
    assert rc == 0
    row = parse_csv(capsys.readouterr().out)[0]
    params = LatticeParams(n=8, nu=1.0)
    config = solve_equilibrium(params, 0.8)
    assert row["configVariant"] == "zigzag"
    assert_allclose(float(row["b"]), config.b, rtol=1e-12)


def test_sweep_exit_codes(capsys):
    assert main(["sweep", *base_args(), "--nu-t", "bogus"]) == 2
    capsys.readouterr()
    assert main(["sweep", *base_args()]) == 2  # no grid at all
    capsys.readouterr()
    assert main(["sweep", *base_args(), "--nu-t", "1.5,2.0"]) == 0


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_a_job_count_below_one(jobs, capsys):
    assert main(["sweep", *base_args(), "--nu-t", "1.5,2.0", "--jobs", jobs]) == 2
    assert "configuration error: jobs must be at least 1" in capsys.readouterr().err


def recorded_pools(monkeypatch, cpus):
    """The worker counts of the process pools started from now on, on a
    machine that reports ``cpus`` CPUs; each pool's tasks run in this
    process, so no worker process is started."""
    started = []

    class SerialPool(InProcessPool):
        def __init__(self, max_workers):
            started.append(max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    return started


def test_sweep_starts_no_more_workers_than_nu_t_points(monkeypatch):
    started = recorded_pools(monkeypatch, 64)
    spec = small_spec(nu_t_grid=(1.2, 2.2, 2.5))
    assert run_sweep(spec, jobs=500) == run_sweep(spec, jobs=1)
    assert started == [3]


@pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1)])
def test_sweep_starts_no_more_workers_than_cpus(monkeypatch, cpus, workers):
    # jobs still sets the number of chunks: one task per nuT point here
    started = recorded_pools(monkeypatch, cpus)
    tasks, worker = [], cli._row_worker
    monkeypatch.setattr(cli, "_row_worker", lambda task: tasks.append(task) or worker(task))
    spec = small_spec(nu_t_grid=(1.2, 1.5, 2.2, 2.5, 3.0))
    assert run_sweep(spec, jobs=100_000) == run_sweep(spec, jobs=1)
    assert started == [workers]
    assert [nu_t_papers for _, nu_t_papers in tasks] == [(v,) for v in spec.nu_t_grid]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", *base_args(), "--nu-t", "1.5,2.0"],
        ["spectrum", *base_args(), "--nu-t", "2.0"],
        ["block-entropy", *base_args(), "--nu-t", "2.0"],
        ["witness", *base_args(), "--nu-t", "2.0"],
        ["covariance", *base_args(), "--nu-t", "2.0"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_is_a_config_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: cannot write output" in err and "Traceback" not in err
    assert not out.exists()


def test_unwritable_dump_is_a_config_error(tmp_path, capsys):
    dump = tmp_path / "missing" / "cov.csv"
    assert main(["covariance", *base_args(), "--nu-t", "2.0", "--dump", str(dump)]) == 2
    assert "configuration error: cannot write dump file" in capsys.readouterr().err


#: what writing to a full disk raises, and the message it ends with
FULL_DISK = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
FULL_DISK_MESSAGE = f"configuration error: cannot write output: {FULL_DISK}\n"


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize(
    "argv", [["sweep", *base_args(), "--nu-t", "1.2"], ["check"]], ids=lambda argv: argv[0]
)
def test_a_failed_write_to_stdout_is_a_config_error(capsys, argv, failing):
    def full(*args):
        raise FULL_DISK

    stdout = io.StringIO()
    setattr(stdout, failing, full)
    with contextlib.redirect_stdout(stdout):
        rc = main(argv)
    assert (rc, capsys.readouterr().err) == (2, FULL_DISK_MESSAGE)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_output_to_a_full_device_is_a_config_error(capsys):
    argv = ["sweep", *base_args(), "--nu-t", "1.2", "--out", "/dev/full"]
    assert run(argv, capsys) == (2, "", FULL_DISK_MESSAGE)


def _must_not_run(*args, **kwargs):
    raise AssertionError("computation started before the destinations were checked")


def test_unwritable_output_fails_before_the_sweep(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_sweep", _must_not_run)
    out = tmp_path / "missing" / "out.csv"
    assert main(["sweep", *base_args(), "--nu-t", "1.5,2.0", "--out", str(out)]) == 2
    assert "configuration error: cannot write output" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["out", "dump"])
def test_covariance_checks_both_destinations_first(monkeypatch, tmp_path, capsys, bad):
    monkeypatch.setattr(cli, "block_covariance", _must_not_run)
    paths = {"out": tmp_path / "cov.json", "dump": tmp_path / "cov.csv"}
    paths[bad] = tmp_path / "missing" / f"{bad}.csv"
    argv = ["covariance", *base_args(), "--nu-t", "2.0",
            "--out", str(paths["out"]), "--dump", str(paths["dump"])]
    assert main(argv) == 2
    what = "output" if bad == "out" else "dump file"
    assert f"configuration error: cannot write {what}" in capsys.readouterr().err
    assert not any(path.exists() for path in paths.values())


@pytest.mark.parametrize("dump", ["cov.csv", "sub/../cov.csv"])
def test_covariance_refuses_one_file_for_output_and_dump(monkeypatch, tmp_path, capsys, dump):
    # the CSV would overwrite the full-precision dump
    monkeypatch.setattr(cli, "block_covariance", _must_not_run)
    (tmp_path / "sub").mkdir()
    argv = ["covariance", *base_args(), "--nu-t", "2.0",
            "--out", str(tmp_path / "cov.csv"), "--dump", str(tmp_path / dump)]
    assert main(argv) == 2
    assert "configuration error: --out and --dump must name different files" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "cov.csv").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"params": {"n": 1e300}}', "n must be at most"),
        # Python refuses to convert an integer literal of over 4300 digits
        ('{"params": {"n": 1' + "0" * 5000 + "}}", "cannot read config file: Exceeds the limit"),
        # not UTF-8: undecodable, or not JSON where the locale decodes it
        (b"\xff\xfe{}", ""),
    ],
    ids=["float", "long-int", "not-text"],
)
def test_a_config_n_too_large_or_unreadable_is_a_config_error(monkeypatch, tmp_path, capsys,
                                                              text, message):
    monkeypatch.setattr(cli, "run_sweep", _must_not_run)
    config = tmp_path / "c.json"
    if isinstance(text, bytes):
        config.write_bytes(text)
    else:
        config.write_text(text)
    assert main(["sweep", "--config", str(config), "--nu-t", "1.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "exc", [MemoryError("Unable to allocate"), BrokenProcessPool("a worker died")],
    ids=["memory", "pool"],
)
def test_a_run_out_of_memory_or_workers_exits_3(monkeypatch, capsys, exc):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_sweep", failing)
    assert main(["sweep", *base_args(), "--nu-t", "1.5", "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert err == f"resource failure: {type(exc).__name__}: {exc}\n"


def test_failed_command_leaves_an_existing_output_untouched(tmp_path, capsys):
    out = tmp_path / "spectrum.csv"
    out.write_text("earlier result\n")
    # far below the buckling point the expansion is unstable: exit 3
    rc = main([
        "spectrum", "--n", "64", "--mass", "2", "--charge", "1", "--spacing", "1",
        "--nu", NU_PAPER, "--model", "LR", "--nu-t", "0.29", "--out", str(out),
    ])
    assert rc == 3
    assert out.read_text() == "earlier result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum.csv"]


def _skewed_weights(build):
    # mixing weights off by 0.1% in the spectrum every sweep uses
    def skewed(*args, **kwargs):
        spec = build(*args, **kwargs)
        return dataclasses.replace(spec, cs=spec.cs * 1.001)
    return skewed


def _shrunk_small_blocks(covariance):
    # blocks of at most 3 sites shrunk by 10%, below the uncertainty floor;
    # the whole-ring covariances of the other checks are left as they are
    def shrunk(params, nu_t, temperature, sites, *args, **kwargs):
        cov = covariance(params, nu_t, temperature, sites, *args, **kwargs)
        small = len(tuple(sites)) <= 3
        return dataclasses.replace(cov, matrix=0.9 * cov.matrix) if small else cov
    return shrunk


def _buckled_odd_rings(solve):
    # an odd ring buckles instead of being refused
    return lambda params, nu_t: (Configuration(Variant.ZIGZAG, 0.1) if params.n % 2
                                 else solve(params, nu_t))


def test_check_negative_control(monkeypatch, capsys):
    """A fault in what one check guards fails that check alone."""
    for target, fault, check in (
        ("build_spectrum", _skewed_weights, "symplectic-normal-form"),
        ("block_covariance", _shrunk_small_blocks, "uncertainty-floor"),
        ("solve_equilibrium", _buckled_odd_rings, "odd-ring-rejection"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(checks, target, fault(getattr(checks, target)))
            assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert f"FAIL  {check}" in out
        assert "5/6 checks passed" in out


def test_check_takes_no_corruption_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--corrupt-normal-form"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --corrupt-normal-form" in capsys.readouterr().err


def test_numerical_failure_exit_code(capsys):
    # far below the buckling point the quadratic expansion is unstable
    rc = main([
        "spectrum", "--n", "64", "--mass", "2", "--charge", "1",
        "--spacing", "1", "--nu", NU_PAPER, "--model", "LR", "--nu-t", "0.29",
    ])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_spectrum_zone_centre_row(capsys):
    rc = main(["spectrum", *base_args(), "--nu-t", "2.5"])
    assert rc == 0
    rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 8
    last = rows[-1]
    assert last["l"] == "8" and last["variant"] == "linear"
    # CSV cells carry 12 significant digits
    assert_allclose(float(last["omegaX"]), math.sqrt(2.0), rtol=1e-11)
    assert_allclose(float(last["omegaY"]), 2.5, rtol=1e-11)
    assert last["omegaV"] == "" and last["omegaW"] == ""


def test_covariance_dump_round_trips(tmp_path, capsys):
    dump = tmp_path / "cov.csv"
    rc = main([
        "covariance", *base_args(), "--nu-t", "2.0", "--temp", "0.3",
        "--sites", "1,3", "--dump", str(dump),
    ])
    assert rc == 0
    capsys.readouterr()
    loaded = np.loadtxt(dump, delimiter=",")
    # replicate the command's conversion from reduced units bit for bit
    unit = math.sqrt(0.5)
    params = LatticeParams(n=8, nu=float(NU_PAPER) * unit)
    cov = block_covariance(params, 2.0 * unit, 0.3 * (0.5 * unit), (1, 3))
    assert np.array_equal(loaded, cov.matrix)


def test_block_entropy_of_a_divergent_block_is_a_numerical_failure(capsys):
    # the zone-edge y mode of the exactly critical ring is a zero mode, so
    # the y block has infinite entries and no symplectic spectrum
    rc = main([
        "block-entropy", *base_args(), "--nu-t", NU_T_CRITICAL_ARG, "--sites", "2",
        "--direction", "y",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure:" in err and "non-finite" in err and "Traceback" not in err


def test_covariance_csv_names_every_quadrature(capsys):
    argv = ["covariance", *base_args(), "--nu-t", "1.2", "--temp", "0.3",
            "--sites", "1,2,3", "--directions", "x,y"]
    rc, text, _ = run(argv, capsys)
    assert rc == 0
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames
    assert header == [f"{q}{s}{d}" for s in (1, 2, 3) for d in "xy" for q in "qp"]
    rows = list(reader)
    assert len(rows) == 12 and all(None not in row and len(row) == 12 for row in rows)


def test_covariance_rejects_non_integer_sites(capsys):
    assert main(["covariance", *base_args(), "--nu-t", "2.0", "--sites", "1,x"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: sites must be a comma list of integers" in err


@pytest.mark.parametrize("directions", ["y,y", "x,y,x"])
def test_covariance_rejects_a_repeated_direction(directions, capsys):
    # a block names each mode once: y,y would print a singular matrix whose
    # header names every mode twice
    argv = ["covariance", *base_args(), "--nu-t", "2.0", "--sites", "1,2",
            "--directions", directions]
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("configuration error: directions must be") and "each once" in err


def test_empty_measures_flag_is_a_config_error(capsys):
    assert main(["sweep", *base_args(), "--nu-t", "2.0", "--measures", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: at least one measure is required" in captured.err


@pytest.mark.parametrize(
    "config",
    [
        {"nuTGrid": "2.0"},
        {"nuTGrid": [2.0], "temperatures": "0.1"},
        {"nuTGrid": [2.0], "measures": "entropy"},
    ],
    ids=["nuTGrid", "temperatures", "measures"],
)
def test_config_list_given_as_a_string_is_a_config_error(config, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", *base_args(), "--config", str(path)]) == 2
    key = next(k for k, v in config.items() if isinstance(v, str))
    assert f"configuration error: config key {key} must hold a JSON list" in (
        capsys.readouterr().err
    )


def test_block_entropy_command(capsys):
    rc = main([
        "block-entropy", *base_args(), "--nu-t", "2.0", "--sites", "2",
        "--direction", "y",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.split("\n")[0] == "nSites,direction,entropy,spectrum,droppedSoftModes"
    [row] = parse_csv(out)
    assert row["nSites"] == "2" and row["direction"] == "y"
    assert float(row["entropy"]) >= 0.0
    assert len(row["spectrum"].split(" ")) == 2


def test_witness_command(capsys):
    rc = main(["witness", *base_args(), "--nu-t", "2.0", "--temp", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.split("\n")[0] == "omegaX,omegaY,bound,U,Tc,triggered"
    row = parse_csv(out)[0]
    assert row["triggered"] in ("true", "false")
    assert float(row["bound"]) > 0.0
    # dressed frequencies are reported in reduced units
    assert_allclose(float(row["omegaX"]), math.sqrt(3.0) / math.sqrt(0.5), rtol=1e-10)


def test_witness_sweep_on_large_lr_ring_finishes(capsys):
    # the crossing search probes T where expm1(omega / T) would overflow
    rc = main([
        "sweep", "--n", "1000", "--model", "LR", "--mass", "2", "--charge", "1",
        "--spacing", "1", "--nu", NU_PAPER, "--nu-t", "1.31", "--measures", "witness",
    ])
    assert rc == 0
    row = parse_csv(capsys.readouterr().out)[0]
    assert row["error"] == ""
    assert math.isfinite(float(row["Tc"]))


@pytest.mark.parametrize(
    "mass,charge,spacing", [("2", "1", "1"), ("754", "0.00166", "325"), ("1e6", "1e-3", "1e3")]
)
def test_crossing_temperature_does_not_depend_on_the_raw_scale(mass, charge, spacing, capsys):
    # the root-find tolerance of Tc is a reduced temperature
    rc = main([
        "sweep", "--n", "12", "--model", "LR", "--mass", mass, "--charge", charge,
        "--spacing", spacing, "--nu", NU_PAPER, "--nu-t", "2.0", "--temp", "0",
        "--measures", "witness",
    ])
    assert rc == 0
    assert parse_csv(capsys.readouterr().out)[0]["Tc"] == "0.915458710689"


def test_subnormal_temperature_is_the_cold_limit_without_warnings(capsys):
    # omega / T overflows to inf at a subnormal T: the cold limit, not a fault.
    # The flat ring at nuT 2 has no zero mode, so every mode is in its ground state.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["witness", *base_args(), "--nu-t", "2.0", "--temp", "1e-310"]) == 0
        cold = parse_csv(capsys.readouterr().out)[0]
        argv = ["sweep", *base_args(), "--nu-t", "2.0", "--temp", "0,1e-310",
                "--measures", "negativity,entropy,witness"]
        assert main(argv) == 0
        zero, tiny = parse_csv(capsys.readouterr().out)
        params = LatticeParams(n=8, nu=1.0)
        u_tiny = witness_report(params, 2.0, 1e-310).internal_energy
        assert u_tiny == witness_report(params, 2.0, 0.0).internal_energy
    assert cold["U"] == zero["U"]
    del zero["T"], tiny["T"]
    assert tiny == zero


def test_bulk_limit_below_transition_uses_large_ring(capsys):
    nu_t_paper = 0.8 * math.sqrt(2.0)
    rc = main([
        "sweep", *base_args(), "--nu-t", repr(nu_t_paper), "--td-limit",
        "--measures", "negativity",
    ])
    assert rc == 0
    row = parse_csv(capsys.readouterr().out)[0]
    assert row["configVariant"] == "zigzag"
    assert float(row["b"]) > 0.0
    assert row["S1y"] != ""


def bulk_boundary_point(gap):
    """(params, reduced nuT) of base_args() at crit (1 - gap), crit the
    bulk critical point of that ring."""
    params = cli._params_from_mapping({"n": 8, "nu": float(NU_PAPER)})
    crit = lattice.critical_potential(params, td_limit=True)
    return params, crit * (1.0 - gap) / cli.NU_T_UNIT


#: the cells of a flat bulk row that take their closed forms
CLOSED_FORM_COLUMNS = ("S1x", "S2x", "S1y", "S2y", "ENx", "ENy", "SV1x", "SV1y",
                       "SV1xDivergent", "SV1yDivergent")


def test_a_bulk_row_just_below_the_critical_point_is_the_stand_in_row():
    """5e-13 below the bulk critical point the n = TD_PROXY_N stand-in ring
    buckles, so every cell of the bulk row is that ring's finite row, but U
    and bound, which are per site: the stand-in's totals times 2**-12,
    exactly. No row mixes closed-form flat cells with buckled stand-in
    cells. At a flat point (reduced nuT 1.6) the bulk row is the stand-in's
    row in the same way, but for the cells with closed forms, which are
    those forms."""
    params, nu_t_paper = bulk_boundary_point(5e-13)
    with pytest.raises(ConfigError, match="flat configuration only"):
        covariance.td_pair_criteria(params, nu_t_paper * cli.NU_T_UNIT, 1, "y")
    assert cli.TD_PROXY_N == 2**12
    stand_in_ring = dataclasses.replace(params, n=cli.TD_PROXY_N)
    rows = {}
    for case, nu_t in (("buckled", nu_t_paper), ("flat", 1.6)):
        spec = SweepSpec(params=params, nu_t_grid=(nu_t,), temperatures=(0.0,),
                         measures=("negativity", "entropy", "blockEntropy2", "witness"),
                         td_limit=True)
        [bulk] = run_sweep(spec)
        [stand_in] = run_sweep(dataclasses.replace(spec, params=stand_in_ring, td_limit=False))
        for c in ("U", "bound"):
            assert bulk[c] == stand_in[c] * 2.0**-12, (case, c)
        rows[case] = bulk, stand_in
    row, stand_in = rows["buckled"]
    assert row["configVariant"] == "zigzag" and row["b"] > 0.0
    assert row["error"] == "" and row["S1y"] is not None and row["bound"] is not None
    for c in COLUMNS:
        if c not in ("U", "bound"):
            assert row[c] == stand_in[c], c
    row, stand_in = rows["flat"]
    assert row["configVariant"] == "linear" and row["error"] == "" and row["SV2y"] is not None
    for c in COLUMNS:
        if c not in (*CLOSED_FORM_COLUMNS, "U", "bound"):
            assert row[c] == stand_in[c], c
    nu_t = 1.6 * cli.NU_T_UNIT
    for d in ("x", "y"):
        s1, s2 = covariance.td_pair_criteria(params, nu_t, 1, d)
        r = covariance.td_single_site_eigenvalue(params, nu_t, d)
        assert (row[f"S1{d}"], row[f"S2{d}"]) == (s1, s2)
        assert row[f"SV1{d}"] == entanglement.spectrum_entropy((r,))
        assert row[f"SV1{d}Divergent"] is False


def test_bulk_rows_print_the_witness_per_site(capsys):
    """The bulk row's U and bound are per site: on these gapped rings the
    mode sums converge geometrically in n, so the n = 20 ring's totals over
    20 sites already agree with them to 1e-10, and both print one Tc."""
    point = ["--nu-t", "1.2,1.6", "--measures", "witness"]
    assert main(["sweep", *base_args(20), *point, "--td-limit"]) == 0
    bulk = parse_csv(capsys.readouterr().out)
    assert main(["sweep", *base_args(20), *point]) == 0
    finite = parse_csv(capsys.readouterr().out)
    for b, f in zip(bulk, finite):
        for c in ("U", "bound"):
            assert_allclose(float(b[c]), float(f[c]) / 20, rtol=1e-10)
        assert b["Tc"] == f["Tc"]


def test_bulk_closed_forms_end_beyond_the_margin(capsys):
    params, nu_t_paper = bulk_boundary_point(2e-12)
    with pytest.raises(ConfigError, match="flat configuration only"):
        covariance.td_pair_criteria(params, nu_t_paper * cli.NU_T_UNIT, 1, "y")
    rc = main(["sweep", *base_args(), "--nu-t", repr(nu_t_paper), "--td-limit",
               "--measures", "negativity"])
    assert rc == 0
    row = parse_csv(capsys.readouterr().out)[0]
    # the n = 4096 stand-in ring, just buckled
    assert row["configVariant"] == "zigzag"
    assert row["S1y"] != "" and row["error"] == ""


def test_the_lr_bulk_row_just_above_the_critical_point_prints_its_values(capsys):
    """ROADMAP item 12's LR reproducer, 1e-6 above the bulk critical point:
    r1y is 1.9029559193 (a 2**20-site ring agrees) and S2y is finite, so
    the row prints both and flags nothing Divergent."""
    argv = ["sweep", "--nu", NU_PAPER, "--td-limit", "--n", "20", "--model", "LR",
            "--nu-t", "1.4401660398107907", "--measures", "negativity,entropy"]
    assert main(argv) == 0
    [row] = parse_csv(capsys.readouterr().out)
    assert row["error"] == "" and row["SV1yDivergent"] == "false"
    assert (row["SV1y"], row["S2y"]) == ("0.899823266752", "7.83716740627")


def test_division_by_zero_at_a_tiny_nu_t_ends_its_row_only(capsys):
    rc = main(["sweep", *base_args(), "--nu-t", "1e-300,2", "--measures", "negativity"])
    assert rc == 0
    tiny, normal = parse_csv(capsys.readouterr().out)
    assert tiny["error"] == "ZeroDivisionError: float division by zero"
    assert normal["error"] == "" and normal["S1y"] != ""


def test_division_by_zero_in_a_one_point_command_is_a_numerical_failure(capsys):
    assert main(["spectrum", *base_args(), "--nu-t", "1e-300"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: ZeroDivisionError: float division by zero" in captured.err


def test_overflow_in_a_one_point_command_names_the_exception_type(capsys):
    # the exit-3 message carries the type name, as a sweep's error cell does
    assert main(["spectrum", *base_args(), "--nu-t", "1e300"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: OverflowError: ")


def test_the_coupling_tolerance_does_not_depend_on_the_raw_units(capsys):
    # at (m, Q, a) = (1e6, 1e-3, 1e3) the squared frequency unit is 1e-21,
    # so an absolute tolerance took every zigzag x-y coupling for zero
    common = ["--n", "20", "--model", "LR", "--nu", NU_PAPER, "--nu-t", "0.9", "--temp", "0"]
    outputs = []
    for mass, charge, spacing in (("1e6", "1e-3", "1e3"), ("2", "1", "1")):
        argv = ["sweep", "--mass", mass, "--charge", charge, "--spacing", spacing, *common]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    [row] = parse_csv(outputs[0])
    assert row["configVariant"] == "zigzag"
    assert row["SV1x"] == "0.0125341810751"
    assert outputs[0] == outputs[1]


def test_overflow_at_a_huge_nu_t_is_an_error_cell(capsys):
    rc = main(["sweep", *base_args(), "--nu-t", "1e300", "--measures", "negativity"])
    assert rc == 0
    row = parse_csv(capsys.readouterr().out)[0]
    assert row["error"].startswith("OverflowError:")
    assert row["S1x"] == ""


def test_an_lr_ring_just_below_its_critical_point_converges(capsys):
    # Brent's method takes 105 iterations for this root, past SciPy's
    # default of 100
    argv = ["sweep", "--n", "12", "--model", "LR", "--tau-max", "4", "--mass", "2",
            "--charge", "1", "--spacing", "1", "--nu", "1.414213562373095",
            "--nu-t", "1.4401645996461903,1.5", "--measures", "negativity,entropy"]
    assert main(argv) == 0
    below, flat = parse_csv(capsys.readouterr().out)
    assert (below["configVariant"], below["b"], below["error"]) == (
        "zigzag", "2.78775199262e-08", ""
    )
    assert flat["configVariant"] == "linear" and flat["error"] == ""


@pytest.mark.parametrize(
    "module, what",
    [(lattice, "buckling displacement"), (witness, "crossing temperature")],
)
def test_a_root_find_that_does_not_converge_ends_its_row(monkeypatch, capsys, module, what):
    def short_brentq(f, a, b, **kwargs):
        return _solvers.brentq(f, a, b, **{**kwargs, "maxiter": 3})

    monkeypatch.setattr(module, "brentq", short_brentq)
    lr = ["--n", "12", "--model", "LR", "--mass", "2", "--charge", "1", "--spacing", "1",
          "--nu", NU_PAPER]
    assert main(["sweep", *lr, "--nu-t", "1.0,2.0", "--measures", "negativity,witness"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    expect = f"NoConvergence: {what}: Failed to converge after 3 iterations."
    assert rows[0]["error"] == expect
    # the flat ring needs no buckling root
    assert rows[1]["error"] == ("" if module is lattice else expect)


def test_an_unbracketed_buckling_root_ends_the_sweep_row_and_the_witness(capsys):
    lr = ["--n", "10", "--model", "LR", "--nu-t", "1e-15"]
    message = "NoConvergence: could not bracket the buckling displacement"
    rc, out, err = run(["sweep", *lr, "--measures", "negativity"], capsys)
    (row,) = parse_csv(out)
    assert (rc, row["error"], err) == (0, message, "")
    assert run(["witness", *lr], capsys) == (3, "", f"numerical failure: {message}\n")


def test_measure_subsetting_leaves_other_cells_empty(capsys):
    rc = main(["sweep", *base_args(), "--nu-t", "2.0", "--measures", "negativity"])
    assert rc == 0
    row = parse_csv(capsys.readouterr().out)[0]
    assert row["S1y"] != "" and row["ENy"] != ""
    for col in ("SV1x", "SV2y", "U", "bound", "Tc", "witnessTriggered"):
        assert row[col] == ""
    assert row["error"] == ""


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = {
        "params": {"n": 6, "mass": 2.0, "charge": 1.0, "spacing": 1.0,
                   "nu": float(NU_PAPER)},
        "nuTGrid": [2.0],
        "measures": ["negativity"],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    rc = main(["sweep", "--config", str(path), "--n", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = parse_csv(out)
    assert len(rows) == 1
    # the override ring (n=8) is what actually ran
    params = LatticeParams(n=8, nu=1.0)
    s1, _ = separability_criteria(pair_moments(params, 2.0 * cli.NU_T_UNIT, 0.0, 1, "y"))
    assert_allclose(float(rows[0]["S1y"]), s1, rtol=1e-10)


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    # a misspelt key must not silently fall back to its default
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"nuTGrid": [2.0], "temperature": [0.5], "tdlimit": True}))
    assert main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: unknown config keys ['tdlimit', 'temperature']" in captured.err


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["sweep", "--config", str(missing), "--nu-t", "2.0"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    capsys.readouterr()
    assert main(["sweep", "--config", str(bad), "--nu-t", "2.0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", *base_args(), "--nu-t", "nan"],
        ["sweep", *base_args(), "--nu-t", "1.5,inf"],
        ["sweep", *base_args(), "--nu-t", "2.0", "--temp", "nan"],
        ["sweep", *base_args(), "--nu-t", "2.0", "--temp", "0,0.1,inf"],
        ["spectrum", *base_args(), "--nu-t", "nan"],
        ["witness", *base_args(), "--nu-t", "2.0", "--temp", "inf"],
        ["covariance", *base_args(), "--nu-t", "inf"],
        ["sweep", *base_args(), "--mass", "nan", "--nu-t", "2.0"],
        ["sweep", *base_args(), "--charge", "inf", "--nu-t", "2.0"],
        ["sweep", *base_args(), "--spacing", "nan", "--nu-t", "2.0"],
        # the raw units change no output, but are still checked
        ["sweep", *base_args(), "--mass", "inf", "--nu-t", "2.0"],
        ["sweep", *base_args(), "--charge", "nan", "--nu-t", "2.0"],
        ["sweep", *base_args(), "--spacing", "inf", "--nu-t", "2.0"],
        ["block-entropy", *base_args(), "--nu", "nan", "--nu-t", "2.0"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[11:]),
)
def test_non_finite_input_is_a_config_error(argv, capsys):
    assert main(argv) == 2
    assert "configuration error:" in capsys.readouterr().err


#: a raw mass, charge or spacing, log-uniform over 1e-300 .. 1e300
RAW_SCALE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)

#: a finite and a bulk sweep, the spectrum and the witness of small rings,
#: with every phase and measure kind among them
SCALE_FREE_COMMANDS = (
    ["sweep", "--n", "8", "--nu", NU_PAPER, "--nu-t", "0.9,1.6", "--temp", "0,0.3",
     "--measures", "negativity,entropy,blockEntropy2,witness"],
    ["sweep", "--n", "20", "--nu", NU_PAPER, "--nu-t", "1.4142135623730951,1.6",
     "--td-limit", "--measures", "negativity,entropy,blockEntropy3"],
    ["spectrum", "--n", "8", "--nu", NU_PAPER, "--nu-t", "1.2"],
    ["witness", "--n", "12", "--model", "LR", "--nu", NU_PAPER, "--nu-t", "2.0",
     "--temp", "0.2"],
)


def printed(argv):
    """(exit code, stdout, stderr) of one command, captured without capsys,
    which a property test cannot take."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def with_raw_units(argv, mass, charge, spacing):
    return [*argv, "--mass", repr(mass), "--charge", repr(charge), "--spacing", repr(spacing)]


_CANONICAL = {}


def canonical(argv):
    """What ``argv`` prints at (m, Q, a) = (2, 1, 1), the scale of every
    pinned output; computed once."""
    key = tuple(argv)
    if key not in _CANONICAL:
        _CANONICAL[key] = printed(with_raw_units(argv, 2.0, 1.0, 1.0))
    return _CANONICAL[key]


@settings(max_examples=50, deadline=None)
@given(mass=RAW_SCALE, charge=RAW_SCALE, spacing=RAW_SCALE)
# the raw-unit overflow ended the whole sweep with exit 3
@example(mass=1e300, charge=1e300, spacing=1.0)
# every bulk row failed its quadrature at this scale
@example(mass=7.3, charge=0.01, spacing=3e-6)
# the frequency unit overflowed at a subnormal mass
@example(mass=1e-320, charge=1.0, spacing=1.0)
def test_outputs_do_not_depend_on_the_raw_units(mass, charge, spacing):
    for argv in SCALE_FREE_COMMANDS:
        got = printed(with_raw_units(argv, mass, charge, spacing))
        assert got == canonical(argv), argv


def test_the_bulk_sweep_fails_one_row_at_any_raw_scale():
    """The bulk sweep that failed all 41 rows at (m, Q, a) = (7.3, 0.01,
    3e-6) prints the bytes of (2, 1, 1), with its one QuadratureFailure row."""
    argv = ["sweep", "--td-limit", "--n", "20", "--nu", NU_PAPER,
            "--nu-t", "1.4142135623730951:2.1:41",
            "--measures", "negativity,entropy,blockEntropy3"]
    rc, out, err = printed(with_raw_units(argv, 7.3, 0.01, 3e-6))
    assert (rc, out, err) == canonical(argv)
    rows = parse_csv(out)
    assert len(rows) == 41
    assert [row["error"].split(":")[0] for row in rows if row["error"]] == ["QuadratureFailure"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_floating_point_fault_ends_its_row(jobs):
    """At a subnormal axial trap the x moments overflow: the row ends with
    a FloatingPointError in its error cell, not with inf or nan cells and a
    RuntimeWarning, serially and in the pool."""
    argv = ["sweep", "--n", "8", "--mass", "2", "--charge", "1", "--spacing", "1",
            "--nu", "5e-324", "--nu-t", "2,2.5", "--measures", "negativity,entropy",
            "--jobs", str(jobs)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = printed(argv)
    assert (rc, err) == (0, "")
    for row in parse_csv(out):
        assert row["error"] == "FloatingPointError: overflow encountered in divide"
        assert not {"inf", "nan"} & set(row.values())


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: up*log(up) - dn*log(dn) is "
                   "inf - inf at r = 4.2e307; the stable form gives 708.64")
def test_a_huge_temperature_prints_no_nan_entropy():
    """At T = 1e308 the x block's symplectic eigenvalue is 4.2e307, whose
    entropy is finite (708.64), so no entropy cell may print nan."""
    argv = ["sweep", "--n", "5", "--nu", "2", "--nu-t", "20", "--temp", "1e308",
            "--measures", "entropy,negativity"]
    _, out, _ = printed(argv)
    for row in parse_csv(out):
        assert [c for c, v in row.items() if c.startswith("SV") and v == "nan"] == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: the soft mode's thermal variance "
                   "leaves a rounding error in Q that takes the least symplectic "
                   "eigenvalue to 0.9999886885511262")
def test_a_thermal_block_at_the_transition_has_an_entropy():
    """At the critical trap of a 512-site ring and T > 0 the 8-site block
    is a valid thermal state: its entropy is finite, not a DomainError."""
    argv = ["block-entropy", "--nu", "1.4142135623730951", "--n", "512", "--sites", "8",
            "--nu-t", "1.4142135623730951", "--temp", "0.0566"]
    rc, out, _ = printed(argv)
    assert rc == 0
    (row,) = parse_csv(out)
    assert math.isfinite(float(row["entropy"]))


@pytest.mark.parametrize("temp,eigenvalue", [("0.0566", 0.9999886885511262),
                                              ("0.2", 0.9999002503601013)])
def test_a_block_below_the_floor_states_its_rounding_estimate(temp, eigenvalue):
    """Where a thermal block at the transition fails the floor, the message
    names the estimate 2u max Q_ii ||P||_2 of the rounding in its
    eigenvalues, which comes within x10 of the miss."""
    argv = ["block-entropy", "--nu", "1.4142135623730951", "--n", "512", "--sites", "8",
            "--nu-t", "1.4142135623730951", "--temp", temp]
    rc, out, err = printed(argv)
    assert (rc, out) == (3, "")
    head = f"numerical failure: DomainError: symplectic eigenvalue {eigenvalue!r} below 1"
    assert err.startswith(f"{head} beyond tolerance (rounding estimate ")
    estimate = float(err.rsplit(" ", 1)[1].rstrip(")\n"))
    miss = 1.0 - eigenvalue
    assert miss / 10 <= estimate <= 10 * miss


def test_a_non_finite_squared_frequency_is_a_numerical_failure(capsys):
    # the squared axial trap overflows: the spectrum ends in exit 3, not in
    # inf frequencies with exit 0
    argv = ["spectrum", "--n", "8", "--nu", "1e160", "--nu-t", "1.5"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: OverflowError: ")


def test_a_floating_point_fault_in_a_one_point_command_is_a_numerical_failure(capsys):
    rc, out, err = run(["covariance", "--n", "8", "--nu", "5e-324", "--nu-t", "2"], capsys)
    assert (rc, out) == (3, "")
    assert err.startswith("numerical failure: FloatingPointError: ")


@pytest.mark.parametrize(
    "config",
    [
        {"params": {"mass": float("nan")}, "nuTGrid": [2.0]},
        {"params": {"nu": float("inf")}, "nuTGrid": [2.0]},
        {"nuTGrid": [1.5, float("nan")]},
        {"nuTGrid": [2.0], "temperatures": [0.0, float("inf")]},
        # integers beyond a float's range
        {"params": {"nu": 10**400}, "nuTGrid": [2.0]},
        {"nuTGrid": [1.5, 10**400]},
        {"nuTGrid": [2.0], "temperatures": [0.0, 10**400]},
    ],
    ids=["mass", "nu", "nuTGrid", "temperatures", "nu-huge", "nuTGrid-huge",
         "temperatures-huge"],
)
def test_non_finite_config_value_is_a_config_error(config, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))  # writes the NaN and Infinity literals
    assert main(["sweep", "--config", str(path)]) == 2
    assert "configuration error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["witness", "spectrum", "block-entropy", "covariance"])
def test_one_point_command_with_missing_config_is_a_config_error(command, tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main([command, "--config", str(missing), "--nu-t", "2.0"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_spectrum_is_not_a_sweep_measure(capsys):
    assert main(["sweep", *base_args(), "--nu-t", "2.0", "--measures", "spectrum"]) == 2
    assert "unknown measures" in capsys.readouterr().err


def test_block_entropy_1_is_not_a_sweep_measure(capsys):
    # the single-site entropy columns are the measure "entropy"
    assert main(["sweep", *base_args(), "--nu-t", "2.0", "--measures", "blockEntropy1"]) == 2
    assert "configuration error: unknown measures ['blockEntropy1']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config,message",
    [
        # a string is no config number, though float() or int() would parse it
        ({"params": {"mass": "heavy"}, "nuTGrid": [2.0]}, "mass must be a number, got 'heavy'"),
        ({"params": {"nu": " 1_4.5 "}, "nuTGrid": [2.0]}, "nu must be a number, got ' 1_4.5 '"),
        ({"params": {"n": "8"}, "nuTGrid": [2.0]}, "n must be an integer, got '8'"),
        ({"nuTGrid": [2.0], "temperatures": ["0.1"]},
         "temperature grid entry must be a number, got '0.1'"),
        # float() would raise OverflowError, a numerical failure
        ({"params": {"nu": 10**400}, "nuTGrid": [2.0]}, "nu is too large for a float: 401 digits"),
        ({"params": {"n": -10**400}, "nuTGrid": [2.0]}, "n is too large for a float: 401 digits"),
        ({"nuTGrid": 2.0}, "config key nuTGrid must hold a JSON list"),
        ({"params": [8, 2.0], "nuTGrid": [2.0]}, "config key params must hold a JSON object"),
        ({"nuTGrid": [2.0], "tdLimit": "no"}, "config key tdLimit must be true or false"),
        # int() would run an n = 20 ring, a tauMax 2 ring and a ring of one site
        ({"params": {"n": 20.7}, "nuTGrid": [2.0]}, "n must be an integer, got 20.7"),
        ({"params": {"n": 20, "model": "LR", "tauMax": 2.9}, "nuTGrid": [2.0]},
         "tauMax must be an integer, got 2.9"),
        ({"params": {"n": True}, "nuTGrid": [2.0]}, "n must be an integer, got True"),
        ({"params": {"n": float("inf")}, "nuTGrid": [2.0]}, "n must be an integer, got inf"),
        # float() would run a ring of mass 1, nuT 1 and T 0
        ({"params": {"mass": True}, "nuTGrid": [2.0]}, "mass must be a number, got True"),
        ({"nuTGrid": [True, 2.0]}, "nuT grid entry must be a number, got True"),
        ({"nuTGrid": ["abc"]}, "nuT grid entry must be a number, got 'abc'"),
        ({"nuTGrid": [2.0], "temperatures": [False]},
         "temperature grid entry must be a number, got False"),
        # LR defaults to tau_max 4, which wraps around a ring of 8
        ({"params": {"n": 8, "model": "LR"}, "nuTGrid": [2.0]},
         "tau_max must be < n/2 (got tau_max=4, n=8)"),
        ({"nuTGrid": []}, "nuT grid must not be empty"),
        ({"params": {"size": 8}, "nuTGrid": [2.0]}, "unknown parameter keys ['size']"),
        ({"params": {"model": "XY"}, "nuTGrid": [2.0]}, "model must be NN or LR, got 'XY'"),
        ({"params": {"mass": 0}, "nuTGrid": [2.0]}, "mass, charge and spacing must be positive"),
        ([2.0], "config file must hold a JSON object"),
        ({"params": {"charge": True}, "nuTGrid": [2.0]}, "charge must be a number, got True"),
        ({"params": {"spacing": False}, "nuTGrid": [2.0]}, "spacing must be a number, got False"),
        ({"params": {"charge": 0.0}, "nuTGrid": [2.0]},
         "mass, charge and spacing must be positive"),
        ({"params": {"spacing": -0.5}, "nuTGrid": [2.0]},
         "mass, charge and spacing must be positive"),
        ({"params": {"charge": float("-inf")}, "nuTGrid": [2.0]},
         "mass, charge, spacing and nu must be finite"),
        # an unhashable entry is named, not looked up
        ({"nuTGrid": [2.0], "measures": [["entropy"]]},
         f"unknown measures [['entropy']]; choose from {tuple(cli.MEASURES)}"),
        ({"nuTGrid": [2.0], "measures": [{"a": 1}]},
         f"unknown measures [{{'a': 1}}]; choose from {tuple(cli.MEASURES)}"),
    ],
    ids=["mass", "nu-text", "n-text", "temperatures-text", "nu-huge", "n-huge",
         "nuTGrid", "params", "tdLimit", "n-fraction", "tauMax-fraction", "n-bool",
         "n-inf", "mass-bool", "nuTGrid-bool", "nuTGrid-text", "temperatures-bool",
         "tauMax-wraps", "nuTGrid-empty", "params-key", "model", "mass-zero", "list",
         "charge-bool", "spacing-bool", "charge-zero", "spacing-negative", "charge-inf",
         "measures-list", "measures-object"],
)
def test_malformed_config_value_is_a_config_error(config, message, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {message}\n"


@pytest.mark.parametrize(
    "flags,message",
    [
        # the model is the loader's preset of tauMax; NN admits range 1 only,
        # and the ring's own checks come first
        (["--model", "NN", "--tau-max", "3"], "nearest-neighbour model requires tau_max == 1"),
        (["--model", "NN", "--tau-max", "0"], "tau_max must be a positive integer, got 0"),
        (["--model", "XY"], "model must be NN or LR, got 'XY'"),
    ],
    ids=["nn-range-3", "nn-range-0", "unknown"],
)
def test_a_bad_model_flag_is_a_config_error(flags, message, capsys):
    rc, out, err = run(["sweep", *base_args(), "--nu-t", "2.0", *flags], capsys)
    assert (rc, out, err) == (2, "", f"configuration error: {message}\n")


@pytest.mark.parametrize("spelling", ["LR", "Lr"])
def test_a_range_one_ring_prints_one_sweep(spelling, capsys):
    # a ring cut at range 1 is the nearest-neighbour ring, whatever its model
    # label: the same equilibrium, spectrum, blocks and witness, byte for byte
    argv = ["sweep", *base_args(20), "--nu-t", "0.9:1.9:26", "--temp", "0,0.3",
            "--measures", "negativity,entropy,blockEntropy3,witness"]
    rc, nn, _ = run([*argv, "--model", "NN"], capsys)
    assert rc == 0
    assert {row["configVariant"] for row in parse_csv(nn)} == {"zigzag", "linear"}
    assert run([*argv, "--model", spelling, "--tau-max", "1"], capsys) == (0, nn, "")


@pytest.mark.parametrize("command", ["sweep", "witness"])
def test_xy_mode_flag_is_an_argument_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *base_args(), "--nu-t", "1.0", "--xy-mode", "signed"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --xy-mode" in capsys.readouterr().err


def test_xy_mode_config_key_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"xyMode": "signed"}))
    assert main(["witness", *base_args(), "--config", str(path), "--nu-t", "1.0"]) == 2
    assert "configuration error: unknown config keys ['xyMode']" in capsys.readouterr().err


# ------------------------------------------------------ one input path


def write_config(tmp_path, **keys):
    """A config file of the base_args() ring with the given top-level keys."""
    cfg = {"params": {"n": 8, "mass": 2, "charge": 1, "spacing": 1, "nu": float(NU_PAPER)},
           **keys}
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(argv, capsys):
    """(exit code, stdout, stderr) of one command."""
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


ONE_POINT_EXTRA = {
    "witness": [],
    "block-entropy": ["--sites", "2"],
    "covariance": ["--sites", "1,2"],
}


@pytest.mark.parametrize("command", list(ONE_POINT_EXTRA))
def test_one_point_commands_read_the_config_temperatures(command, tmp_path, capsys):
    # the flag had an argparse default of 0 that shadowed the config
    extra = ONE_POINT_EXTRA[command]
    path = write_config(tmp_path, nuTGrid=[2.0], temperatures=[0.5])
    from_config = run([command, "--config", path, "--nu-t", "2.0", *extra], capsys)
    from_flags = run([command, *base_args(), "--nu-t", "2.0", "--temp", "0.5", *extra], capsys)
    cold = run([command, *base_args(), "--nu-t", "2.0", *extra], capsys)
    assert from_config == from_flags and from_config[0] == 0
    assert from_config != cold
    if command == "witness":
        assert parse_csv(from_config[1])[0]["U"] == "14.7754265095"


@pytest.mark.parametrize("command", ["spectrum", *ONE_POINT_EXTRA])
def test_one_point_command_runs_from_the_config_nu_t_grid(command, tmp_path, capsys):
    extra = ONE_POINT_EXTRA.get(command, [])
    path = write_config(tmp_path, nuTGrid=[1.2])
    from_config = run([command, "--config", path, *extra], capsys)
    assert from_config == run([command, *base_args(), "--nu-t", "1.2", *extra], capsys)
    assert from_config[0] == 0 and from_config[1]


@pytest.mark.parametrize("command", ["witness", "covariance"])
@pytest.mark.parametrize(
    "sweep_keys", [{"tdLimit": True}, {"measures": ["witness"]}], ids=["tdLimit", "measures"]
)
def test_sweep_keys_neither_change_nor_reject_a_one_point_command(
    command, sweep_keys, tmp_path, capsys
):
    extra = ONE_POINT_EXTRA[command]
    plain = write_config(tmp_path, nuTGrid=[2.0])
    expected = run([command, "--config", plain, "--temp", "0.3", *extra], capsys)
    assert expected[0] == 0
    shared = write_config(tmp_path, nuTGrid=[2.0], **sweep_keys)
    assert run([command, "--config", shared, "--temp", "0.3", *extra], capsys) == expected


def test_spectrum_ignores_the_config_temperatures(tmp_path, capsys):
    expected = run(["spectrum", *base_args(), "--nu-t", "2.0"], capsys)
    for temperatures in ([-0.5], [0.1, 0.2]):
        path = write_config(tmp_path, nuTGrid=[2.0], temperatures=temperatures)
        assert run(["spectrum", "--config", path], capsys) == expected
    # a command that reads the temperature refuses the negative one
    path = write_config(tmp_path, nuTGrid=[2.0], temperatures=[-0.5])
    rc, out, err = run(["witness", "--config", path], capsys)
    assert (rc, out) == (2, "")
    assert "configuration error: temperature must be non-negative and finite" in err


def test_spectrum_has_no_temperature_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", *base_args(), "--nu-t", "2.0", "--temp", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --temp" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flags,config,message",
    [
        ("witness", ["--nu-t", "1.5,2.0"], {}, "witness takes one nuT value, got 2"),
        ("spectrum", ["--nu-t", "1:2:3"], {}, "spectrum takes one nuT value, got 3"),
        ("covariance", [], {"nuTGrid": [1.5, 2.0]}, "covariance takes one nuT value, got 2"),
        ("witness", ["--nu-t", "2.0", "--temp", "0,0.1"], {},
         "witness takes one temperature value, got 2"),
        ("block-entropy", ["--nu-t", "2.0"], {"temperatures": [0.1, 0.2]},
         "block-entropy takes one temperature value, got 2"),
    ],
    ids=["witness-nuT", "spectrum-nuT", "covariance-nuTGrid", "witness-temp",
         "block-entropy-temperatures"],
)
def test_one_point_command_takes_one_value_per_grid(command, flags, config, message,
                                                    tmp_path, capsys):
    path = write_config(tmp_path, **config)
    rc, out, err = run([command, "--config", path, *flags], capsys)
    assert (rc, out) == (2, "")
    assert f"configuration error: {message}" in err


def test_block_entropy_takes_the_library_block_size_rule(capsys):
    params = LatticeParams(n=8, nu=1.0)
    with pytest.raises(ConfigError) as exc:
        block_entropy_profile(params, 2.0, 0.0, 5, "y")
    rc, out, err = run(["block-entropy", *base_args(), "--nu-t", "2.0", "--sites", "5"], capsys)
    assert (rc, out) == (2, "")
    assert err == f"configuration error: {exc.value}\n"
    assert str(exc.value) == "block size must be in 1..4, got 5"
    assert run(["block-entropy", *base_args(), "--nu-t", "2.0", "--sites", "4"], capsys)[0] == 0


def test_a_grid_count_too_large_to_allocate_is_a_config_error(capsys):
    # a 7 PiB grid: refused by the count cap before any allocation
    argv = ["sweep", "--n", "8", "--nu", NU_PAPER, "--nu-t", "1:2:1000000000000000"]
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (2, "")
    assert "grid count 1000000000000000 is too large" in err


def test_a_grid_count_above_the_cap_is_refused_before_the_grid_is_built(monkeypatch, capsys):
    # 10^9 points would allocate 8 GB and then 10^9 Python floats
    monkeypatch.setattr(cli.np, "linspace", _must_not_run)
    argv = ["sweep", "--n", "8", "--nu", NU_PAPER, "--nu-t", "1:2:1000000000"]
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (2, "")
    assert f"grid count 1000000000 is too large (at most {cli.GRID_COUNT_MAX})" in err

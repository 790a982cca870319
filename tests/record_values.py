"""The value record: full-precision cells of the pinned command outputs.

`tests/test_golden.py` pins the SHA-256 of eight command outputs and of the
seed-0 sweep of each benchmark workload (perfbench/workloads.py). Those
files print 12 significant digits, so a hash cannot tell a move in the last
bits of a value from a real one. This module computes the cells of the same
commands in process and at full precision: the rows of ``run_sweep`` for a
sweep, and the ``ModeSpectrum``, ``BlockEntropyReport`` or
``CovarianceMatrix`` that the other commands print. ``value_record.json``
holds them as recorded, and ``tests/test_value_record.py`` compares today's
cells with it.

A change that moves values on purpose re-records the file:

    python3 tests/record_values.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import test_golden  # noqa: E402
from ionlattice import cli  # noqa: E402
from ionlattice.covariance import block_covariance  # noqa: E402
from ionlattice.entanglement import block_entropy_profile  # noqa: E402
from ionlattice.spectrum import build_spectrum  # noqa: E402

RECORD = Path(__file__).with_name("value_record.json")


def commands() -> dict:
    """name -> argv of every recorded command: the golden cases, then the
    seed-0 sweep of each benchmark workload."""
    argvs = {name: argv for name, (argv, _) in test_golden.CASES.items()}
    for name in sorted(test_golden.WORKLOADS.WORKLOADS):
        argvs[f"workload-{name}"] = test_golden.WORKLOADS.sweep_argv(name, 0)
    return argvs


def cell(value):
    """A cell as the record holds it: a NumPy scalar as its Python value, a
    non-finite float as its text ('inf', '-inf', 'nan'), anything else (a
    finite float, text, a flag, an integer, None) as it is."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def cells(argv) -> tuple[list, list]:
    """(columns, rows) of one command, every cell at full precision."""
    args = cli._build_parser().parse_args(argv)
    if args.command == "sweep":
        rows = cli.run_sweep(cli._spec_from_args(args), jobs=args.jobs)
        table = [[row[c] for c in cli.COLUMNS] for row in rows]
        columns = list(cli.COLUMNS)
    elif args.command == "spectrum":
        cfg, params = cli._load(args)
        modes = build_spectrum(params, cli._single(args, cfg, "nuT") * params.nu_t_unit)
        omega = (modes.omega.T / params.nu_t_unit).tolist()
        table = [[l, modes.variant.value, *w] for l, w in enumerate(omega, start=1)]
        columns = ["l", "variant", "omega0", "omega1"]
    else:
        params, nu_t, temperature = cli._point_from_args(args)
        if args.command == "block-entropy":
            rep = block_entropy_profile(params, nu_t, temperature, args.sites,
                                        args.direction, args.drop_soft_modes)
            table = [[rep.entropy, rep.dropped_soft_modes, *rep.spectrum]]
            columns = ["entropy", "droppedSoftModes",
                       *(f"r{i}" for i in range(1, len(rep.spectrum) + 1))]
        elif args.command == "covariance":
            sites = tuple(int(s) for s in args.sites.split(","))
            cov = block_covariance(params, nu_t, temperature, sites,
                                   tuple(args.directions.split(",")))
            table = cov.matrix.tolist()
            columns = [f"{q}{s}{d}" for s, d in cov.modes for q in "qp"]
        else:
            raise ValueError(f"no value record for the {args.command} command")
    return columns, [[cell(v) for v in row] for row in table]


def record() -> list:
    """Every recorded command with its cells, in the order of ``commands``."""
    entries = []
    for name, argv in commands().items():
        columns, rows = cells(argv)
        entries.append({"name": name, "argv": argv, "columns": columns, "rows": rows})
    return entries


def dumps(entries) -> str:
    """The record as strict JSON, one row to a line; each float is written
    as its repr, which reads back as the same float."""
    parts = []
    for entry in entries:
        head = json.dumps({k: entry[k] for k in ("name", "argv", "columns")})[:-1]
        rows = ",\n  ".join(json.dumps(row, allow_nan=False) for row in entry["rows"])
        parts.append(f'{head}, "rows": [\n  {rows}\n]}}')
    return "[\n" + ",\n".join(parts) + "\n]\n"


def load() -> list:
    return json.loads(RECORD.read_text())


if __name__ == "__main__":
    RECORD.write_text(dumps(record()))
    print(f"wrote {RECORD}")

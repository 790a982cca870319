"""The value record: full-precision cells of the pinned command outputs.

`tests/test_golden.py` pins the SHA-256 of ten command outputs and of the
seed-0 sweep of each benchmark workload (perfbench/workloads.py). Those
files print 12 significant digits, so a hash cannot tell a move in the last
bits of a value from a real one. This module runs each of those commands'
own row builder (``sweep``, ``spectrum``, ``block-entropy``, ``covariance``
and ``witness``) in process, under the floating-point rules of ``cli.main``,
and keeps every printed cell at full precision: the record holds exactly the
rows and columns the command prints, before the cell rule. ``value_record.json``
holds them as recorded, and ``tests/test_value_record.py`` compares today's
cells with it.

A change that moves values on purpose re-records the file and prints the
SHA-256 of every recorded command's CSV, the hashes to pin:

    python3 tests/record_values.py
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import test_golden  # noqa: E402
from ionlattice import cli  # noqa: E402

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
    non-finite float as its text ('inf', '-inf', 'nan'), a tuple (the
    ``block-entropy`` spectrum) as the list of its cells, anything else (a
    finite float, text, a flag, an integer, None) as it is."""
    if isinstance(value, tuple):
        return [cell(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def printed(value):
    """A recorded cell as the command holds it before the cell rule: a list
    as a tuple, the text of a non-finite float as that float."""
    if type(value) is list:
        return tuple(map(printed, value))
    if value in ("inf", "-inf", "nan"):
        return float(value)
    return value


def csv_sha256(entry) -> str:
    """The SHA-256 of a recorded command's CSV: its recorded rows, formatted
    by the cell rule (``cli.rows_to_csv``)."""
    columns = entry["columns"]
    rows = [dict(zip(columns, map(printed, row))) for row in entry["rows"]]
    return hashlib.sha256(cli.rows_to_csv(rows, columns).encode()).hexdigest()


def cells(argv) -> tuple[list, list]:
    """(columns, rows) of one command as it prints them, every cell at full
    precision: the rows of the command's own row builder."""
    args = cli._build_parser().parse_args(argv)
    with np.errstate(**cli._FP_FAULTS):
        rows, columns = args.rows(args)
    return list(columns), [[cell(row[c]) for c in columns] for row in rows]


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
    entries = record()
    RECORD.write_text(dumps(entries))
    print(f"wrote {RECORD}")
    for entry in entries:
        print(f"{csv_sha256(entry)}  {entry['name']}")

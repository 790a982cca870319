"""The value gate: today's cells of the pinned commands against the record.

`tests/value_record.json` holds the full-precision cells of the ten golden
commands and of the seed-0 sweep of each benchmark workload (see
`tests/record_values.py`). A number agrees with its recorded value within
``RTOL`` relative, or ``ATOL`` absolute near zero; text (variants, error
cells), flags (the ``Divergent`` columns), integers, empty cells and
non-finite values agree only when they are identical, and a list cell (the
``block-entropy`` spectrum) agrees item by item under the same rule. So a
change that moves the last bits of a value passes, and one that moves a
printed digit, flips a flag or changes an error fails, even where the
12-digit CSV hides the move.
Formatted by the cell rule, each entry's rows are the pinned CSV itself: the
record and the SHA-256 of `tests/test_golden.py` are re-pinned together.

A change that moves a cell on purpose beyond the tolerance lists it in
``INTENDED_MOVES`` with its reason, runs this gate against the old record,
then re-records (``python3 tests/record_values.py``) and empties the list,
whose reasons go to CHANGES.md. An entry whose cell still agrees with the
record fails the gate, so no entry outlives its move.
"""

import copy
import hashlib

import pytest

import record_values
import test_golden
from ionlattice import cli

#: relative agreement demanded of every recorded number
RTOL = 1e-12
#: absolute floor near zero; no recorded non-zero cell is below 1e-6 in
#: magnitude, and an exact zero may come back as a rounding residue of
#: terms of order one
ATOL = 1e-15

#: (command name, row index, column) -> reason, for each cell a change moves
#: on purpose beyond the tolerance; empty when the record is current
INTENDED_MOVES = {}

RECORD = record_values.load()


def agree(want, got) -> bool:
    if type(want) is float and type(got) is float:
        return abs(got - want) <= max(RTOL * abs(want), ATOL)
    if type(want) is list and type(got) is list:
        return len(want) == len(got) and all(map(agree, want, got))
    return type(want) is type(got) and want == got


def differences(entry, columns, rows) -> list:
    """(row index, column, recorded, today) of every cell of ``rows`` that
    disagrees with the recorded ``entry``; a changed column list or row
    count is one difference."""
    if columns != entry["columns"] or len(rows) != len(entry["rows"]):
        return [(None, "shape", (entry["columns"], len(entry["rows"])), (columns, len(rows)))]
    return [
        (i, column, want, got)
        for i, (want_row, got_row) in enumerate(zip(entry["rows"], rows))
        for column, want, got in zip(columns, want_row, got_row)
        if not agree(want, got)
    ]


def test_the_record_holds_every_pinned_command():
    """The record's commands are the golden cases and the seed-0 workload
    sweeps, in that order, so neither list can drift from the other."""
    assert [(e["name"], e["argv"]) for e in RECORD] == list(record_values.commands().items())


def printed(value):
    """A recorded cell as the command holds it before the cell rule: a list
    as a tuple, the text of a non-finite float as that float."""
    if type(value) is list:
        return tuple(map(printed, value))
    if value in ("inf", "-inf", "nan"):
        return float(value)
    return value


def pinned_sha256(name: str) -> str:
    """The SHA-256 `tests/test_golden.py` pins for a recorded command."""
    if name.startswith("workload-"):
        return test_golden.WORKLOADS.REFERENCE_SHA256[name.removeprefix("workload-")]
    return test_golden.CASES[name][1]


@pytest.mark.parametrize("entry", RECORD, ids=[e["name"] for e in RECORD])
def test_the_record_is_what_the_command_prints(entry):
    """The recorded rows, formatted by the cell rule, are the bytes whose
    SHA-256 the golden tests pin, so neither pin can be re-pinned alone."""
    columns = entry["columns"]
    rows = [dict(zip(columns, map(printed, row))) for row in entry["rows"]]
    text = cli.rows_to_csv(rows, columns)
    assert hashlib.sha256(text.encode()).hexdigest() == pinned_sha256(entry["name"])


@pytest.mark.parametrize("entry", RECORD, ids=[e["name"] for e in RECORD])
def test_values_agree_with_the_record(entry):
    columns, rows = record_values.cells(entry["argv"])
    moved = {(i, column) for i, column, *_ in differences(entry, columns, rows)}
    intended = {(i, column) for name, i, column in INTENDED_MOVES if name == entry["name"]}
    assert sorted(moved - intended, key=str) == [], "cells moved beyond the tolerance"
    assert sorted(intended - moved, key=str) == [], "intended moves that did not move"


def test_the_gate_refuses_a_small_move_and_a_flipped_flag():
    """The comparison itself: a number moved by 1e-11 relative and a
    flipped Divergent flag are caught, a move of 5e-13 relative is not."""
    [entry] = [e for e in RECORD if e["name"] == "workload-bulk"]
    columns = entry["columns"]
    rows = copy.deepcopy(entry["rows"])
    i = next(i for i, row in enumerate(rows) if type(row[columns.index("SV3x")]) is float)
    sv3x, flag = columns.index("SV3x"), columns.index("SV1yDivergent")
    rows[i][sv3x] *= 1.0 + 5e-13
    assert differences(entry, columns, rows) == []
    rows[i][sv3x] = entry["rows"][i][sv3x] * (1.0 + 1e-11)
    rows[0][flag] = not rows[0][flag]
    assert {(j, c) for j, c, *_ in differences(entry, columns, rows)} == {
        (0, "SV1yDivergent"), (i, "SV3x")}

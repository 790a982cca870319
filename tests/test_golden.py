"""Byte-exact outputs of the command line, pinned by SHA-256.

Each case runs one command on a small ring and compares the SHA-256 of the
file it writes with a recorded value. The cases cover both phases, zero and
finite temperature, every finite sweep measure including the witness, the
bulk-limit rows of the NN and the LR ring (closed forms above the
transition, the large-ring stand-in for block entropies, the witness and
the buckled side), the `spectrum` table and the two-direction `covariance`
table. A refactor that moves any
printed digit, or the sign of a printed zero, fails here.
"""

import hashlib

import pytest

from ionlattice.cli import main

BASE = ["--n", "8", "--mass", "2", "--charge", "1", "--spacing", "1",
        "--nu", "1.4142135623730951"]

#: the transition of this ring sits at reduced nuT sqrt(2): 0.9 and 1.2 lie below it
CASES = {
    "sweep-finite": (
        ["sweep", *BASE, "--nu-t", "0.9:2.1:5", "--temp", "0,0.3", "--measures",
         "negativity,entropy,blockEntropy1,blockEntropy2,blockEntropy3,witness"],
        "2d70b1e012c523af55a8f823433207ae41676ec0e6d50627d0b616a66572388b",
    ),
    "sweep-td-limit": (
        ["sweep", *BASE, "--nu-t", "1.2,1.6", "--td-limit", "--measures",
         "negativity,entropy,blockEntropy2,witness"],
        "3523502d9e0e1da548656f8dab6cd34bf0e73ed3fec42ff7d37f7f98eafedbbe",
    ),
    # longer-range couplings (tau_max 4) through every bulk-limit quadrature
    "sweep-td-limit-lr": (
        ["sweep", "--n", "20", "--model", "LR", "--mass", "2", "--charge", "1",
         "--spacing", "1", "--nu", "1.4142135623730951", "--nu-t", "1.6,1.9",
         "--td-limit", "--measures", "negativity,entropy,blockEntropy2"],
        "a72deb56267e09259a510ece71cda28648522df905062b1e18d25ab573a0edba",
    ),
    "block-entropy-critical-soft-dropped": (
        ["block-entropy", *BASE, "--nu-t", "1.4142135623730951", "--sites", "2",
         "--direction", "x", "--drop-soft-modes", "--format", "json"],
        "c12ad3fd34bc1a0690429328dab9463b6079fdb4ae7af695cb758f81f215ad23",
    ),
    "spectrum-buckled": (
        ["spectrum", *BASE, "--nu-t", "1.2"],
        "5fec109f9f8cb0bc74e0d8689e7d11aab14884d6f9ad3282b83a50361ba66e56",
    ),
    "spectrum-flat": (
        ["spectrum", *BASE, "--nu-t", "2.0"],
        "b727f1232d64fef3e9790f9a3af984f1dbc35222077126751884f825a60501b7",
    ),
    "covariance-buckled": (
        ["covariance", *BASE, "--nu-t", "1.2", "--temp", "0.3", "--sites", "1,2,3",
         "--directions", "x,y"],
        "41e69395034b8b9621ee395f7fd556eb92ea3981f72c648332eb10513e10d32d",
    ),
    "covariance-flat": (
        ["covariance", *BASE, "--nu-t", "2.0", "--temp", "0.3", "--sites", "1,2,3",
         "--directions", "x,y"],
        "420be133ac59adcbb48985b16cb63a8f9338177dfb2caa627ff5e70bbdcf4c9f",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes_unchanged(name, tmp_path):
    argv, expected = CASES[name]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected

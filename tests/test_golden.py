"""Byte-exact outputs of the command line, pinned by SHA-256.

Each case runs one command on a small ring and compares the SHA-256 of the
file it writes with a recorded value. The cases cover both phases, zero and
finite temperature, every finite sweep measure including the witness, the
bulk-limit rows of the NN and the LR ring (closed forms above the
transition, the large-ring stand-in for block entropies, the witness and
the buckled side), the `spectrum` table, the two-direction `covariance`
table and the `witness` row of a buckled NN and a flat LR ring. A
refactor that moves any
printed digit, or the sign of a printed zero, fails here. So does one that
moves a byte of the seed-0 CSV of a benchmark workload (perfbench/), whose
SHA-256 the benchmark pins.
"""

import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ionlattice
from ionlattice.cli import main

BASE = ["--n", "8", "--mass", "2", "--charge", "1", "--spacing", "1",
        "--nu", "1.4142135623730951"]

#: the transition of this ring sits at reduced nuT sqrt(2): 0.9 and 1.2 lie below it
CASES = {
    "sweep-finite": (
        ["sweep", *BASE, "--nu-t", "0.9:2.1:5", "--temp", "0,0.3", "--measures",
         "negativity,entropy,blockEntropy2,blockEntropy3,witness"],
        "2d70b1e012c523af55a8f823433207ae41676ec0e6d50627d0b616a66572388b",
    ),
    "sweep-td-limit": (
        ["sweep", *BASE, "--nu-t", "1.2,1.6", "--td-limit", "--measures",
         "negativity,entropy,blockEntropy2,witness"],
        "a6a7beaa99593d66f72dda18f963a0c119ce15701583e3575246123278b31546",
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
         "--direction", "x", "--drop-soft-modes"],
        "effd9b4db9e8c7e674e18f2e7f319f5bf2c30f8ce2298432459f1bf94fb912c2",
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
        "5244bd4b2183d2f3125e5bf2401b62b5fc0678a11c934280849d5373501d321f",
    ),
    "covariance-flat": (
        ["covariance", *BASE, "--nu-t", "2.0", "--temp", "0.3", "--sites", "1,2,3",
         "--directions", "x,y"],
        "6387794d1ee552ab2b7a4e32bad49e1d54aca5fabadf5479925757efc51294b7",
    ),
    "witness-buckled": (
        ["witness", *BASE, "--nu-t", "1.2", "--temp", "0.3"],
        "d63735218dc54afe42d6e0a3daa4f883c5b8d75745c4026f378c34f2173759e9",
    ),
    "witness-flat-lr": (
        ["witness", "--n", "12", "--model", "LR", "--mass", "2", "--charge", "1",
         "--spacing", "1", "--nu", "1.4142135623730951", "--nu-t", "2.0", "--temp", "0.2"],
        "277bd433641f052fe4d5479f05dc5c98c60b03d8965fd1059a0bf5a75c4a69f7",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes_unchanged(name, tmp_path):
    argv, expected = CASES[name]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def _benchmark_workloads():
    """perfbench/workloads.py, executed from its source text: nothing there
    is imported as a package or written."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _benchmark_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.REFERENCE_SHA256))
def test_benchmark_reference_bytes_unchanged(name, tmp_path):
    """The seed-0 CSV of each benchmark workload still has the SHA-256 the
    benchmark pins, so a moved byte shows here without a benchmark run."""
    out = tmp_path / "out.csv"
    assert main([*WORKLOADS.sweep_argv(name, 0), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WORKLOADS.REFERENCE_SHA256[name]


#: NumPy's dispatch levels above its x86-64 baseline: with these switched
#: off, NumPy runs its baseline kernels
BASELINE_KERNELS = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"


def test_the_bulk_bytes_hold_on_numpys_baseline_kernels(tmp_path):
    """The seed-0 CSV of the bulk workload keeps its pinned SHA-256 when
    NumPy runs without its AVX2 and AVX-512 kernels, in a fresh interpreter
    (the variable is read when NumPy is imported). The other workloads take
    np.tanh, whose bits differ there, so they are not checked. Skipped
    where NumPy refuses the variable, as a build whose baseline holds these
    features does."""
    out = tmp_path / "out.csv"
    src = str(Path(ionlattice.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": BASELINE_KERNELS,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = "import sys; from ionlattice.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *WORKLOADS.sweep_argv("bulk", 0), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    if proc.returncode and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
        pytest.skip(proc.stderr.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WORKLOADS.REFERENCE_SHA256["bulk"]


def test_batched_spectra_equal_their_points_on_numpys_baseline_kernels():
    """The batch test of ``build_spectra`` passes when NumPy runs without
    its AVX2 and AVX-512 kernels: ``np.power`` and ``np.hypot`` over a
    (P, k) stack give each element the bits of a (k,) call there too. Run
    in a fresh interpreter, as the variable is read when NumPy is
    imported; skipped where NumPy refuses it."""
    tests = Path(__file__).resolve().parent
    src = str(Path(ionlattice.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": BASELINE_KERNELS,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    target = f"{tests / 'test_spectrum.py'}::test_a_batch_of_spectra_equals_its_points_bit_for_bit"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", target],
        capture_output=True, text=True, env=env, timeout=300, cwd=tests.parent,
    )
    if proc.returncode and "NPY_DISABLE_CPU_FEATURES" in proc.stdout + proc.stderr:
        pytest.skip((proc.stdout + proc.stderr).strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1].startswith("6 passed"), proc.stdout

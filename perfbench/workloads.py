"""The benchmark's workloads: `ionlattice sweep` argument lists made from a seed.

Seed 0 is the reference grid of each workload. Any other seed shifts the nuT
grid by less than one grid step, keeping the point count, both phases of the
finite workloads and the exact bulk critical start point of ``bulk``.
"""

from __future__ import annotations

import random

BASE = ["--mass", "2", "--charge", "1", "--spacing", "1", "--nu", "1.4142135623730951"]

FINITE_GRID = (0.9, 2.1, 41)
#: starts on the bulk critical transverse trap of BASE, sqrt(2) in reduced units
BULK_GRID = (1.4142135623730951, 2.1, 41)

SMALL = ["--n", "20", "--temp", "0,0.1,0.2,0.4,0.8,1.6",
         "--measures", "negativity,entropy,blockEntropy2,blockEntropy3"]
LARGE = ["--n", "1000", "--model", "LR", "--temp", "0,0.2",
         "--measures", "negativity,entropy,blockEntropy3,witness"]
BULK = ["--n", "20", "--td-limit", "--measures", "negativity,entropy,blockEntropy3"]

#: name -> (flags other than --nu-t, nuT grid, worker count, seed shift range
#: in grid steps). The finite-large range keeps its grid clear of two windows,
#: nuT 1.3078-1.3118 and 1.7148-1.7248, where the witness root-find of that
#: ring ends the whole sweep with an uncaught OverflowError (a program defect);
#: it also keeps all five DomainError nuT points of seed 0 in the grid.
WORKLOADS = {
    "finite-small": (SMALL, FINITE_GRID, 1, (-0.45, 0.45)),
    "finite-large": (LARGE, FINITE_GRID, 1, (-0.25, 0.12)),
    "bulk": (BULK, BULK_GRID, 1, (-0.45, 0.45)),
    "pooled": (SMALL, FINITE_GRID, 2, (-0.45, 0.45)),
}

#: SHA-256 of each workload's CSV at seed 0. Seed-0 ``finite-large`` holds 10
#: DomainError rows and ``bulk`` one QuadratureFailure row; both are known
#: defects of the program, and the hashes pin them as they are.
REFERENCE_SHA256 = {
    "finite-small": "4107995dc3dfada3ef03210c73c4bc8284ca255272ca4d7dfbf181f10cc1d11f",
    "finite-large": "6111028ce063756d0ebefd8292f25ece39ee9b5550f1bd4adfadeea0b157ec9b",
    "bulk": "468738bf9af011fa6f537a81e111631bb9dcb7616eb8644a228bb6582600e3b0",
    "pooled": "4107995dc3dfada3ef03210c73c4bc8284ca255272ca4d7dfbf181f10cc1d11f",
}


def nu_t_grid(name: str, seed: int) -> str:
    """The --nu-t value of a workload at a seed."""
    _, (start, stop, count), _, (lo, hi) = WORKLOADS[name]
    if seed == 0:
        return f"{start!r}:{stop!r}:{count}"
    shift = random.Random(seed).uniform(lo, hi) * (stop - start) / (count - 1)
    if name == "bulk":
        # the start stays on the critical point; moving the stop moves every
        # other point by less than one step
        return f"{start!r}:{stop + shift!r}:{count}"
    return f"{start + shift!r}:{stop + shift!r}:{count}"


def sweep_argv(name: str, seed: int, jobs: int | None = None) -> list:
    """Arguments of `ionlattice sweep` for a workload, without --out."""
    flags, _, default_jobs, _ = WORKLOADS[name]
    jobs = default_jobs if jobs is None else jobs
    argv = ["sweep", *BASE, *flags, "--nu-t", nu_t_grid(name, seed)]
    if jobs != 1:
        argv += ["--jobs", str(jobs)]
    return argv

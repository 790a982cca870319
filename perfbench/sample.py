"""One timed `ionlattice sweep` invocation in a fresh interpreter.

Usage: python3 sample.py JOB_JSON, with JOB_JSON holding ``argv`` (the
sweep's arguments), ``out`` (CSV path), ``trace`` (bool), ``sample`` (id)
and ``trace_dir``. Prints one JSON line: the monotonic clock reading once
``ionlattice.cli`` is imported, the wall time of ``main``, the wall time of
``run_sweep`` inside it, the mean time of a calibration loop run before and
after the sweep, the exit code and peak RSS.
"""

import time

import ionlattice.cli as cli

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402


def calibrate() -> float:
    """Seconds taken by a fixed mix of small LAPACK calls, vector NumPy and
    scalar Python math, the kinds of work a sweep row does. It measures how
    fast this machine runs at the moment, independently of ionlattice."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 8))
    sym = m @ m.T
    v = rng.standard_normal(1000)
    acc = 0.0
    start = time.perf_counter()
    for i in range(2500):
        acc += float(np.linalg.eigvalsh(sym + i * np.eye(8))[0])
        acc += float(np.sum(np.sqrt(np.abs(v) + i)))
        for x in range(60):
            acc += math.expm1(x * 1e-3)
    return time.perf_counter() - start


def pool_bytes(sweeps) -> tuple:
    """Pickled sizes of the (spec, nuT, T) tasks and result rows that
    ``run_sweep`` sends through its process pool; zero when it uses none."""
    task_bytes = result_bytes = 0
    for spec, jobs, rows in sweeps:
        tasks = [(spec, nt, t) for nt in spec.nu_t_grid for t in spec.temperatures]
        if jobs <= 1 or len(tasks) == 1:
            continue
        task_bytes += sum(len(pickle.dumps(t)) for t in tasks)
        result_bytes += sum(len(pickle.dumps(r)) for r in rows)
    return task_bytes, result_bytes


def main() -> None:
    job = json.loads(sys.argv[1])
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(job["sample"], job["trace_dir"])
        tracer.install()

    sweeps, rows_s = [], []
    run_sweep = cli.run_sweep

    def timed_run_sweep(spec, jobs=1):
        start = time.perf_counter()
        rows = run_sweep(spec, jobs)
        rows_s.append(time.perf_counter() - start)
        sweeps.append((spec, jobs, rows))
        return rows

    cli.run_sweep = timed_run_sweep
    calib_s = calibrate()
    start = time.perf_counter()
    code = cli.main([*job["argv"], "--out", job["out"]])
    sweep_s = time.perf_counter() - start
    calib_s = (calib_s + calibrate()) / 2

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"imported_at": IMPORTED_AT, "pid": os.getpid(), "code": code, "sweep_s": sweep_s,
              "rows_s": sum(rows_s), "calib_s": calib_s, "maxrss_kb": kb, "worker_maxrss_kb": worker_kb,
              "module": cli.__file__}
    if tracer is not None:
        tracer.dump()
        result["task_bytes"], result["result_bytes"] = pool_bytes(sweeps)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

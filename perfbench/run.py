"""Benchmark of `ionlattice sweep`, run from the root of a source checkout.

    python3 perfbench/run.py --workload finite-small --seed 0 --seconds 25 --trace 0

Each sample is one sweep in a fresh interpreter (``sample.py``), run one
after another for ``--seconds`` (a closed loop with one client). Every
sample's CSV must pass the output gate. The last line of standard output is
one JSON object; with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced samples. ``--workload all``
prints the metrics of every workload as a table instead, and exits 1 if a
gate failed. Exits 2 without a result when the checkout has no
``src/ionlattice``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: samples taken however short --seconds is
MIN_SAMPLES = 3
#: a sample's sweep takes about 1-2 s on a 2-core machine
SAMPLE_TIMEOUT_S = 120
#: times are scaled to a machine that runs sample.calibrate in this many seconds
REFERENCE_CALIBRATION_S = 0.1

PER_ROW = {
    "lattice.solves_per_row": "lattice.solve_equilibrium",
    "spectrum.builds_per_row": "spectrum.build_spectrum",
    "witness.energy_evals_per_row": "witness.internal_energy",
    "entanglement.symplectic_calls_per_row": "entanglement.symplectic_spectrum",
}


class SampleFailed(Exception):
    pass


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the sample's whole process group (pool workers too) and wait
    until none of it is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_sample(argv: list, index: int, trace: bool = False) -> dict:
    """Run one sweep in a fresh interpreter and read back what it measured."""
    out = OUT / f"sample-{index}.csv"
    job = {"argv": argv, "out": str(out), "trace": trace, "sample": index,
           "trace_dir": str(OUT)}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sample.py"), json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SampleFailed(f"sample {index} timed out after {SAMPLE_TIMEOUT_S} s") from None
    finally:
        _stop_group(proc)
    if proc.returncode != 0 or not stdout.strip():
        raise SampleFailed(f"sample {index} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    res = json.loads(stdout.strip().splitlines()[-1])
    if Path(res["module"]).resolve() != (ROOT / "src" / "ionlattice" / "cli.py").resolve():
        raise SampleFailed(f"sample {index} imported ionlattice from {res['module']}")
    if res["code"] != 0:
        raise SampleFailed(f"sample {index}: sweep exited {res['code']}: {stderr.strip()[-2000:]}")
    try:
        data = out.read_bytes()
    except OSError as exc:
        raise SampleFailed(f"sample {index} wrote no CSV: {exc}") from None
    out.unlink()
    rows = list(csv.DictReader(data.decode().splitlines()))
    res["sha256"] = hashlib.sha256(data).hexdigest()
    res["rows"] = len(rows)
    res["error_rows"] = sum(1 for r in rows if r["error"])
    # A shared machine's speed swings by up to 1.5x for tens of seconds at a
    # time. Every sample times a fixed calibration loop before and after its
    # sweep, and its times are scaled by it to the reference speed.
    res["slowness"] = res["calib_s"] / REFERENCE_CALIBRATION_S
    res["raw_goodput"] = (res["rows"] - res["error_rows"]) / res["sweep_s"]
    res["goodput"] = res["raw_goodput"] * res["slowness"]
    res["setup_s"] = (res["imported_at"] - started) / res["slowness"]
    res["rows_s"] /= res["slowness"]
    res["peak_rss_mb"] = (res["maxrss_kb"] + res["worker_maxrss_kb"]) / 1024.0
    return res


def gate(name: str, seed: int, sha: str, single_process_sha: str | None) -> list:
    """Problems with one CSV: at seed 0 it must match the reference hash, and
    every sweep of a run, ``pooled`` included, must equal the run's first,
    single-process sweep."""
    problems = []
    if seed == 0 and sha != workloads.REFERENCE_SHA256[name]:
        problems.append(f"{name}: CSV sha256 {sha} differs from the seed-0 reference "
                        f"{workloads.REFERENCE_SHA256[name]}")
    if single_process_sha is not None and sha != single_process_sha:
        problems.append(f"{name}: CSV sha256 {sha} differs from the --jobs 1 sweep "
                        f"{single_process_sha} of the same grid")
    return problems


class Run:
    """The samples of one benchmark run and the outcome of their gate."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.jobs = workloads.WORKLOADS[name][2]
        self.samples = []
        self.problems = []
        self.attempted = self.failed = 0

    def sample(self, jobs: int | None = None, trace: bool = False) -> None:
        self.attempted += 1
        argv = workloads.sweep_argv(self.name, self.seed, jobs)
        try:
            res = run_sample(argv, len(self.samples), trace)
        except SampleFailed as exc:
            self.failed += 1
            self.problems.append(f"{self.name}: {exc}")
            return
        res["jobs"] = self.jobs if jobs is None else jobs
        res["trace"] = trace
        first = self.samples[0]["sha256"] if self.samples else None
        problems = gate(self.name, self.seed, res["sha256"], first)
        if problems:
            self.failed += 1
            self.problems += problems
        self.samples.append(res)

    def loop(self, seconds: float, *kinds: dict) -> None:
        """Closed loop: the next sample starts when the previous one ends.
        Each round takes one sample of every kind; sampling stops at the
        first failed sample."""
        deadline = time.monotonic() + seconds
        rounds = 0
        while (rounds < MIN_SAMPLES or time.monotonic() < deadline) and not self.failed:
            for kind in kinds:
                self.sample(**kind)
            rounds += 1

    def picked(self, trace: bool = False, jobs: int | None = None) -> list:
        """Samples of one kind, without the first (warm-up) sample."""
        jobs = self.jobs if jobs is None else jobs
        return [s for s in self.samples[1:] if s["trace"] == trace and s["jobs"] == jobs]

    def layer_metrics(self) -> list:
        """Per-layer metrics of every traced sample taken so far."""
        return [layer_metrics(tracer.load(str(OUT), i), s)
                for i, s in enumerate(self.samples) if s["trace"]]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, seconds: float) -> dict:
    run.sample(jobs=1)  # warm-up, and the single-process output for the gate
    run.loop(seconds, {})
    taken = run.picked()
    values = {"goodput_rows_per_s": [s["goodput"] for s in taken],
              "setup_s": [s["setup_s"] for s in taken],
              "peak_rss_mb": [s["peak_rss_mb"] for s in taken]}
    return {m["name"]: {"value": _median(values[m["name"]]), "unit": m["unit"],
                        "samples": len(taken)}
            for m in benchmark_spec()["end_to_end"]}


def layer_metrics(records: list, res: dict) -> dict:
    """Per-layer calls, self time and escaping errors of one traced sample."""
    calls = {f"{layer}.calls": 0 for layer in tracer.LAYERS}
    self_s = {f"{layer}.self_s": 0.0 for layer in tracer.LAYERS}
    errors = {f"{layer}.errors": 0 for layer in tracer.LAYERS}
    by_name = {}
    main_s = serialize_s = 0.0
    pool_tasks = quad_calls = 0
    for rec in records:
        spans = rec["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, raised) in enumerate(spans):
            layer = tracer.layer_of(name)
            calls[f"{layer}.calls"] += 1
            by_name[name] = by_name.get(name, 0) + 1
            self_s[f"{layer}.self_s"] += (end - start - child_ns[i]) / 1e9
            if raised and (parent < 0 or tracer.layer_of(spans[parent][0]) != layer):
                errors[f"{layer}.errors"] += 1
            if name == "cli.main":
                main_s += (end - start) / 1e9
            elif name in ("cli.rows_to_csv", "cli._emit"):
                serialize_s += (end - start) / 1e9
            elif name == "cli._row_worker" and rec["pid"] != res["pid"]:
                pool_tasks += 1
        quad_calls += rec["counts"].get("quadrature.quad", 0)
    rows = res["rows"]
    metrics = {**calls, **self_s, **errors}
    for metric, name in PER_ROW.items():
        metrics[metric] = by_name.get(name, 0) / rows
    metrics["quadrature.quad_calls_per_row"] = quad_calls / rows
    metrics["cli.main_s"] = main_s
    metrics["cli.serialize_s"] = serialize_s
    metrics["cli.error_rows"] = res["error_rows"]
    metrics["pool.tasks"] = pool_tasks
    metrics["pool.task_bytes"] = res["task_bytes"]
    metrics["pool.result_bytes"] = res["result_bytes"]
    return metrics


def per_layer(run: Run, seconds: float) -> dict:
    run.sample(jobs=1)
    # untraced half: the reference for trace.overhead and, on a pooled
    # workload, single-process and pooled sweeps side by side for pool.efficiency
    run.loop(seconds / 2, *([{"jobs": 1}] if run.jobs != 1 else []), {})
    run.loop(seconds / 2, {"trace": True})
    traced = [] if run.failed else run.layer_metrics()
    metrics = {}
    if traced:
        for name in traced[0]:
            metrics[name] = _median(t[name] for t in traced)
        metrics["trace.overhead"] = _median(s["goodput"] for s in run.picked()) / _median(
            s["goodput"] for s in run.picked(trace=True))
        if run.jobs != 1:
            single = _median(s["rows_s"] for s in run.picked(jobs=1))
            pooled = _median(s["rows_s"] for s in run.picked())
            metrics["pool.efficiency"] = single / (run.jobs * pooled)
    return {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"],
                        "samples": len(traced)}
            for m in benchmark_spec()["per_layer"]}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    run = Run(name, seed)
    try:
        metrics = per_layer(run, seconds) if trace else end_to_end(run, seconds)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    return run, metrics


def describe(run: Run, metrics: dict) -> list:
    rows = run.samples[-1]["rows"] if run.samples else 0
    errs = run.samples[-1]["error_rows"] if run.samples else 0
    taken = run.picked()
    lines = [f"{run.name} seed {run.seed}: {len(run.samples)} sweeps, "
             f"error_rows {errs}/{rows} = {errs / max(rows, 1):.4f}, unscaled goodput "
             f"{_median(s['raw_goodput'] for s in taken):.6g} 1/s, machine slowness "
             f"{_median(s['slowness'] for s in taken):.4f}"]
    for metric, m in metrics.items():
        lines.append(f"  {metric:40s} {m['value']:14.6g} {m['unit']:8s} n={m['samples']}")
    lines += [f"  GATE FAILED {p}" for p in run.problems]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ionlattice" / "cli.py").is_file():
        print(f"no ionlattice sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        failed = 0
        for name in workloads.WORKLOADS:
            run, metrics = measure(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(describe(run, metrics)))
            failed += run.failed
        return 1 if failed else 0
    run, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(describe(run, metrics)), file=sys.stderr)
    result = {"correct": run.failed == 0,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
from ionlattice import cli  # noqa: E402
from ionlattice.lattice import critical_potential  # noqa: E402

#: layers predicted to do work on each workload; every other layer makes no call
WORK = {
    "finite-small": {"lattice", "spectrum", "covariance", "entanglement", "cli"},
    "finite-large": {"lattice", "spectrum", "covariance", "entanglement", "witness", "cli"},
    "bulk": {"lattice", "spectrum", "covariance", "quadrature", "entanglement", "cli"},
    "pooled": {"lattice", "spectrum", "covariance", "entanglement", "cli"},
}
POOL = ("pool.tasks", "pool.task_bytes", "pool.result_bytes")


def spec_of(name, seed):
    return cli._spec_from_args(cli._build_parser().parse_args(workloads.sweep_argv(name, seed)))


@pytest.fixture(scope="module")
def traced():
    """One traced seed-0 sample of every workload: (run, layer metrics)."""
    out = {}
    try:
        for name in workloads.WORKLOADS:
            shutil.rmtree(run.OUT, ignore_errors=True)
            run.OUT.mkdir(parents=True)
            r = run.Run(name, 0)
            r.sample(trace=True)
            out[name] = (r, r.layer_metrics())
        yield out
    finally:
        shutil.rmtree(run.OUT, ignore_errors=True)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_calls_follow_the_predictions(traced, name):
    r, [metrics] = traced[name]
    assert r.problems == [] and r.failed == 0
    for layer in tracer.LAYERS:
        calls = metrics[f"{layer}.calls"]
        assert (calls > 0) == (layer in WORK[name]), (layer, calls)
    for metric in POOL:
        assert (metrics[metric] > 0) == (name == "pooled"), (metric, metrics[metric])


def test_seed_zero_counts_match_the_reference_profile(traced):
    small, large, bulk = (traced[n][1][0] for n in ("finite-small", "finite-large", "bulk"))
    assert small["lattice.solves_per_row"] == 9.0
    assert small["spectrum.builds_per_row"] == 8.0
    assert small["entanglement.symplectic_calls_per_row"] == 6.0
    assert large["witness.energy_evals_per_row"] == pytest.approx(11.1, abs=0.05)
    assert large["witness.errors"] == large["cli.error_rows"] == 10
    assert bulk["quadrature.errors"] == bulk["cli.error_rows"] == 1
    assert bulk["quadrature.quad_calls_per_row"] > 0
    assert traced["pooled"][1][0]["pool.tasks"] == 246


def test_traced_metrics_are_the_declared_ones(traced):
    declared = {m["name"] for m in run.benchmark_spec()["per_layer"]}
    measured = set(traced["finite-small"][1][0]) | {"pool.efficiency", "trace.overhead"}
    assert measured == declared


def test_gate_rejects_one_changed_byte(tmp_path):
    out = tmp_path / "bulk.csv"
    assert cli.main([*workloads.sweep_argv("bulk", 0), "--out", str(out)]) == 0
    data = out.read_bytes()
    sha = hashlib.sha256(data).hexdigest()
    assert run.gate("bulk", 0, sha, None) == []
    changed = bytearray(data)
    changed[len(changed) // 2] ^= 1
    bad = hashlib.sha256(bytes(changed)).hexdigest()
    [problem] = run.gate("bulk", 0, bad, None)
    assert problem.startswith("bulk:")
    [problem] = run.gate("pooled", 7, bad, sha)
    assert problem.startswith("pooled:")


def test_pooled_is_finite_small_with_two_workers():
    for seed in (0, 1, 2):
        assert workloads.sweep_argv("pooled", seed, jobs=1) == workloads.sweep_argv("finite-small", seed)
        assert workloads.sweep_argv("pooled", seed)[-2:] == ["--jobs", "2"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_nonzero_seed_moves_the_grid_but_keeps_count_and_phases(name):
    base = spec_of(name, 0)
    params = base.params
    crit = critical_potential(params, td_limit=base.td_limit) / params.nu_t_unit
    step = base.nu_t_grid[1] - base.nu_t_grid[0]
    for seed in range(1, 11):
        grid = spec_of(name, seed).nu_t_grid
        assert len(grid) == len(base.nu_t_grid)
        assert grid != base.nu_t_grid
        assert max(abs(a - b) for a, b in zip(grid, base.nu_t_grid)) < step
        if name == "bulk":
            assert grid[0] == base.nu_t_grid[0] == workloads.BULK_GRID[0]
            assert min(grid) >= crit * (1 - 1e-12)
        else:
            assert min(grid) < crit < max(grid)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_shape():
    spec = run.benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"] for m in spec["end_to_end"]} == {"goodput_rows_per_s", "setup_s", "peak_rss_mb"}
    assert len(json.dumps(spec)) < 64 * 1024

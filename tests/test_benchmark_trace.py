"""The benchmark's traced mode still works on the program as it is.

``perfbench/run.py --trace 1`` runs ``perfbench/sample.py`` with a tracer
that wraps the package's functions from outside. It reads module attributes
of the program by name: ``cli.main``, ``cli._row_worker``, ``cli._emit``,
``cli.ProcessPoolExecutor`` (to give pool workers a tracer of their own)
and ``quadrature.quad`` (counted). A change that moves one of them breaks
traced runs without failing any untraced test; these runs catch it. Each
sample runs a tiny sweep in a fresh interpreter, as the benchmark does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RING = ["--n", "8", "--mass", "2", "--charge", "1", "--spacing", "1",
        "--nu", "1.4142135623730951"]


def traced_sample(tmp_path, argv):
    """(result line of sample.py, span records by pid) of one traced sweep."""
    job = {"argv": argv, "out": str(tmp_path / "out.csv"), "trace": True, "sample": 0,
           "trace_dir": str(tmp_path)}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sample.py"), json.dumps(job)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    records = [json.loads(path.read_text()) for path in tmp_path.glob("spans-0-*.json")]
    by_pid = {rec["pid"]: rec for rec in records}
    assert len(by_pid) == len(records)  # one span file per process
    return result, by_pid


def span_names(record):
    return {span[0] for span in record["spans"]}


def test_traced_pooled_sweep_records_the_main_and_every_worker(tmp_path):
    """Every pool worker has a tracer of its own, which writes a span file
    even when the other worker took every task, and each pool task leaves
    exactly one worker span, in some worker, none in the main process."""
    jobs, points = 2, 4
    tasks = min(jobs, points)  # run_sweep sends one interleaved chunk per job
    argv = ["sweep", *RING, "--nu-t", f"0.9:2.1:{points}", "--temp", "0,0.3",
            "--jobs", str(jobs)]
    result, by_pid = traced_sample(tmp_path, argv)
    assert result["code"] == 0
    main = by_pid.pop(result["pid"])
    assert {"cli.main", "cli._emit"} <= span_names(main)
    assert "cli._row_worker" not in span_names(main)
    assert len(by_pid) == jobs
    worker_spans = [span[0] for worker in by_pid.values() for span in worker["spans"]]
    assert worker_spans.count("cli._row_worker") == tasks


def test_traced_bulk_sweep_counts_the_quadrature_calls(tmp_path):
    argv = ["sweep", *RING, "--nu-t", "1.6", "--td-limit", "--measures", "negativity"]
    result, by_pid = traced_sample(tmp_path, argv)
    assert result["code"] == 0
    assert list(by_pid) == [result["pid"]]
    record = by_pid[result["pid"]]
    assert "cli.main" in span_names(record)
    assert record["counts"].get("quadrature.quad", 0) > 0

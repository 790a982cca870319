"""The package's public surface."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ionlattice


def test_every_exported_name_resolves():
    missing = [name for name in ionlattice.__all__ if not hasattr(ionlattice, name)]
    assert missing == []
    assert len(set(ionlattice.__all__)) == len(ionlattice.__all__)


def test_every_cache_is_bounded():
    """Callers can feed a cache any number of distinct keys (quadrature
    nodes, ring sizes), so none may grow for the life of the process."""
    caches = {}
    for info in pkgutil.walk_packages(ionlattice.__path__, "ionlattice."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = obj.cache_info().maxsize
    assert "ionlattice.covariance._dispersion_sum" in caches
    unbounded = [name for name, maxsize in caches.items() if maxsize is None]
    assert unbounded == []


_HYGIENE_SCRIPT = r"""
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import ionlattice.cli as cli
from ionlattice import lattice, quadrature, witness

report = {"import ionlattice.cli": [scipy_modules(), 0, 0]}
calls = {"brentq": 0, "quad": 0}

def counting(name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted

lattice.brentq = counting("brentq", lattice.brentq)
witness.brentq = counting("brentq", witness.brentq)
quadrature.quad = counting("quad", quadrature.quad)
base = ["--mass", "2", "--charge", "1", "--spacing", "1", "--nu", "1.4142135623730951"]
sweeps = {
    "NN finite sweep": ["--n", "8", "--nu-t", "0.9:2.1:4", "--temp", "0,0.3",
                        "--measures", "negativity,entropy,blockEntropy2"],
    "LR zigzag sweep": ["--n", "12", "--model", "LR", "--nu-t", "0.8,1.0", "--temp", "0,0.3",
                        "--measures", "negativity,entropy,witness"],
    "td-limit sweep": ["--n", "20", "--td-limit", "--nu-t", "1.5,1.8",
                       "--measures", "negativity,entropy"],
}
for name, flags in sweeps.items():
    before = dict(calls)
    code = cli.main(["sweep", *base, *flags, "--out", sys.argv[1]])
    assert code == 0, (name, code)
    report[name] = [scipy_modules(), calls["brentq"] - before["brentq"],
                    calls["quad"] - before["quad"]]
print(json.dumps(report))
"""


def test_no_scipy_module_is_loaded(tmp_path):
    """Importing the CLI and running finite, buckled long-range and
    bulk-limit sweeps loads no SciPy module: the root finder and the
    quadrature are the package's own. Runs in a fresh interpreter, since
    this one may have imported SciPy for other tests."""
    src = str(Path(ionlattice.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _HYGIENE_SCRIPT, str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert list(report) == ["import ionlattice.cli", "NN finite sweep",
                            "LR zigzag sweep", "td-limit sweep"]
    for step, (modules, _, _) in report.items():
        assert modules == [], step
    # the steps do reach the code that used SciPy: brentq for the buckled
    # long-range ring and the witness crossing, quad for the bulk limit
    assert report["LR zigzag sweep"][1] > 0
    assert report["td-limit sweep"][2] > 0


def test_only_the_check_command_imports_the_check_suite(tmp_path):
    """Every process pays to compile what it imports (no bytecode cache is
    assumed), so the check suite stays out of the other commands. Runs in a
    fresh interpreter, since this one may have run ``check`` already."""
    script = (
        "import sys\n"
        "import ionlattice.cli as cli\n"
        "base = ['--n', '8', '--mass', '2', '--charge', '1', '--spacing', '1',\n"
        "        '--nu', '1.4142135623730951', '--out', sys.argv[1]]\n"
        "loaded = ['ionlattice.checks' in sys.modules]\n"
        "assert cli.main(['sweep', *base, '--nu-t', '1.0,2.0', '--measures', 'witness']) == 0\n"
        "loaded.append('ionlattice.checks' in sys.modules)\n"
        "assert cli.main(['check']) == 0\n"
        "loaded.append('ionlattice.checks' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = str(Path(ionlattice.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False, True]"

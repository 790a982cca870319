"""The package's public surface."""

import ast
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ionlattice
from ionlattice import cli
from ionlattice.errors import ConfigError
from ionlattice.lattice import LatticeParams


def test_every_exported_name_resolves():
    missing = [name for name in ionlattice.__all__ if not hasattr(ionlattice, name)]
    assert missing == []
    assert len(set(ionlattice.__all__)) == len(ionlattice.__all__)


def test_the_cli_and_the_check_suite_import_no_private_library_name():
    """``cli`` and ``checks`` use the library through its public names: no
    ``from .<module> import _<name>``, and no ``<module>._<name>`` on a
    library module they import (``from . import lattice``, ``import
    ionlattice.lattice``)."""
    package = Path(ionlattice.__file__).parent
    library = {info.name for info in pkgutil.iter_modules([str(package)])}
    private = []
    for source in ("cli.py", "checks.py"):
        tree = ast.parse((package / source).read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
                private += [f"{source}: from {'.' * node.level}{node.module or ''} import {name}"
                            for name in names]
                if node.module is None:
                    modules |= {alias.asname or alias.name
                                for alias in node.names if alias.name in library}
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "ionlattice":
                        modules.add(alias.asname or alias.name)
                        modules |= {f"ionlattice.{name}" for name in library}
        private += [f"{source}: {ast.unparse(node)}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and ast.unparse(node.value) in modules]
    assert private == []


def test_the_readme_python_examples_run():
    """The fenced ``python`` blocks of the README run in order, each one
    reading the names the blocks before it defined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_the_readme_command_line_examples_run(tmp_path, monkeypatch):
    """Every ``ionlattice`` command of the README's ``sh`` blocks exits 0.
    They run in an empty directory, since ``covariance --dump`` writes there."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("ionlattice ")]
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv


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


def test_the_measure_table_writes_each_measure_column_once():
    """The sweep's measure table names exactly the measures ``--measures``
    accepts, and each of the 22 measure columns (every column but nuT, T,
    configVariant, b and error) is written by exactly one entry."""
    names = ["negativity", "entropy", "blockEntropy2", "blockEntropy3", "witness"]
    assert list(cli.MEASURES) == names
    params = LatticeParams(n=8, nu=1.0)
    for name in names:
        cli.SweepSpec(params=params, nu_t_grid=(2.0,), temperatures=(0.0,), measures=(name,))
    with pytest.raises(ConfigError, match="unknown measures"):
        cli.SweepSpec(params=params, nu_t_grid=(2.0,), temperatures=(0.0,),
                      measures=("purity",))
    measure_columns = [c for c in cli.COLUMNS
                       if c not in ("nuT", "T", "configVariant", "b", "error")]
    assert len(measure_columns) == 22
    written = Counter(c for _, columns in cli.MEASURES.values() for c in columns)
    assert written == Counter(measure_columns)

"""What importing poolgraph loads: the exact side runs without numpy, and
no module imports another module's private name.

Each check that looks at sys.modules starts a fresh interpreter with
PYTHONPATH=src, because pytest and hypothesis may already have loaded
numpy into this one.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import poolgraph.detection
import poolgraph.enumerator

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "poolgraph"
# A general-form spec file of the benchmark's, read through load_spec.
SPEC_FILE = SRC.parent / "perfbench" / "specs" / "irregular-12.json"


def run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports poolgraph from src/; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exact_commands_do_not_import_numpy():
    out = run_fresh(
        f"""
import contextlib, io, sys

def numpy_loaded():
    return "numpy" in sys.modules

import poolgraph
assert not numpy_loaded(), "import poolgraph"
from poolgraph import cli
assert not numpy_loaded(), "import poolgraph.cli"
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for algorithm in ("comp", "dd"):
        assert cli.main(["enumerate", "--regular", "30,3,6", "--algorithm", algorithm]) == 0
        assert cli.main(["analyze", "--regular", "30,3,6", "--algorithm", algorithm,
                         "--delta-grid", "1/40:1/4:1/40"]) == 0
        assert cli.main(["enumerate", "--spec", {str(SPEC_FILE)!r}, "--algorithm", algorithm]) == 0
        assert cli.main(["analyze", "--spec", {str(SPEC_FILE)!r}, "--algorithm", algorithm,
                         "--delta-grid", "1/40:1/4:1/40"]) == 0
    assert cli.main(["--help"]) == 0
    assert cli.main(["--version"]) == 0
assert not numpy_loaded(), "enumerate, analyze (--regular and --spec), --help, --version"
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["simulate", "--regular", "30,3,6", "--algorithm", "dd", "--delta", "1/10",
                     "--graphs", "2", "--patterns", "50", "--analytic"]) == 0
assert numpy_loaded()
print(out.getvalue().splitlines()[1])
"""
    )
    assert out.startswith("delta,algorithm,")


def test_every_export_resolves():
    out = run_fresh(
        """
import poolgraph
values = {name: getattr(poolgraph, name) for name in poolgraph.__all__}
assert poolgraph.simulate is poolgraph.montecarlo.simulate
assert poolgraph.OracleReport is poolgraph.oracle.OracleReport
assert poolgraph.exact_enumerators is poolgraph.oracle.exact_enumerators
assert not hasattr(poolgraph, "no_such_name")
namespace = {}
exec("from poolgraph import *", namespace)
assert all(namespace[name] is value for name, value in values.items())
print(len(values))
"""
    )
    assert int(out) == len(poolgraph.__all__)


def test_algorithm_has_one_home():
    assert poolgraph.detection.Algorithm is poolgraph.enumerator.Algorithm
    assert poolgraph.Algorithm is poolgraph.enumerator.Algorithm


def test_no_module_imports_another_modules_private_name():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and node.module.split(".")[0] != "poolgraph":
                continue
            for alias in node.names:
                dunder = alias.name.startswith("__") and alias.name.endswith("__")
                if alias.name.startswith("_") and not dunder:
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert not found

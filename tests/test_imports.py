"""Import budget: the package and its light commands start without numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import belltest

ENV = {**os.environ, "PYTHONPATH": str(Path(belltest.__file__).parents[1])}

LIGHT_COMMANDS = [
    ["verify-theorem"],
    ["eval", "--ineq", "ternary"],
    ["eval", "--ineq", "ternary-sym"],
    ["eval", "--ineq", "bell65"],
    ["eval", "--ineq", "chsh"],
    ["eval", "--ineq", "detection", "--source", "qm-real"],
    ["eval", "--ineq", "detection-sym", "--source", "qm-real"],
]


def _python(*argv):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=ENV, timeout=60,
    )


def _imported_modules(importtime_stderr):
    """Module names from `-X importtime` lines ("import time: ... | name")."""
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=" ".join)
def test_light_command_imports_no_numpy(argv):
    result = _python("-X", "importtime", "-m", "belltest", *argv)
    assert result.returncode == 0, result.stderr
    modules = _imported_modules(result.stderr)
    assert "belltest.cli" in modules
    assert not [m for m in modules if m == "numpy" or m.startswith("numpy.")]


@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=" ".join)
def test_light_command_imports_no_dataclasses_or_inspect(argv):
    # Records are core.Record classes: no per-class code generation at start-up.
    result = _python("-X", "importtime", "-m", "belltest", *argv)
    assert result.returncode == 0, result.stderr
    assert not _imported_modules(result.stderr) & {"dataclasses", "inspect"}


def test_mc_still_imports_numpy():
    argv = ["mc", "--pairs", "1000", "--source", "qm-ideal"]
    result = _python("-X", "importtime", "-m", "belltest", *argv)
    assert result.returncode == 0, result.stderr
    assert "numpy" in _imported_modules(result.stderr)


def test_package_import_leaves_numpy_out():
    code = "import sys, belltest; assert 'numpy' not in sys.modules, sorted(sys.modules)"
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr


def test_package_import_leaves_dataclasses_and_inspect_out():
    code = (
        "import sys, belltest; loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
        "assert not loaded, loaded"
    )
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", ["cli", "montecarlo", "optimizer"])
def test_lazy_submodules_resolve(name):
    module = getattr(belltest, name)
    assert module is sys.modules[f"belltest.{name}"]
    assert name in dir(belltest)


def test_star_import_binds_all():
    namespace = {}
    exec("from belltest import *", namespace)
    assert set(belltest.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        belltest.no_such_name
    assert not hasattr(belltest, "no_such_name")

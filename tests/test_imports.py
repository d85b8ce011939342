"""Import budget: each command loads only the layers it runs.

`import belltest` loads only the package file: with
PYTHONDONTWRITEBYTECODE=1 a fresh import adds under 3 ms to a bare
interpreter's start, against 21-25 ms when it also loaded core,
inequalities, lhv and qm (medians of 40 alternating runs on 2 vCPUs).
`eval` loads cli, core, inequalities and qm; `verify-theorem`
and `mc --source lhv` add lhv; `mc` adds numpy, the only command that
does (`scan` writes `--surface` without it). The loaded modules are read
from `sys.modules` in the child, since `-X importtime` omits a submodule
that `from . import x` binds.
"""

import json
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

# A scan finds its optimum and writes --surface without numpy.
NUMPY_FREE_SCANS = [
    ["scan", "--step", "0.25"],
    ["scan", "--step", "0.087890625"],
    ["scan", "--step", "15", "--rounds", "0", "--surface", "s.csv"],
]


def _python(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=ENV, timeout=60, cwd=cwd,
    )


# Runs cli.main(argv) and prints the loaded belltest modules as the last
# line of stderr; exits with main's code.
RUN_MAIN = (
    "import json, sys; from belltest import cli; rc = cli.main(sys.argv[1:]); "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'belltest')), "
    "file=sys.stderr); sys.exit(rc)"
)

LHV_FREE_COMMANDS = [
    *LIGHT_COMMANDS[1:],
    ["scan", "--step", "15", "--rounds", "0"],
    ["mc", "--pairs", "1000", "--source", "qm-ideal"],
    # at the default eta of 0.2, 1000 pairs draw no primed coincidence
    ["mc", "--pairs", "1000", "--source", "qm-real", "--eta", "1"],
]


def _loaded_by_main(*argv):
    result = _python("-c", RUN_MAIN, *argv)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stderr.splitlines()[-1]))


def _imported_modules(importtime_stderr):
    """Module names from `-X importtime` lines ("import time: ... | name")."""
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize("argv", [*LIGHT_COMMANDS, *NUMPY_FREE_SCANS], ids=" ".join)
def test_light_command_imports_no_numpy(argv, tmp_path):
    result = _python("-X", "importtime", "-m", "belltest", *argv, cwd=tmp_path)
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


def test_package_import_loads_no_submodule():
    code = (
        "import sys, belltest; loaded = [m for m in sys.modules if m.startswith('belltest.')]; "
        "assert not loaded, loaded"
    )
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("argv", LHV_FREE_COMMANDS, ids=" ".join)
def test_command_without_lhv_source_loads_no_lhv(argv):
    assert "belltest.lhv" not in _loaded_by_main(*argv)


def test_eval_loads_exactly_its_layers():
    assert _loaded_by_main("eval", "--ineq", "ternary") == {
        "belltest", "belltest.cli", "belltest.core", "belltest.inequalities", "belltest.qm",
    }


def test_verify_theorem_loads_lhv_when_run():
    assert "belltest.lhv" in _loaded_by_main("verify-theorem")


def test_mc_lhv_source_loads_lhv_when_run(tmp_path):
    from belltest import lhv

    model = tmp_path / "model.txt"
    lhv.save_model(lhv.FourAxisModel.uniform(), model)
    argv = ["mc", "--pairs", "1000", "--source", "lhv", "--model", str(model)]
    assert "belltest.lhv" in _loaded_by_main(*argv)


@pytest.mark.parametrize(
    "name", ["cli", "core", "inequalities", "lhv", "montecarlo", "optimizer", "qm"]
)
def test_lazy_submodules_resolve(name):
    module = getattr(belltest, name)
    assert module is sys.modules[f"belltest.{name}"]
    assert name in dir(belltest)


def _assert_reexports_are_home_objects(namespace):
    """Each re-exported name is its home module's object, bound as such in
    namespace (and, once resolved, cached in the package globals)."""
    for name in belltest.__all__:
        value = getattr(belltest, name)
        if name == "__version__" or isinstance(value, type(belltest)):
            continue
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("belltest."), name
        assert namespace[name] is value is getattr(home, name), name
        assert name in dir(belltest)


def test_reexports_are_their_home_objects():
    _assert_reexports_are_home_objects(vars(belltest))


def test_star_import_binds_all():
    namespace = {}
    exec("from belltest import *", namespace)
    assert set(belltest.__all__) <= set(namespace)
    _assert_reexports_are_home_objects(namespace)
    _assert_reexports_are_home_objects(vars(belltest))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        belltest.no_such_name
    assert not hasattr(belltest, "no_such_name")

"""What a process loads: ``import biperiodic`` loads no module, and each CLI command only the ones it runs.

Each check runs in a fresh interpreter, and reads the modules it imported
from ``-X importtime``: a module that a bare interpreter loads at start-up
is listed there too, so only the difference counts.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biperiodic

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: ``dataclasses`` and the modules it imports: no module of the package needs them
UNWANTED = {"dataclasses", "inspect", "ast", "dis"}

#: command -> (argv, the package's modules it loads)
COMMANDS = {
    "term": (["term", "--kind", "fib", "--a", "2", "--b", "3", "--n", "5"], {"cli", "exact", "sequences"}),
    "term-matrix": (["term", "--kind", "lucas", "--a", "2", "--b", "3", "--n", "5", "--method", "matrix"],
                    {"cli", "exact", "sequences", "genmatrix"}),
    "term-binet": (["term", "--kind", "fib", "--a", "2", "--b", "3", "--n", "5", "--method", "binet"],
                   {"cli", "exact", "sequences", "genmatrix", "binet"}),
    "table": (["table", "--a", "2", "--b", "3", "--n-range", "0..10", "--format", "csv"],
              {"cli", "exact", "sequences"}),
    "matrix": (["matrix", "--a", "2", "--b", "3", "--n", "5", "--show", "all"],
               {"cli", "exact", "sequences", "genmatrix"}),
    "verify": (["verify", "--identity", "cassini-fib", "--a-set", "2", "--b-set", "3", "--n-range", "1..4"],
               {"cli", "exact", "sequences", "genmatrix", "binet", "identities"}),
}


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT)


def imported(*args) -> set[str]:
    """The modules ``python -X importtime *args`` lists, after a clean exit."""
    proc = run_python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return imported("-c", "pass")


def submodules(modules: set[str]) -> set[str]:
    return {m.partition(".")[2] for m in modules if m.startswith("biperiodic.")}


def test_import_loads_no_module(bare):
    modules = imported("-c", "import biperiodic")
    assert "biperiodic" in modules
    assert submodules(modules) == set()
    assert not UNWANTED & (modules - bare)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_what_it_runs(bare, command):
    argv, expected = COMMANDS[command]
    modules = imported("-m", "biperiodic", *argv)
    assert submodules(modules) == expected
    assert not UNWANTED & (modules - bare)


def test_every_exported_name_imports():
    # in a fresh process, so that every name is loaded by its first access
    names = ", ".join(biperiodic.__all__)
    script = (f"from biperiodic import {names}\n"
              "import biperiodic, importlib\n"
              "assert set(biperiodic.__all__) <= set(dir(biperiodic))\n"
              "for name in biperiodic.__all__:\n"
              "    module = importlib.import_module('biperiodic.' + biperiodic._MODULE_OF[name])\n"
              "    assert getattr(biperiodic, name) is getattr(module, name), name\n"
              "print(len(biperiodic.__all__))\n")
    proc = run_python("-c", script)
    assert (proc.returncode, proc.stdout) == (0, f"{len(biperiodic.__all__)}\n"), proc.stderr


def test_exports():
    assert len(biperiodic.__all__) == len(set(biperiodic.__all__)) == 49
    assert set(biperiodic.__all__) <= set(dir(biperiodic))
    assert {"binet", "cli", "exact", "genmatrix", "identities", "sequences"}.isdisjoint(biperiodic.__all__)
    assert not hasattr(biperiodic, "no_such_name")
    with pytest.raises(ImportError):
        exec("from biperiodic import no_such_name")

"""The benchmark tracer and the experiment scripts still fit the library, and
the library reads and writes its files from one module."""

import argparse
import ast
import importlib
import os
import subprocess
import sys

import pytest

from conftest import REPO, load_module
from zoneplan.cli import _LEAF_TYPES, _RULES, DEFAULT_CONFIG, _make_parser


def test_every_traced_name_resolves():
    # the tracer wraps functions by name; a renamed one would only show in a traced run
    tracer = load_module(REPO / "bench" / "tracer.py")
    for module_name, names in tracer.TARGETS.items():
        module = importlib.import_module(f"zoneplan.{module_name}")
        for name in names:
            target = module
            for part in name.split("."):
                target = getattr(target, part)
            assert callable(target), f"{module_name}.{name}"
    traced = {f"{m}.{n}" for m, names in tracer.TARGETS.items() for n in names}
    assert set(tracer.COUNTS) <= traced


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


def test_every_flag_is_a_config_key():
    # a flag is shorthand for one config leaf, so it is checked and applied like --set
    leaves = dict(_leaves(DEFAULT_CONFIG))
    subparsers = next(a for a in _make_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    others = []
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if flag is None or flag in ("--config", "--set", "--help"):
                continue
            if (name, flag) == ("count-layouts", "--distinct-zones"):
                continue
            if action.dest not in leaves:
                others.append(f"{name} {flag}: {action.dest}")
    assert others == []


def test_every_null_default_key_declares_its_type():
    # a null default names no type, so the config check reads the one its key declares
    nulls = {name for name, value in _leaves(DEFAULT_CONFIG) if value is None}
    declared = {key for key in _LEAF_TYPES if isinstance(key, str)}
    assert nulls and declared == nulls
    assert all(_LEAF_TYPES[key] in _LEAF_TYPES for key in declared)



def test_every_rule_names_a_config_leaf_its_default_passes():
    # a rule on a misspelt key would never run, and one its default fails
    # would stop every command
    leaves = dict(_leaves(DEFAULT_CONFIG))
    assert set(_RULES) <= set(leaves)
    failing = [key for key, (_, ok) in _RULES.items() if not ok(leaves[key])]
    assert failing == []

SCRIPT_RUNS = {
    "run_known_optimum": (["--seeds", "2"],
                          "seed,final_objective,gap,iterations_to_best,recovered"),
    "run_dimension_sweep": (["--seeds", "2", "--days", "2", "--dims", "1", "3"],
                            "d,seed,oracle_energy_wh"),
}


@pytest.mark.parametrize("script", list(SCRIPT_RUNS))
def test_script_writes_its_csv(tmp_path, monkeypatch, script):
    options, header = SCRIPT_RUNS[script]
    out = tmp_path / "result.csv"
    argv = [script, "--counts", "2", "2", "2", "2", *options, "--out", str(out)]
    monkeypatch.setattr("sys.argv", argv)
    assert load_module(REPO / "scripts" / f"{script}.py").main() == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    assert len(lines) > 1


# open() and the methods and functions that open a file by its path
_FILE_CALLS = {
    "open", "read_text", "read_bytes", "write_text", "write_bytes",
    "load", "loadtxt", "genfromtxt", "fromfile", "save", "savetxt", "savez", "tofile",
}


def _opens_a_file(call: ast.Call) -> bool:
    """Whether a call is open(), or a call such as Path.read_text() or json.load()."""
    if isinstance(call.func, ast.Name):
        return call.func.id == "open"
    return isinstance(call.func, ast.Attribute) and call.func.attr in _FILE_CALLS


def test_only_ingest_opens_files():
    # every input is read and every output written through ingest, so each
    # file format and its error messages are decided in one module
    openers = []
    for path in sorted((REPO / "src" / "zoneplan").glob("*.py")):
        if path.name == "ingest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _opens_a_file(node):
                openers.append(f"{path.name}:{node.lineno}")
    assert openers == []


def test_only_the_state_grid_builds_a_calendar():
    # hour, weekday and weekend follow from a state grid's start and length,
    # so StateGrid.calendar is the one place that builds them and no
    # function takes a calendar that could disagree with its grid
    params, builders = [], []
    paths = sorted((REPO / "src" / "zoneplan").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                if "calendar" in names:
                    params.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and path.name != "states.py":
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "StepCalendar":
                    builders.append(f"{path.name}:{node.lineno}")
    assert params == []
    assert builders == []


def test_cli_import_leaves_scipy_spatial_out():
    # scipy.spatial costs every command's start-up, and no command needs it
    code = "import sys, zoneplan.cli; print('scipy.spatial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"

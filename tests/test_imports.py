"""The package's imports: the numpy-only north star, and learner modules that
know nothing of the robot."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vsloco"
THIRD_PARTY = {"numpy", "yaml"}
ROBOT_MODULES = {"env", "dynamics", "actuation", "model", "rewards", "randomization", "shards"}
LEARNER_MODULES = ("networks.py", "checkpoint.py")


def imported_names(path):
    """The absolute dotted name of each import in a module of the package:
    'vsloco.x...' for a package module, relative imports resolved."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "vsloco" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            names += [f"{module}.{alias.name}" for alias in node.names]
    return names


def test_the_package_imports_only_the_standard_library_numpy_and_yaml():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 12
    allowed = set(sys.stdlib_module_names) | THIRD_PARTY | {"vsloco"}
    for path in modules:
        for name in imported_names(path):
            assert name.split(".")[0] in allowed, (path.name, name)


@pytest.mark.parametrize("module", LEARNER_MODULES)
def test_learner_modules_import_no_robot_module(module):
    names = imported_names(PACKAGE / module)
    assert names
    robot = [name for name in names if name.startswith("vsloco.")
             and name.split(".")[1] in ROBOT_MODULES]
    assert robot == [], module

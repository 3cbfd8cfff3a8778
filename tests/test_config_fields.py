"""Every field of the package's configuration dataclasses is read somewhere
in the package, outside its own class body: a field nothing reads is a
setting that does nothing."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vsloco"
CONFIG_CLASSES = ("EnvConfig", "TrainConfig", "DomainRandomizationConfig")


def parsed_modules():
    return [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]


def config_fields(modules):
    """{class name: its annotated field names} of each class in CONFIG_CLASSES."""
    found = {}
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                found[node.name] = [stmt.target.id for stmt in node.body
                                    if isinstance(stmt, ast.AnnAssign)
                                    and isinstance(stmt.target, ast.Name)]
    return found


def attributes_read(node, skip_class):
    """The names of the attributes node loads, outside the body of skip_class."""
    if isinstance(node, ast.ClassDef) and node.name == skip_class:
        return set()
    names = set()
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        names.add(node.attr)
    for child in ast.iter_child_nodes(node):
        names |= attributes_read(child, skip_class)
    return names


@pytest.mark.parametrize("class_name", CONFIG_CLASSES)
def test_every_config_field_is_read_outside_its_class(class_name):
    modules = parsed_modules()
    fields = config_fields(modules)[class_name]
    assert fields
    read = set().union(*(attributes_read(tree, class_name) for tree in modules))
    assert [name for name in fields if name not in read] == []

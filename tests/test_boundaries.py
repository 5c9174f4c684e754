"""Module boundaries that other code relies on: the engine never imports the
reference module, only ``objects`` lays out an instrument's operators and
validates it (``cli`` also reports a fresh validation), the package exports
no submodule, every public function of ``serialize`` serves a command or a
documented file format, and every per-layer metric of the benchmark names a
function or class that still lives in the module it is attributed to."""

import ast
import importlib
import json
from pathlib import Path
from types import ModuleType

import pytest
from conftest import readme_section

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "infobalance"
ENGINE = ("objects", "tensors", "measures", "recovery", "encodings", "families", "serialize", "cli")


def imported_modules(tree):
    """Absolute names of the package modules imported anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "infobalance" if node.level else ""
            module = ".".join(filter(None, [base, node.module or ""]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", ENGINE)
def test_engine_does_not_import_reference(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert "infobalance.dilation" not in set(imported_modules(tree))


def calls_in(tree, name):
    """Enclosing top-level function of each call of ``name``, as a function
    or a method, anywhere in ``tree``."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    yield getattr(top, "name", "<module>")


OUTSIDE_OBJECTS = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "objects")


@pytest.mark.parametrize("module", OUTSIDE_OBJECTS)
def test_only_objects_builds_povm_elements(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert list(calls_in(tree, "povm_element")) == []


@pytest.mark.parametrize("module", OUTSIDE_OBJECTS)
def test_only_the_validate_subcommand_calls_validate(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    expected = ["cmd_validate"] if module == "cli" else []
    assert list(calls_in(tree, "validate")) == expected


def per_layer_targets():
    """(module, name) of every per-layer metric ``<module>.<name>.<counter>``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"].split(".") for metric in spec["per_layer"]]
    return sorted({(parts[0], parts[1]) for parts in names if len(parts) == 3})


@pytest.mark.parametrize("module, name", per_layer_targets())
def test_per_layer_metric_names_a_traced_definition(module, name):
    mod = importlib.import_module(f"infobalance.{module}")
    assert getattr(getattr(mod, name, None), "__module__", None) == mod.__name__


def test_package_exports_no_module():
    package = importlib.import_module("infobalance")
    modules = [name for name in package.__all__ if isinstance(getattr(package, name), ModuleType)]
    assert modules == []


def public_functions(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


@pytest.mark.parametrize("name", public_functions("serialize"))
def test_every_serializer_is_called_by_the_cli_or_documented(name):
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert list(calls_in(cli, name)) or f"`{name}`" in readme_section("File formats")

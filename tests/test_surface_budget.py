"""The numbers ROADMAP quotes about the product's surface, as assertions.

A new config field or CLI subcommand, or growth of ``src/``, has to raise
a ceiling here, in a reviewed diff; a config field nothing in the product
reads fails outright, and so does a second transport class.
"""

import ast
import importlib
import pkgutil
from dataclasses import fields
from pathlib import Path

import repro
from repro.agents.transport import Transport
from repro.cli import build_parser
from repro.core.config import GeomancyConfig

SRC = Path(repro.__file__).parent
#: harness and CLI code consumes the product; a field only they read is a
#: parameter of theirs, not configuration of what ``Geomancy(...)`` builds
CONSUMERS = ("experiments", "cli.py")

CONFIG = SRC / "core" / "config.py"

MAX_CONFIG_FIELDS = 52
MAX_CLI_SUBCOMMANDS = 21
#: ``find src -name '*.py' | xargs cat | wc -l``
MAX_SRC_LINES = 21_322


def attributes_read_by_the_product() -> set[str]:
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        # The config's own validators are not readers either.
        if path.relative_to(SRC).parts[0] in CONSUMERS or path == CONFIG:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                names.add(node.attr)
    return names


def test_every_config_field_is_read_by_the_product():
    read = attributes_read_by_the_product()
    unread = [f.name for f in fields(GeomancyConfig) if f.name not in read]
    assert unread == []


def test_config_field_ceiling():
    assert len(fields(GeomancyConfig)) <= MAX_CONFIG_FIELDS


def test_cli_subcommand_ceiling():
    (subparsers,) = [
        action for action in build_parser()._actions
        if hasattr(action, "choices") and action.dest == "command"
    ]
    assert len(subparsers.choices) <= MAX_CLI_SUBCOMMANDS


def test_src_line_ceiling():
    lines = sum(
        path.read_text().count("\n") for path in SRC.rglob("*.py")
    )
    assert lines <= MAX_SRC_LINES


def test_each_grid_experiment_is_defined_once():
    """No trampoline: the module that owns a figure defines its ``run_*``."""
    grids = ("run_fig5a", "run_fig5b", "run_robustness", "run_table2")
    defined = [
        node.name
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in grids
    ]
    assert sorted(defined) == sorted(grids)


def test_there_is_one_transport_class():
    """Lanes, bound and faults are arguments of the one channel, not types."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name != "repro.__main__":  # importing it runs the CLI
            importlib.import_module(module.name)
    assert Transport.__subclasses__() == []

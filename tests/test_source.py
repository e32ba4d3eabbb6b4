"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import knockint

SOURCES = sorted(p for p in Path(knockint.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def unused_imports(source: str) -> list:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    source = "import io\nimport os.path\nfrom json import dumps, loads as ld\nld('1')\n"
    assert unused_imports(source) == [(1, "io"), (2, "os"), (3, "dumps")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def filter_weight_reads(source: str) -> list:
    """Lines that read attribute ``z`` or ``z_tilde``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("z", "z_tilde"))


def test_filter_weight_reads_detected():
    assert filter_weight_reads("a = net.z\nb = 1\nc = x.z_tilde + x.zz\n") == [1, 3]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "network.py"],
                         ids=lambda p: p.name)
def test_only_network_reads_filter_weights(path):
    # The coupling layer's map and its transpose (network.pull_back) are
    # network.py's alone; every other module works through them.
    assert filter_weight_reads(path.read_text()) == []

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


# json.dumps may still print to stdout; these four read or write a file.
FILE_FORMAT_CALLS = {("json", "load"), ("json", "dump"), ("np", "load"), ("np", "savez")}


def file_format_calls(source: str) -> list:
    """Lines that call ``json.load``, ``json.dump``, ``np.load`` or ``np.savez``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)
                  and (node.func.value.id, node.func.attr) in FILE_FORMAT_CALLS)


def test_file_format_calls_detected():
    source = "json.dump(x, fh)\nprint(json.dumps(x))\nnp.load(p)\nnp.loadtxt(p)\nnp.savez(f)\n"
    assert file_format_calls(source) == [1, 3, 5]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "table.py"],
                         ids=lambda p: p.name)
def test_only_table_reads_and_writes_json_and_npz(path):
    # Every file format, and the check that a file is what it claims to be,
    # is table.py's alone.
    assert file_format_calls(path.read_text()) == []


def top_level_names(source: str) -> list:
    """Names a module defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def references(source: str) -> set:
    """Names a module reads, imports, or spells as a string (as bench/tracer.py does)."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_unreferenced_names_detected():
    refs = references("A = 1\nB = A\ndef f():\n    pass\n") | references("g()\nx.h\n'k'\n")
    source = "A = 1\nB = A\ndef f():\n    pass\ndef g():\n    pass\nclass h:\n    pass\nk = 0\n"
    assert [n for n in top_level_names(source) if n not in refs] == ["B", "f"]


ROOT = Path(__file__).resolve().parents[1]
REFERENCES = set().union(*(references(p.read_text()) for d in ("src", "tests", "bench")
                           for p in sorted((ROOT / d).rglob("*.py"))))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "knockint").glob("*.py")),
                         ids=lambda p: p.name)
def test_every_top_level_name_is_referenced(path):
    assert [n for n in top_level_names(path.read_text()) if n not in REFERENCES] == []

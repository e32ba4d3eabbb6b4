"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import knockint
from knockint.harness import ExperimentConfig
from knockint.importance import AttributionConfig
from knockint.network import TrainConfig
from knockint.simsuite import SimulationSpec

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


def score_matrix_reads(source: str, table: str | None = None) -> list:
    """Lines that read attribute ``calibrated`` or ``s2d``, outside the entries
    of the dict assigned to the name ``table``."""
    tree = ast.parse(source)
    inside = {id(node) for assign in ast.walk(tree) if table and isinstance(assign, ast.Assign)
              and [getattr(t, "id", None) for t in assign.targets] == [table]
              for entry in assign.value.values for node in ast.walk(entry)}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in inside
                  and isinstance(node, ast.Attribute) and node.attr in ("calibrated", "s2d"))


def test_score_matrix_reads_detected():
    assert score_matrix_reads("S = scores.calibrated\nb = 1\nc = abs(x.s2d) + x.s1d\n") == [1, 3]


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name not in ("importance.py", "harness.py")],
                         ids=lambda p: p.name)
def test_only_importance_and_harness_read_score_matrices(path):
    # harness.CALIBRATIONS alone chooses the matrix an arm ranks (calibrated or
    # raw |2D|), so run and evaluate cannot rank different scores.
    assert score_matrix_reads(path.read_text()) == []


def test_score_matrix_reads_outside_calibrations_detected():
    source = ('CALIBRATIONS = {"on": lambda s: s.calibrated,\n'
              '                "off": lambda s: abs(s.s2d)}\n'
              'def arm_scores(s, c):\n'
              '    return s.calibrated if c == "on" else abs(s.s2d)\n'
              'OTHER = {"on": lambda s: s.s2d}\nx = CALIBRATIONS["on"](s).s1d\n')
    assert score_matrix_reads(source, "CALIBRATIONS") == [4, 4, 5]


def test_only_calibrations_reads_score_matrices_in_harness():
    # In harness.py each calibration's matrix is read in its CALIBRATIONS entry
    # alone; select_arm and score_selection look the entry up.
    harness = Path(knockint.__file__).parent / "harness.py"
    assert score_matrix_reads(harness.read_text(), "CALIBRATIONS") == []


PARAM_TABLE = ("named_params", "_param_fields")  # the table and its inverse


def param_name_spellings(source: str) -> list:
    """Lines outside the ``PARAM_TABLE`` functions that spell a parameter name:
    ``"z"``, ``"z_tilde"``, ``"w0"``..``"b3"``, ``f"w{l}"`` or ``f"b{l}"``."""
    tree = ast.parse(source)
    table = {id(node) for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name in PARAM_TABLE
             for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in table and (
        isinstance(node, ast.Constant) and node.value in ("z", "z_tilde", *(
            f"{k}{l}" for k in "wb" for l in range(4)))
        or isinstance(node, ast.JoinedStr) and len(node.values) == 2
        and getattr(node.values[0], "value", None) in ("w", "b")))


def test_param_name_spellings_detected():
    source = ('x = {"z": 1}\ndef named_params(self):\n    return {f"w{l}": 1, "z_tilde": 2}\n'
              'y = f"b{k}"\nu = f"w{l}_x"\nv = "w3"\nnet.z\nf(z=1)\n')
    assert param_name_spellings(source) == [1, 4, 6]


def test_only_the_parameter_table_spells_parameter_names():
    # network.py names each parameter once, in CoupledNetwork.named_params, and
    # reads the names back once, in its inverse _param_fields; the finite
    # check, the saved file and the training buffer all go through these two.
    network = Path(knockint.__file__).parent / "network.py"
    assert param_name_spellings(network.read_text()) == []


# The names network.py gives a flat buffer of every parameter: _on_buffer's
# argument, train's parameters and gradients, the Adam moments and the
# scratch buffers (the L1 penalty names its one ``scratch``).
PARAM_BUFFERS = ("buf", "theta", "grad", "m", "v", "tmp", "tmp2", "scratch")


def buffer_subscripts(source: str) -> list:
    """Lines outside ``_on_buffer`` that index or slice a name or attribute in
    ``PARAM_BUFFERS``."""
    tree = ast.parse(source)
    layout = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_on_buffer"
              for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and id(node) not in layout
                  and getattr(node.value, "id", getattr(node.value, "attr", None))
                  in PARAM_BUFFERS)


def test_buffer_subscripts_detected():
    source = ("g = grads.buf[:n_w]\ntheta[k] = 1\nx = X[:, :p]\n"
              "def _on_buffer(net, buf):\n    return buf[0:3]\nd = tmp[-2 * p:]\n"
              "e = net.w[0][:2]\n")
    assert buffer_subscripts(source) == [1, 2, 6]


def test_only_on_buffer_lays_out_the_parameter_buffer():
    # _on_buffer alone knows where a parameter sits in the flat buffer; train
    # and its gradients reach each parameter by name through the views it
    # makes, so no offset assumes an order of the parameter table.
    network = Path(knockint.__file__).parent / "network.py"
    assert buffer_subscripts(network.read_text()) == []


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


MANIFEST_KEYS = ("n_train", "ground_truth_pairs")


def manifest_key_spellings(source: str) -> list:
    """Lines that spell a dataset manifest key as a string."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and node.value in MANIFEST_KEYS)


def test_manifest_key_spellings_detected():
    source = 'm["n_train"]\nd.n_train\nm.get("ground_truth_pairs")\nx = "n_train_x"\nf(n_train=1)\n'
    assert manifest_key_spellings(source) == [1, 3]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "simsuite.py"],
                         ids=lambda p: p.name)
def test_only_simsuite_spells_manifest_keys(path):
    # The manifest format, and the checks on each of its entries, are
    # simsuite.py's alone; every other module asks read_manifest.
    assert manifest_key_spellings(path.read_text()) == []


def module_imports(source: str, module: str) -> list:
    """Lines that import ``module`` or one of its submodules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
            modules = [node.module]
        else:
            continue
        if any(name.split(".")[0] == module for name in modules):
            lines.append(node.lineno)
    return sorted(lines)


def test_scipy_imports_detected():
    source = ("import scipy\nfrom scipy import linalg\nimport scipyx\n"
              "from scipy.stats import rankdata\nimport numpy, scipy.linalg as sl\n"
              "from .scipy import x\n")
    assert module_imports(source, "scipy") == [1, 2, 4, 5]


@pytest.mark.parametrize("path", sorted(Path(knockint.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_knockoff_imports_scipy(path):
    # No module imports scipy, knockoff.py included: numpy is the package's
    # one runtime dependency, and scipy is the tests' independent oracle.
    assert module_imports(path.read_text(), "scipy") == []


TEXT_TABLE_CALLS = {("np", "loadtxt"), ("np", "savetxt"), ("np", "genfromtxt")}


def text_table_code(source: str) -> list:
    """Lines that import ``csv`` or call ``np.loadtxt``, ``np.savetxt`` or ``np.genfromtxt``."""
    return sorted(module_imports(source, "csv") + [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and (node.func.value.id, node.func.attr) in TEXT_TABLE_CALLS])


def test_text_table_code_detected():
    source = ("import csv\nfrom csv import reader\nimport csvx\nnp.loadtxt(p)\n"
              "np.savetxt(p, x)\nnp.genfromtxt(p)\nnp.load(p)\nfrom .csv import x\n"
              "import os, csv as c\nnp.fromfile(p)\n")
    assert text_table_code(source) == [1, 2, 4, 5, 6, 9]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "table.py"],
                         ids=lambda p: p.name)
def test_only_table_parses_and_formats_csv(path):
    # The table format, its cell grammar and its bulk reader and writer are
    # table.py's alone.
    assert text_table_code(path.read_text()) == []


def test_import_loads_no_scipy():
    # A fresh interpreter that imports knockint and fits and samples
    # knockoffs loads no scipy module.
    env = {**os.environ, "PYTHONPATH": str(Path(knockint.__file__).parents[1])}
    script = ("import sys, numpy as np, knockint\n"
              "X = np.random.default_rng(0).standard_normal((50, 4))\n"
              "knockint.sample_knockoffs(X, knockint.fit_gaussian(X), seed=1)\n"
              "print(*sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    loaded = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert loaded == []


def modules_loaded_by(statement: str) -> list:
    """Top-level packages outside the standard library that ``statement``,
    run in a fresh interpreter, loads beyond those loaded at start-up."""
    env = {**os.environ, "PYTHONPATH": str(Path(knockint.__file__).parents[1])}
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              f"{statement}\n"
              "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}"
              " - set(sys.stdlib_module_names)))\n")
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def test_third_party_imports_detected():
    assert modules_loaded_by("import knockint, pluggy") == ["knockint", "numpy", "pluggy"]


def test_import_loads_no_third_party_module_but_numpy():
    # `import knockint` is most of the benchmark's set-up time, so a new
    # dependency shows there first.
    assert modules_loaded_by("import knockint") == ["knockint", "numpy"]


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


# The pipeline rules the CLI stage commands reach through harness's stage
# functions (make_knockoffs, fit_network, select_arm, score_selection).
STAGE_RULE_CALLS = ("fit_gaussian", "sample_knockoffs", "init_network", "train",
                    "build_gamma", "interaction_threshold", "evaluate")


def stage_rule_calls(source: str) -> list:
    """Lines that call one of ``STAGE_RULE_CALLS``, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  in STAGE_RULE_CALLS)


def test_stage_rule_calls_detected():
    source = ("train(net)\ncmd_train(a)\nmetrics.evaluate(s)\nf = build_gamma\n"
              "harness.fit_network(d)\nm.fit_gaussian(X)\n")
    assert stage_rule_calls(source) == [1, 3, 6]


def test_cli_calls_no_stage_rule_directly():
    # run and each stage command share one function per stage in harness, so
    # a repetition's saved files rerun stage by stage to the same bytes.
    cli = Path(knockint.__file__).parent / "cli.py"
    assert stage_rule_calls(cli.read_text()) == []


def validate_uses(source: str) -> list:
    """Lines that define or call a function or method named ``validate``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef) and node.name == "validate"
                  or isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "validate")


def test_validate_uses_detected():
    source = ("cfg.validate()\nvalidate(x)\nf = cfg.validate\nclass C:\n"
              "    def validate(self):\n        pass\ncfg.validated()\n")
    assert validate_uses(source) == [1, 2, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_defines_or_calls_validate(path):
    # A config checks itself when it is made, so no stage has a check to
    # call, or to forget.
    assert validate_uses(path.read_text()) == []


def unchecked_configs(classes) -> list:
    """Names of the dataclasses in ``classes`` that are not frozen, or that
    define no ``__post_init__`` to check themselves when made."""
    return [cls.__name__ for cls in classes
            if not (cls.__dataclass_params__.frozen and "__post_init__" in vars(cls))]


def test_unchecked_configs_detected():
    @dataclass
    class Mutable:
        def __post_init__(self):
            pass

    @dataclass(frozen=True)
    class Unchecked:
        pass

    @dataclass(frozen=True)
    class Checked:
        def __post_init__(self):
            pass

    assert unchecked_configs([Mutable, Unchecked, Checked]) == ["Mutable", "Unchecked"]


def test_configs_are_frozen_and_check_themselves():
    configs = [SimulationSpec, TrainConfig, AttributionConfig, ExperimentConfig]
    assert unchecked_configs(configs) == []

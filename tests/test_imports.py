"""Every import in `src/strposet` is used, every exported name is run by
the library or the benchmark, the modules import each other only down the
layers, and every name the benchmark tracer patches exists: stdlib `ast`
scans."""

import ast
import importlib
from pathlib import Path

import pytest

import strposet

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "strposet"
BENCH = REPO / "bench"


def unused_imports(source: str) -> list[str]:
    """``"<line>: <name>"`` for each imported name the module never reads.

    A name counts as read when it appears as a bare name anywhere in the
    module (attribute chains start with one) or is listed in ``__all__``.
    ``from __future__`` imports are compiler directives and are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in
            sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_unused_import_scan():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Iterable, Optional\n"
        "from .core import bits_of, mask_of\n"
        "__all__ = ['mask_of']\n"
        "def f(x: Optional[int]) -> str:\n"
        "    return os.path.join(js.dumps(x))\n")
    assert unused_imports(source) == ["4: Iterable", "5: bits_of"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names_read(sources: list[str]) -> set[str]:
    """Every bare name and every attribute name the sources read."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_names_read_scan():
    source = ("from .core import bits_of\n"
              "def f(frag):\n"
              "    return frag.up, w_max(frag)\n")
    assert names_read([source]) == {"frag", "up", "w_max"}


def test_every_export_is_read_by_the_library_or_the_benchmark():
    """A name in ``__all__`` that only tests read belongs in the tests."""
    paths = [path for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"] + sorted(BENCH.glob("*.py"))
    read = names_read([path.read_text(encoding="utf-8") for path in paths])
    assert [name for name in strposet.__all__ if name not in read] == []


def package_imports(source: str) -> set[str]:
    """The package modules a module imports, by relative import."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules.update([node.module] if node.module
                           else [alias.name for alias in node.names])
    return modules


def test_package_imports_scan():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "from .core import bits_of\n"
              "from . import models\n"
              "def f():\n"
              "    from .structure import str_leq\n")
    assert package_imports(source) == {"core", "models", "structure"}


# Each module may import only the modules listed for it, and every module
# is listed.  The battery is a property of the fragment, so reconstruction
# does not read conditions.
LAYERS = {
    "core": set(),
    "structure": {"core"},
    "conditions": {"core"},
    "models": {"core"},
    "reconstruction": {"core", "structure"},
    "cli": {"core", "structure", "conditions", "models", "reconstruction"},
}


@pytest.mark.parametrize("module", sorted(
    path.stem for path in PACKAGE.glob("*.py")
    if not path.stem.startswith("__")))
def test_module_graph(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert package_imports(source) - LAYERS[module] == set()


def traced_names() -> list[tuple[str, str]]:
    """The (module, attribute or Class.method) pairs that ``TRACED`` and
    ``LEAVES`` in ``bench/tracer.py`` name, read without importing it."""
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    entries = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TRACED",
                                                              "LEAVES"):
                entries[target.id] = ast.literal_eval(node.value)
    assert set(entries) == {"TRACED", "LEAVES"}
    return [(module, attr) for module, attr, _ in
            entries["TRACED"] + entries["LEAVES"]]


@pytest.mark.parametrize("module,attr", traced_names(),
                         ids=lambda value: value)
def test_every_traced_name_resolves(module, attr):
    """The benchmark tracer patches these by name; a rename would crash its
    ``--trace`` runs."""
    owner = importlib.import_module(f"strposet.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))

"""Static hygiene of the package source: no unused imports, no stale exports.

Parsed with ``ast`` only, so the check needs no linter. A name bound by a
module-level ``from .x import y`` must be used in the module or re-exported
through its ``__all__``, unless its line carries ``# noqa: F401`` (the
pyflakes marker for an import kept on purpose); every ``__all__`` entry must
be defined there.  A dense N x N ``kernel_matrix`` is assembled only where
``DENSE_ASSEMBLY`` allows it; every other kernel application goes through
``operators.discretize``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "czframe"
MODULES = sorted(SRC.glob("*.py"))
# (module, top-level function): the dense backend of discretize, the dense
# oracle matrix, and the bounded weak-compactness reference grid.
DENSE_ASSEMBLY = {
    ("operators", "discretize"),
    ("compactness", "operator_matrix"),
    ("localization", "weak_compactness_profile"),
}


def _parse(path: Path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}  # bound name -> module it was imported from
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if lines[node.lineno - 1].endswith("# noqa: F401"):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.module
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = [ast.literal_eval(e) for e in node.value.elts]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported, defined | set(imported), exported, used


def _calls(tree, name):
    """(enclosing top-level def or class, line) of every call to ``name``."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee == name:
                    yield getattr(top, "name", None), node.lineno


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "reporting.py", "geometry.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    imported, _, exported, used = _parse(path)
    unused = sorted(f"{name} (from {mod})" for name, mod in imported.items()
                    if name not in used and name not in exported)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_are_defined(path):
    _, defined, exported, _ = _parse(path)
    missing = sorted(set(exported) - defined)
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


def test_checker_sees_an_unused_import_and_a_stale_export(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .geometry import dist, mul\n"
        "from .grids import smooth_bump  # noqa: F401\n"
        "__all__ = ['gone']\n"
        "def f():\n"
        "    return mul\n"
    )
    imported, defined, exported, used = _parse(bad)
    assert {n for n in imported if n not in used and n not in exported} == {"dist"}
    assert set(exported) - defined == {"gone"}


def test_dense_kernel_assembly_is_confined():
    stray = [f"{p.stem}.{owner} (line {line})" for p in MODULES
             for owner, line in _calls(ast.parse(p.read_text()), "kernel_matrix")
             if (p.stem, owner) not in DENSE_ASSEMBLY]
    assert not stray, f"kernel_matrix called outside {sorted(DENSE_ASSEMBLY)}: {stray}"


def test_checker_sees_kernel_matrix_calls():
    tree = ast.parse(
        "K = kernel_matrix(k, g)\n"
        "def f():\n"
        "    return operators.kernel_matrix(k, g) * h\n"
        "class C:\n"
        "    def m(self):\n"
        "        return kernel_matrix\n"
    )
    assert list(_calls(tree, "kernel_matrix")) == [(None, 1), ("f", 3)]

"""Every public export list names something that exists and that library code
uses, README's Python examples run, and ``import fgle`` is the run API that
README imports.

A deleted function left in an ``__all__`` list breaks ``from fgle.<module>
import *`` only for the caller who tries it; here it fails in under a second.
"""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fgle

MODULES = ["fgle"] + [f"fgle.{m.name}" for m in pkgutil.iter_modules(fgle.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    exec(f"from {name} import *", {})


def _exports(tree) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "__all__":
            return list(ast.literal_eval(stmt.value))
    return []


def _reads(tree, skip=None) -> set[str]:
    """The names and attributes ``tree`` reads, outside its top-level definition of ``skip``."""
    return {
        getattr(node, "id", getattr(node, "attr", None))
        for stmt in tree.body if getattr(stmt, "name", None) != skip
        for node in ast.walk(stmt) if isinstance(getattr(node, "ctx", None), ast.Load)
    }


def test_every_export_has_a_library_caller():
    # cli.main has one too: the module's ``__main__`` block
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(fgle.__file__).parent.glob("*.py")}
    uncalled = [
        f"{module}.{name}"
        for module, tree in trees.items() for name in _exports(tree)
        if not any(name in _reads(t, name if t is tree else None) for t in trees.values())
    ]
    assert uncalled == []


README = Path(__file__).parents[1] / "README.md"

# Run in a fresh interpreter: in this one, other tests have imported every module.
FRESH_IMPORT = """
import json, sys, types
import fgle
fgle.stepper.build_system_matrix, fgle.wsgd.assemble_operator  # the benchmark's set-up
print(json.dumps({
    "loaded": [m for m in ("fgle.experiments", "fgle.spectral", "fgle.cli") if m in sys.modules],
    "public": sorted(n for n, v in vars(fgle).items()
                     if not n.startswith("_") and not isinstance(v, types.ModuleType)),
}))
"""


def test_namespace_is_the_readme_run_api():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    imported = re.findall(r"^from fgle import (.+)$", "".join(blocks), re.M)
    readme_names = sorted(n.strip() for line in imported for n in line.split(","))
    path = [str(Path(fgle.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT], capture_output=True, text=True,
                          env=env, check=True)
    fresh = json.loads(proc.stdout)
    assert fresh["loaded"] == []
    assert readme_names and fresh["public"] == readme_names


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out, f"README example printed nothing:\n{block}"


def _names_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "scipy"
    return isinstance(node, ast.Name) and node.id == "scipy"


def _statement_name(stmt) -> str:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return "import"
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return ast.unparse(stmt.targets[0] if isinstance(stmt, ast.Assign) else stmt.target)
    return getattr(stmt, "name", ast.unparse(stmt))


def test_scipy_is_used_only_by_the_lu():
    # the package's scipy boundary: its import and the two LU sites in linalg
    sites = set()
    for path in Path(fgle.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if any(_names_scipy(node) for node in ast.walk(stmt)):
                sites.add((path.name, _statement_name(stmt)))
    assert sites == {
        ("linalg.py", "import"), ("linalg.py", "_GETRS"), ("linalg.py", "lu_factor")
    }


def test_no_library_code_forms_the_dense_operator():
    # every run and every verify check reads the operator's column: no call of a
    # Cholesky factorization and no read of the dense OperatorMatrix.C
    sites = []
    for path in Path(fgle.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            called = node.func if isinstance(node, ast.Call) else None
            if getattr(called, "id", getattr(called, "attr", None)) == "cholesky" or (
                isinstance(node, ast.Attribute) and node.attr == "C"
                and isinstance(node.ctx, ast.Load)
            ):
                sites.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert sites == []

"""Properties of the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tlbases

SRC = Path(tlbases.__file__).resolve().parent


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so no invariant may rest on one
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"bare assert statements: {found}"


def test_only_tangles_imports_sympy():
    # calibration solves for its scalars with sympy; every other module
    # computes over Z[v, v^-1] with the package's own kernel
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "tangles.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno}" for name in names
                         if name.split(".")[0] == "sympy")
    assert not found, f"sympy imported outside tangles.py: {found}"


def test_importing_the_package_leaves_sympy_unloaded():
    # calibration imports sympy when it solves; a cold import costs about
    # 0.3 s, which a job that never calibrates should not pay
    code = "import sys, tlbases, tlbases.cli; print('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_trusted_tangles_are_built_only_in_tangles():
    # Tangle._from_edges skips validation; only the module whose composition
    # and edge folding guarantee a valid result may call it
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "tangles.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "_from_edges")
    assert not found, f"Tangle._from_edges used outside tangles.py: {found}"


def test_no_function_takes_a_tuning_knob():
    # resource bounds are module constants (coxeter.CLASS_CAP, STRATUM_CAP,
    # verify.CONFLUENCE_COUNT), not parameters threaded through the calls
    knobs = {"cap", "class_cap", "opts"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + \
                    [p for p in (a.vararg, a.kwarg) if p]
                found.extend(f"{path.name}:{node.lineno} {p.arg}" for p in params
                             if p.arg in knobs)
    assert not found, f"tuning parameters: {found}"
